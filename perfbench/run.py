"""necktree benchmark: one workload run, measured in fresh processes.

    python3 perfbench/run.py --workload recursive-walk --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run and the tracing overhead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import worker
from worker import HERE, OUT_DIR, ROOT

WORKER = HERE / "worker.py"
SETUP_PROBES = 10
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start the worker, wait for it; (spawn time, its JSON result)."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return spawned, json.loads(lines[-1])


def setup_time(spawned: float, result: dict) -> tuple[float, float]:
    """Set-up seconds of one start: as measured, and at the reference speed
    at which ``worker.calibrate`` takes ``worker.CAL_REF_MS``."""
    raw = result["ready"] - spawned
    return raw, raw * worker.CAL_REF_MS / result["setup_calibrate_ms"]


def probe(common: list[str], deadline: float) -> tuple[float, float]:
    """Set-up time of one fresh worker that runs no job."""
    return setup_time(*spawn([*common, "--seconds", "0", "--probe"], deadline))


def report(workload: str, args, result: dict, units: list[tuple[str, str]], extra: list[str]) -> None:
    env = result["env"]
    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"env: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} numpy={env['numpy']}")
    for name, unit in units:
        print(f"  {name:<36} {result['metrics'][name]:>14.6g} {unit}")
    for line in extra:
        print(line)
    for f in result["failures"][:5]:
        print(f"  failed job {f['job']} ({f['kind']}, seed {f['seed']}): {f['error']} {f['detail'][:80]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=worker.workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "necktree" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no necktree sources under {ROOT / 'src'}\n")
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    run_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        if args.trace:
            _, result = spawn(run_args, deadline)
        else:
            # Half the set-up probes run before the workload and half after,
            # so that the median spans the run's whole window of machine load.
            setups = [probe(common, deadline) for _ in range(SETUP_PROBES // 2)]
            spawned, result = spawn(run_args, deadline)
            setups.append(setup_time(spawned, result))
            setups += [probe(common, deadline) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
            result["metrics"]["setup_s"] = statistics.median(scaled for _, scaled in setups)
            result["raw_metrics"]["setup_s"] = statistics.median(raw for raw, _ in setups)
            result["setup_samples_s"] = setups
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, KeyError) as exc:
        sys.stderr.write(f"perfbench: run failed: {exc}\n")
        return 1

    if args.trace:
        units = worker.PER_LAYER
        extra = [f"  traced {result['passes']} passes of {result['trace_jobs']} jobs; "
                 f"tracing overhead {result['metrics']['trace.overhead']:.1%} "
                 f"(median traced {statistics.median(result['traced_pass_s']):.3f} s "
                 f"vs untraced {statistics.median(result['untraced_pass_s']):.3f} s per pass); "
                 f"spans in {result['spans_file']}"]
    else:
        units = worker.END_TO_END
        frac = result["failed"] / result["attempted"]
        name, unit = worker.FAILED_FRAC
        extra = [f"  {name:<36} {frac:>14.6g} {unit}  "
                 f"({result['failed']} of {result['attempted']} jobs; {result['deep_thin']} deep-thin)",
                 f"  {result['passes']} passes of {result['attempted'] // result['passes']} jobs; "
                 f"pass times {', '.join(f'{t:.2f}' for t in result['pass_s'])} s",
                 f"  machine slowdown {result['slowdown']:.3f} (median calibrate time over "
                 f"{worker.CAL_REF_MS} ms); unscaled: "
                 + ", ".join(f"{k} {v:.6g}" for k, v in result["raw_metrics"].items())]
    report(args.workload, args, result, units, extra)

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
