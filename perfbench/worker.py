"""One workload run in a fresh process: set up, run jobs, check them, report.

``run.py`` starts this script once per run (and a few more times with
``--probe`` to time set-up alone).  Jobs run one at a time in a closed loop
with one client, in passes over the workload's fixed job list.  The last line
of stdout is one JSON object with the run's measurements.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

# Milliseconds that ``calibrate`` takes on the machine that the scaled times
# refer to: its median on a 2-core Xeon VM (Python 3.11, numpy 2.4) when that
# machine was quiet.
CAL_REF_MS = 2.5
# A job's local machine speed is the median of the calibrations run before
# the CAL_WINDOW jobs on either side of it, and before the job itself.
CAL_WINDOW = 5
# Calibrations right after set-up, whose median scales that start's set-up time.
SETUP_CALIBRATIONS = 5

# Jobs in one traced pass: the first 20 of the workload's pass, which are
# whole V cycles and hold one deep-thin job.
TRACE_JOBS = 20

END_TO_END = [
    ("setup_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
]
# failed_frac is 0 on two workloads, so it is printed but not a bounded metric.
FAILED_FRAC = ("failed_frac", "1")

# Per-job counts, by their tracer names.
COUNTS = [
    "streams.fold.calls",
    "streams.fold_array.elems",
    "gauges.eval_log.calls",
    "gauges.eval_log.elems",
    "trees.sample.calls",
    "trees.stopping_set.codings",
    "geometry.compose.calls",
    "geometry.then_inner.calls",
    "geometry.sample_points.points",
    "rifs.dimension.calls",
]
# Per-job self seconds: metric -> span name.
SELF_TIMES = {
    "trees.stopping_set.s": "trees.stopping_set",
    "trees.neck_list.s": "trees.neck_list",
    "trees.level_systems.s": "trees.level_systems",
    "measure.level_sums.s": "measure.level_sums",
    "measure.section_infimum.s": "measure.section_infimum",
    "measure.drift_experiment.s": "measure.drift_experiment",
    "measure.mass_distribution_check.s": "measure.mass_distribution_check",
    "geometry.compose.s": "geometry.compose",
    "geometry.sample_points.s": "geometry.sample_points",
    "geometry.stopping_counts.s": "geometry.stopping_counts",
    "rifs.dimension.s": "rifs.dimension",
    "rifs.validate.s": "rifs.validate",
    "config.s": "config",
    "cli.self_s": "cli.run",
}
PER_LAYER = (
    [(m, m.rsplit(".", 1)[1] + "/job") for m in COUNTS]
    + [(m, "s/job") for m in SELF_TIMES]
    + [("geometry.stopping_counts.per_seed", "calls/seed"), ("trace.overhead", "ratio")]
)


@dataclass
class Outcome:
    job: workloads.Job
    latency_ms: float
    outputs: list | None
    error: BaseException | None
    failure: dict | None = None


@dataclass
class Run:
    """Inputs and checking state of one workload run."""

    workload: str
    workdir: Path
    paths: dict
    refs: dict
    seed: int
    oracle_cache: dict = field(default_factory=dict)

    def execute(self, job: workloads.Job) -> Outcome:
        start = time.perf_counter()
        try:
            outputs, error = workloads.run_job(self.workload, job, self.paths, self.workdir), None
        except Exception as exc:  # counted as a failed job; the run goes on
            # Drop the traceback: a RecursionError's holds a thousand frames,
            # and kept failures would grow the run's memory with its length.
            outputs, error = None, exc.with_traceback(None)
        return Outcome(job, (time.perf_counter() - start) * 1000.0, outputs, error)

    def judge(self, o: Outcome) -> None:
        """Set ``o.failure`` when the job raised or its output is wrong."""
        job = o.job
        if o.error is not None:
            o.failure = {"job": job.index, "kind": job.kind, "seed": job.seed,
                         "error": type(o.error).__name__, "detail": str(o.error)[:200],
                         "wrong_output": False}
            return
        if job.kind == "deep-thin":
            why = oracle.check_levelsum(o.outputs[0][1], self._deep_oracle(job.seed))
        else:
            want = self.refs.get(job.key)
            got = workloads.digest(o.outputs)
            why = "" if got == want else f"digest {got} != reference {want}"
        if why:
            o.failure = {"job": job.index, "kind": job.kind, "seed": job.seed,
                         "error": "WrongOutput", "detail": why, "wrong_output": True}
        o.outputs = None  # checked; holding them would grow the run's memory with its length

    def _deep_oracle(self, seed: int) -> dict:
        if seed not in self.oracle_cache:
            from necktree import config, trees

            family = config.family_from_dict(workloads.DEEP_THIN_FAMILY)
            h = config.gauge_from_dict(workloads.AUTO_GAUGE, family, "recursive")
            r = trees.sample(trees.ModelSpec(kind="recursive"), seed, family)
            self.oracle_cache[seed] = oracle.level_log_sums(r, h, workloads.DEEP_DEPTHS)
        return self.oracle_cache[seed]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def setup(workload: str, seed: int) -> Run:
    """Everything before the first job: import, inputs, references."""
    import necktree  # noqa: F401  (part of set-up time)

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    paths = workloads.write_inputs(workload, workdir)
    refs = json.loads((HERE / "refs.json").read_text())["workloads"][workload]
    return Run(workload, workdir, paths, refs, seed)


def environment() -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _failures(outcomes: list[Outcome]) -> list[dict]:
    return [o.failure for o in outcomes if o.failure is not None]


def _quantiles(lat: list[float]) -> dict[str, float]:
    return {
        "job_p50_ms": statistics.median(lat),
        "job_p90_ms": statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0],
    }


def calibrate() -> float:
    """Milliseconds of one fixed piece of work, to gauge the machine's speed.

    It does what the jobs do most, without necktree: integer mixing in the
    interpreter, dict stores and small numpy calls.
    """
    start = time.perf_counter()
    x, table, mask = 0x9E3779B97F4A7C15, {}, (1 << 64) - 1
    for i in range(6000):
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & mask
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & mask
        table[i & 255] = x
    a = np.arange(64, dtype=float)
    for _ in range(100):
        a = np.log1p(a) + 1.0
    return (time.perf_counter() - start) * 1000.0


def timed(run: Run, seconds: float) -> dict:
    """Closed loop with one client: the next job starts when the last ends.

    The run makes whole passes over the workload's job list while that ends
    nearer to ``seconds`` than stopping does.  A shared machine runs the same
    job up to twice as slowly, in spells from seconds to minutes, so every job
    is timed at a reference speed as well: ``calibrate`` runs before each job,
    and the job's latency is scaled by ``CAL_REF_MS`` over the median of the
    calibrations around it.  Latency quantiles are over every job run;
    throughput is the median over passes of the jobs completed over their
    summed latency.  The unscaled figures are kept in the result.
    """
    executed: list[tuple[str, float, int]] = []  # key, latency, pass
    completed, pass_s, cal_ms, failures = [], [], [], []
    attempted = deep_thin = 0
    aside_s = 0.0
    start = time.perf_counter()
    for jobs in workloads.passes(run.workload, run.seed):
        if pass_s and time.perf_counter() - start + pass_s[-1] / 2 > seconds:
            break
        pass_start = time.perf_counter()
        pass_aside_s = 0.0  # calibrating and checking, outside the timed region
        completed.append(0)
        for job in jobs:
            c0 = time.perf_counter()
            cal_ms.append(calibrate())
            pass_aside_s += time.perf_counter() - c0
            o = run.execute(job)
            c0 = time.perf_counter()
            run.judge(o)
            pass_aside_s += time.perf_counter() - c0
            executed.append((job.key, o.latency_ms, len(pass_s)))
            if o.failure is None:
                completed[-1] += 1
            else:
                failures.append(o.failure)
        pass_s.append(time.perf_counter() - pass_start - pass_aside_s)
        aside_s += pass_aside_s
        attempted += len(jobs)
        deep_thin += sum(j.kind == "deep-thin" for j in jobs)

    scaled = []
    pass_ref_s = [0.0] * len(pass_s)
    for i, (_, latency, p) in enumerate(executed):
        local = statistics.median(cal_ms[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
        scaled.append(latency * CAL_REF_MS / local)
        pass_ref_s[p] += scaled[-1] / 1000.0
    rates = [n / t for n, t in zip(completed, pass_s)]
    raw = {**_quantiles([latency for _, latency, _ in executed]), "jobs_per_s": statistics.median(rates)}
    metrics = {
        **_quantiles(scaled),
        "jobs_per_s": statistics.median(n / t for n, t in zip(completed, pass_ref_s)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    by_kind: dict = {}
    for key, latency, _ in executed:
        by_kind.setdefault(key.split(":")[0], []).append(latency)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "correct": not failures,
        "metrics": metrics,
        "failures": failures,
        "deep_thin": deep_thin,
        "passes": len(pass_s),
        "pass_s": pass_s,
        "pass_jobs_per_s": rates,
        "p50_ms_by_kind": {k: statistics.median(v) for k, v in by_kind.items()},
        "raw_metrics": raw,
        "slowdown": statistics.median(cal_ms) / CAL_REF_MS,
        "calibrate_ms": cal_ms,
        "jobs": [[key, latency, ms] for (key, latency, _), ms in zip(executed, scaled)],
        "wall_s": sum(pass_s),
        "aside_s": aside_s,
    }


def _pass(run: Run, jobs: list, tracer: tracing.Tracer | None = None) -> list[Outcome]:
    outcomes = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.index
        outcomes.append(run.execute(job))
    return outcomes


def traced(run: Run, seconds: float) -> dict:
    """Alternate untraced and traced passes over a fixed job list."""
    jobs = next(workloads.passes(run.workload, run.seed, TRACE_JOBS))
    tracer = tracing.Tracer()
    untraced_s, traced_s, counts, selfs, spans, outcomes = [], [], [], [], [], []
    start = time.perf_counter()
    pair_s = 0.0
    # Start another pair of passes only if it should end within the run.
    while not traced_s or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        plain = _pass(run, jobs)
        tracer.install()
        try:
            with_trace = _pass(run, jobs, tracer)
        finally:
            tracer.uninstall()
        untraced_s.append(sum(o.latency_ms for o in plain) / 1000.0)
        traced_s.append(sum(o.latency_ms for o in with_trace) / 1000.0)
        counts.append(dict(tracer.counts))
        selfs.append(tracer.self_times())
        spans.append([list(s) for s in tracer.spans])
        tracer.reset()
        for o in plain + with_trace:
            run.judge(o)
        outcomes += plain + with_trace
        pair_s = time.perf_counter() - pair_start

    n = len(jobs)
    first = counts[0]
    metrics = {m: first.get(m, 0) / n for m in COUNTS}
    for m, name in SELF_TIMES.items():
        metrics[m] = statistics.median(s[name] for s in selfs) / n
    requested = workloads.PERCOLATE_SEEDS * sum(j.kind == "walk" for j in jobs)
    calls = first.get("geometry.stopping_counts.calls", 0)
    metrics["geometry.stopping_counts.per_seed"] = calls / requested if requested else 0.0
    metrics["trace.overhead"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    failures = _failures(outcomes)
    return {
        "attempted": len(outcomes),
        "failed": len(failures),
        # the same jobs must do the same work on every pass
        "correct": not failures and all(c == first for c in counts),
        "metrics": metrics,
        "failures": failures,
        "deep_thin": sum(o.job.kind == "deep-thin" for o in outcomes),
        "passes": len(traced_s),
        "trace_jobs": n,
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "spans": spans,
    }


def write_spans(path: Path, passes: list) -> None:
    with open(path, "w") as fh:
        fh.write("pass,index,parent,job,name,start,end,busy_s,self_s\n")
        for p, spans in enumerate(passes):
            for i, (name, start, end, parent, job, busy, child) in enumerate(spans):
                fh.write(f"{p},{i},{parent},{job},{name},{start!r},{end!r},{busy!r},{busy - child!r}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="set up, report the ready time, exit")
    args = ap.parse_args(argv)

    run = setup(args.workload, args.seed)
    ready = time.monotonic()
    setup_cal = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
    try:
        if args.probe:
            result = {}
        elif args.trace:
            result = traced(run, args.seconds)
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
            write_spans(spans_path, result.pop("spans"))
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            result = timed(run, args.seconds)
    finally:
        run.close()
    result["ready"] = ready
    result["setup_calibrate_ms"] = setup_cal
    if not args.probe:
        result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
