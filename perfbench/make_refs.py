"""Regenerate refs.json: the output digest of every job of each workload's pass.

    python3 perfbench/make_refs.py [workload ...]

Run it only at a commit whose outputs are known to be right; the benchmark
then checks every later commit against these bytes.  A job that fails is not
recorded, and makes this script exit non-zero.
"""
from __future__ import annotations

import json
import sys

import worker
from worker import HERE, workloads

REFS = HERE / "refs.json"


def main(names: list[str]) -> int:
    if not REFS.exists():
        REFS.write_text(json.dumps({"workloads": {w: {} for w in workloads.WORKLOADS}}))
    refs = json.loads(REFS.read_text())
    refs["pool_seed"] = workloads.POOL_SEED
    bad = 0
    for workload in names or workloads.WORKLOADS:
        run = worker.setup(workload, 0)
        table = {}
        try:
            for kind, seed in workloads.pass_jobs(workload):
                if kind == "deep-thin":  # checked by the oracle instead
                    continue
                o = run.execute(workloads.Job(0, kind, seed))
                if o.error is not None:
                    print(f"{workload} {kind}:{seed}: {o.error!r}", file=sys.stderr)
                    bad += 1
                    continue
                table[o.job.key] = workloads.digest(o.outputs)
        finally:
            run.close()
        refs["workloads"][workload] = table
        print(f"{workload}: {len(table)} references", file=sys.stderr)
    REFS.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
