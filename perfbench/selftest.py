"""The benchmark's own tests.

    python3 perfbench/selftest.py

Runs the real command on short runs, so it takes about a minute.  It is not
named test_*.py so that the package's test suite does not collect it.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import oracle
import worker
import workloads
from worker import OUT_DIR, ROOT, WORK_DIR

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 180


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=TIMEOUT_S,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricTables(unittest.TestCase):
    def test_benchmark_json_lists_what_the_worker_prints(self):
        declared = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
        self.assertEqual(declared, worker.END_TO_END)
        declared = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
        self.assertEqual(declared, worker.PER_LAYER)
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(workloads.WORKLOADS))

    def test_every_pass_job_has_a_reference(self):
        refs = json.loads((worker.HERE / "refs.json").read_text())["workloads"]
        for w in workloads.WORKLOADS:
            keys = {f"{k}:{s}" for k, s in workloads.pass_jobs(w) if k != "deep-thin"}
            self.assertEqual(set(refs[w]), keys, w)

    def test_every_pass_holds_the_same_jobs_in_a_seeded_order(self):
        first = [next(workloads.passes("vvariable-ensemble", 7)) for _ in range(2)]
        self.assertEqual(first[0], first[1])
        other = next(workloads.passes("vvariable-ensemble", 8))
        self.assertNotEqual([j.key for j in other], [j.key for j in first[0]])
        self.assertEqual(sorted(j.key for j in other), sorted(j.key for j in first[0]))
        run = workloads.passes("recursive-walk", 3)
        a, b = next(run), next(run)
        self.assertEqual([j.index for j in a + b], list(range(2 * workloads.PASS_SIZE["recursive-walk"])))
        self.assertEqual(sorted(j.key for j in a), sorted(j.key for j in b))
        deep = [j for j in a if j.kind == "deep-thin"]
        self.assertEqual(len(deep), workloads.PASS_SIZE["recursive-walk"] // workloads.DEEP_THIN_EVERY)

    def test_the_traced_pass_is_a_prefix_of_the_timed_pass(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(workloads.pass_jobs(w, worker.TRACE_JOBS),
                             workloads.pass_jobs(w)[:worker.TRACE_JOBS], w)


class Oracle(unittest.TestCase):
    def test_oracle_matches_the_library(self):
        from necktree import config, trees

        run = worker.setup("recursive-walk", 0)
        try:
            family = config.family_from_dict(workloads.DEEP_THIN_FAMILY)
            h = config.gauge_from_dict(workloads.AUTO_GAUGE, family, "recursive")
            depths = workloads.DEEP_DEPTHS
            for seed in workloads.pool("recursive-walk", "deep-thin", 3):
                data = workloads.run_cli([
                    "levelsum", "--family", run.paths["deep_family"], "--model", run.paths["model"],
                    "--gauge", run.paths["gauge"], "--seed", seed, "--depths", ",".join(map(str, depths)),
                ])
                r = trees.sample(trees.ModelSpec(kind="recursive"), seed, family)
                expected = oracle.level_log_sums(r, h, depths)
                self.assertEqual(oracle.check_levelsum(data, expected), "")
                expected[depths[-1]] *= 1 + 1e-7
                self.assertNotEqual(oracle.check_levelsum(data, expected), "")
        finally:
            run.close()


class Runs(unittest.TestCase):
    def test_smoke_run_prints_every_metric_and_no_job_fails(self):
        proc = bench("--workload", "recursive-walk", "--seed", "0", "--seconds", "1", "--trace", "0")
        res = result_of(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(
            {k: v["unit"] for k, v in res["metrics"].items()}, dict(worker.END_TO_END)
        )
        for v in res["metrics"].values():
            self.assertGreater(v["value"], 0)
        self.assertIn("failed_frac", proc.stdout)
        detail = json.loads((OUT_DIR / "recursive-walk-seed0-trace0.json").read_text())
        self.assertGreaterEqual(detail["deep_thin"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(detail["failures"], [])

    def test_two_traced_runs_give_identical_counts(self):
        count_names = worker.COUNTS + ["geometry.stopping_counts.per_seed"]
        for w in workloads.WORKLOADS:
            runs = [result_of(bench("--workload", w, "--seed", "5", "--seconds", "1", "--trace", "1"))
                    for _ in range(2)]
            for res in runs:
                self.assertTrue(res["correct"], w)
                self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, dict(worker.PER_LAYER))
            counts = [{m: r["metrics"][m]["value"] for m in count_names} for r in runs]
            self.assertEqual(counts[0], counts[1], w)
            self.assertGreater(counts[0]["streams.fold.calls"], 0, w)

    def test_refuses_to_run_without_the_package(self):
        WORK_DIR.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=WORK_DIR))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(worker.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "vvariable-ensemble", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main(verbosity=2)
