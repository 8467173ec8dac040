"""Workload definitions: input files, job sequences, and how one job runs.

A job is one user-level task: a few calls into ``necktree.cli.run`` and, where
the CLI has no entry point, into the library.  Its output is the bytes the
calls produce (CLI stdout, or an ``--out`` file without its manifest), and
library results formatted ``%.9g``.

A run is a series of passes over one fixed list of jobs, the workload's
*pass*; every pass visits it in a new order drawn from the run's ``--seed``.
So every run times the same jobs, and each job several times, at different
moments of the run.  Job seeds come from a fixed pool per job kind, derived
from ``POOL_SEED``; ``refs.json`` holds the digest of every pass job's output,
so every job of every run is checked.  Deep-thin jobs have no byte reference:
``oracle.py`` checks them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

POOL_SEED = 0
# Jobs in one pass, sized so that a pass takes about 4 s on a 2-core machine
# at the commit that defined the benchmark, and a 36 s run makes about ten.
PASS_SIZE = {"recursive-walk": 40, "vvariable-ensemble": 40, "homogeneous-points": 24}
DEEP_THIN_EVERY = 20
# V values of the V-variable jobs in a pass.  V=32 jobs are a fifth of all
# jobs, so p90 is the median V=32 job and p50 a V=8 job, each in the bulk of
# its class rather than on a tail.
V_CYCLE = (2, 8, 2, 8, 32)
VV_DEPTH = 150
PERCOLATE_SEEDS = 1
# Deep enough that a per-node walker recurses 600 frames, with a margin
# below the interpreter's default limit of 1000 for the callers' frames.
DEEP_DEPTHS = (1, 10, 100, 300, 600)
MASS_BALLS = 10
MASS_EPSILONS = (1e-2, 1e-3)

WORKLOADS = ("recursive-walk", "vvariable-ensemble", "homogeneous-points")

# Three systems with a different ratio per map, so no closed form applies;
# every system branches, which keeps tree sizes (and job times) from
# spreading as widely as a family with extinct systems would.
RECURSIVE_FAMILY = {
    "ambient_dim": 1,
    "systems": [
        {"label": "A", "weight": 0.45, "maps": [{"ratio": 0.5}, {"ratio": 0.3}]},
        {"label": "B", "weight": 0.1, "maps": [{"ratio": 0.3}, {"ratio": 0.25}, {"ratio": 0.2}]},
        {"label": "C", "weight": 0.45, "maps": [{"ratio": 0.45}, {"ratio": 0.35}]},
    ],
}

# Narrow and deep: one level in a thousand forks.
DEEP_THIN_FAMILY = {
    "ambient_dim": 1,
    "systems": [
        {"label": "thin", "weight": 0.999, "maps": [{"ratio": 0.9}]},
        {"label": "fork", "weight": 0.001, "maps": [{"ratio": 0.5}, {"ratio": 0.3}]},
    ],
}

# Two systems at ratio 1/3 with 2 and 3 maps, weights 1/2: one global ratio,
# so V-variable level sums take the count path.
WORKED_FAMILY = {
    "ambient_dim": 1,
    "systems": [
        {"label": "A", "weight": 0.5, "maps": [{"ratio": 1 / 3}] * 2},
        {"label": "B", "weight": 0.5, "maps": [{"ratio": 1 / 3}] * 3},
    ],
}

# The worked family with separated translations on [0, 1] (UOSC holds).
GEOMETRIC_WORKED_FAMILY = {
    "ambient_dim": 1,
    "systems": [
        {"label": "A", "weight": 0.5, "maps": [
            {"ratio": 1 / 3, "translation": [0.0]},
            {"ratio": 1 / 3, "translation": [2 / 3]},
        ]},
        {"label": "B", "weight": 0.5, "maps": [
            {"ratio": 1 / 3, "translation": [0.0]},
            {"ratio": 1 / 3, "translation": [1 / 3]},
            {"ratio": 1 / 3, "translation": [2 / 3]},
        ]},
    ],
}

AUTO_GAUGE = {"s": "auto", "family": {"loglog_power": {"beta": "auto"}}}
# "auto" on a v_variable model resolves to the homogeneous solver, a value
# known to be wrong, so the V-variable gauge is explicit.
VV_GAUGE = {"s": 0.82, "family": {"h1": {"beta": 1.0, "gamma": 0.5}}}

INPUTS = {
    "recursive-walk": {
        "family": RECURSIVE_FAMILY,
        "deep_family": DEEP_THIN_FAMILY,
        "model": {"model": "recursive"},
        "gauge": AUTO_GAUGE,
    },
    "vvariable-ensemble": {
        "family": WORKED_FAMILY,
        "gauge": VV_GAUGE,
        **{f"model_v{v}": {"model": {"v_variable": v}} for v in sorted(set(V_CYCLE))},
    },
    "homogeneous-points": {
        "family": GEOMETRIC_WORKED_FAMILY,
        "model": {"model": "homogeneous"},
        "gauge": AUTO_GAUGE,
    },
}


class JobError(Exception):
    """A CLI call returned a non-zero exit code."""


@dataclass(frozen=True)
class Job:
    index: int
    kind: str  # "walk", "deep-thin", "v2"/"v8"/"v32", or "points"
    seed: int

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.seed}"


def write_inputs(workload: str, workdir: Path) -> dict[str, str]:
    """Write the workload's JSON inputs; returns name -> path."""
    paths = {}
    for name, obj in INPUTS[workload].items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        paths[name] = str(path)
    return paths


def pool(workload: str, kind: str, size: int) -> list[int]:
    """Job seeds of one job kind, fixed for the benchmark."""
    out = []
    for i in range(size):
        h = hashlib.blake2b(f"{POOL_SEED}:{workload}:{kind}:{i}".encode(), digest_size=8)
        out.append(int.from_bytes(h.digest(), "little"))
    return out


def _kinds(workload: str) -> list[str]:
    """The repeating pattern of job kinds in a pass."""
    if workload == "recursive-walk":
        return ["walk"] * (DEEP_THIN_EVERY - 1) + ["deep-thin"]
    if workload == "vvariable-ensemble":
        return [f"v{v}" for v in V_CYCLE]
    return ["points"]


def pass_jobs(workload: str, size: int | None = None) -> list[tuple[str, int]]:
    """(kind, seed) of the first ``size`` jobs of the workload's pass.

    A shorter pass is a prefix of a longer one, with the same kind shares.
    """
    size = PASS_SIZE[workload] if size is None else size
    pattern = _kinds(workload)
    kinds = [pattern[i % len(pattern)] for i in range(size)]
    seeds = {k: iter(pool(workload, k, kinds.count(k))) for k in set(kinds)}
    return [(k, next(seeds[k])) for k in kinds]


def passes(workload: str, seed: int, size: int | None = None) -> Iterator[list[Job]]:
    """The run's passes: the same seed gives the same jobs in the same order."""
    rng = random.Random(seed)
    jobs = pass_jobs(workload, size)
    index = 0
    while True:
        order = list(jobs)
        rng.shuffle(order)
        yield [Job(index + i, kind, s) for i, (kind, s) in enumerate(order)]
        index += len(order)


# ---------------------------------------------------------------------------
# running a job


def run_cli(argv: list[str]) -> bytes:
    """Run the CLI in-process; stdout bytes, or JobError on a non-zero code."""
    from necktree import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([str(a) for a in argv])
    if code != 0:
        raise JobError(f"necktree {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue().encode()


def _g(x) -> str:
    return f"{float(x):.9g}"


def run_job(workload: str, job: Job, paths: dict[str, str], workdir: Path) -> list[tuple[str, bytes]]:
    """Run one job; returns (call name, output bytes) per call."""
    from necktree import config, measure, trees

    s = job.seed
    if job.kind == "deep-thin":
        return [("levelsum", run_cli([
            "levelsum", "--family", paths["deep_family"], "--model", paths["model"],
            "--gauge", paths["gauge"], "--seed", s,
            "--depths", ",".join(str(d) for d in DEEP_DEPTHS),
        ]))]
    if job.kind == "walk":
        common = ["--family", paths["family"], "--model", paths["model"], "--gauge", paths["gauge"], "--seed", s]
        return [
            ("levelsum", run_cli(["levelsum", *common, "--depths", "1:9:1"])),
            ("sections", run_cli(["sections", *common, "--depth-cap", "8"])),
            ("percolate", run_cli([
                "percolate", "--p", "0.9", "--boxdim", "--seeds", PERCOLATE_SEEDS,
                "--min-scale-exp", "13", "--seed", s,
            ])),
        ]
    if job.kind.startswith("v"):
        v = int(job.kind[1:])
        drift = run_cli([
            "drift", "--family", paths["family"], "--model", paths[f"model_v{v}"],
            "--gauge", paths["gauge"], "--seed", s, "--n", "2", "--depths", f"10:{VV_DEPTH}:log",
            "--workers", "1",
        ])
        family = config.family_from_dict(config.load_json(paths["family"]))
        r = trees.sample(trees.ModelSpec(kind="v_variable", v=v), s, family)
        necks = trees.neck_list(r, VV_DEPTH).necks
        return [("drift", drift), ("neck_list", ",".join(map(str, necks)).encode())]
    if job.kind == "points":
        common = ["--family", paths["family"], "--model", paths["model"], "--seed", s]
        out = workdir / "points.csv"
        run_cli(["render", *common, "--n", "100", "--out", out])
        render = out.read_bytes()
        drift = run_cli([
            "drift", *common, "--gauge", paths["gauge"], "--n", "32",
            "--depths", "100:10000:log", "--workers", "1",
        ])
        family = config.family_from_dict(config.load_json(paths["family"]))
        h = config.gauge_from_dict(config.load_json(paths["gauge"]), family, "homogeneous")
        r = trees.sample(trees.ModelSpec(kind="homogeneous"), s, family)
        rep = measure.mass_distribution_check(
            r, h, measure.natural_measure(r), MASS_BALLS, MASS_EPSILONS, seed=s
        )
        mass = " ".join([
            str(rep.n_balls), *map(_g, rep.epsilons), str(rep.max_neighbor_count),
            _g(rep.neighbor_bound), str(bool(rep.neighbor_ok)),
            _g(rep.sup_mass_ratio), _g(rep.hausdorff_lower_bound),
        ]).encode()
        return [("render", render), ("drift", drift), ("mass", mass)]
    raise ValueError(f"unknown job kind {job.kind!r}")


def digest(outputs: list[tuple[str, bytes]]) -> str:
    h = hashlib.blake2b(digest_size=8)
    for name, data in outputs:
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()
