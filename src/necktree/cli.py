"""Command-line front end: seeded, reproducible runs emitting CSV/JSON.

Every run writes a manifest (command, config hashes, master seed, version,
timestamps) next to its output.  Data outputs never contain timestamps, so
identical inputs give byte-identical files regardless of worker count.

Each command is one handler registered on its subparser; ``run`` calls it
and maps package errors to exit codes.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__, config, geometry, measure, trees
from .errors import (
    ConfigError,
    NecktreeError,
    ParameterError,
    PreconditionError,
    ResourceError,
)
from .rifs import RECURSIVE, dimension, solver_model, validate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_USAGE = 64
LOG_POINTS_PER_DECADE = 8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 64 instead of argparse's 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


@dataclass
class RunManifest:
    command: str
    spec_hashes: dict
    master_seed: int
    tool_version: str
    started: str
    finished: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()) + "Z"


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def parse_depths(text: str) -> list[int]:
    """Depth grids: 'a:b:step', 'a:b:log', or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"depths: expected a:b:step or a:b:log, got {text!r}")
        a, b = (config._number(x, "depths", int) for x in parts[:2])
        if a < 1 or b < a:
            raise ConfigError("depths: need 1 <= a <= b")
        if parts[2] == "log":
            num = max(2, round(LOG_POINTS_PER_DECADE * np.log10(b / a)) + 1)
            grid = np.sort(np.rint(np.geomspace(a, b, num)).astype(int))
            # not np.unique, whose first call imports numpy.ma
            return [int(d) for d in grid[np.concatenate(([True], grid[1:] != grid[:-1]))]]
        step = config._number(parts[2], "depths", int)
        if step < 1:
            raise ConfigError("depths: step must be >= 1")
        return list(range(a, b + 1, step))
    vals = sorted({config._number(v, "depths", int) for v in text.split(",") if v.strip()})
    if not vals:
        raise ConfigError("depths: empty grid")
    return vals


def _load_model(arg: str):
    """Model from a file path, or a bare model name for convenience."""
    if arg in ("homogeneous", "recursive"):
        spec = trees.ModelSpec(kind=arg)
        blob = json.dumps({"model": arg}, sort_keys=True).encode()
        return spec, None, config.content_hash(blob)
    spec, seed = config.model_from_dict(config.load_json(arg))
    return spec, seed, config.file_hash(arg)


def _inputs(ns: argparse.Namespace):
    """Family, model, seed, gauge (or None) and manifest of a command that takes --family."""
    family = config.family_from_dict(config.load_json(ns.family))
    model, model_seed, model_hash = _load_model(ns.model)
    hashes = {"family": config.file_hash(ns.family), "model": model_hash}
    seed = (model_seed or 0) if ns.seed is None else ns.seed
    gauge = None
    if ns.gauge:
        gauge = config.gauge_from_dict(config.load_json(ns.gauge), family=family, model_kind=model.kind)
        hashes["gauge"] = config.file_hash(ns.gauge)
    manifest = RunManifest(
        command=ns.command, spec_hashes=hashes, master_seed=int(seed),
        tool_version=__version__, started=_now(),
    )
    return family, model, seed, gauge, manifest


def _provenance(manifest: RunManifest) -> str:
    hashes = " ".join(f"{k}={v}" for k, v in sorted(manifest.spec_hashes.items()))
    return (
        f"necktree {manifest.tool_version} cmd={manifest.command} "
        f"seed={manifest.master_seed} {hashes}"
    ).strip()


def _write_manifest(out: str, manifest: RunManifest) -> None:
    Path(out + ".manifest.json").write_text(json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n")


def _write_table(
    ns: argparse.Namespace, columns: list[str], rows: Iterable[Sequence[float]], manifest: RunManifest
) -> None:
    """Rows as CSV or JSON to ``--out`` (with its manifest sidecar) or to stdout."""
    manifest.finished = _now()
    if ns.format == "json":
        payload = {
            "manifest": manifest.to_dict(),
            "columns": columns,
            "rows": [[_fmt(x) for x in row] for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# {_provenance(manifest)}", ",".join(columns)]
        lines += [",".join(_fmt(x) for x in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if ns.out:
        Path(ns.out).write_text(text)
        _write_manifest(ns.out, manifest)
    else:
        sys.stdout.write(text)


def _drift_columns(report: measure.DriftReport) -> dict[str, Sequence[float]]:
    """The drift table's columns by name, one entry per depth."""
    return {
        "depth": report.depths, "median_log_sum": report.median,
        "q10": report.q10, "q90": report.q90,
        "env_plus": report.env_plus, "env_minus": report.env_minus,
        "frac_below": report.frac_below, "frac_above": report.frac_above,
        "liminf_est": report.liminf_est, "limsup_est": report.limsup_est,
        "runmin_median": report.runmin_median, "runmax_median": report.runmax_median,
    }


def _validate(ns: argparse.Namespace) -> None:
    family, model, *_ = _inputs(ns)
    report = validate(family, solver_model(model.kind))
    print(json.dumps(asdict(report), indent=2, sort_keys=True))


def _dim(ns: argparse.Namespace) -> None:
    family, model, *_ = _inputs(ns)
    print(_fmt(dimension(family, solver_model(model.kind))))


def _levelsum(ns: argparse.Namespace) -> None:
    family, model, seed, gauge, manifest = _inputs(ns)
    r = trees.sample(model, seed, family)
    series = measure.level_sums(r, gauge, parse_depths(ns.depths), node_budget=ns.budget)
    _write_table(ns, ["depth", "log_sum"], zip(series.depths, series.log_sums), manifest)


def _sections(ns: argparse.Namespace) -> None:
    family, model, seed, gauge, _ = _inputs(ns)
    sv = measure.section_infimum(trees.sample(model, seed, family), gauge, ns.depth_min, ns.depth_cap)
    print(json.dumps({
        "value_log": float(sv.value_log),
        "depth_min": sv.depth_min,
        "argmin_section": [list(a) for a in sv.argmin_section] if sv.argmin_section else None,
    }, indent=2))


def _drift(ns: argparse.Namespace) -> None:
    """``drift`` writes every column of the drift table, ``pack`` its packing-direction columns."""
    family, model, seed, gauge, manifest = _inputs(ns)
    parts = ns.thresholds.split(",")
    if len(parts) != 2:
        raise ConfigError(f"thresholds: expected two numbers lo,hi, got {ns.thresholds!r}")
    thresholds = tuple(config._number(x, "thresholds") for x in parts)
    report = measure.drift_experiment(
        family, model, gauge, ns.n, parse_depths(ns.depths), seed,
        thresholds=thresholds, workers=ns.workers,
    )
    table = _drift_columns(report)
    if ns.command == "pack":
        table = {c: table[c] for c in ("depth", "runmax_median", "env_plus", "limsup_est", "frac_above")}
    _write_table(ns, list(table), zip(*table.values()), manifest)


def _render(ns: argparse.Namespace) -> None:
    family, model, seed, _, manifest = _inputs(ns)
    points = geometry.sample_points(trees.sample(model, seed, family), n=ns.n, seed=seed)
    manifest.finished = _now()
    if ns.pgm:
        counts = geometry.rasterize(points, ns.width, ns.height)
        geometry.export_pgm(ns.out, counts, _provenance(manifest))
    else:
        geometry.export_points_csv(ns.out, points, _provenance(manifest))
    _write_manifest(ns.out, manifest)


def _percolate(ns: argparse.Namespace) -> None:
    family, model = geometry.percolation_preset(ns.p)
    if ns.dim:
        print(_fmt(dimension(family, RECURSIVE)))
    elif ns.boxdim:
        if ns.seeds < 1:
            raise ParameterError("percolate: --seeds must be >= 1")
        scales = [2.0**-k for k in range(2, ns.min_scale_exp + 1)]
        slopes = []
        for seed in measure.ensemble_seeds(ns.seed, 50 * ns.seeds):
            counts = geometry.stopping_counts(trees.sample(model, seed, family), scales)
            if counts[-1] > 0:  # condition on survival
                slopes.append(geometry.box_dimension_from_counts(scales, counts)[0])
                if len(slopes) == ns.seeds:
                    break
        else:
            raise ResourceError("too many extinct seeds")
        print(_fmt(float(np.mean(slopes))))
    else:
        report = validate(family, RECURSIVE)
        print(json.dumps({
            "recursive_supercritical": report.recursive_supercritical,
            "dimension": dimension(family, RECURSIVE) if report.recursive_supercritical else None,
        }, indent=2))


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and reused by later runs in the process."""
    p = _Parser(prog="necktree", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help_text, handler, gauge=False, seeded=False, table=False):
        sp = sub.add_parser(name, help=help_text)
        # commands without --seed or --gauge read None; a --seed default still wins
        sp.set_defaults(handler=handler, seed=None, gauge=None)
        sp.add_argument("--family", required=True, help="family config JSON file")
        sp.add_argument("--model", required=True, help="model config file or bare name")
        if gauge:
            sp.add_argument("--gauge", required=True, help="gauge config JSON file")
        if seeded:
            sp.add_argument("--seed", type=int, default=0, help="64-bit master seed")
        if table:
            sp.add_argument("--out", default=None, help="output file (default stdout)")
            sp.add_argument("--format", choices=("csv", "json"), default="csv")
        return sp

    command("validate", "standing-assumption report", _validate)
    command("dim", "almost-sure dimension", _dim)

    sp = command(
        "levelsum", "gauged level sums of one realization", _levelsum, gauge=True, seeded=True, table=True
    )
    sp.add_argument("--depths", default="1:64:log")
    sp.add_argument("--budget", type=int, default=measure.DEFAULT_NODE_BUDGET)

    sp = command("sections", "infimum of gauge sums over sections", _sections, gauge=True, seeded=True)
    sp.add_argument("--depth-min", type=int, default=1)
    sp.add_argument("--depth-cap", type=int, default=4)

    for name, help_text in (
        ("drift", "ensemble level-sum drift experiment"),
        ("pack", "ensemble running-max (packing direction) experiment"),
    ):
        sp = command(name, help_text, _drift, gauge=True, seeded=True, table=True)
        sp.add_argument("--n", type=int, default=100, help="realizations in the ensemble")
        sp.add_argument("--depths", default="100:10000:log")
        sp.add_argument("--workers", type=int, default=1)
        sp.add_argument("--thresholds", default="-20,20")

    sp = command("render", "sample attractor points to CSV or PGM", _render, seeded=True)
    sp.add_argument("--n", type=int, default=10000)
    sp.add_argument("--out", required=True)
    sp.add_argument("--pgm", action="store_true", help="write a PGM raster instead of CSV")
    sp.add_argument("--width", type=int, default=512)
    sp.add_argument("--height", type=int, default=512)

    sp = sub.add_parser("percolate", help="halving percolation preset")
    sp.set_defaults(handler=_percolate)
    sp.add_argument("--p", type=float, required=True, help="retention probability")
    sp.add_argument("--dim", action="store_true", help="print the almost-sure dimension")
    sp.add_argument("--boxdim", action="store_true", help="estimate the box dimension")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--seeds", type=int, default=20, help="surviving seeds to average")
    sp.add_argument("--min-scale-exp", type=int, default=14, help="smallest scale 2^-k")
    return p


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(argv))
        ns.handler(ns)
        return EXIT_OK
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (ConfigError, ParameterError, PreconditionError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except ResourceError as exc:
        sys.stderr.write(f"resource error: {exc}\n")
        return EXIT_RESOURCE
    except NecktreeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    try:
        sys.exit(run(sys.argv[1:]))
    except SystemExit:
        raise
    except KeyboardInterrupt:
        sys.exit(130)


if __name__ == "__main__":
    main()
