"""Command-line front end: seeded, reproducible runs emitting CSV/JSON.

Every run writes a manifest (command, config hashes, master seed, version,
timestamps) next to its output.  Data outputs never contain timestamps, so
identical inputs give byte-identical files regardless of worker count.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__, config, geometry, measure, streams, trees
from .errors import (
    ConfigError,
    NecktreeError,
    ParameterError,
    PreconditionError,
    ResourceError,
)
from .rifs import HOMOGENEOUS, RECURSIVE, dimension, solver_model, validate

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
        return {
            "command": self.command,
            "spec_hashes": self.spec_hashes,
            "master_seed": self.master_seed,
            "tool_version": self.tool_version,
            "started": self.started,
            "finished": self.finished,
        }


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
        a, b = int(parts[0]), int(parts[1])
        if a < 1 or b < a:
            raise ConfigError("depths: need 1 <= a <= b")
        if parts[2] == "log":
            num = max(2, round(LOG_POINTS_PER_DECADE * np.log10(b / a)) + 1)
            grid = np.unique(np.rint(np.geomspace(a, b, num)).astype(int))
            return [int(d) for d in grid]
        step = int(parts[2])
        if step < 1:
            raise ConfigError("depths: step must be >= 1")
        return list(range(a, b + 1, step))
    try:
        vals = sorted({int(v) for v in text.split(",") if v.strip()})
    except ValueError:
        raise ConfigError(f"depths: could not parse {text!r}")
    if not vals:
        raise ConfigError("depths: empty grid")
    return vals


def _load_family(path: str):
    return config.family_from_dict(config.load_json(path)), config.file_hash(path)


def _load_model(arg: str):
    """Model from a file path, or a bare model name for convenience."""
    if arg in ("homogeneous", "recursive"):
        spec = trees.ModelSpec(kind=arg)
        blob = json.dumps({"model": arg}, sort_keys=True).encode()
        return spec, None, config.content_hash(blob)
    spec, seed = config.model_from_dict(config.load_json(arg))
    return spec, seed, config.file_hash(arg)


def _provenance(manifest: RunManifest) -> str:
    hashes = " ".join(f"{k}={v}" for k, v in sorted(manifest.spec_hashes.items()))
    return (
        f"necktree {manifest.tool_version} cmd={manifest.command} "
        f"seed={manifest.master_seed} {hashes}"
    ).strip()


def _write_table(
    out: Optional[str],
    fmt: str,
    columns: list[str],
    rows: list[list[float]],
    manifest: RunManifest,
) -> None:
    manifest.finished = _now()
    if fmt == "json":
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
    if out:
        Path(out).write_text(text)
        Path(out + ".manifest.json").write_text(
            json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    else:
        sys.stdout.write(text)


def _drift_rows(report: measure.DriftReport) -> tuple[list[str], list[list[float]]]:
    columns = [
        "depth", "median_log_sum", "q10", "q90", "env_plus", "env_minus",
        "frac_below", "frac_above", "liminf_est", "limsup_est",
        "runmin_median", "runmax_median",
    ]
    rows = []
    for i, d in enumerate(report.depths):
        rows.append([
            d, report.median[i], report.q10[i], report.q90[i],
            report.env_plus[i], report.env_minus[i],
            report.frac_below[i], report.frac_above[i],
            report.liminf_est[i], report.limsup_est[i],
            report.runmin_median[i], report.runmax_median[i],
        ])
    return columns, rows


def _build_parser() -> _Parser:
    p = _Parser(prog="necktree", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, model=True, gauge=False, seeded=False, table=False):
        sp.add_argument("--family", required=True, help="family config JSON file")
        if model:
            sp.add_argument("--model", required=True, help="model config file or bare name")
        if gauge:
            sp.add_argument("--gauge", required=True, help="gauge config JSON file")
        if seeded:
            sp.add_argument("--seed", type=int, default=0, help="64-bit master seed")
        if table:
            sp.add_argument("--out", default=None, help="output file (default stdout)")
            sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("validate", help="standing-assumption report")
    add_common(sp)

    sp = sub.add_parser("dim", help="almost-sure dimension")
    add_common(sp)

    sp = sub.add_parser("levelsum", help="gauged level sums of one realization")
    add_common(sp, gauge=True, seeded=True, table=True)
    sp.add_argument("--depths", default="1:64:log")
    sp.add_argument("--budget", type=int, default=measure.DEFAULT_NODE_BUDGET)

    sp = sub.add_parser("sections", help="infimum of gauge sums over sections")
    add_common(sp, gauge=True, seeded=True)
    sp.add_argument("--depth-min", type=int, default=1)
    sp.add_argument("--depth-cap", type=int, default=4)

    for name, help_text in (
        ("drift", "ensemble level-sum drift experiment"),
        ("pack", "ensemble running-max (packing direction) experiment"),
    ):
        sp = sub.add_parser(name, help=help_text)
        add_common(sp, gauge=True, seeded=True, table=True)
        sp.add_argument("--n", type=int, default=100, help="realizations in the ensemble")
        sp.add_argument("--depths", default="100:10000:log")
        sp.add_argument("--workers", type=int, default=1)
        sp.add_argument("--thresholds", default="-20,20")

    sp = sub.add_parser("render", help="sample attractor points to CSV or PGM")
    add_common(sp, seeded=True)
    sp.add_argument("--n", type=int, default=10000)
    sp.add_argument("--out", required=True)
    sp.add_argument("--pgm", action="store_true", help="write a PGM raster instead of CSV")
    sp.add_argument("--width", type=int, default=512)
    sp.add_argument("--height", type=int, default=512)

    sp = sub.add_parser("percolate", help="halving percolation preset")
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
        return _dispatch(ns)
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


def _dispatch(ns: argparse.Namespace) -> int:
    cmd = ns.command
    if cmd == "percolate":
        return _cmd_percolate(ns)

    family, fam_hash = _load_family(ns.family)
    hashes = {"family": fam_hash}
    model_spec = model_seed = None
    if hasattr(ns, "model"):
        model_spec, model_seed, model_hash = _load_model(ns.model)
        hashes["model"] = model_hash
    seed = getattr(ns, "seed", None)
    if seed is None:
        seed = model_seed or 0
    gauge = None
    if getattr(ns, "gauge", None):
        gauge = config.gauge_from_dict(
            config.load_json(ns.gauge), family=family,
            model_kind=model_spec.kind if model_spec else HOMOGENEOUS,
        )
        hashes["gauge"] = config.file_hash(ns.gauge)

    manifest = RunManifest(
        command=cmd, spec_hashes=hashes, master_seed=int(seed),
        tool_version=__version__, started=_now(),
    )

    if cmd == "validate":
        report = validate(family, solver_model(model_spec.kind))
        print(json.dumps({
            "n_bound_ok": report.n_bound_ok,
            "ratio_bounds_ok": report.ratio_bounds_ok,
            "recursive_supercritical": report.recursive_supercritical,
            "homogeneous_supercritical": report.homogeneous_supercritical,
            "almost_deterministic_at": report.almost_deterministic_at,
            "gap": report.gap,
        }, indent=2, sort_keys=True))
        return EXIT_OK

    if cmd == "dim":
        print(_fmt(dimension(family, solver_model(model_spec.kind))))
        return EXIT_OK

    if cmd == "levelsum":
        r = trees.sample(model_spec, seed, family)
        series = measure.level_sums(r, gauge, parse_depths(ns.depths), node_budget=ns.budget)
        rows = [[d, v] for d, v in zip(series.depths, series.log_sums)]
        _write_table(ns.out, ns.format, ["depth", "log_sum"], rows, manifest)
        return EXIT_OK

    if cmd == "sections":
        r = trees.sample(model_spec, seed, family)
        sv = measure.section_infimum(r, gauge, ns.depth_min, ns.depth_cap)
        print(json.dumps({
            "value_log": float(sv.value_log),
            "depth_min": sv.depth_min,
            "argmin_section": [list(a) for a in sv.argmin_section] if sv.argmin_section else None,
        }, indent=2))
        return EXIT_OK

    if cmd in ("drift", "pack"):
        lo, hi = (float(x) for x in ns.thresholds.split(","))
        report = measure.drift_experiment(
            family, model_spec, gauge, ns.n, parse_depths(ns.depths), seed,
            thresholds=(lo, hi), workers=ns.workers,
        )
        if cmd == "drift":
            columns, rows = _drift_rows(report)
        else:
            columns = ["depth", "runmax_median", "env_plus", "limsup_est", "frac_above"]
            rows = [
                [d, report.runmax_median[i], report.env_plus[i],
                 report.limsup_est[i], report.frac_above[i]]
                for i, d in enumerate(report.depths)
            ]
        _write_table(ns.out, ns.format, columns, rows, manifest)
        return EXIT_OK

    if cmd == "render":
        r = trees.sample(model_spec, seed, family)
        nu = measure.natural_measure(r)
        points = geometry.sample_points(r, nu, ns.n, seed)
        manifest.finished = _now()
        if ns.pgm:
            counts = geometry.rasterize(points, ns.width, ns.height)
            geometry.export_pgm(ns.out, counts, _provenance(manifest))
        else:
            geometry.export_points_csv(ns.out, points, _provenance(manifest))
        Path(ns.out + ".manifest.json").write_text(
            json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        return EXIT_OK

    raise ConfigError(f"unknown command {cmd!r}")


def _cmd_percolate(ns: argparse.Namespace) -> int:
    family, model_spec = geometry.percolation_preset(ns.p)
    if ns.dim:
        print(_fmt(dimension(family, RECURSIVE)))
        return EXIT_OK
    if ns.boxdim:
        scales = [2.0**-k for k in range(2, ns.min_scale_exp + 1)]
        slopes = []
        attempt = 0
        base = streams.fold(ns.seed, streams.TAG_SUBSTREAM)
        while len(slopes) < ns.seeds and attempt < 50 * ns.seeds:
            r = trees.sample(model_spec, streams.fold(base, attempt), family)
            attempt += 1
            counts = geometry.stopping_counts(r, scales)
            if counts[-1] == 0:
                continue  # extinct: condition on survival
            slope, _ = geometry.box_dimension_from_counts(scales, counts)
            slopes.append(slope)
        if len(slopes) < ns.seeds:
            sys.stderr.write("resource error: too many extinct seeds\n")
            return EXIT_RESOURCE
        print(_fmt(float(np.mean(slopes))))
        return EXIT_OK
    report = validate(family, RECURSIVE)
    print(json.dumps({
        "recursive_supercritical": report.recursive_supercritical,
        "dimension": dimension(family, RECURSIVE) if report.recursive_supercritical else None,
    }, indent=2))
    return EXIT_OK


def main() -> None:
    try:
        sys.exit(run(sys.argv[1:]))
    except SystemExit:
        raise
    except KeyboardInterrupt:
        sys.exit(130)


if __name__ == "__main__":
    main()
