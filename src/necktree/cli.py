"""Command-line front end: seeded, reproducible runs emitting CSV/JSON.

Every run writes a manifest (command, config hashes, master seed, version,
timestamps) next to its output.  Data outputs never contain timestamps, so
identical inputs give byte-identical files regardless of worker count.

Each command is one handler registered on its subparser; ``run`` calls it
and maps package errors to exit codes.  Config files are read on every run,
and identical inputs (the same bytes, or the same percolation p) are
resolved once per process, "auto" gauge entries included.
"""
from __future__ import annotations

import argparse
import functools
import itertools
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
    ExtinctionError,
    NecktreeError,
    ParameterError,
    PreconditionError,
    ResourceError,
)
from .rifs import RECURSIVE, dimension, validate

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

    def parse_known_args(self, args, namespace=None):
        # the word after an option of one value is that value: "--thresholds -20,20", or "--thresh -20,20"
        # by a unique prefix as argparse reads one, reads as "--thresholds=-20,20"
        words = []
        for word in args:
            words.append(words.pop() + "=" + word if words and self._takes_one_value(words[-1]) else word)
        return super().parse_known_args(words, namespace)

    def _takes_one_value(self, word: str) -> bool:
        options = self._option_string_actions
        if word not in options and word.startswith("--"):
            names = [name for name in options if name.startswith(word)]
            word = names[0] if len(names) == 1 else word
        return word in options and options[word].nargs is None


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
    return list(_depth_grid(text))


@functools.lru_cache(maxsize=16)
def _depth_grid(text: str) -> list[int]:
    """``parse_depths``, once per process for each text; its callers get copies."""
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


@functools.lru_cache(maxsize=8)
def _resolve(family: bytes, model: bytes | str, gauge: bytes | None):
    """Family, model spec, the model's seed and gauge (or None) from the config files' bytes, or a bare model name.

    Keyed by the bytes themselves, so a file rewritten with other bytes is
    resolved again; a resolution that raises is not cached.  What it returns
    is frozen, so the runs of one process share it.
    """
    fam = config.family_from_dict(json.loads(family))
    spec, seed = config.model_from_dict({"model": model} if isinstance(model, str) else json.loads(model))
    if gauge is not None:
        gauge = config.gauge_from_dict(json.loads(gauge), family=fam, model=spec)
    return fam, spec, seed, gauge


_percolation_preset = functools.lru_cache(maxsize=8)(geometry.percolation_preset)


def _read(path: str) -> tuple[bytes, str]:
    """A config file's bytes and their hash.

    A file that cannot be read or is not JSON raises here, with its path; on a
    miss ``_resolve`` decodes the bytes again.
    """
    data = config.read_json(path)[1]
    return data, config.content_hash(data)


def _inputs(ns: argparse.Namespace):
    """Family, model, seed, gauge (or None) and manifest of a command that takes --family.

    The files are read on every call, and what they resolve to once per process (``_resolve``).
    """
    family, family_hash = _read(ns.family)
    if ns.model in ("homogeneous", "recursive"):  # a bare model name for convenience
        model, model_hash = ns.model, config.content_hash(json.dumps({"model": ns.model}).encode())
    else:
        model, model_hash = _read(ns.model)
    hashes = {"family": family_hash, "model": model_hash}
    gauge = None
    if ns.gauge:
        gauge, hashes["gauge"] = _read(ns.gauge)
    family, model, model_seed, gauge = _resolve(family, model, gauge)
    seed = (model_seed or 0) if ns.seed is None else ns.seed
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
            "provenance": _provenance(manifest),
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
    report = validate(family, model)
    print(json.dumps(asdict(report), indent=2, sort_keys=True))


def _dim(ns: argparse.Namespace) -> None:
    family, model, *_ = _inputs(ns)
    print(_fmt(dimension(family, model)))


def _levelsum(ns: argparse.Namespace) -> None:
    family, model, seed, gauge, manifest = _inputs(ns)
    r = trees.sample(model, seed, family)
    series = measure.level_sums(r, gauge, parse_depths(ns.depths), node_budget=ns.budget)
    _write_table(ns, ["depth", "log_sum"], zip(series.depths, series.log_sums), manifest)


def _sections(ns: argparse.Namespace) -> None:
    family, model, seed, gauge, _ = _inputs(ns)
    sv = measure.section_infimum(trees.sample(model, seed, family), gauge, ns.depth_min, ns.depth_cap)
    print(_section_json(sv))


def _section_json(sv: measure.SectionValue) -> str:
    """The text of ``json.dumps`` with ``indent=2`` of the value, ``depth_min`` and the section (null if empty).

    With an indent, ``json.dumps`` runs its pure-Python encoder; here the C
    encoder writes the addresses, lists of ints, with the indented item
    separator, and the breaks around each address are put in by one
    replace.  A section holding the root holds nothing else.
    """
    section = "null"
    if sv.argmin_section == ((),):
        section = "[\n    []\n  ]"
    elif sv.argmin_section:
        rows = json.dumps(sv.argmin_section, separators=(",\n      ", ":"))[2:-2]
        section = "[\n    [\n      " + rows.replace("],\n      [", "\n    ],\n    [\n      ") + "\n    ]\n  ]"
    return (
        f'{{\n  "value_log": {json.dumps(float(sv.value_log))},\n  "depth_min": {json.dumps(sv.depth_min)},\n'
        f'  "argmin_section": {section}\n}}'
    )


def _drift(ns: argparse.Namespace) -> None:
    """``drift`` writes every column of the drift table, ``pack`` its packing-direction columns."""
    family, model, seed, gauge, manifest = _inputs(ns)
    # drift_experiment refuses anything but two finite numbers
    thresholds = tuple(config._number(x, "thresholds") for x in ns.thresholds.split(","))
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
    family, model = _percolation_preset(ns.p)
    if ns.dim:
        print(_fmt(dimension(family, RECURSIVE)))
    elif ns.boxdim:
        if ns.seeds < 1:
            raise ParameterError("percolate: --seeds must be >= 1")
        scales = [2.0**-k for k in range(2, ns.min_scale_exp + 1)]
        slopes = []
        for seed in itertools.islice(measure.seed_stream(ns.seed), 50 * ns.seeds):
            try:
                slopes.append(geometry.box_dimension(trees.sample(model, seed, family), scales)[0])
            except ExtinctionError:  # condition on survival
                continue
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
        # without --seed a run takes the model file's seed, else 0; commands without --gauge read None
        sp.set_defaults(handler=handler, seed=None, gauge=None)
        sp.add_argument("--family", required=True, help="family config JSON file")
        sp.add_argument("--model", required=True, help="model config file or bare name")
        if gauge:
            sp.add_argument("--gauge", required=True, help="gauge config JSON file")
        if seeded:
            sp.add_argument("--seed", type=int, default=None, help="64-bit master seed (default: the model's)")
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
    what = sp.add_mutually_exclusive_group()
    what.add_argument("--dim", action="store_true", help="print the almost-sure dimension")
    what.add_argument("--boxdim", action="store_true", help="estimate the box dimension")
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
    except KeyboardInterrupt:
        sys.exit(130)


if __name__ == "__main__":
    main()
