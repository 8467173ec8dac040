"""Fuzz the ensemble, level-sum, section, neck and geometry entry points, and the CLI commands over them: each
example returns or raises a typed error, in bounded time."""
import contextlib
import io
import json
import math
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from necktree import cli
from necktree.errors import ConfigError, NecktreeError, ResourceError
from necktree.gauges import h1, power
from necktree.geometry import sample_points
from necktree.measure import (
    drift_experiment,
    level_sums,
    lil_calibration,
    mass_distribution_check,
    natural_measure,
    packing_level_limsup,
    section_infimum,
)
from necktree.rifs import IFS, RIFSFamily, SimilarityMap
from necktree.trees import BlockTemplate, ModelSpec, Realization, neck_list

from helpers import time_limit

RATIOS, COUNTS = [1 / 3, 0.5, 0.25, 0.2, 1.0], [2, 3, 1, 0]
CALLS = ["drift", "lil", "level_sums", "packing", "points", "sections", "mass", "necks"]
# mass-check radii: ordinary ones next to radii outside (0, 1) and an empty grid
EPSILONS = [(0.1,), (0.02, 0.3), (), (0.0,), (1.5, 0.1)]
# odd thresholds next to ordinary ones: not finite, too few or too many, reversed, booleans, strings, None
THRESHOLDS = [
    (-20.0, 20.0), (5.0, -5.0), (0.0, 0.0), (-1e308, 1e308), (math.nan, math.nan), (-math.inf, 1.0),
    (1.0,), (1.0, 2.0, 3.0), (True, False), ("-1", "1"), None,
]


@st.composite
def systems(draw, i: int):
    """(ratio, map count, mixed) of system i; its simplest draw is the i-th entry, so systems differ."""
    ratio = draw(st.sampled_from(RATIOS[i:] + RATIOS[:i]))
    return ratio, draw(st.sampled_from(COUNTS[i:] + COUNTS[:i])), draw(st.booleans())


@st.composite
def cases(draw):
    """The plain data of one call: 2-3 systems, their weights, the model, the entry point and its arguments."""
    n_sys = draw(st.integers(2, 3))
    depth_cap = draw(st.integers(0, 6))
    return {
        "systems": [draw(systems(i)) for i in range(n_sys)],
        "dim": draw(st.integers(1, 3)),
        "spread": draw(st.booleans()),
        "weights": draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=n_sys, max_size=n_sys)),
        "kind": draw(st.sampled_from(["homogeneous", "recursive", "v_variable", "neck_block"])),
        "v": draw(st.integers(1, 4)),
        "template_weights": draw(st.lists(st.sampled_from([1.0, 1e308, 0.0, 2.0]), min_size=1, max_size=3)),
        "call": draw(st.sampled_from(CALLS)),
        "s": draw(st.floats(0.0, 1.5)),
        "h1": draw(st.booleans()),
        "depths": sorted(draw(st.sets(st.integers(1, 60), min_size=1, max_size=3))),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "offset": draw(st.integers(0, 3)),
        "n": draw(st.integers(1, 4)),
        "thresholds": draw(st.sampled_from(THRESHOLDS)),
        "depth_cap": depth_cap,
        "depth_min": draw(st.integers(0, depth_cap)),
        "epsilons": draw(st.sampled_from(EPSILONS)),
    }


def maps(c: float, n: int, mixed: bool, dim: int, spread: bool, geometry: str | None = None) -> tuple:
    """n maps of ratio c (times 0.8^j if mixed) in ``dim`` dimensions, at the origin or spread along the first
    axis so that map j's image of the unit cube starts at j (1 - c_j) / (n - 1).  ``geometry`` spoils each map:
    "scaled" gives it the non-orthogonal isometry 2 I, "outside" moves its image 2 along the first axis, out of
    the unit cube, and "wrong_dim" gives it an isometry of dimension dim + 1."""
    ratios = [c * 0.8**j if mixed else c for j in range(n)]
    starts = [j * (1 - r) / (n - 1) if spread and n > 1 else 0.0 for j, r in enumerate(ratios)]
    starts = [b + 2.0 for b in starts] if geometry == "outside" else starts
    q = {"scaled": 2 * np.eye(dim), "wrong_dim": np.eye(dim + 1)}.get(geometry)
    return tuple(SimilarityMap(r, q, np.array([b] + [0.0] * (dim - 1))) for r, b in zip(ratios, starts))


def build_and_call(case: dict):
    """Build the family, model and gauge of ``case`` (which may raise) and make its call."""
    weights = case["weights"]
    if not sum(weights):  # zero weights, but not all of them
        weights = weights[:-1] + [1.0]
    family = RIFSFamily(
        systems=tuple(IFS(maps(c, n, mixed, case["dim"], case["spread"], case.get("geometry")))
                      for c, n, mixed in case["systems"]),
        weights=tuple(w / sum(weights) for w in weights),
        ambient_dim=case["dim"],
    )
    kind, k = case["kind"], family.nsystems
    if kind == "neck_block":
        levels = ((1 / k,) * k, (1.0,) + (0.0,) * (k - 1))
        model = ModelSpec(kind, templates=tuple(
            BlockTemplate(levels=levels[: 1 + i % 2], weight=w) for i, w in enumerate(case["template_weights"])
        ))
    else:
        model = ModelSpec(kind, v=case["v"] if kind == "v_variable" else 0)
    s, depths, seed, n = case["s"], case["depths"], case["seed"], case["n"]
    h = h1(s, 0.5, 0.3) if case["h1"] else power(s)
    if case["call"] == "drift":
        return drift_experiment(family, model, h, n, depths, seed, thresholds=case["thresholds"])
    if case["call"] == "lil":
        return lil_calibration(family, model, s, n, 10 * depths[-1], seed)
    r = Realization(family, model, seed, offset=case["offset"])
    if case["call"] == "points":
        return sample_points(r, 50 * n, seed)
    if case["call"] == "sections":
        return section_infimum(r, h, case["depth_min"], case["depth_cap"], node_budget=10**4)
    if case["call"] == "mass":
        return mass_distribution_check(r, h, natural_measure(r), n, case["epsilons"], seed, assume_uosc=True)
    if case["call"] == "necks":
        return neck_list(r, depths[-1])
    walk = level_sums if case["call"] == "level_sums" else packing_level_limsup
    return walk(r, h, depths, node_budget=10**4)


BASE = {
    "systems": [(1 / 3, 2, False), (1 / 3, 3, False), (1 / 3, 0, False)], "weights": [0.5, 0.5, 0.0],
    "kind": "homogeneous", "v": 1, "template_weights": [1.0], "call": "drift", "s": 0.8, "h1": True,
    "depths": [10, 60], "seed": 7, "offset": 2, "n": 3, "thresholds": (-20.0, 20.0),
    "dim": 1, "spread": True, "depth_cap": 6, "depth_min": 2, "epsilons": (0.02, 0.3),
}


@settings(max_examples=40)
@given(cases())
# template weights whose sum overflows, a 0-map system that kills paths, per-system and within-system mixed ratios
@example({**BASE, "kind": "neck_block", "template_weights": [1e308, 1e308]})
@example({**BASE, "kind": "neck_block", "template_weights": [1.0, 1e308]})  # a finite sum, level weights overflow
@example({**BASE, "weights": [0.45, 0.45, 0.1], "depths": [10, 600], "n": 4})
@example({**BASE, "systems": [(0.2, 2, False), (0.5, 3, False)], "weights": [0.5, 0.5], "thresholds": (1.0, -1.0)})
@example({**BASE, "systems": [(0.5, 2, True), (0.25, 3, False)], "weights": [0.5, 0.5], "call": "lil", "s": 0.3})
# geometry on a family that meets the open-set condition, in one and two dimensions, and with a map of ratio 1
@example({**BASE, "kind": "recursive", "call": "mass"})
@example({**BASE, "kind": "v_variable", "v": 3, "call": "points", "dim": 2})
@example({**BASE, "systems": [(1.0, 1, False), (1 / 3, 3, False)], "weights": [0.5, 0.5], "call": "sections"})
def test_entry_points_return_or_raise_a_typed_error(case):
    with time_limit(20):
        try:
            build_and_call(case)
        except NecktreeError:
            pass


# Refused before any work: V = 10^9, past the node budget, in the count and neck paths, where a single path's
# level table would hold more than 10^8 entries (V in 10^5..3.3 x 10^7 fits the budget but not memory, so none
# is drawn), and geometry that ``SimilarityMap`` or ``require_geometry`` refuses.
REFUSED = {
    **{f"huge-v-{call}": ({**BASE, "kind": "v_variable", "v": 10**9, "call": call}, ResourceError, "level table")
       for call in ("drift", "level_sums", "necks")},
    "huge-v-level-sums-mixed-ratios": (
        {**BASE, "kind": "v_variable", "v": 10**9, "call": "level_sums", "systems": [(0.5, 2, True), (0.25, 3, False)],
         "weights": [0.5, 0.5]}, ResourceError, "level table"),
    **{f"{geometry}-{call}": ({**BASE, "kind": "recursive", "call": call, "dim": 2, "geometry": geometry}, ConfigError,
                              None) for geometry in ("scaled", "outside", "wrong_dim") for call in ("points", "mass")},
}


@pytest.mark.parametrize("case, error, message", REFUSED.values(), ids=REFUSED.keys())
def test_entry_points_refuse_what_they_cannot_hold(case, error, message):
    with time_limit(20), pytest.raises(error, match=message):
        build_and_call(case)


def config_files(case: dict, where: Path) -> dict[str, str]:
    """The family, model and gauge of ``case`` as JSON files under ``where``, by name; no file is checked."""
    weights = case["weights"]
    if not sum(weights):  # zero weights, but not all of them
        weights = weights[:-1] + [1.0]
    systems = [
        {"label": f"s{i}", "weight": w / sum(weights), "maps": [
            {"ratio": m.ratio, "translation": m.translation.tolist()}
            for m in maps(c, n, mixed, case["dim"], case["spread"])
        ]} for i, ((c, n, mixed), w) in enumerate(zip(case["systems"], weights))
    ]
    kind, k = case["kind"], len(systems)
    model = {"model": kind}
    if kind == "v_variable":
        model = {"model": {"v_variable": case["v"]}}
    elif kind == "neck_block":
        levels = [[1 / k] * k, [1.0] + [0.0] * (k - 1)]
        model = {"model": {"neck_block": {"templates": [
            {"levels": levels[: 1 + i % 2], "weight": w} for i, w in enumerate(case["template_weights"])
        ]}}}
    gauge = {"s": case["s"], "family": {"h1": {"beta": 0.5, "gamma": 0.3}} if case["h1"] else "power"}
    paths = {}
    for name, obj in (("family", {"ambient_dim": case["dim"], "systems": systems}),
                      ("model", {**model, "seed": case["seed"]}), ("gauge", gauge)):
        paths[name] = str(where / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(obj))
    return paths


def cli_args(command: str, case: dict, paths: dict[str, str], where: Path) -> list[str]:
    """Small-sized arguments of one ``necktree`` command on the files of ``case``."""
    if command == "percolate":  # a retention probability in [0, 1.5]; the dimension, a box count or the report
        what = (["--dim"], ["--boxdim", "--seeds", str(case["n"]), "--min-scale-exp", "6"], [])[case["offset"] % 3]
        return [command, "--p", str(case["s"]), "--seed", str(case["seed"]), *what]
    args = [command, "--family", paths["family"], "--model", paths["model"]]
    depths = ",".join(map(str, case["depths"]))
    if command in ("validate", "dim"):
        return args
    if command == "render":
        return [*args, "--n", str(50 * case["n"]), "--out", str(where / "points.csv")]
    args += ["--gauge", paths["gauge"]]
    if command == "levelsum":
        return [*args, "--depths", depths, "--budget", "10000"]
    if command == "sections":
        return [*args, "--depth-min", str(case["depth_min"]), "--depth-cap", str(case["depth_cap"])]
    # the spaced form: a lower threshold such as -20.0 is the option's value, not an option
    thresholds = [] if case["thresholds"] is None else ["--thresholds", ",".join(map(str, case["thresholds"]))]
    return [*args, "--n", str(case["n"]), "--depths", depths, *thresholds]


@settings(max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cases(), st.sampled_from(["levelsum", "sections", "drift", "pack", "render", "validate", "dim", "percolate"]))
# a run of each command, a walk past its budget, a table past the node budget and a map that never shrinks
@example({**BASE, "kind": "recursive"}, "sections")
@example(BASE, "drift")
@example(BASE, "pack")
@example({**BASE, "offset": 1}, "percolate")
@example({**BASE, "kind": "v_variable", "v": 3, "dim": 2}, "render")
@example({**BASE, "kind": "recursive"}, "levelsum")
@example({**BASE, "kind": "v_variable", "v": 10**9}, "drift")
@example({**BASE, "systems": [(1.0, 1, False), (1 / 3, 3, False)], "weights": [0.5, 0.5]}, "render")
# an "auto" gauge exponent: solved once, and refused alike on every run under V = 2
@example({**BASE, "s": "auto"}, "drift")
@example({**BASE, "s": "auto", "kind": "v_variable", "v": 2}, "levelsum")
def test_cli_exits_with_a_code_and_one_error_line_on_failure(tmp_path, case, command):
    argv = cli_args(command, case, config_files(case, tmp_path), tmp_path)
    points = tmp_path / "points.csv"
    runs = []
    cached = (cli._resolve, cli._percolation_preset)
    # as the process's cache holds the inputs (an earlier example may have filled it), again, and resolved afresh
    for resolve, preset in (cached, cached, tuple(f.__wrapped__ for f in cached)):
        out, err = io.StringIO(), io.StringIO()
        points.unlink(missing_ok=True)
        with time_limit(20), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                patch.object(cli, "_resolve", resolve), patch.object(cli, "_percolation_preset", preset):
            code = cli.run(argv)
        runs.append((code, out.getvalue(), err.getvalue(), points.read_bytes() if points.exists() else None))
    assert runs[0] == runs[1] == runs[2]
    code, _, err, _ = runs[0]
    assert code in (0, 1, 2, 3)
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(("config error: ", "resource error: ", "error: ")), lines
    assert "Traceback" not in err
