"""Fuzz the ensemble, level-sum, section and geometry entry points: each example returns or raises a typed error,
in bounded time."""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from necktree.errors import NecktreeError
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
from necktree.trees import BlockTemplate, ModelSpec, Realization

from helpers import time_limit

RATIOS, COUNTS = [1 / 3, 0.5, 0.25, 0.2, 1.0], [2, 3, 1, 0]
CALLS = ["drift", "lil", "level_sums", "packing", "points", "sections", "mass"]
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


def maps(c: float, n: int, mixed: bool, dim: int, spread: bool) -> tuple:
    """n maps of ratio c (times 0.8^j if mixed) in ``dim`` dimensions, at the origin or spread along the first
    axis so that map j's image of the unit cube starts at j (1 - c_j) / (n - 1)."""
    ratios = [c * 0.8**j if mixed else c for j in range(n)]
    starts = [j * (1 - r) / (n - 1) if spread and n > 1 else 0.0 for j, r in enumerate(ratios)]
    return tuple(SimilarityMap(r, translation=np.array([b] + [0.0] * (dim - 1))) for r, b in zip(ratios, starts))


def build_and_call(case: dict):
    """Build the family, model and gauge of ``case`` (which may raise) and make its call."""
    weights = case["weights"]
    if not sum(weights):  # zero weights, but not all of them
        weights = weights[:-1] + [1.0]
    family = RIFSFamily(
        systems=tuple(IFS(maps(c, n, mixed, case["dim"], case["spread"])) for c, n, mixed in case["systems"]),
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
