"""The table-driven V-variable engine against the scalar per-buffer loops."""
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necktree import trees
from necktree.errors import HorizonError
from necktree.gauges import h1, loglog_power, power
from necktree.measure import _all_level_log_sums
from necktree.rifs import equicontractive_family
from necktree.trees import ModelSpec, Realization, first_neck, neck_list

from helpers import oracle_vv_count_log_sums, oracle_vv_necks, oracle_vv_reachable, worked_family

GAUGES = (power(0.7), loglog_power(0.8, 0.5), h1(0.7, 0.3, 0.5))


@st.composite
def vv_realizations(draw, max_v: int = 40):
    """Single-ratio families, some with an extinct (0-map) system, at V in [1, max_v]."""
    counts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(lambda c: max(c) >= 2))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(counts), max_size=len(counts)))
    family = equicontractive_family(counts, 1 / 3, [w / sum(weights) for w in weights])
    model = ModelSpec(kind="v_variable", v=draw(st.integers(1, max_v)))
    seed = draw(st.integers(0, 2**64 - 1))
    return Realization(family=family, model=model, seed=seed, offset=draw(st.integers(0, 3)))


@settings(max_examples=60)
@given(
    r=vv_realizations(),
    depth=st.integers(1, 60),
    entries=st.integers(1, 400),
    gauge=st.sampled_from(GAUGES),
)
def test_engine_matches_scalar_loops(r, depth, entries, gauge):
    # Small chunks make every depth cross several chunk boundaries.
    with mock.patch.object(trees, "VV_TABLE_ENTRIES", entries):
        got = _all_level_log_sums(r, gauge, depth)
        necks = neck_list(r, depth).necks
        if necks:
            assert first_neck(r, horizon=depth) == necks[0]
        else:
            with pytest.raises(HorizonError):
                first_neck(r, horizon=depth)
    assert got.tobytes() == oracle_vv_count_log_sums(r, gauge, depth).tobytes()
    assert necks == oracle_vv_necks(r, depth)


@settings(max_examples=60)
@given(r=vv_realizations(), depth=st.integers(1, 60), entries=st.integers(1, 400))
def test_finite_log_counts_are_the_reachable_buffers(r, depth, entries):
    with mock.patch.object(trees, "VV_TABLE_ENTRIES", entries):
        counts = np.concatenate(list(trees.vv_log_counts(r, depth)))
    assert counts.shape == (depth, r.model.v + 1)
    reached = [frozenset((row > -np.inf).nonzero()[0].tolist()) for row in counts]
    assert reached == [reach for _, reach in oracle_vv_reachable(r, depth)]


def test_engine_matches_scalar_loops_across_default_chunk():
    r = Realization(family=worked_family(), model=ModelSpec(kind="v_variable", v=40), seed=11, offset=2)
    depth = 200
    assert depth > trees.VV_TABLE_ENTRIES // (41 * 3)
    got = _all_level_log_sums(r, GAUGES[2], depth)
    assert got.tobytes() == oracle_vv_count_log_sums(r, GAUGES[2], depth).tobytes()
    assert neck_list(r, depth).necks == oracle_vv_necks(r, depth)


def test_children_table_matches_scalar_draws():
    family = equicontractive_family([0, 2, 3], 1 / 3, [0.2, 0.3, 0.5])
    r = Realization(family=family, model=ModelSpec(kind="v_variable", v=5), seed=3)
    table = r.vv_children(7, 4)
    assert table.shape == (4, 6, 3) and table.dtype == np.int32
    assert not table[:, 0].any()
    for k in range(4):
        for b in range(1, 6):
            nmaps = family.systems[r._vv_label(7 + k, b)].nmaps
            expect = [r._vv_assign(7 + k, b, j) if j <= nmaps else 0 for j in range(1, 4)]
            assert table[k, b].tolist() == expect


def test_first_neck_memory_is_bounded_by_one_chunk():
    r = Realization(family=worked_family(), model=ModelSpec(kind="v_variable", v=64), seed=1)
    assert oracle_vv_necks(r, 30) == ()
    tracemalloc.start()
    try:
        with pytest.raises(HorizonError):
            first_neck(r, horizon=20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
