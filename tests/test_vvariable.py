"""The table-driven V-variable engine against the scalar per-buffer loops."""
import tracemalloc
from itertools import groupby
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necktree import trees
from necktree.errors import HorizonError, ParameterError, ResourceError, UnsupportedModelError
from necktree.gauges import h1, loglog_power, power
from necktree.measure import _all_level_log_sums, _fast_log_sums, _gauged, drift_experiment
from necktree.rifs import equicontractive_family
from necktree.trees import ModelSpec, Realization, first_neck, neck_list

from helpers import oracle_vv_count_log_sums, oracle_vv_necks, oracle_vv_reachable, worked_family

GAUGES = (power(0.7), loglog_power(0.8, 0.5), h1(0.7, 0.3, 0.5))


def draw_single_ratio_family(draw):
    """A family of ratio 1/3, some with an extinct (0-map) system."""
    counts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(lambda c: max(c) >= 2))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(counts), max_size=len(counts)))
    return equicontractive_family(counts, 1 / 3, [w / sum(weights) for w in weights])


@st.composite
def vv_realizations(draw, max_v: int = 40):
    """Single-ratio families, some with an extinct (0-map) system, at V in [1, max_v]."""
    family = draw_single_ratio_family(draw)
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
    with mock.patch.object(trees, "VV_BATCH_ENTRIES", entries):
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
    with mock.patch.object(trees, "VV_BATCH_ENTRIES", entries):
        counts = np.concatenate(list(trees.vv_log_counts([r], depth)))[:, 0]
    assert counts.shape == (depth, r.model.v + 1)
    reached = [frozenset((row > -np.inf).nonzero()[0].tolist()) for row in counts]
    assert reached == [reach for _, reach in oracle_vv_reachable(r, depth)]


@st.composite
def vv_batches(draw):
    """1 to 7 realizations of one single-ratio v_variable model, each with its own seed and offset."""
    family = draw_single_ratio_family(draw)
    model = ModelSpec(kind="v_variable", v=draw(st.integers(1, 12)))
    keys = st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 3))
    return [
        Realization(family=family, model=model, seed=seed, offset=offset)
        for seed, offset in draw(st.lists(keys, min_size=1, max_size=7))
    ]


@settings(max_examples=25)
@given(
    rs=vv_batches(),
    depth=st.integers(1, 40),
    entries=st.integers(1, 400),
    per_batch=st.integers(1, 3),
    gauge=st.sampled_from(GAUGES),
)
def test_log_counts_do_not_depend_on_the_batch(rs, depth, entries, per_batch, gauge):
    # A drawn size chunks the whole batch on its own.  per_batch * depth keeps at most 3 paths a batch
    # and fewer than depth levels a chunk (a level holds >= 4 entries): small batches split the paths
    # and the levels at every boundary.
    with mock.patch.object(trees, "VV_BATCH_ENTRIES", entries):
        batched = np.concatenate(list(trees.vv_log_counts(rs, depth)))
    with mock.patch.object(trees, "VV_BATCH_ENTRIES", per_batch * depth):
        sums = list(_gauged(_fast_log_sums(rs[0].family, rs[0].model, depth), gauge, rs))
        level_counts = list(trees.vv_level_counts(rs, depth))
        alone = [np.concatenate(list(trees.vv_log_counts([r], depth)))[:, 0] for r in rs]
    assert batched.shape == (depth, len(rs), rs[0].model.v + 1)
    for p, r in enumerate(rs):
        assert batched[:, p].tobytes() == alone[p].tobytes()
        assert level_counts[p].tobytes() == np.logaddexp.reduce(alone[p], axis=1).tobytes()
        assert sums[p].tobytes() == oracle_vv_count_log_sums(r, gauge, depth).tobytes()


def test_engine_matches_scalar_loops_across_default_chunk():
    r = Realization(family=worked_family(), model=ModelSpec(kind="v_variable", v=40), seed=11, offset=2)
    depth = 1100
    assert depth > trees.VV_BATCH_ENTRIES // (41 * 3)
    got = _all_level_log_sums(r, GAUGES[2], depth)
    assert got.tobytes() == oracle_vv_count_log_sums(r, GAUGES[2], depth).tobytes()
    assert neck_list(r, depth).necks == oracle_vv_necks(r, depth)


def test_children_table_matches_scalar_draws():
    family = equicontractive_family([0, 2, 3], 1 / 3, [0.2, 0.3, 0.5])
    r = Realization(family=family, model=ModelSpec(kind="v_variable", v=5), seed=3)
    labels, table = trees._vv_children([r], np.array([7], dtype=np.uint64), 4)
    labels, table = labels[:, 0], table[:, 0]
    assert labels.shape == (4, 5) and table.shape == (4, 6, 3) and table.dtype == np.int32
    assert not table[:, 0].any()
    for k in range(4):
        for b in range(1, 6):
            assert labels[k, b - 1] == r._vv_label(7 + k, b)
            nmaps = family.systems[r._vv_label(7 + k, b)].nmaps
            expect = [r._vv_assign(7 + k, b, j) if j <= nmaps else 0 for j in range(1, 4)]
            assert table[k, b].tolist() == expect


@settings(max_examples=40)
@given(
    counts=st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(lambda c: max(c) >= 1),
    data=st.data(),
    v=st.integers(1, 13),
    n=st.integers(1, 4),
)
def test_children_tables_match_scalar_draws_bit_for_bit(counts, data, v, n):
    # 0-map systems, zero weights anywhere (trailing ones too), any V, offsets and several paths
    weights = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 1.0]), min_size=len(counts), max_size=len(counts))
                        .filter(any))
    family = equicontractive_family(counts, 1 / 3, [w / sum(weights) for w in weights])
    model = ModelSpec(kind="v_variable", v=v)
    rs = [Realization(family=family, model=model, seed=data.draw(st.integers(0, 2**64 - 1)), offset=o)
          for o in data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))]
    level0 = np.array([r._root_state[0] for r in rs], dtype=np.uint64)
    labels, table = trees._vv_children(rs, level0, n)
    assert labels.shape == (n, len(rs), v) and table.shape == (n, len(rs), v + 1, family.n_max)
    assert table.dtype == np.int32 and not table[:, :, 0].any()
    for p, r in enumerate(rs):
        for k in range(n):
            level = int(level0[p]) + k
            for b in range(1, v + 1):
                sys = r._vv_label(level, b)
                assert labels[k, p, b - 1] == sys
                want = [r._vv_assign(level, b, j) if j <= counts[sys] else 0 for j in range(1, family.n_max + 1)]
                assert table[k, p, b].tolist() == want


@pytest.mark.parametrize("v", [1, 8])
def test_counts_agree_across_the_one_table_boundary(v):
    # n = step draws one table; n = step + 1 draws doubling chunks, and gives the same levels
    rs = [Realization(family=worked_family(), model=ModelSpec(kind="v_variable", v=v), seed=s, offset=s) for s in (4, 5)]
    step = trees.VV_BATCH_ENTRIES // trees._vv_level_entries(rs)
    with mock.patch.object(trees, "_vv_children", wraps=trees._vv_children) as draw:
        one = list(trees.vv_log_counts(rs, step))
        assert draw.call_count == 1
        more = np.concatenate(list(trees.vv_log_counts(rs, step + 1)))
        assert draw.call_count > 2
    assert len(one) == 1 and more.shape == (step + 1, 2, v + 1)
    assert one[0].tobytes() == more[:step].tobytes()


def test_a_level_table_over_the_node_budget_is_a_resource_error():
    # one level at V = 3 over the worked family holds 1 x 4 x 3 = 12 entries
    r = Realization(family=worked_family(), model=ModelSpec(kind="v_variable", v=3), seed=3)
    with mock.patch.object(trees, "DEFAULT_NODE_BUDGET", 11):
        with pytest.raises(ResourceError, match="12 entries exceeds the budget 11"):
            neck_list(r, 5)
        with pytest.raises(ResourceError, match="12 entries"):
            trees.expander(r)(0, np.array([1], dtype=np.uint64), 1)
    with mock.patch.object(trees, "DEFAULT_NODE_BUDGET", 12):
        assert neck_list(r, 5).necks == oracle_vv_necks(r, 5)
        with pytest.raises(ResourceError, match="24 entries"):  # two paths in one batch
            next(trees.vv_log_counts([r, r], 5))


def test_a_batch_of_mixed_models_or_families_is_refused():
    # a batch once counted every path under its first path's V, family and tables: behind a V = 2 path at seed 2,
    # the V = 8 path read log Z_2..Z_4 = 1.79, 2.71, 3.50 against 1.95, 2.77, 3.83 alone
    family = worked_family()
    r2, r8 = (Realization(family=family, model=ModelSpec(kind="v_variable", v=v), seed=2) for v in (2, 8))
    assert np.round(next(trees.vv_level_counts([r8], 4))[1:], 2).tolist() == [1.95, 2.77, 3.83]
    other = Realization(family=equicontractive_family([3, 2, 1], 1 / 3, [0.2, 0.3, 0.5]), model=r2.model, seed=2)
    for batch in ([r2, r8], [r2, other]):
        with pytest.raises(ParameterError, match="of one model over one family's label and map tables"):
            next(trees.vv_level_counts(batch, 4))
        with pytest.raises(ParameterError, match="of one model over one family's label and map tables"):
            next(trees.vv_log_counts(batch, 4))
    for kind in ("homogeneous", "recursive"):
        r = Realization(family=family, model=ModelSpec(kind=kind), seed=2)
        for batch in ([r], [r2, r]):
            with pytest.raises(UnsupportedModelError, match="need v_variable realizations"):
                next(trees.vv_level_counts(batch, 4))


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


def test_every_table_chunk_follows_the_batch_rule():
    # 40 paths to 4,000 levels at V = 8 make two batches, one V = 64 path searches 3,000 levels,
    # and a V = 2 path whose first neck is at level 1 searches the default horizon
    fam = worked_family()
    r = Realization(family=fam, model=ModelSpec(kind="v_variable", v=64), seed=1)
    early = Realization(family=fam, model=ModelSpec(kind="v_variable", v=2), seed=0)
    with mock.patch.object(trees, "_vv_children", wraps=trees._vv_children) as draw:
        drift_experiment(fam, ModelSpec(kind="v_variable", v=8), h1(0.82, 1.0, 0.5), 40, [10, 4000], seed=1)
        neck_list(r, 3000)
        assert first_neck(early) == 1
    recursions = [list(calls) for _, calls in groupby(draw.call_args_list, key=lambda c: id(c.args[0]))]
    paths = [len(calls[0].args[0]) for calls in recursions]
    assert len(paths) == 4 and sum(paths[:2]) == 40 and paths[2:] == [1, 1]
    for i, calls in enumerate(recursions):
        entries = trees._vv_level_entries(calls[0].args[0])
        step = max(1, trees.VV_BATCH_ENTRIES // entries)
        ramp = [min(step, max(1, step >> 5) << i) for i in range(len(calls))]
        levels = [call.args[2] for call in calls]
        assert all(n * entries <= trees.VV_BATCH_ENTRIES or n == 1 for n in levels)
        assert levels[:-1] == ramp[:-1] and 1 <= levels[-1] <= ramp[-1]
        # the long recursions reach full chunks; the early neck search draws one small chunk
        assert step in levels if i < 3 else levels == [max(1, step >> 5)]
    # a recursion that fits one full chunk draws it as one table: a V = 32 neck list and a drift to level 150
    with mock.patch.object(trees, "_vv_children", wraps=trees._vv_children) as draw:
        neck_list(Realization(family=fam, model=ModelSpec(kind="v_variable", v=32), seed=2), 150)
        drift_experiment(fam, ModelSpec(kind="v_variable", v=32), h1(0.82, 1.0, 0.5), 2, [10, 150], seed=1)
    assert [len(call.args[0]) for call in draw.call_args_list] == [1, 2]
    for call in draw.call_args_list:
        assert call.args[2] == 150 <= trees.VV_BATCH_ENTRIES // trees._vv_level_entries(call.args[0])


@pytest.mark.parametrize("v", [1, 2, 8, 32])
def test_level_totals_are_the_buffer_reduce_of_each_chunk(v):
    # an extinct (0-map) system gives -inf buffers
    family = equicontractive_family([0, 2, 3], 1 / 3, [0.45, 0.3, 0.25])
    rs = [trees.sample(ModelSpec(kind="v_variable", v=v), seed, family) for seed in range(6)]
    chunks = list(trees.vv_log_counts(rs, 150))
    assert any(np.isneginf(x).any() for x in chunks)
    want = np.concatenate([np.logaddexp.reduce(x, axis=2).T for x in chunks], 1)
    assert [row.tobytes() for row in trees.vv_level_counts(rs, 150)] == [row.tobytes() for row in want]
