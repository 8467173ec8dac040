"""The level walker and its consumers against the label_of oracle."""
import math
import sys
import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from necktree import measure, streams, trees
from necktree.errors import ParameterError, PreconditionError, ResourceError
from necktree.gauges import h1, loglog_power, power
from necktree.geometry import percolation_preset, stopping_counts
from necktree.measure import level_sums, section_infimum
from necktree.rifs import IFS, RIFSFamily, SimilarityMap, dimension, equicontractive_family
from necktree.trees import BlockTemplate, ModelSpec, _codings, coding_level, levels, sample, stopping_set

from helpers import (
    brute_force_stopping,
    deep_thin_family,
    oracle_levels,
    oracle_section_infimum,
    oracle_stopping_set,
    oracle_stream_log_sums,
)

KMAX = 4
REC = ModelSpec(kind="recursive")
HOM = ModelSpec(kind="homogeneous")
# blocks of 2 and 3 levels over the two systems of ``deep_thin_family``
DEEP_BLOCKS = ModelSpec(kind="neck_block", templates=(
    BlockTemplate(levels=((0.999, 0.001), (0.998, 0.002))),
    BlockTemplate(levels=((0.999, 0.001), (0.999, 0.001), (1.0, 0.0))),
))


def _normalized(ws):
    total = sum(ws)
    return tuple(w / total for w in ws)


@st.composite
def families(draw):
    """1-3 systems of 0-3 maps with ratios in [0.15, 0.5]; the first system has a map."""
    n_sys = draw(st.integers(1, 3))
    ratio = st.floats(0.15, 0.5)
    systems = [
        IFS(maps=tuple(SimilarityMap(c) for c in draw(st.lists(ratio, min_size=int(i == 0), max_size=3))))
        for i in range(n_sys)
    ]
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=n_sys, max_size=n_sys))
    return RIFSFamily(systems=tuple(systems), weights=_normalized(weights))


@st.composite
def models(draw, n_sys: int):
    kind = draw(st.sampled_from(["homogeneous", "recursive", "v_variable", "neck_block"]))
    if kind == "v_variable":
        return ModelSpec(kind=kind, v=draw(st.integers(1, 3)))
    if kind == "neck_block":
        dist = st.lists(st.floats(0.05, 1.0), min_size=n_sys, max_size=n_sys).map(_normalized)
        templates = draw(st.lists(
            st.builds(BlockTemplate, levels=st.lists(dist, min_size=1, max_size=3).map(tuple),
                      weight=st.floats(0.1, 1.0)),
            min_size=1, max_size=2,
        ))
        return ModelSpec(kind=kind, templates=tuple(templates))
    return ModelSpec(kind=kind)


@st.composite
def realizations(draw):
    fam = draw(families())
    return sample(draw(models(fam.nsystems)), draw(st.integers(0, 2**64 - 1)), fam)


def _oracle_log_sum(h, log_ratios) -> float:
    total = math.fsum(math.exp(h.eval_log(lr)) for lr in log_ratios)
    return math.log(total) if total > 0 else -math.inf


@given(realizations(), st.floats(0.03, 0.5), st.floats(0.3, 1.2))
def test_walkers_match_label_of_oracle(r, epsilon, s):
    expected = oracle_levels(r, KMAX)
    # per depth, the walker's chunks concatenate to the level in address order
    walked = [[] for _ in expected]
    for chunk in levels(r, max_depth=KMAX):
        for c in _codings(chunk.letters(np.arange(len(chunk))), chunk.log_ratio):
            walked[chunk.depth].append((tuple(j for _, j in c.letters), c.letters, c.log_ratio))
    assert walked == expected
    for k, level in enumerate(expected):
        got = [(c.letters, c.log_ratio) for c in coding_level(r, k)]
        assert got == [(letters, logr) for _, letters, logr in level]

    stop = list(stopping_set(r, epsilon))
    assert {c.letters for c in stop} == brute_force_stopping(r, epsilon, max_depth=64)
    assert [c.letters for c in stop] == sorted(c.letters for c in stop)

    h = power(s)
    depths = [1, 2, KMAX]
    streamed = measure._stream_log_sums(r, h, depths, measure.DEFAULT_NODE_BUDGET)
    for d, got in zip(depths, streamed):
        want = _oracle_log_sum(h, [logr for _, _, logr in expected[d]])
        if want == -math.inf:
            assert got == -math.inf
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 3])
def test_deep_thin_level_sums_past_recursion_limit(seed):
    assert 1500 > sys.getrecursionlimit()
    r = sample(REC, seed, deep_thin_family())
    h = power(0.5)
    depths = [1, 10, 100, 1500]
    got = level_sums(r, h, depths).log_sums
    levels = oracle_levels(r, 100)
    for d, v in zip(depths[:-1], got):
        assert v == pytest.approx(_oracle_log_sum(h, [lr for _, _, lr in levels[d]]), rel=1e-12)
    deepest = [c.log_ratio for c in coding_level(r, 1500)]
    assert len(deepest) > 1
    assert got[-1] == pytest.approx(_oracle_log_sum(h, deepest), rel=1e-12)
    # level-driven walks pass the end of several label windows; chunks of 1 or 4 nodes
    depths = [1, 10, 100, 600]
    with patch.object(trees, "FRONTIER_NODES", 1 + seed):
        for model in (HOM, DEEP_BLOCKS, REC, ModelSpec(kind="v_variable", v=2)):
            r = replace(sample(model, seed, deep_thin_family()), offset=3)
            assert measure._stream_log_sums(r, h, depths, 10**6).tobytes() == (
                oracle_stream_log_sums(r, h, depths, 10**6).tobytes()
            )


@pytest.mark.parametrize("seed", [0, 3])
def test_deep_thin_walk_makes_few_vectorized_steps(seed):
    # one vectorized step per level would mix 600 arrays
    r = sample(REC, seed, deep_thin_family())
    calls, mix = [], streams.mix_array
    with patch.object(streams, "mix_array", lambda *a: calls.append(1) or mix(*a)):
        measure._stream_log_sums(r, power(0.5), [600], 10**6)
    assert len(calls) <= 50


def test_deep_neck_block_walk_draws_linearly_many_blocks():
    # redrawing blocks 0..level at each of the 3,000 levels would draw 2,251,500
    r = sample(DEEP_BLOCKS, 0, deep_thin_family())
    drawn, blocks = [], trees.Realization._blocks
    with patch.object(trees.Realization, "_blocks", lambda self, n: drawn.append(n) or blocks(self, n)):
        measure._stream_log_sums(r, power(0.5), [3000], 10**6)
    assert 0 < sum(drawn) <= 4 * 3000


def test_deep_thin_stopping_set_past_recursion_limit():
    fam = deep_thin_family()
    r = sample(REC, 0, fam)
    log_eps = math.log(1e-60)
    stop = list(stopping_set(r, 1e-60))
    assert max(len(c) for c in stop) > sys.getrecursionlimit()
    for c in stop:
        logr = 0.0
        for si, j in c.letters:
            parent = logr
            logr += math.log(fam.systems[si].maps[j - 1].ratio)
        assert logr == c.log_ratio
        assert logr <= log_eps < parent


# ---- bit identity with the depth-first walker ---------------------------------

GAUGES = [power(0.7), loglog_power(0.7, 0.5), h1(0.6, 1.5)]


@given(
    realizations(),
    st.integers(0, 3),
    st.integers(1, 7),
    st.sampled_from(GAUGES),
    st.floats(0.02, 0.5),
    st.integers(0, 5),
    st.integers(0, 5),
    st.sampled_from([10**4, 20, 3]),
    st.booleans(),
)
def test_level_walker_consumers_match_depth_first_walker(
    r, offset, frontier, h, epsilon, depth_min, extra, argmin_limit, scalar
):
    r = replace(r, offset=offset)
    depth_cap = depth_min + extra
    # chunks of 1-7 nodes make every level cross chunk boundaries; all take the scalar step, or all the vectorized one
    with patch.object(trees, "FRONTIER_NODES", frontier), \
            patch.object(trees, "SCALAR_NODES", frontier if scalar else 0):
        depths = [1, 2, KMAX + 1]
        assert measure._stream_log_sums(r, h, depths, 10**6).tobytes() == (
            oracle_stream_log_sums(r, h, depths, 10**6).tobytes()
        )
        got = section_infimum(r, h, depth_min, depth_cap, argmin_limit=argmin_limit)
        want = oracle_section_infimum(r, h, depth_min, depth_cap, argmin_limit=argmin_limit)
        assert (got.value_log, got.argmin_section) == (want.value_log, want.argmin_section)
        if got.argmin_section is not None:
            # the section's own gauge sum, read from its addresses alone
            terms = [math.exp(h.eval_log(_address_log_ratio(r, a))) for a in got.argmin_section]
            if terms:
                assert math.log(math.fsum(terms)) == pytest.approx(got.value_log, rel=1e-12, abs=1e-12)
            else:
                assert got.value_log == -math.inf
        assert list(stopping_set(r, epsilon)) == list(oracle_stopping_set(r, epsilon))


@pytest.mark.parametrize("gauge", [lambda s: loglog_power(s, 0.5), lambda s: h1(s, 1.5)], ids=["loglog", "h1"])
def test_argmin_section_of_a_deep_thin_tree_matches_the_depth_first_walker(gauge):
    fam = deep_thin_family()
    h = gauge(dimension(fam, REC))  # at the dimension a node far above the cap takes its own value
    for seed in range(4):
        r = sample(REC, seed, fam)
        got, want = section_infimum(r, h, 1, 300), oracle_section_infimum(r, h, 1, 300)
        assert (got.value_log, got.argmin_section) == (want.value_log, want.argmin_section)
        assert 0 < max(map(len, got.argmin_section)) < 300


def _address_log_ratio(r, address):
    """Log ratio of the node at ``address``, its labels read one prefix at a time."""
    maps = [r.family.systems[r.label_of(address[:i])].maps[j - 1] for i, j in enumerate(address)]
    return math.fsum(math.log(m.ratio) for m in maps)


# ---- stopping counts ----------------------------------------------------------

scale_lists = st.lists(st.sampled_from([0.5, 0.3, 0.2, 0.1, 0.05, 0.03]), min_size=1, max_size=6)


def _one_by_one(r, scales):
    return [len(list(stopping_set(r, e))) for e in scales]


@given(realizations(), scale_lists)
def test_stopping_counts_match_stopping_sets(r, scales):
    assert stopping_counts(r, scales).tolist() == _one_by_one(r, scales)


@given(st.integers(0, 2**64 - 1), scale_lists)
def test_stopping_counts_on_percolation_with_extinct_nodes(seed, scales):
    fam, model = percolation_preset(0.55)
    r = sample(model, seed, fam)
    scales = scales + [2.0**-10, 2.0**-3, 2.0**-10]  # unsorted, repeated
    assert stopping_counts(r, scales).tolist() == _one_by_one(r, scales)


def test_stopping_counts_domain():
    fam, model = percolation_preset(0.55)
    r = sample(model, 0, fam)
    for bad in ([0.5, 1.0], [0.0], [-0.1, 0.5], [math.nan]):
        with pytest.raises(ParameterError):
            stopping_counts(r, bad)
    one = RIFSFamily(systems=(IFS(maps=(SimilarityMap(1.0), SimilarityMap(0.5))),), weights=(1.0,))
    with pytest.raises(PreconditionError):
        stopping_counts(sample(REC, 0, one), [0.1, 0.2])


def test_stopping_counts_stop_at_the_node_budget():
    r = sample(REC, 0, equicontractive_family([2], 0.5, [1.0]))
    nodes = 2**11 - 1  # 2^-10 <= 0.0015 < 2^-9: the walk visits every node to depth 10
    with patch.object(trees, "DEFAULT_NODE_BUDGET", nodes):
        assert stopping_counts(r, [0.0015]).tolist() == [2**10]
    with patch.object(trees, "DEFAULT_NODE_BUDGET", nodes - 1), \
            pytest.raises(ResourceError, match="node budget 2046 exceeded while streaming level 10"):
        stopping_counts(r, [0.0015])


def test_stopping_counts_of_no_scales_is_empty():
    counts = stopping_counts(sample(REC, 0, equicontractive_family([2], 0.5, [1.0])), [])
    assert counts.dtype == np.int64 and counts.shape == (0,)


@pytest.mark.parametrize(
    "walk",
    [lambda r: list(stopping_set(r, 0.0015)), lambda r: trees._stopping_letters(r, 0.0015)[1],
     lambda r: list(coding_level(r, 10))],
    ids=["stopping_set", "mass-check-letters", "coding_level"],
)
def test_tree_walks_stop_at_the_node_budget(walk):
    # each walk visits every node to depth 10, and reads the budget at call time
    r = sample(REC, 0, equicontractive_family([2], 0.5, [1.0]))
    nodes = 2**11 - 1
    with patch.object(trees, "DEFAULT_NODE_BUDGET", nodes):
        assert len(walk(r)) == 2**10
    with patch.object(trees, "DEFAULT_NODE_BUDGET", nodes - 1), \
            pytest.raises(ResourceError, match="node budget 2046 exceeded while streaming level 10"):
        walk(r)


# ---- memory -------------------------------------------------------------------

WIDE_DEPTH = 18  # 2**18 nodes on the last level, 2**19 - 1 in the tree


def _traced(fn):
    """fn's result and the tracemalloc peak of the call, in MiB."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_wide_tree_walks_in_bounded_memory():
    r = sample(REC, 0, equicontractive_family([2], 0.5, [1.0]))
    h = power(1.0)
    nodes = 2 ** (WIDE_DEPTH + 1) - 1
    log_sums, peak = _traced(lambda: measure._stream_log_sums(r, h, [WIDE_DEPTH], nodes))
    assert peak < 32
    assert log_sums[0] == pytest.approx(0.0, abs=1e-9)  # 2**18 codings of ratio 2**-18
    section, peak = _traced(lambda: section_infimum(r, h, 0, WIDE_DEPTH, node_budget=nodes))
    assert peak < 32
    assert section.value_log == pytest.approx(0.0, abs=1e-9)
    # the budget error comes exactly when the walk passes node_budget nodes
    measure._stream_log_sums(r, h, [WIDE_DEPTH], nodes)
    with pytest.raises(ResourceError):
        measure._stream_log_sums(r, h, [WIDE_DEPTH], nodes - 1)
    with pytest.raises(ResourceError):
        section_infimum(r, h, 0, WIDE_DEPTH, node_budget=nodes - 1)
