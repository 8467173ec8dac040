"""The depth-first walker and its consumers against the label_of oracle."""
import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from necktree.gauges import power
from necktree.measure import level_sums
from necktree.rifs import IFS, RIFSFamily, SimilarityMap
from necktree.trees import BlockTemplate, ModelSpec, coding_level, sample, stopping_set, walk

from helpers import brute_force_stopping, deep_thin_family, oracle_levels

KMAX = 4
REC = ModelSpec(kind="recursive")


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
    levels = oracle_levels(r, KMAX)
    # the walk visits every node once, in depth-first pre-order
    addresses = [tuple(j for _, j in letters) for _, _, letters in walk(r, max_depth=KMAX)]
    assert addresses == sorted(addr for level in levels for addr, _, _ in level)
    for k, level in enumerate(levels):
        got = [(c.letters, c.log_ratio) for c in coding_level(r, k)]
        assert got == [(letters, logr) for _, letters, logr in level]

    stop = list(stopping_set(r, epsilon))
    assert {c.letters for c in stop} == brute_force_stopping(r, epsilon, max_depth=64)
    assert [c.letters for c in stop] == sorted(c.letters for c in stop)

    h = power(s)
    depths = [1, 2, KMAX]
    streamed = level_sums(r, h, depths, force_stream=True).log_sums
    for d, got in zip(depths, streamed):
        want = _oracle_log_sum(h, [logr for _, _, logr in levels[d]])
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
