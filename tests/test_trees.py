import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from necktree.errors import HorizonError, ParameterError, PreconditionError, UnsupportedModelError
from necktree.geometry import percolation_preset
from necktree.rifs import equicontractive_family, log_moment_stats
from necktree.trees import (
    BlockTemplate,
    ModelSpec,
    Realization,
    coding_level,
    first_neck,
    neck_list,
    neck_shift,
    sample,
    stopping_set,
)

from helpers import brute_force_stopping, oracle_level_systems, worked_family

HOM = ModelSpec(kind="homogeneous")
REC = ModelSpec(kind="recursive")


def vv(v: int) -> ModelSpec:
    return ModelSpec(kind="v_variable", v=v)


def block_model() -> ModelSpec:
    # blocks of length 2 or 3 with level-dependent label distributions
    return ModelSpec(
        kind="neck_block",
        templates=(
            BlockTemplate(levels=((0.8, 0.2), (0.3, 0.7)), weight=2.0),
            BlockTemplate(levels=((0.5, 0.5), (0.5, 0.5), (1.0, 0.0)), weight=1.0),
        ),
    )


# ---- sampler invariants ----------------------------------------------------


def test_homogeneous_labels_depend_only_on_level():
    r = sample(HOM, 123, worked_family())
    assert r.label_of((1, 2)) == r.label_of((2, 1))
    for k in range(6):
        labels = {r.label_of(addr) for addr in [(1,) * k, (2,) * k, (1, 2) * (k // 2) + (1,) * (k % 2)]}
        assert len(labels) == 1


def test_v1_collapses_to_level_dependence():
    r = sample(vv(1), 99, worked_family())
    for k in range(1, 6):
        assert r.label_of((1,) * k) == r.label_of((2,) * k)
    necks = neck_list(r, 5)
    assert necks.necks == (1, 2, 3, 4, 5)


def test_recursive_reproducible_on_random_addresses():
    fam = worked_family()
    rng = np.random.default_rng(0)
    addrs = [tuple(rng.integers(1, fam.n_max + 1, size=rng.integers(0, 9))) for _ in range(1000)]
    a = sample(REC, 2024, fam)
    b = sample(REC, 2024, fam)
    assert [a.label_of(v) for v in addrs] == [b.label_of(v) for v in addrs]
    c = sample(REC, 2025, fam)
    assert any(a.label_of(v) != c.label_of(v) for v in addrs)


def test_v_variable_bounded_subtree_types():
    from itertools import product

    fam = worked_family()
    for v in (1, 2, 3):
        r = sample(vv(v), 7, fam)
        for k in range(1, 6):
            # a node's subtree is a function of its buffer at its level
            buffers = set()
            for addr in product(range(1, fam.n_max + 1), repeat=k):
                state = r._root_state
                for j in addr:
                    state = r._child_state(state, j)
                buffers.add(state[1])
            assert len(buffers) <= v


def test_v_variable_rejects_bad_v():
    with pytest.raises(ParameterError):
        sample(vv(0), 1, worked_family())


def test_level_systems_matches_label_of():
    # the 3-system families put a zero weight first, in the middle and last
    cases = [(worked_family(), (HOM, block_model()))] + [
        (equicontractive_family([2, 3, 1], 1 / 3, w), (HOM,))
        for w in ([0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0])
    ]
    for fam, models in cases:
        zero = [i for i, w in enumerate(fam.weights) if w == 0]
        for model in models:
            for offset in range(4):
                r = Realization(family=fam, model=model, seed=5, offset=offset)
                seq = r.level_systems(12)
                for k in range(12):
                    assert seq[k] == r.label_of((1,) * k)
                if model is HOM:
                    long = r.level_systems(3000)
                    assert long.tobytes() == oracle_level_systems(r, 3000).tobytes()
                    assert not np.isin(long, zero).any()


# ---- coding levels ----------------------------------------------------------


def test_coding_level_zero_is_empty_coding():
    r = sample(HOM, 1, worked_family())
    (c,) = list(coding_level(r, 0))
    assert c.letters == () and c.ratio == 1.0


def test_coding_level_counts_homogeneous():
    fam = worked_family()
    r = sample(HOM, 31, fam)
    seq = r.level_systems(2)
    expected = math.prod(fam.systems[i].nmaps for i in seq)
    codings = list(coding_level(r, 2))
    assert len(codings) == expected
    assert all(c.ratio == pytest.approx((1 / 3) ** 2, rel=1e-12) for c in codings)


def test_coding_level_recursive_matches_independent_walk():
    fam, model = percolation_preset(0.7)
    r = sample(model, 909, fam)

    def walk_count(addr, depth):
        if depth == 3:
            return 1
        n = fam.systems[r.label_of(addr)].nmaps
        return sum(walk_count(addr + (j,), depth + 1) for j in range(1, n + 1))

    assert len(list(coding_level(r, 3))) == walk_count((), 0)


def test_coding_level_depth_first_order():
    r = sample(HOM, 31, worked_family())
    letters = [c.letters for c in coding_level(r, 2)]
    assert letters == sorted(letters)


# ---- stopping sets -----------------------------------------------------------


def test_stopping_set_uniform_depth():
    r = sample(HOM, 3, worked_family())
    # ratios are powers of 1/3: 1/9 <= 0.12 < 1/3 forces length 2
    assert {len(c) for c in stopping_set(r, 0.12)} == {2}


def test_stopping_set_epsilon_above_cmax():
    r = sample(HOM, 3, worked_family())
    assert {len(c) for c in stopping_set(r, 0.5)} == {1}


def test_stopping_set_mixed_ratios_brute_force():
    from necktree.rifs import IFS, RIFSFamily, SimilarityMap

    fam = RIFSFamily(
        systems=(IFS(maps=(SimilarityMap(0.5), SimilarityMap(0.25)), label="mix"),),
        weights=(1.0,),
    )
    r = sample(HOM, 0, fam)
    got = {c.letters for c in stopping_set(r, 0.2)}
    assert got == brute_force_stopping(r, 0.2, max_depth=6)
    # with epsilon above 1/4 the quarter map stops at length 1
    got3 = {c.letters for c in stopping_set(r, 0.3)}
    assert got3 == brute_force_stopping(r, 0.3, max_depth=6)
    assert min(len(c) for c in got3) == 1


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("model", [HOM, REC, vv(2)])
def test_stopping_antichain_and_coverage(model, seed):
    fam = worked_family()
    r = sample(model, seed, fam)
    eps = 0.05
    stop = {c.letters for c in stopping_set(r, eps)}
    assert stop == brute_force_stopping(r, eps, max_depth=8)
    # antichain: no element is a prefix of another
    for a in stop:
        for b in stop:
            if a != b:
                assert a != b[: len(a)]
    # coverage: every level-8 coding with small ratio has exactly one prefix
    for coding in coding_level(r, 8):
        prefixes = [k for k in range(1, 9) if coding.letters[:k] in stop]
        assert len(prefixes) == 1


def test_stopping_set_domain():
    r = sample(HOM, 0, worked_family())
    with pytest.raises(ParameterError):
        list(stopping_set(r, 1.0))


def test_stopping_set_refuses_ratio_one():
    from necktree.rifs import IFS, RIFSFamily, SimilarityMap

    # the all-ones branch never shrinks, so the walk would never end
    fam = RIFSFamily(
        systems=(IFS(maps=(SimilarityMap(1.0), SimilarityMap(0.5)), label="bad"),),
        weights=(1.0,),
    )
    for model in (HOM, REC):
        with pytest.raises(PreconditionError):
            list(stopping_set(sample(model, 0, fam), 0.1))


# ---- level-sum identity -------------------------------------------------------


def test_homogeneous_level_sum_identity():
    fam = worked_family()
    s = 0.8154648767854269
    for seed in range(5):
        r = sample(HOM, seed, fam)
        seq = r.level_systems(8)
        for k in (1, 3, 8):
            walk = sum(
                math.log(sum(m.ratio**s for m in fam.systems[i].maps)) for i in seq[:k]
            )
            total = math.log(sum(c.ratio**s for c in coding_level(r, k)))
            assert total == pytest.approx(walk, abs=1e-9)


# ---- necks ---------------------------------------------------------------------


def test_neck_list_homogeneous():
    r = sample(HOM, 8, worked_family())
    assert neck_list(r, 5).necks == (1, 2, 3, 4, 5)


def test_neck_list_recursive_unsupported():
    r = sample(REC, 8, worked_family())
    with pytest.raises(UnsupportedModelError):
        neck_list(r, 5)


def test_neck_block_boundaries_by_construction():
    fam = worked_family()
    r = sample(block_model(), 21, fam)
    necks = neck_list(r, 30).necks
    assert necks  # blocks of length 2 or 3 keep arriving
    gaps = np.diff((0,) + necks)
    assert set(gaps) <= {2, 3}
    # labels inside a block follow the template distribution support
    tpl_first = r.level_systems(necks[0])
    assert len(tpl_first) in (2, 3)


@settings(max_examples=80)
@given(
    model=st.sampled_from((HOM, REC, vv(3), block_model())),
    seed=st.integers(0, 2**64 - 1),
    offset=st.integers(0, 3),
    horizon=st.integers(0, 12),
)
def test_first_neck_is_the_first_listed_neck(model, seed, offset, horizon):
    r = Realization(family=worked_family(), model=model, seed=seed, offset=offset)
    if model.kind == "recursive":
        for search in (neck_list, first_neck):
            with pytest.raises(UnsupportedModelError):
                search(r, horizon)
        return
    necks = neck_list(r, horizon).necks
    if necks:
        assert first_neck(r, horizon) == necks[0]
    else:
        with pytest.raises(HorizonError):
            first_neck(r, horizon)


def test_first_neck_refuses_a_neck_past_the_horizon():
    fam = worked_family()
    r = sample(HOM, 8, fam)
    assert first_neck(r, horizon=1) == 1
    with pytest.raises(HorizonError):
        first_neck(r, horizon=0)
    r = sample(block_model(), 21, fam)
    n1 = neck_list(r, 30).necks[0]
    assert first_neck(r, horizon=n1) == n1
    with pytest.raises(HorizonError):
        first_neck(r, horizon=n1 - 1)


def test_neck_shift_homogeneous_drops_first_level():
    fam = worked_family()
    r = sample(HOM, 77, fam)
    shifted = neck_shift(r)
    seq = r.level_systems(10)
    seq_shifted = shifted.level_systems(9)
    assert list(seq[1:10]) == list(seq_shifted)


def test_neck_shift_semigroup():
    fam = worked_family()
    r = sample(block_model(), 9, fam)
    n1 = neck_list(r, 50).necks[0]
    n2 = neck_list(r, 50).necks[1]
    twice = neck_shift(neck_shift(r))
    assert twice.offset == n2
    once = neck_shift(r)
    assert once.offset == n1


def test_neck_shift_vv_address_translation():
    fam = worked_family()
    r = sample(vv(2), 4, fam)
    shifted = neck_shift(r)
    n1 = shifted.offset
    rng = np.random.default_rng(1)
    for _ in range(100):
        addr = tuple(rng.integers(1, 3, size=rng.integers(0, 6)))
        assert shifted.label_of(addr) == r.label_of((1,) * n1 + addr)


def test_neck_shift_rebases_neck_list():
    fam = worked_family()
    r = sample(vv(2), 14, fam)
    base = neck_list(r, 60).necks
    assert len(base) >= 2
    shifted = neck_shift(r)
    rebased = neck_list(shifted, 60 - base[0]).necks
    expected = tuple(n - base[0] for n in base[1:] if n - base[0] <= 60 - base[0])
    assert rebased[: len(expected)] == expected


def test_neck_shift_horizon_error():
    fam = worked_family()
    r = sample(vv(3), 5, fam)
    with pytest.raises(HorizonError):
        neck_shift(r, horizon=0)


def test_vv2_neck_density_against_direct_chain_simulation():
    """Neck density of the buffer construction vs an independent simulation.

    The oracle replays the 2-buffer chain with numpy's own generator and the
    analytic coincidence bound: density >= P(both buffers draw identical
    label and child-assignment patterns), within 3 standard errors.
    """
    fam = worked_family()
    n_seeds, depth = 2000, 50
    densities = np.empty(n_seeds)
    for i in range(n_seeds):
        r = sample(vv(2), 10_000 + i, fam)
        densities[i] = len(neck_list(r, depth).necks) / depth
    mean = densities.mean()
    se = densities.std(ddof=1) / math.sqrt(n_seeds)

    # analytic pattern-coincidence probability: sum_l w_l^2 (1/V)^{N_l}
    w = np.array(fam.weights)
    counts = np.array([s.nmaps for s in fam.systems])
    p_pattern = float(np.sum(w**2 * (0.5**counts)))
    assert mean >= p_pattern - 3 * se

    # independent chain simulation with numpy RNG
    rng = np.random.default_rng(0)
    hits = total = 0
    for _ in range(500):
        reach = {0}
        for _level in range(depth):
            nxt = set()
            for b in (0, 1):
                if b not in reach:
                    continue
                lbl = rng.choice(2, p=w)
                for _j in range(counts[lbl]):
                    nxt.add(int(rng.integers(0, 2)))
            reach = nxt
            total += 1
            hits += len(reach) == 1
    sim_density = hits / total
    assert abs(mean - sim_density) < 0.05


def test_homogeneous_neck_independence_chi2():
    """Labels on either side of a neck are independent (chi-square at 0.01)."""
    fam = worked_family()
    counts = Counter()
    n = 10_000
    for seed in range(n):
        r = sample(HOM, seed, fam)
        counts[(r.label_of(()), r.label_of((1,)))] += 1
    table = np.array([[counts[(a, b)] for b in (0, 1)] for a in (0, 1)], dtype=float)
    chi2, p = sstats.chi2_contingency(table, correction=False)[:2]
    assert p > 0.01
