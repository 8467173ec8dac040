import math
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from necktree import streams, trees
from necktree.errors import ConfigError, HorizonError, ParameterError, PreconditionError, UnsupportedModelError
from necktree.gauges import power
from necktree.geometry import percolation_preset
from necktree.measure import (
    drift_experiment,
    ensemble_seeds,
    level_sums,
    lil_calibration,
    packing_level_limsup,
    section_infimum,
)
from necktree.rifs import RIFSFamily, cumulative_weights, equicontractive_family, log_moment_stats
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

from helpers import (
    brute_force_stopping,
    oracle_level_systems,
    oracle_neck_block_label,
    oracle_neck_block_necks,
    worked_family,
)

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
                assert r.level_systems(0).size == 0
                seq = r.level_systems(12)
                for k in range(12):
                    assert seq[k] == r.label_of((1,) * k)
                if model is HOM:
                    long = r.level_systems(3000)
                    assert long.tobytes() == oracle_level_systems(r, 3000).tobytes()
                    assert not np.isin(long, zero).any()


@pytest.mark.parametrize("model", [HOM, block_model()], ids=["homogeneous", "neck-block"])
def test_level_driven_realizations_re_root_without_a_walk(model):
    offset = 10**5
    with patch.object(Realization, "_child_state", autospec=True, side_effect=Realization._child_state) as step:
        r = Realization(family=worked_family(), model=model, seed=5, offset=offset)
    assert step.call_count == 0
    assert r.label_of(()) == Realization(family=worked_family(), model=model, seed=5).level_systems(offset + 1)[-1]


def test_level_labels_switch_at_the_integer_thresholds():
    # zero weights first, in the middle and last, cumulative weights that are not dyadic, and every threshold
    # before the last at 2^53, which leaves no bound to compare a draw with
    for w in ([0.0, 0.3, 0.7], [0.3, 0.0, 0.7], [0.3, 0.7, 0.0], [0.1, 0.2, 0.7], [1.0, 0.0, 0.0]):
        fam = equicontractive_family([2, 3, 1], 1 / 3, w)
        draws = {0, streams.MASK64}
        for c in cumulative_weights(fam.weights)[:-1]:
            t = math.ceil(c * 2.0**53) << 11  # the first draw x with u01(x) >= c
            if t <= streams.MASK64:
                assert streams.u01(t) >= c
            if t > 0:
                assert streams.u01(t - 1) < c
            draws |= {x for x in (t - 1, t) if 0 <= x <= streams.MASK64}
        x = np.array(sorted(draws), dtype=np.uint64)
        want = cumulative_weights(fam.weights).searchsorted(streams.u01_array(x), side="right").tolist()
        with patch.object(streams, "mix_array", lambda draws, tmp=None: x):
            assert sample(HOM, 0, fam).level_systems(x.size).tolist() == want
        # a recursive node's label is its first draw
        with patch.object(streams, "fold_array", lambda state, counters: np.repeat(x[:, None], 4, axis=1)):
            labels, _ = trees.expander(sample(REC, 0, fam))(0, np.zeros(x.size, dtype=np.uint64), x.size)
        assert labels.tolist() == want
        assert not np.isin(want, [i for i, wi in enumerate(w) if wi == 0]).any()


@settings(max_examples=30, deadline=None)
@given(
    weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=5).filter(any),
    offset=st.integers(0, 3),
    seed=st.integers(0, 2**64 - 1),
)
def test_level_labels_match_the_searchsorted_oracle(weights, offset, seed):
    # 1-5 systems with zeros anywhere, so thresholds of 0 and of 2^53 before the last
    fam = equicontractive_family([2] * len(weights), 1 / 3, [w / sum(weights) for w in weights])
    r = Realization(family=fam, model=HOM, seed=seed, offset=offset)
    assert r.level_systems(3000).tobytes() == oracle_level_systems(r, 3000).tobytes()


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


@pytest.mark.parametrize(
    "model, call, error, message",
    [
        (REC, lambda r: r.level_systems(3), UnsupportedModelError, "recursive model has no per-level label"),
        (vv(2), lambda r: r.level_systems(3), UnsupportedModelError, "v_variable model has no per-level label"),
        (HOM, lambda r: r.label_of((1, 0)), ParameterError, r"address entries must lie in \[1, 3\], got 0"),
        (REC, lambda r: r.label_of((4,)), ParameterError, r"address entries must lie in \[1, 3\], got 4"),
        (HOM, lambda r: list(coding_level(r, -1)), ParameterError, "level must be >= 0"),
        (block_model(), lambda r: neck_list(r, -1), ParameterError, "up_to_level must be >= 0"),
        (HOM, lambda r: r.level_systems(-1), ParameterError, "depth must be an integer >= 0, got -1"),
        (block_model(), lambda r: r.level_systems(-1), ParameterError, "depth must be an integer >= 0, got -1"),
        (HOM, lambda r: r.level_systems(2.5), ParameterError, "depth must be an integer >= 0, got 2.5"),
        (block_model(), lambda r: r.level_systems(2.5), ParameterError, "depth must be an integer >= 0, got 2.5"),
        (HOM, lambda r: list(coding_level(r, 2.5)), ParameterError, "level must be an integer, got 2.5"),
        (REC, lambda r: list(coding_level(r, math.nan)), ParameterError, "level must be an integer, got nan"),
        (HOM, lambda r: section_infimum(r, power(0.5), 1, 2.5), ParameterError,
         "depth_cap must be an integer, got 2.5"),
        (REC, lambda r: section_infimum(r, power(0.5), math.nan, 3), ParameterError,
         "depth_min must be an integer, got nan"),
        (REC, lambda r: section_infimum(r, power(0.5), 1, 3, node_budget=math.nan), ParameterError,
         "node_budget must be an integer, got nan"),
        (REC, lambda r: section_infimum(r, power(0.5), 1, 3, node_budget=2.5), ParameterError,
         "node_budget must be an integer, got 2.5"),
        (REC, lambda r: section_infimum(r, power(0.5), 1, 3, argmin_limit=math.nan), ParameterError,
         "argmin_limit must be an integer, got nan"),
        (HOM, lambda r: section_infimum(r, power(0.5), 1, 3, argmin_limit=2.5), ParameterError,
         "argmin_limit must be an integer, got 2.5"),
        (REC, lambda r: level_sums(r, power(0.5), [1, 2], node_budget=math.nan), ParameterError,
         "node_budget must be an integer, got nan"),
        (REC, lambda r: level_sums(r, power(0.5), [1, 2], node_budget=2.5), ParameterError,
         "node_budget must be an integer, got 2.5"),
        (REC, lambda r: packing_level_limsup(r, power(0.5), [1, 2], node_budget=math.nan), ParameterError,
         "node_budget must be an integer, got nan"),
        (REC, lambda r: packing_level_limsup(r, power(0.5), [1, 2], node_budget=2.5), ParameterError,
         "node_budget must be an integer, got 2.5"),
        (block_model(), lambda r: neck_list(r, 2.5), ParameterError, "up_to_level must be an integer, got 2.5"),
        (vv(2), lambda r: neck_list(r, math.nan), ParameterError, "up_to_level must be an integer, got nan"),
        (block_model(), lambda r: first_neck(r, 2.5), ParameterError, "horizon must be an integer, got 2.5"),
        (vv(2), lambda r: first_neck(r, math.nan), ParameterError, "horizon must be an integer, got nan"),
        (block_model(), lambda r: first_neck(r, -1), ParameterError, "horizon must be >= 0"),
        (HOM, lambda r: level_sums(r, power(0.5), [1, 2.5]), ParameterError, "depth must be an integer, got 2.5"),
        (REC, lambda r: level_sums(r, power(0.5), [math.nan]), ParameterError, "depth must be an integer, got nan"),
        (HOM, lambda r: packing_level_limsup(r, power(0.5), [2.5]), ParameterError,
         "depth must be an integer, got 2.5"),
        (REC, lambda r: packing_level_limsup(r, power(0.5), [1, math.nan]), ParameterError,
         "depth must be an integer, got nan"),
        (HOM, lambda r: drift_experiment(r.family, r.model, power(0.5), 2, [2.5], 0), ParameterError,
         "depth must be an integer, got 2.5"),
        (vv(2), lambda r: drift_experiment(r.family, r.model, power(0.5), 2, [math.nan], 0), ParameterError,
         "depth must be an integer, got nan"),
        (HOM, lambda r: drift_experiment(r.family, r.model, power(0.5), 2.5, [2], 0), ParameterError,
         "n_realizations must be an integer, got 2.5"),
        (HOM, lambda r: lil_calibration(r.family, r.model, 0.5, 2.5, 20, 0), ParameterError,
         "n_paths must be an integer, got 2.5"),
        (HOM, lambda r: lil_calibration(r.family, r.model, 0.5, 2, math.nan, 0), ParameterError,
         "depth must be an integer, got nan"),
        (HOM, lambda r: ensemble_seeds(r.seed, 2.5), ParameterError, "n must be an integer, got 2.5"),
        (HOM, lambda r: Realization(r.family, r.model, r.seed, offset=2.5), ParameterError,
         "offset must be an integer, got 2.5"),
        (block_model(), lambda r: Realization(r.family, r.model, r.seed, offset=-1), ParameterError,
         "offset must be >= 0"),
        (vv(2), lambda r: list(trees.vv_level_counts([r], 0)), ParameterError, "n must be >= 1"),
        (vv(2), lambda r: list(trees.vv_level_counts([r], 2.5)), ParameterError, "n must be an integer, got 2.5"),
        (vv(2), lambda r: list(trees.vv_log_counts([r], 2.5)), ParameterError, "n must be an integer, got 2.5"),
        (vv(2), lambda r: list(trees.vv_log_counts([r], math.nan)), ParameterError, "n must be an integer, got nan"),
        (vv(2), lambda r: list(trees.vv_log_counts([r], -1)), ParameterError, "n must be >= 0"),
        (vv(2), lambda r: list(trees.vv_log_counts([], 3)), ParameterError, "need at least one realization"),
        (HOM, lambda r: drift_experiment(r.family, r.model, power(0.5), 2, [2], 0, workers=2.5), ParameterError,
         "workers must be an integer, got 2.5"),
        # a boolean is no integer, though Python counts True as 1
        (REC, lambda r: level_sums(r, power(0.5), [True]), ParameterError, "depth must be an integer, got True"),
        (block_model(), lambda r: neck_list(r, True), ParameterError, "up_to_level must be an integer, got True"),
        (HOM, lambda r: Realization(r.family, r.model, r.seed, offset=True), ParameterError,
         "offset must be an integer, got True"),
        (block_model(), lambda r: r.level_systems(True), ParameterError, "depth must be an integer >= 0, got True"),
        # counts given to the value types: V and the ambient dimension
        (HOM, lambda r: ModelSpec("v_variable", v=2.5), ParameterError, "v must be an integer, got 2.5"),
        (HOM, lambda r: ModelSpec("v_variable", v=math.nan), ParameterError, "v must be an integer, got nan"),
        (HOM, lambda r: ModelSpec("v_variable", v=True), ParameterError, "v must be an integer, got True"),
        (HOM, lambda r: RIFSFamily(r.family.systems, r.family.weights, ambient_dim=1.5), ConfigError,
         "ambient_dim must be a positive integer"),
        (HOM, lambda r: RIFSFamily(r.family.systems, r.family.weights, ambient_dim=math.nan), ConfigError,
         "ambient_dim must be a positive integer"),
        (HOM, lambda r: RIFSFamily(r.family.systems, r.family.weights, ambient_dim=True), ConfigError,
         "ambient_dim must be a positive integer"),
        (HOM, lambda r: drift_experiment(r.family, r.model, power(0.5), 2, [2], 0, workers=0), ParameterError,
         "need at least one worker"),
        (HOM, lambda r: drift_experiment(r.family, r.model, power(0.5), 2, [2], 0, workers=-3), ParameterError,
         "need at least one worker"),
        # drift thresholds are exactly two finite numbers, checked before any path is drawn
        (HOM, lambda r: drift_experiment(r.family, r.model, power(0.5), 2, [2], 0, thresholds=(math.nan, math.nan)),
         ParameterError, r"thresholds must be two finite numbers lo,hi, got \(nan, nan\)"),
        (HOM, lambda r: drift_experiment(r.family, r.model, power(0.5), 2, [2], 0, thresholds=(1.0,)),
         ParameterError, r"thresholds must be two finite numbers lo,hi, got \(1.0,\)"),
        (vv(2), lambda r: drift_experiment(r.family, r.model, power(0.5), 2, [2], 0, thresholds=None),
         ParameterError, "thresholds must be two finite numbers lo,hi, got None"),
        (HOM, lambda r: drift_experiment(r.family, r.model, power(0.5), 2, [2], 0, thresholds=(-1.0, math.inf)),
         ParameterError, r"thresholds must be two finite numbers lo,hi, got \(-1.0, inf\)"),
        (HOM, lambda r: drift_experiment(r.family, r.model, power(0.5), 2, [2], 0, thresholds=(False, 1.0)),
         ParameterError, r"thresholds must be two finite numbers lo,hi, got \(False, 1.0\)"),
        (HOM, lambda r: drift_experiment(r.family, r.model, power(0.5), 2, [2], 0, thresholds=("-1", "1")),
         ParameterError, r"thresholds must be two finite numbers lo,hi, got \('-1', '1'\)"),
        (HOM, lambda r: drift_experiment(r.family, r.model, power(0.5), 2, [2], 0, thresholds=(-1.0, 1.0, 2.0)),
         ParameterError, "thresholds must be two finite numbers"),
        # template weights whose sum overflows to inf
        (HOM, lambda r: ModelSpec("neck_block", templates=(BlockTemplate(((0.5, 0.5),), weight=1e308),) * 2),
         ConfigError, "template weights must be finite and non-negative with a positive finite sum"),
    ],
    ids=["level-systems-recursive", "level-systems-v-variable", "label-of-zero", "label-of-past-n-max",
         "coding-level-negative", "neck-list-negative", "level-systems-negative-homogeneous",
         "level-systems-negative-neck-block", "level-systems-fraction-homogeneous",
         "level-systems-fraction-neck-block", "coding-level-fraction", "coding-level-nan",
         "section-infimum-fraction-cap", "section-infimum-nan-min", "section-infimum-nan-budget",
         "section-infimum-fraction-budget", "section-infimum-nan-argmin-limit",
         "section-infimum-fraction-argmin-limit", "level-sums-nan-budget", "level-sums-fraction-budget",
         "packing-nan-budget", "packing-fraction-budget", "neck-list-fraction", "neck-list-nan",
         "first-neck-fraction", "first-neck-nan", "first-neck-negative", "level-sums-fraction", "level-sums-nan",
         "packing-limsup-fraction", "packing-limsup-nan", "drift-depth-fraction", "drift-depth-nan",
         "drift-count-fraction", "lil-paths-fraction", "lil-depth-nan", "ensemble-seeds-fraction",
         "offset-fraction", "offset-negative", "vv-level-counts-zero", "vv-level-counts-fraction",
         "vv-log-counts-fraction", "vv-log-counts-nan", "vv-log-counts-negative", "vv-log-counts-empty",
         "drift-workers-fraction", "level-sums-boolean", "neck-list-boolean", "offset-boolean",
         "level-systems-boolean", "v-fraction", "v-nan", "v-boolean", "ambient-dim-fraction", "ambient-dim-nan",
         "ambient-dim-boolean", "drift-workers-zero", "drift-workers-negative", "drift-thresholds-nan",
         "drift-thresholds-one", "drift-thresholds-none", "drift-thresholds-inf", "drift-thresholds-boolean",
         "drift-thresholds-strings", "drift-thresholds-three", "template-weights-overflow"],
)
def test_label_reads_raise_typed_errors(model, call, error, message):
    r = sample(model, 8, worked_family())  # n_max = 3
    with pytest.raises(error, match=message):
        call(r)


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


@pytest.mark.parametrize(
    "templates, message",
    [
        ((), "at least one template"),
        ((BlockTemplate(levels=((0.5, 0.5),), weight=-1.0),), "template weights"),
        ((BlockTemplate(levels=((0.5, 0.5),), weight=0.0),), "template weights"),
        ((BlockTemplate(levels=()),), "at least one level"),
        ((BlockTemplate(levels=((0.5, 0.3, 0.2),)),), "length must match"),
        ((BlockTemplate(levels=((0.5, 0.4),)),), "must sum to 1"),
        ((BlockTemplate(levels=((1.5, -0.5),)),), "must sum to 1"),
        ((BlockTemplate(levels=((0.5, 0.5),)), BlockTemplate(levels=((0.2, 0.3, 0.5),))), "all have one length"),
    ],
    ids=["no-templates", "negative-weight", "zero-weights", "empty-template", "wrong-length",
         "short-sum", "negative-probability", "mixed-lengths"],
)
def test_neck_block_template_errors(templates, message):
    with pytest.raises(ConfigError, match=message):
        sample(ModelSpec(kind="neck_block", templates=templates), 0, worked_family())


def _uniform_family(nsys: int):
    return equicontractive_family([2] * nsys, 1 / 3, [1 / nsys] * nsys)


@st.composite
def neck_block_realizations(draw) -> Realization:
    """1-4 systems; 1-3 templates of 1-4 levels whose distributions often hold zeros; offsets 0-20."""
    nsys = draw(st.integers(1, 4))

    def dist() -> tuple[float, ...]:
        xs = draw(st.lists(st.integers(0, 3), min_size=nsys, max_size=nsys).filter(any))
        return tuple(x / sum(xs) for x in xs)

    templates = tuple(
        BlockTemplate(levels=tuple(dist() for _ in range(draw(st.integers(1, 4)))), weight=draw(st.integers(1, 3)))
        for _ in range(draw(st.integers(1, 3)))
    )
    model = ModelSpec(kind="neck_block", templates=templates)
    return Realization(_uniform_family(nsys), model, draw(st.integers(0, 2**64 - 1)), offset=draw(st.integers(0, 20)))


@settings(max_examples=60, deadline=None)
@given(r=neck_block_realizations())
def test_neck_block_labels_match_a_running_sum(r):
    want = [oracle_neck_block_label(r, r.offset + k) for k in range(40)]
    assert r.level_systems(40).tolist() == want
    assert r.label_of((1,) * 5) == want[5]


@pytest.mark.parametrize(
    "dist",
    [(0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0), (0.7, 0.2, 0.1), (0.7, 0.2, 0.1, 0.0), (1.0,)],
    ids=["zero-first", "zero-middle", "zero-last", "sum-below-one", "sum-below-one-then-zero", "one-system"],
)
def test_neck_block_labels_at_the_running_sum_boundaries(dist):
    # raw draws at and just below each running sum, and just below 1, where a
    # running sum that ends below 1 falls through to the last system
    first = {a: math.ceil(a * 2.0**53) << 11 for a in np.cumsum(dist).tolist()}  # the first x with u01(x) >= a
    draws = {0, streams.MASK64, *(t for a, t in first.items() if a < 1), *(t - 1 for a, t in first.items() if a > 0)}
    draws = np.array(sorted(x for x in draws if x <= streams.MASK64), dtype=np.uint64)
    r = sample(ModelSpec(kind="neck_block", templates=(BlockTemplate(levels=(dist,)),)), 0, _uniform_family(len(dist)))
    # every fold, scalar or array, lands on one of the draws' top 53 bits; a label
    # reads no others, so the low 11 bits are kept to tell nested folds apart
    fold, fold_array, top = streams.fold, streams.fold_array, draws >> 11

    def onto_draws(x):
        return top[x % top.size] << 11 | x & 0x7FF

    with (
        patch.object(streams, "fold", lambda state, counter: int(onto_draws(fold(state, counter)))),
        patch.object(streams, "fold_array", lambda state, counters: onto_draws(fold_array(state, counters))),
    ):
        got = r.level_systems(200).tolist()
        assert got == [oracle_neck_block_label(r, k) for k in range(200)]
        seen = {streams.fold(streams.fold(r._hbl, k), 0) >> 11 for k in range(200)}
    assert seen == set(top.tolist())


@settings(max_examples=60, deadline=None)
@given(r=neck_block_realizations(), horizon=st.integers(0, 60))
def test_neck_block_necks_match_a_block_walk(r, horizon):
    want = oracle_neck_block_necks(r, horizon)
    assert neck_list(r, horizon).necks == tuple(want)
    if want:
        assert first_neck(r, horizon) == want[0]
    else:
        with pytest.raises(HorizonError):
            first_neck(r, horizon)


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
