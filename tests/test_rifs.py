import ast
import gc
import math
import pathlib
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from necktree import rifs
from necktree.config import gauge_from_dict
from necktree.errors import ConfigError, NecktreeError, PreconditionError
from necktree.gauges import GaugeFunction
from necktree.rifs import (
    IFS,
    BlockTemplate,
    ModelSpec,
    RIFSFamily,
    SimilarityMap,
    RECURSIVE,
    _almost_deterministic_at,
    _left_sum,
    _model_weights,
    _moment_root,
    _statistic,
    beta_hat,
    cumulative_weights,
    dimension,
    equicontractive_family,
    eta_hat,
    log_moment_stats,
    log_moments,
    moment,
    validate,
)

from helpers import (
    _level_family,
    oracle_almost_deterministic_at,
    oracle_beta_hat,
    oracle_eta_hat,
    oracle_log_moment_stats,
    oracle_mean_s0,
    oracle_model_beta_hat,
    oracle_moment_root,
    oracle_validate,
    oracle_block_tables,
    oracle_dimension,
    oracle_homogeneous_dimension,
    oracle_log_moments,
    oracle_moment,
    oracle_label_bounds,
    oracle_label_thresholds,
    oracle_log_common_ratios,
    oracle_log_map_counts,
    oracle_walk_tables,
    random_equicontractive_family,
    random_family,
    worked_family,
)

S_HOM = math.log(6) / (2 * math.log(3))  # 0.8154648767854...
S_REC = math.log(2.5) / math.log(3)  # 0.8340437671463...


def test_moment_examples():
    fam = equicontractive_family([2], 0.5, [1.0])
    assert moment(fam, 0, 1.0) == pytest.approx(1.0, abs=1e-15)
    fam3 = equicontractive_family([3], 1 / 3, [1.0])
    assert moment(fam3, 0, 0.0) == 3.0
    fam2 = equicontractive_family([2], 1 / 3, [1.0])
    # oracle: 2 * 3^(-0.815465), high-precision arithmetic
    assert moment(fam2, 0, 0.815465) == pytest.approx(0.8164964704, abs=1e-9)
    with pytest.raises(IndexError):
        moment(fam2, 5, 1.0)


def test_validate_single_halving_is_almost_deterministic():
    fam = equicontractive_family([2], 0.5, [1.0])
    rep = validate(fam, "homogeneous")
    assert rep.almost_deterministic_at == pytest.approx(1.0, abs=1e-9)
    assert rep.gap is None


def test_validate_worked_family_gap():
    rep = validate(worked_family(), "homogeneous")
    assert rep.almost_deterministic_at is None
    assert rep.gap is not None
    eps, gamma, p0 = rep.gap
    # oracle: eps = 0.01 s*, gamma = 2 * 3^-(s*-eps), weight of the 2-map system
    assert eps == pytest.approx(0.0081546488, abs=1e-9)
    assert gamma == pytest.approx(0.8238442724, abs=1e-8)
    assert p0 == pytest.approx(0.5, abs=1e-15)
    # gap invariant: p0 is the summed weight of systems at or below gamma
    fam = worked_family()
    s_star = dimension(fam, "homogeneous")
    total = sum(
        w
        for i, w in enumerate(fam.weights)
        if moment(fam, i, s_star - eps) <= gamma
    )
    assert p0 == pytest.approx(total, abs=1e-15)


@pytest.mark.filterwarnings("error")
def test_zero_weight_empty_system_adds_nothing():
    # 0 * log S^s of an empty system is 0 * -inf; a zero weight must add an exact 0
    fam = equicontractive_family([3, 0, 2], 1 / 3, [0.5, 0.0, 0.5])
    without = equicontractive_family([3, 2], 1 / 3, [0.5, 0.5])
    for s in (0.0, 0.5, S_HOM):
        assert log_moment_stats(fam, s) == log_moment_stats(without, s)
    assert dimension(fam, "homogeneous") == dimension(without, "homogeneous") == 0.8154648767854269
    assert validate(fam, "homogeneous") == validate(without, "homogeneous")


def test_validate_ratio_one_flags_bounds():
    fam = RIFSFamily(
        systems=(IFS(maps=(SimilarityMap(1.0), SimilarityMap(0.5)), label="bad"),),
        weights=(1.0,),
    )
    rep = validate(fam, "homogeneous")
    assert not rep.ratio_bounds_ok


def test_validate_deterministic_idempotent():
    fam = worked_family()
    assert validate(fam, "homogeneous") == validate(fam, "homogeneous")


def test_dimension_worked_values():
    fam = worked_family()
    assert dimension(fam, "homogeneous") == pytest.approx(S_HOM, abs=1e-9)
    assert dimension(fam, "recursive") == pytest.approx(S_REC, abs=1e-9)
    det = equicontractive_family([2], 0.5, [1.0])
    assert dimension(det, "recursive") == pytest.approx(1.0, abs=1e-9)


def test_dimension_subcritical_raises():
    fam = equicontractive_family([1], 0.5, [1.0])
    with pytest.raises(PreconditionError, match=r"E\[log S\^0\]"):
        dimension(fam, "homogeneous")
    with pytest.raises(PreconditionError, match=r"E\[S\^0\]"):
        dimension(fam, "recursive")


def test_dimension_root_quality():
    fam = worked_family()
    for model in ("homogeneous", "recursive"):
        s = dimension(fam, model)
        if model == "homogeneous":
            obj = log_moment_stats(fam, s)[0]
        else:
            obj = sum(w * moment(fam, i, s) for i, w in enumerate(fam.weights)) - 1.0
        assert abs(obj) <= 1e-9


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the package error it raised."""
    try:
        return fn(*args)
    except NecktreeError as e:
        return type(e), str(e)


@st.composite
def solver_cases(draw):
    """1-4 systems of 0-4 maps with mixed ratios and zero weights, and a neck_block spec over them."""
    n = draw(st.integers(1, 4))
    systems = tuple(
        IFS(tuple(SimilarityMap(draw(st.sampled_from([0.2, 0.25, 1 / 3, 0.5]))) for _ in range(draw(st.integers(0, 4)))))
        for _ in range(n)
    )
    if not any(s.nmaps for s in systems):
        systems = (IFS((SimilarityMap(0.5), SimilarityMap(0.5))),) + systems[1:]
    xs = draw(st.lists(st.sampled_from([0, 1, 2, 5]), min_size=n, max_size=n).filter(any))
    family = RIFSFamily(systems=systems, weights=tuple(x / sum(xs) for x in xs))
    dists = [tuple(x / sum(d) for x in d) for d in draw(st.lists(
        st.lists(st.sampled_from([0, 1, 3]), min_size=n, max_size=n).filter(any), min_size=1, max_size=3))]
    return family, ModelSpec(kind="neck_block", templates=(BlockTemplate(levels=tuple(dists), weight=1.0),))


@settings(max_examples=40, deadline=None)
@given(solver_cases())
def test_homogeneous_solver_matches_the_full_statistics_bisection(case):
    family, block = case
    for model, fam in (("homogeneous", family), (block, _level_family(family, block))):
        want = outcome(oracle_homogeneous_dimension, fam)
        got = outcome(dimension, family, model)
        assert (got.hex() if isinstance(got, float) else got) == (want.hex() if isinstance(want, float) else want)
        auto = {"s": "auto", "family": {"h1": {"beta": "auto", "gamma": 0.25}}}
        if isinstance(want, float):
            want = outcome(lambda: GaugeFunction(s=want, family="h1", beta=beta_hat(family, want, model), gamma=0.25))
        assert repr(outcome(gauge_from_dict, auto, family, model)) == repr(want)


@st.composite
def ratio_row_families(draw):
    """1-4 systems of 0-4 maps, ratios in (0, 1] with repeats, some weights zero."""
    ratio = st.one_of(st.sampled_from([0.2, 1 / 3, 0.5, 1.0]), st.floats(0.01, 0.99))
    n = draw(st.integers(1, 4))
    systems = [IFS(tuple(SimilarityMap(draw(ratio)) for _ in range(draw(st.integers(0, 4))))) for _ in range(n)]
    if not any(s.nmaps for s in systems):
        systems[0] = IFS((SimilarityMap(draw(ratio)),))
    xs = draw(st.lists(st.sampled_from([0, 1, 2, 5]), min_size=n, max_size=n).filter(any))
    return RIFSFamily(systems=tuple(systems), weights=tuple(x / sum(xs) for x in xs))


@settings(max_examples=80, deadline=None)
@given(ratio_row_families(), st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
def test_moment_sums_over_ratio_rows_keep_their_bits(family, s):
    for model in ("homogeneous", "recursive"):
        assert repr(outcome(dimension, family, model)) == repr(outcome(oracle_dimension, family, model))
    assert [moment(family, i, s) for i in range(family.nsystems)] == [
        oracle_moment(family, i, s) for i in range(family.nsystems)
    ]
    assert log_moments(family, s).tobytes() == oracle_log_moments(family, s).tobytes()
    assert repr(outcome(beta_hat, family, s)) == repr(outcome(oracle_beta_hat, family, s))
    # the statistics read per-system values of ratio rows under one weight vector
    for model in ("homogeneous", "recursive"):
        assert repr(outcome(validate, family, model)) == repr(outcome(oracle_validate, family, model))
    assert repr(outcome(log_moment_stats, family, s)) == repr(outcome(oracle_log_moment_stats, family, s))
    assert repr(outcome(eta_hat, family)) == repr(outcome(oracle_eta_hat, family))
    assert [repr(_moment_root(row)) for row in family.map_ratios] == [
        repr(oracle_moment_root(system)) for system in family.systems
    ]
    assert repr(_almost_deterministic_at(family, family.weights)) == repr(oracle_almost_deterministic_at(family))
    assert _statistic(RECURSIVE, family, family.weights)[0](0.0).hex() == oracle_mean_s0(family).hex()


def test_log_moment_stats_worked():
    fam = worked_family()
    mean, var = log_moment_stats(fam, S_HOM)
    assert mean == pytest.approx(0.0, abs=1e-9)
    # oracle: values are +/- (ln3 - ln2)/2, variance is the square
    assert var == pytest.approx(((math.log(3) - math.log(2)) / 2) ** 2, abs=1e-9)
    assert var == pytest.approx(0.041100488, abs=1e-8)
    det = equicontractive_family([2], 0.5, [1.0])
    assert log_moment_stats(det, 1.0) == pytest.approx((0.0, 0.0), abs=1e-12)
    m0, _ = log_moment_stats(fam, 0.0)
    assert m0 >= math.log(2) - 1e-12


def test_moment_bounds_property():
    rng = np.random.default_rng(11)
    for _ in range(25):
        fam = random_family(rng)
        for s in (0.0, 0.3, 1.0, 2.5):
            for i in range(fam.nsystems):
                v = moment(fam, i, s)
                assert v <= fam.n_max + 1e-12
                if fam.systems[i].nmaps:
                    assert v >= fam.c_min**s - 1e-12


def test_equicontractive_closed_forms_property():
    rng = np.random.default_rng(5)
    for _ in range(50):
        fam = random_equicontractive_family(rng)
        c = fam.uniform_ratio
        counts = np.array([s.nmaps for s in fam.systems], dtype=float)
        w = np.array(fam.weights)
        s_hom_cf = float(np.dot(w, np.log(counts))) / math.log(1 / c)
        s_rec_cf = math.log(float(np.dot(w, counts))) / math.log(1 / c)
        assert dimension(fam, "homogeneous") == pytest.approx(s_hom_cf, abs=1e-9)
        assert dimension(fam, "recursive") == pytest.approx(s_rec_cf, abs=1e-9)


def test_jensen_ordering_property():
    rng = np.random.default_rng(17)
    for _ in range(50):
        fam = random_family(rng)
        rep = validate(fam, "homogeneous")
        if not (rep.homogeneous_supercritical and rep.recursive_supercritical):
            continue
        assert dimension(fam, "homogeneous") <= dimension(fam, "recursive") + 1e-9


def test_family_construction_errors():
    with pytest.raises(ConfigError):
        SimilarityMap(ratio=0.0)
    with pytest.raises(ConfigError):
        SimilarityMap(ratio=1.5)
    with pytest.raises(ConfigError):
        SimilarityMap(ratio=0.5, isometry=[[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ConfigError):
        RIFSFamily(systems=(IFS(maps=(SimilarityMap(0.5),)),), weights=(0.9,))
    with pytest.raises(ConfigError):
        RIFSFamily(systems=(IFS(maps=()),), weights=(1.0,))


# ---- label tables ------------------------------------------------------------------


@st.composite
def table_cases(draw):
    """1-4 systems of 0-4 maps of mixed ratios with weights that are often 0, and 2-3 neck_block
    templates of 1-4 levels over them."""
    nsys = draw(st.integers(1, 4))

    def dist() -> tuple[float, ...]:
        xs = draw(st.lists(st.integers(0, 3), min_size=nsys, max_size=nsys).filter(any))
        return tuple(x / sum(xs) for x in xs)

    ratio = st.sampled_from([0.25, 1 / 3, 0.5, 1.0]) | st.floats(0.05, 1.0)
    counts = draw(st.lists(st.integers(0, 4), min_size=nsys, max_size=nsys).filter(any))
    family = RIFSFamily(tuple(IFS(tuple(SimilarityMap(draw(ratio)) for _ in range(n))) for n in counts), dist())
    weight = st.sampled_from([0.5, 1.0, 3.0])
    templates = tuple(
        BlockTemplate(tuple(dist() for _ in range(draw(st.integers(1, 4)))), weight=draw(weight))
        for _ in range(draw(st.integers(2, 3)))
    )
    return family, templates


def _assert_tables(value, expected: dict) -> None:
    """Each named table of ``value`` has the expected bits and refuses writes."""
    for name, want in expected.items():
        got = getattr(value, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
        with pytest.raises(ValueError, match="read-only"):
            got[...] = 0


@settings(max_examples=40)
@given(table_cases())
def test_label_tables_match_the_builds_they_replace(case):
    family, templates = case
    nmaps, log_c = oracle_walk_tables(family)
    _assert_tables(family, {
        "label_bounds": oracle_label_bounds(oracle_label_thresholds(cumulative_weights(family.weights))),
        "map_counts": nmaps,
        "log_ratios": log_c,
        "log_map_counts": oracle_log_map_counts(family),
    })
    if family.is_equicontractive():  # the closed form reads the first column as its log ratios
        assert family.log_ratios[:, 0].tobytes() == oracle_log_common_ratios(family).tobytes()
    model = ModelSpec(kind="neck_block", templates=templates)
    names = ("template_bounds", "level_thresholds", "lengths", "first_rows")
    template_thresholds, *rest = oracle_block_tables(model)
    _assert_tables(model, dict(zip(names, (oracle_label_bounds(template_thresholds), *rest))))
    # the tables stay out of equality and hashing
    twin = ModelSpec(kind="neck_block", templates=tuple(BlockTemplate(t.levels, t.weight) for t in templates))
    assert twin == model and hash(twin) == hash(model) and {model: 1}[twin] == 1
    assert ModelSpec(kind="homogeneous") != model


# Systems 0 and 1 share the root s = 1 of S^s = 1 and system 2 has another; the level rows leave
# system 2 out, so the model is almost deterministic though the selection weights are not.
_SHARED_ROOT_CASE = (
    RIFSFamily((IFS((SimilarityMap(0.5),) * 2), IFS((SimilarityMap(1 / 3),) * 3), IFS((SimilarityMap(1 / 3),) * 2)),
               (0.25, 0.25, 0.5)),
    (BlockTemplate(((0.5, 0.5, 0.0),)), BlockTemplate(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), weight=0.5)),
)


@settings(max_examples=80, deadline=None)
@given(table_cases(), st.one_of(st.just(0.0), st.floats(0.0, 4.0)), st.booleans())
@example(_SHARED_ROOT_CASE, 1.0, False)
def test_neck_block_statistics_read_each_level_row_with_their_bits(case, s, idle_first):
    # 0-map systems, zero probabilities and a zero-weight template, against the per-level family rebuild
    family, templates = case
    if idle_first:
        templates = (BlockTemplate(templates[0].levels, weight=0.0),) + templates[1:]
    model = ModelSpec(kind="neck_block", templates=templates)
    for got, want in ((log_moment_stats, oracle_log_moment_stats), (beta_hat, oracle_model_beta_hat)):
        assert repr(outcome(got, family, s, model)) == repr(outcome(want, family, s, model))
    # the other statistics read the level weights, against the whole family rebuilt with them
    level = lambda: _level_family(family, model)
    for got, want in (
        (lambda: dimension(family, model), lambda: oracle_dimension(level(), "homogeneous")),
        (lambda: validate(family, model), lambda: oracle_validate(family, model)),
        (lambda: eta_hat(family, model), lambda: oracle_eta_hat(level())),
        (lambda: _almost_deterministic_at(family, _model_weights(family, model)[1]),
         lambda: oracle_almost_deterministic_at(level())),
    ):
        assert repr(outcome(got)) == repr(outcome(want))
    # a level row of the wrong length is refused first, before a negative exponent
    wide = ModelSpec(kind="neck_block", templates=(BlockTemplate(((1.0,) + (0.0,) * family.nsystems,)),))
    for exponent in (s, -1.0):
        want = outcome(oracle_log_moment_stats, family, exponent, wide)
        assert want[0] is ConfigError and outcome(log_moment_stats, family, exponent, wide) == want


def test_level_weights_that_do_not_normalize_are_config_errors():
    # template weights whose level weights underflow to 0 or overflow to inf leave no weight vector to read,
    # so every statistic of the model refuses them alike. A template weight sum that overflows is refused when
    # the spec is built; one finite template weight over several levels still builds, and its level weights
    # overflow
    family = equicontractive_family([2, 3, 1], 1 / 3, [0.3, 0.3, 0.4])
    tiny = ModelSpec(kind="neck_block", templates=(BlockTemplate(((0.4, 0.4, 0.2),), weight=5e-324),))
    huge = ModelSpec(kind="neck_block", templates=(BlockTemplate(((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)), weight=1e308),))
    with pytest.raises(ConfigError, match="must be finite"):
        ModelSpec(kind="neck_block", templates=(BlockTemplate(((1.0, 0.0, 0.0),), weight=1e308),) * 2)
    calls = (dimension, validate, eta_hat, lambda f, m: beta_hat(f, 0.5, m), lambda f, m: log_moment_stats(f, 0.5, m))
    for model in (tiny, huge):
        for call in calls:
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConfigError, match="must be finite"):
                call(family, model)


def test_level_weights_that_overflow_are_refused_with_no_warning():
    # a finite template weight sum whose level weights overflow, as the fuzz test draws it: every statistic
    # refuses it with a typed error alone, and no overflow warning escapes first
    family = equicontractive_family([2, 3, 1], 1 / 3, [0.3, 0.3, 0.4])
    model = ModelSpec(kind="neck_block", templates=(
        BlockTemplate(((1.0, 0.0, 0.0),), weight=1.0),
        BlockTemplate(((1 / 3,) * 3, (1.0, 0.0, 0.0)), weight=1e308),
    ))
    calls = (dimension, validate, eta_hat, lambda f, m: beta_hat(f, 0.5, m), lambda f, m: log_moment_stats(f, 0.5, m))
    for call in calls:
        with np.errstate(all="raise"), pytest.raises(ConfigError, match="weights must"):
            call(family, model)


def test_float_sum_adds_left_to_right():
    # CPython 3.12 and later give 2.0 here: their float sum() compensates rounding, while 3.11 adds left to right
    assert sum([1.0, 1e100, 1.0, -1e100]) == 0.0, (
        "sum() of floats no longer adds left to right: a float sum whose value reaches an output must go through "
        "rifs._left_sum, or its bits would move"
    )


def test_the_left_sum_adds_left_to_right_on_any_interpreter():
    assert _left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert _left_sum([]) == 0 and math.copysign(1.0, _left_sum([-0.0])) == 1.0  # from the integer 0, as sum()
    xs = list(np.random.default_rng(5).standard_normal(50) * 10.0 ** np.arange(-25, 25))
    assert _left_sum(xs) == np.cumsum(xs)[-1]  # numpy accumulates one element at a time


# ---- the memoized solves -------------------------------------------------------------------------------------------


def _hex(x):
    return x.hex() if isinstance(x, float) else x


@settings(max_examples=60, deadline=None)
@given(solver_cases(), st.floats(0.0, 3.0))
def test_memoized_solves_have_the_bits_of_a_fresh_solve(case, s):
    # the caches stay warm across examples, so a key that missed a value the solve reads would show here
    family, block = case
    for model in ("homogeneous", "recursive", ModelSpec(kind="v_variable", v=1), block):
        fresh = outcome(lambda: rifs._dimension.__wrapped__(*rifs._solver(family, model), family.map_ratios))
        assert _hex(outcome(dimension, family, model)) == _hex(fresh)
        spec, weights = _model_weights(family, model)
        fresh = outcome(rifs._beta_hat.__wrapped__, spec, weights, family.map_ratios, s)
        assert _hex(outcome(beta_hat, family, s, model)) == _hex(fresh)
    for row in family.map_ratios:
        assert repr(_moment_root(row)) == repr(_moment_root.__wrapped__(row))


def test_the_almost_deterministic_root_adds_its_weighted_roots_left_to_right():
    # rows whose ratios add to 1 share the root s = 1, each bisected to its own last bits; a BLAS dot may fuse a
    # product into its sum and move s_bar, which validate reports and drift's refusal names
    rows = [(0.5, 0.5), (0.3, 0.7), (0.2, 0.8), (0.1, 0.2, 0.7), (0.25,) * 4]
    rng = np.random.default_rng(33)
    for _ in range(200):
        chosen = [rows[i] for i in rng.choice(len(rows), size=rng.integers(2, 5), replace=False)]
        x = rng.random(len(chosen))
        family = RIFSFamily(
            systems=tuple(IFS(tuple(SimilarityMap(c) for c in row)) for row in chosen), weights=tuple(x / x.sum())
        )
        got = _almost_deterministic_at(family, family.weights)
        assert got is not None and repr(got) == repr(oracle_almost_deterministic_at(family))


def test_equal_families_built_apart_share_one_solve():
    for memo in (rifs._dimension, _moment_root):
        memo.cache_clear()
    with mock.patch.object(rifs, "bisect_decreasing", wraps=rifs.bisect_decreasing) as bisect:
        first, second = worked_family(), worked_family()
        assert dimension(first, "homogeneous") == dimension(second, "homogeneous")
        assert bisect.call_count == 1
        assert _almost_deterministic_at(first, first.weights) == _almost_deterministic_at(second, second.weights)
        assert bisect.call_count == 1 + len(set(first.map_ratios))  # one root per distinct row of >= 2 maps


def test_the_caches_keep_no_family_alive():
    family = worked_family()
    for model in ("homogeneous", "recursive"):
        dimension(family, model), beta_hat(family, 0.7, model), validate(family, model)
    ref = weakref.ref(family)
    del family
    gc.collect()
    assert ref() is None


def test_an_exponent_keys_as_its_float_value():
    rifs._beta_hat.cache_clear()
    family = worked_family()
    got = [beta_hat(family, s) for s in (1, 1.0, np.float64(1.0))]
    assert [type(b) for b in got] == [float] * 3 and len({b.hex() for b in got}) == 1
    assert rifs._beta_hat.cache_info().misses == 1


def test_a_negative_zero_weight_keys_as_zero_and_solves_to_the_same_bits():
    # -0.0 == 0.0 as keys: the zero weight is masked either way, and every bisection branches on > 0
    systems = (IFS((SimilarityMap(0.5),)), IFS((SimilarityMap(1 / 3),) * 2), IFS((SimilarityMap(0.25),) * 3))
    fams = [RIFSFamily(systems=systems, weights=(zero, 0.5, 0.5)) for zero in (0.0, -0.0)]
    assert math.copysign(1.0, fams[1].weights[0]) == -1.0
    for model in ("homogeneous", "recursive"):
        solves = [rifs._dimension.__wrapped__(*rifs._solver(f, model), f.map_ratios) for f in fams]
        assert solves[0].hex() == solves[1].hex() == dimension(fams[1], model).hex()
        betas = [rifs._beta_hat.__wrapped__(*_model_weights(f, model), f.map_ratios, 0.7) for f in fams]
        assert betas[0].hex() == betas[1].hex() == beta_hat(fams[1], 0.7, model).hex()
    assert _almost_deterministic_at(fams[0], fams[0].weights) == _almost_deterministic_at(fams[1], fams[1].weights)


def test_a_failing_solve_raises_on_every_call_and_is_not_cached():
    subcritical = equicontractive_family([1], 0.5, [1.0])
    unit = RIFSFamily(systems=(IFS((SimilarityMap(1.0), SimilarityMap(0.5))),), weights=(1.0,))
    rifs._dimension.cache_clear()
    for family, model, error in (
        (subcritical, "homogeneous", PreconditionError),
        (unit, "recursive", PreconditionError),
        (worked_family(), ModelSpec(kind="v_variable", v=2), ConfigError),
    ):
        raised = [outcome(dimension, family, model) for _ in range(2)]
        assert raised[0] == raised[1] and raised[0][0] is error
    assert rifs._dimension.cache_info().currsize == 0
    flat = equicontractive_family([2, 2], 0.5, [0.5, 0.5])  # zero variance
    raised = (PreconditionError, "beta_hat needs positive variance and contraction")
    assert outcome(beta_hat, flat, 0.7) == outcome(beta_hat, flat, 0.7) == raised


def _builtin_sums(node, where):
    """``(line, enclosing dotted name)`` of each builtin ``sum(...)`` call under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        where = f"{where}.{node.name}"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum":
        yield node.lineno, where
    for child in ast.iter_child_nodes(node):
        yield from _builtin_sums(child, where)


def test_builtin_sum_adds_no_float_outside_its_allowed_functions():
    # Python 3.12's sum() of floats compensates rounding; a float sum whose value can reach an output adds left to
    # right through rifs._left_sum.  These functions sum only in checks, in template weights or in integer counts.
    allowed = {"rifs.ModelSpec.__post_init__", "rifs._check_weights", "rifs._model_weights", "trees._in_address_order"}
    found = [
        f"{path.name}:{line} in {where}"
        for path in sorted(pathlib.Path(rifs.__file__).parent.glob("*.py"))
        for line, where in _builtin_sums(ast.parse(path.read_text()), path.stem)
        if where not in allowed
    ]
    assert not found, f"builtin sum() outside its allow-list; add left to right with rifs._left_sum: {found}"
