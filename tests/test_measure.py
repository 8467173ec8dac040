import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from necktree import measure, rifs, trees
from necktree.errors import (
    ConfigError,
    ExtinctionError,
    NecktreeError,
    ParameterError,
    PreconditionError,
    ResourceError,
    UnsupportedModelError,
)
from necktree.gauges import GaugeFunction, h1, h1_star, loglog_power, power
from necktree.geometry import percolation_preset
from necktree.measure import (
    DEFAULT_NODE_BUDGET,
    _all_level_log_sums,
    _fast_log_sums,
    _gauged,
    _stream_log_sums,
    beta_hat,
    drift_experiment,
    ensemble_seeds,
    eta_hat,
    level_sums,
    lil_calibration,
    lil_envelope,
    mass_distribution_check,
    natural_measure,
    packing_level_limsup,
    section_infimum,
)
from necktree.rifs import IFS, RIFSFamily, SimilarityMap, dimension, equicontractive_family
from necktree.trees import BlockTemplate, Coding, ModelSpec, Realization, coding_level, sample

from helpers import (
    min_section_sum_log,
    oracle_closed_form_log_sums,
    oracle_drift_experiment,
    oracle_lil_calibration,
    oracle_log_mass,
    oracle_mass_check_1d,
    oracle_stream_log_sums,
    oracle_vv_count_log_sums,
    random_family,
    worked_family,
)

HOM = ModelSpec(kind="homogeneous")
REC = ModelSpec(kind="recursive")
VV2 = ModelSpec(kind="v_variable", v=2)

S_HOM = math.log(6) / (2 * math.log(3))


# ---- level sums -------------------------------------------------------------


def test_level_sums_worked_example():
    fam = worked_family()
    g = power(S_HOM)
    # find a seed whose first two levels are (2-map, 3-map): sum at depth 2 is 1
    for seed in range(50):
        r = sample(HOM, seed, fam)
        seq = r.level_systems(2)
        if list(seq) == [0, 1]:
            break
    else:
        pytest.fail("no seed with level labels (A, B) in range")
    series = level_sums(r, g, [2])
    # oracle: 6 * 3^(-2s) = 1, checked by explicit enumeration too
    assert series.log_sums[0] == pytest.approx(0.0, abs=1e-9)
    enum = sum(c.ratio**S_HOM for c in coding_level(r, 2))
    assert math.log(enum) == pytest.approx(series.log_sums[0], abs=1e-9)


def test_level_sums_two_a_levels():
    fam = worked_family()
    g = power(S_HOM)
    for seed in range(80):
        r = sample(HOM, seed, fam)
        if list(r.level_systems(2)) == [0, 0]:
            break
    else:
        pytest.fail("no seed with level labels (A, A) in range")
    series = level_sums(r, g, [2])
    assert math.exp(series.log_sums[0]) == pytest.approx(2 / 3, abs=1e-9)


def test_level_sums_conservation_at_dimension_one():
    fam = equicontractive_family([2], 0.5, [1.0])
    r = sample(HOM, 0, fam)
    series = level_sums(r, power(1.0), [1, 5, 30, 200])
    assert series.log_sums == pytest.approx(np.zeros(4), abs=1e-9)


def test_level_sums_stream_matches_closed_form():
    fam = worked_family()
    g = power(S_HOM)
    for seed in range(6):
        r = sample(HOM, seed, fam)
        closed = level_sums(r, g, [1, 2, 5, 9]).log_sums
        streamed = _stream_log_sums(r, g, [1, 2, 5, 9], DEFAULT_NODE_BUDGET)
        assert streamed == pytest.approx(closed, abs=1e-9)


def test_level_sums_stream_recursive_and_budget():
    fam, model = percolation_preset(0.8)
    r = sample(model, 3, fam)
    series = level_sums(r, power(0.5), [1, 4, 8])
    assert np.all(np.isfinite(series.log_sums) | (series.log_sums == -np.inf))
    with pytest.raises(ResourceError, match="budget"):
        level_sums(r, power(0.5), [1, 12], node_budget=10)


def test_level_sums_random_walk_identity():
    fam = worked_family()
    g = power(S_HOM)
    logs = [math.log(sum(m.ratio**S_HOM for m in s.maps)) for s in fam.systems]
    for seed in range(10):
        r = sample(HOM, seed, fam)
        walk = np.cumsum([logs[i] for i in r.level_systems(1000)])
        series = level_sums(r, g, [1, 10, 100, 1000])
        assert series.log_sums == pytest.approx(walk[[0, 9, 99, 999]], abs=1e-9)


def test_level_sums_vv_count_path_matches_stream():
    fam = worked_family()
    g = h1(S_HOM, beta=0.04, gamma=0.3)
    for seed in (0, 5, 9):
        r = sample(VV2, seed, fam)
        fast = level_sums(r, g, [1, 3, 6, 9]).log_sums
        slow = _stream_log_sums(r, g, [1, 3, 6, 9], DEFAULT_NODE_BUDGET)
        assert slow == pytest.approx(fast, abs=1e-9)


def test_level_sums_neck_block_closed_path():
    fam = worked_family()
    model = ModelSpec(
        kind="neck_block",
        templates=(BlockTemplate(levels=((0.5, 0.5), (0.2, 0.8))),),
    )
    r = sample(model, 4, fam)
    fast = level_sums(r, power(S_HOM), [1, 2, 6]).log_sums
    slow = _stream_log_sums(r, power(S_HOM), [1, 2, 6], DEFAULT_NODE_BUDGET)
    assert slow == pytest.approx(fast, abs=1e-9)


def test_depths_validation():
    r = sample(HOM, 0, worked_family())
    with pytest.raises(ParameterError):
        level_sums(r, power(1.0), [3, 2])
    with pytest.raises(ParameterError):
        level_sums(r, power(1.0), [])


# ---- envelopes ---------------------------------------------------------------


def test_lil_envelope_worked_value():
    plus, minus = lil_envelope(0.041101, [10_000])
    assert plus[0] == pytest.approx(38.411, abs=2e-3)
    assert minus[0] == -plus[0]


def test_lil_envelope_absent_below_e():
    plus, _ = lil_envelope(0.041101, [1, 10, 66, 67, 1000])
    assert np.isnan(plus[0]) and np.isnan(plus[1]) and np.isnan(plus[2])
    assert np.isfinite(plus[3]) and np.isfinite(plus[4])


def test_lil_envelope_monotone():
    plus, _ = lil_envelope(0.05, list(range(100, 5000, 100)))
    assert np.all(np.diff(plus) > 0)


@pytest.mark.parametrize("variance", [0.0, -0.1, math.nan, math.inf])
def test_lil_envelope_refuses_a_variance_outside_zero_to_infinity(variance):
    with pytest.raises(ParameterError, match="variance must be positive and finite"):
        lil_envelope(variance, [100, 1000])


# ---- beta defaults -----------------------------------------------------------


def test_eta_and_beta_hat_equicontractive():
    fam = worked_family()
    assert eta_hat(fam) == pytest.approx(math.log(3), rel=1e-12)
    v = 0.041100488
    assert beta_hat(fam, S_HOM) == pytest.approx(v / math.log(3), rel=1e-6)


# ---- sections ------------------------------------------------------------------


def test_section_examples_deterministic():
    fam = equicontractive_family([2], 0.5, [1.0])
    r = sample(HOM, 0, fam)
    sv = section_infimum(r, power(1.0), depth_min=1, depth_cap=3)
    assert sv.value_log == pytest.approx(0.0, abs=1e-12)
    sv2 = section_infimum(r, power(0.5), depth_min=1, depth_cap=3)
    assert math.exp(sv2.value_log) == pytest.approx(math.sqrt(2), rel=1e-12)
    assert sv2.argmin_section is not None
    assert sorted(sv2.argmin_section) == [(1,), (2,)]


def test_section_dp_matches_exhaustive_enumeration():
    rng = np.random.default_rng(42)
    models = [HOM, REC, VV2]
    for trial in range(30):
        fam = random_family(rng, max_maps=2)
        r = sample(models[trial % 3], int(rng.integers(0, 2**32)), fam)
        g = power(float(rng.uniform(0.2, 1.2)))
        dmin = int(rng.integers(0, 3))
        sv = section_infimum(r, g, depth_min=dmin, depth_cap=4)
        oracle = min_section_sum_log(r, g, dmin, 4)
        assert sv.value_log == pytest.approx(oracle, abs=1e-12)


def test_section_monotone_in_caps():
    fam = worked_family()
    r = sample(HOM, 5, fam)
    g = power(0.6)
    v_cap3 = section_infimum(r, g, 1, 3).value_log
    v_cap4 = section_infimum(r, g, 1, 4).value_log
    v_cap5 = section_infimum(r, g, 1, 5).value_log
    assert v_cap5 <= v_cap4 + 1e-12 <= v_cap3 + 2e-12
    v_min0 = section_infimum(r, g, 0, 4).value_log
    v_min1 = section_infimum(r, g, 1, 4).value_log
    v_min2 = section_infimum(r, g, 2, 4).value_log
    assert v_min0 <= v_min1 + 1e-12 <= v_min2 + 2e-12


def test_section_argmin_limit_drops_only_the_section():
    r = sample(REC, 5, worked_family())
    g = power(0.6)
    full = section_infimum(r, g, 1, 5)
    assert full.argmin_section is not None
    limited = section_infimum(r, g, 1, 5, argmin_limit=20)
    assert limited.argmin_section is None
    assert limited.value_log == full.value_log


def test_section_argmin_limit_boundary_is_the_walked_node_count():
    r = sample(REC, 5, worked_family())
    g = power(0.6)
    nodes = sum(len(chunk) for chunk in trees.levels(r, max_depth=5))
    full = section_infimum(r, g, 1, 5, argmin_limit=nodes)
    assert full.argmin_section == section_infimum(r, g, 1, 5).argmin_section
    assert full.argmin_section
    limited = section_infimum(r, g, 1, 5, argmin_limit=nodes - 1)
    assert limited.argmin_section is None
    assert limited.value_log == full.value_log


def test_section_budget():
    fam = worked_family()
    r = sample(HOM, 5, fam)
    with pytest.raises(ResourceError):
        section_infimum(r, power(0.6), 1, 6, node_budget=10)


# ---- drift -----------------------------------------------------------------------


def test_drift_power_gauge_increment_statistics():
    fam = worked_family()
    report = drift_experiment(fam, HOM, power(S_HOM), 200, [10, 100, 1000], seed=7)
    v = 0.041100488
    assert abs(report.increment_mean) <= 3 * math.sqrt(v / (200 * 1000))
    assert report.increment_var == pytest.approx(v, rel=0.10)
    assert report.variance == pytest.approx(v, rel=1e-6)


def test_drift_report_shapes_and_quantiles():
    fam = worked_family()
    report = drift_experiment(fam, HOM, power(S_HOM), 50, [10, 100], seed=1)
    assert report.median.shape == (2,)
    assert np.all(report.q10 <= report.median + 1e-12)
    assert np.all(report.median <= report.q90 + 1e-12)
    assert np.all((0 <= report.frac_below) & (report.frac_below <= 1))


def test_drift_rejects_almost_deterministic():
    fam = equicontractive_family([2], 0.5, [1.0])
    with pytest.raises(PreconditionError, match="almost deterministic"):
        drift_experiment(fam, HOM, power(1.0), 10, [10], seed=0)


def test_drift_rejects_recursive_model():
    with pytest.raises(PreconditionError):
        drift_experiment(worked_family(), REC, power(0.8), 10, [10], seed=0)


def _report_bytes(report) -> list:
    return [np.asarray(getattr(report, f.name)).tobytes() for f in dataclasses.fields(report)]


def test_ensembles_take_a_model_name():
    # a model name reads as its spec, and an unknown one is a typed error
    fam = worked_family()
    by_name = drift_experiment(fam, "homogeneous", power(S_HOM), 2, [10, 20], 1)
    assert _report_bytes(by_name) == _report_bytes(drift_experiment(fam, HOM, power(S_HOM), 2, [10, 20], 1))
    by_name = lil_calibration(fam, "homogeneous", 0.8, 2, 100, 1)
    assert _report_bytes(by_name) == _report_bytes(lil_calibration(fam, HOM, 0.8, 2, 100, 1))
    with pytest.raises(ConfigError, match="unknown model kind"):
        drift_experiment(fam, "homogenous", power(S_HOM), 2, [10, 20], 1)
    with pytest.raises(ConfigError, match="unknown model kind"):
        lil_calibration(fam, "homogenous", 0.8, 2, 100, 1)


def test_ensembles_name_level_weights_that_overflow():
    fam = equicontractive_family([2, 3, 1], 1 / 3, [0.3, 0.3, 0.4])
    model = ModelSpec(kind="neck_block", templates=(
        BlockTemplate(((1.0, 0.0, 0.0),), weight=1.0),
        BlockTemplate(((1 / 3,) * 3, (1.0, 0.0, 0.0)), weight=1e308),
    ))
    with pytest.raises(ConfigError, match="neck_block level weights must be finite: their sum overflows"):
        drift_experiment(fam, model, power(0.8), 2, [10, 20], 1)
    with pytest.raises(ConfigError, match="their sum overflows"):
        lil_calibration(fam, model, 0.8, 2, 100, 1)


def test_drift_worker_count_invariance():
    fam = worked_family()
    a = drift_experiment(fam, HOM, power(S_HOM), 80, [10, 50], seed=3, workers=1)
    b = drift_experiment(fam, HOM, power(S_HOM), 80, [10, 50], seed=3, workers=2)
    assert np.array_equal(a.median, b.median)
    assert np.array_equal(a.runmin_median, b.runmin_median)
    assert a.increment_var == b.increment_var


def test_drift_vv_model_runs():
    fam = worked_family()
    report = drift_experiment(fam, VV2, power(S_HOM), 20, [5, 20], seed=2)
    assert np.all(np.isfinite(report.median))


def test_drift_dichotomy_directions_small():
    """Envelope-adjusted medians split by gauge sign (reduced-depth check)."""
    fam = worked_family()
    b = beta_hat(fam, S_HOM)
    depths = [200, 500, 1000, 2000]
    minus = drift_experiment(fam, HOM, h1(S_HOM, b, gamma=+0.5), 64, depths, seed=11)
    plus = drift_experiment(fam, HOM, h1(S_HOM, b, gamma=-0.5), 64, depths, seed=11)
    assert minus.liminf_est[-1] < 0
    assert plus.liminf_est[-1] > 0


def assert_same_report(got, want):
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        else:
            assert repr(a) == repr(b), f.name


def drift_outcome(fn, *args, **kwargs):
    """The report, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except NecktreeError as e:
        return type(e), str(e)


@st.composite
def drift_cases(draw):
    """Families with uniform or per-system ratios, zero-weight systems and dying (0-map) systems.

    A 0-map system gets a small positive weight: at weight 0 its log moment
    -inf makes ``log_moment_stats`` warn (0 * -inf) in both implementations.
    """
    vv = draw(st.booleans())
    n_sys = draw(st.integers(2, 4))  # one system alone is almost deterministic
    counts = draw(st.lists(st.integers(0, 4), min_size=n_sys, max_size=n_sys))
    counts[0] = max(counts[0], 2)
    weights = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 1.0]), min_size=n_sys, max_size=n_sys))
    weights = [w if n else 0.02 for n, w in zip(counts, weights)]
    if sum(weights) == 0:
        weights[counts.index(max(counts))] = 1.0
    weights = [w / sum(weights) for w in weights]
    if vv or draw(st.booleans()):
        family = equicontractive_family(counts, draw(st.sampled_from([0.2, 0.25, 1 / 3])), weights)
    else:
        ratios = draw(st.lists(st.sampled_from([0.2, 0.25, 1 / 3]), min_size=n_sys, max_size=n_sys))
        family = RIFSFamily(
            systems=tuple(IFS(tuple(SimilarityMap(c) for _ in range(n))) for n, c in zip(counts, ratios)),
            weights=tuple(weights),
        )
    model = ModelSpec(kind="v_variable", v=draw(st.integers(1, 6))) if vv else HOM
    s = draw(st.floats(0.3, 1.2))
    beta, gamma = draw(st.floats(0.1, 2.0)), draw(st.floats(-1.0, 1.0))
    gauge = draw(st.sampled_from([
        power(s), loglog_power(s, beta), h1(s, beta, gamma), h1_star(s, beta, gamma),
    ]))
    depths = sorted(draw(st.lists(st.integers(1, 400), min_size=1, max_size=6, unique=True)))
    if draw(st.booleans()):
        depths = [1] + [d for d in depths if d > 1]
    return family, model, gauge, draw(st.integers(1, 8)), depths, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=200)
@given(drift_cases())
@example((worked_family(), HOM, power(S_HOM), 5, [1], 3))
@example((worked_family(), VV2, h1(S_HOM, 0.04, 0.5), 5, [7], 3))
# a zero weight last puts the threshold 2^53 inside the compared row; first, the threshold 0
@example((equicontractive_family([2, 3, 1], 1 / 3, [0.5, 0.5, 0.0]), HOM, h1(S_HOM, 0.5, 0.2), 4, [1, 50, 300], 7))
@example((equicontractive_family([1, 3, 2], 1 / 3, [0.0, 0.5, 0.5]), HOM, power(0.7), 4, [1, 50, 300], 7))
def test_drift_matches_per_path_reference(case):
    with np.errstate(invalid="ignore"):  # the reference's diff of a dying path's -inf sums
        want = drift_outcome(oracle_drift_experiment, *case)
    got = drift_outcome(drift_experiment, *case)
    if isinstance(want, tuple):
        assert got == want
    elif not math.isfinite(want.increment_mean):
        assert got[0] is ExtinctionError
    else:
        assert_same_report(got, want)


TWO_TEMPLATES = ModelSpec(kind="neck_block", templates=(
    BlockTemplate(levels=((1.0, 0.0, 0.0), (0.0, 0.5, 0.5)), weight=1.0),
    BlockTemplate(levels=((0.2, 0.3, 0.5),), weight=2.0),
))


@st.composite
def walk_cases(draw):
    """Three systems, uniform or per-system ratios, with zero weights, a 0-map system, offsets and neck_block."""
    counts = [draw(st.integers(2, 4)), draw(st.integers(0, 3)), draw(st.integers(1, 3))]
    weights = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5]), min_size=3, max_size=3).filter(lambda w: w[0] + w[2]))
    ratios = draw(st.sampled_from([[1 / 3] * 3, [0.2, 0.25, 1 / 3]]))
    systems = tuple(IFS(tuple(SimilarityMap(c) for _ in range(n))) for n, c in zip(counts, ratios))
    family = RIFSFamily(systems=systems, weights=tuple(w / sum(weights) for w in weights))
    model = draw(st.sampled_from([HOM, TWO_TEMPLATES]))
    s, beta, gamma = draw(st.floats(0.3, 1.2)), draw(st.floats(0.1, 2.0)), draw(st.floats(-1.0, 1.0))
    gauge = draw(st.sampled_from([power(s), loglog_power(s, beta), h1(s, beta, gamma), h1_star(s, beta, gamma)]))
    depths = sorted(draw(st.lists(st.integers(1, 300), min_size=1, max_size=5, unique=True)))
    return family, model, gauge, draw(st.integers(1, 5)), depths, draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 5))


@settings(max_examples=40, deadline=None)
@given(walk_cases())
# a 0-map system that kills paths, and neck_block over per-system ratios at an offset
@example((equicontractive_family([3, 0, 2], 1 / 3, [0.8, 0.1, 0.1]), HOM, power(0.8), 4, [5, 100], 2, 0))
@example((RIFSFamily(
    systems=tuple(IFS(tuple(SimilarityMap(c) for _ in range(n))) for n, c in ((2, 0.2), (3, 0.25), (2, 1 / 3))),
    weights=(0.4, 0.3, 0.3),
), TWO_TEMPLATES, h1(0.8, 0.5, 0.3), 3, [1, 40, 200], 5, 4))
def test_closed_form_walk_matches_a_per_path_reference(case):
    # the buffer walk against per-path labels from ``level_systems`` (homogeneous: ``searchsorted``)
    family, model, h, n, depths, seed, offset = case
    idx = np.asarray(depths) - 1
    r = Realization(family=family, model=model, seed=seed, offset=offset)
    want = oracle_closed_form_log_sums(r, h, depths[-1])
    assert level_sums(r, h, depths).log_sums.tobytes() == want[idx].tobytes()
    assert packing_level_limsup(r, h, depths).log_sums.tobytes() == np.maximum.accumulate(want)[idx].tobytes()
    # the ensemble: the first dying path is named, else the per-path statistics are the reference's
    seeds = ensemble_seeds(seed, n)
    paths = [oracle_closed_form_log_sums(sample(model, s, family), h, depths[-1]) for s in seeds]
    got = drift_outcome(drift_experiment, family, model, h, n, depths, seed)
    dying = [(s, int(np.argmax(p == -math.inf)) + 1) for s, p in zip(seeds, paths) if p[-1] == -math.inf]
    if isinstance(got, tuple) and got[0] is PreconditionError:
        assert "almost deterministic" in got[1]
    elif dying:
        assert got == (ExtinctionError, "drift path with seed %d dies out at level %d" % dying[0])
    else:
        incs = [np.diff(np.concatenate(([h.eval_log(0.0)], p))) for p in paths]
        mean = sum(float(np.sum(i)) for i in incs) / (n * depths[-1])
        var = max(sum(float(np.sum(i * i)) for i in incs) / (n * depths[-1]) - mean**2, 0.0)
        assert (got.increment_mean, got.increment_var) == (mean, var)
        for field, stat in (("median", lambda p: p), ("runmin_median", np.minimum.accumulate),
                            ("runmax_median", np.maximum.accumulate)):
            assert getattr(got, field).tobytes() == np.median([stat(p)[idx] for p in paths], axis=0).tobytes()


def test_drift_matches_per_path_reference_with_two_workers():
    # 70 paths make two chunks of 64, each building its own tables and gauge term
    for model in (HOM, VV2):
        case = (worked_family(), model, h1_star(S_HOM, 0.04, 0.5), 70, [1, 10, 100], 5)
        assert_same_report(drift_experiment(*case, workers=2), oracle_drift_experiment(*case))


def test_vv_drift_over_several_batches_matches_the_scalar_oracle():
    # 4 paths per batch; with 2 workers, 70 paths make process chunks of 64 and 6
    case = (worked_family(), ModelSpec(kind="v_variable", v=5), h1(0.82, 1.0, 0.5), 70, [1, 10, 60], 9)
    want = oracle_drift_experiment(*case)
    for workers in (1, 2):
        with mock.patch.object(trees, "VV_BATCH_ENTRIES", 4 * 60):
            assert_same_report(drift_experiment(*case, workers=workers), want)


def test_drift_names_the_first_dying_path_of_a_batch():
    fam, model, h = equicontractive_family([3, 0], 1 / 3, [0.9, 0.1]), ModelSpec(kind="v_variable", v=3), power(0.9)
    seeds = ensemble_seeds(0, 5)
    sums = [oracle_vv_count_log_sums(sample(model, s, fam), h, 200) for s in seeds]
    dying = [(s, int(np.argmax(full == -math.inf)) + 1) for s, full in zip(seeds, sums) if full[-1] == -math.inf]
    assert dying and sums[0][-1] > -math.inf and sums[-1][-1] > -math.inf  # a middle path dies
    assert 5 * 200 <= trees.VV_BATCH_ENTRIES  # one batch
    seed, level = dying[0]
    with pytest.raises(ExtinctionError, match=f"^drift path with seed {seed} dies out at level {level}$"):
        drift_experiment(fam, model, h, 5, [10, 200], seed=0)


def test_fast_path_draws_paths_as_it_yields_them():
    # the closed form holds one path at a time; the count path one batch
    drawn = []

    def realizations(model):
        for s in range(7):
            drawn.append(s)
            yield sample(model, s, worked_family())

    with mock.patch.object(trees, "VV_BATCH_ENTRIES", 3 * 50):
        for model, batch in ((HOM, 1), (VV2, 3)):
            drawn.clear()
            sums = _gauged(_fast_log_sums(worked_family(), model, 50), power(S_HOM), realizations(model))
            for i, _ in enumerate(sums):
                assert len(drawn) == min(7, (i // batch + 1) * batch)


def test_vv_drift_memory_is_bounded_by_one_batch():
    fam, model, h = worked_family(), ModelSpec(kind="v_variable", v=8), h1(0.82, 1.0, 0.5)
    drift_experiment(fam, model, h, 2, [10], seed=1)  # first-call allocations are not the drift's
    with mock.patch.object(trees, "VV_BATCH_ENTRIES", 2**13):
        tracemalloc.start()
        try:
            drift_experiment(fam, model, h, 128, [10, 100, 500], seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # 16 paths a batch peak near 0.4 MiB; all 128 paths in one batch near 1.2 MiB
    assert peak < 640 * 2**10


def drift_batches(case) -> tuple[list[int], measure.DriftReport]:
    """The paths of each ``vv_log_counts`` recursion of a drift, and its report."""
    with mock.patch.object(trees, "vv_log_counts", wraps=trees.vv_log_counts) as recursion:
        report = drift_experiment(*case)
    return [len(call.args[0]) for call in recursion.call_args_list], report


def test_vv_drift_batches_fit_the_node_budget():
    # one path's level table over the worked family holds 21 x 3 = 63 entries at V = 20, and 4 x 3 = 12 at V = 3
    for v, entries in ((20, 3 * 63), (3, 3 * 40)):  # the level table binds at V = 20, the 40 levels at V = 3
        case = (worked_family(), ModelSpec(kind="v_variable", v=v), power(0.8), 8, [10, 40], 4)
        with mock.patch.object(trees, "VV_BATCH_ENTRIES", entries):  # three paths a batch, not all eight
            batches, report = drift_batches(case)
        assert batches == [3, 3, 2]
        assert_same_report(report, oracle_drift_experiment(*case))
    with mock.patch.object(trees, "DEFAULT_NODE_BUDGET", 11), pytest.raises(ResourceError, match="12 entries"):
        drift_experiment(*case)


def test_vv_drift_at_large_v_runs_one_path_a_batch():
    # a level at V = 10^5 holds 300,003 entries, past VV_BATCH_ENTRIES: 333 paths a batch would peak near 4.7 GB
    case = (worked_family(), ModelSpec(kind="v_variable", v=10**5), h1(0.82, 1.0, 0.5), 3, [1, 2], 1)
    drift_experiment(worked_family(), ModelSpec(kind="v_variable", v=8), *case[2:])  # first-call allocations
    tracemalloc.start()
    try:
        batches, _ = drift_batches(case)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batches == [1, 1, 1]
    # one path's tables peak near 17 MiB; the three in one batch near 53 MiB
    assert peak < 30 * 2**20


def test_drift_skips_the_dimension_solve():
    with mock.patch.object(rifs, "dimension", side_effect=AssertionError("dimension solved")):
        drift_experiment(worked_family(), HOM, power(S_HOM), 4, [10], seed=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model", [HOM, VV2])
def test_drift_raises_on_a_dying_path(model):
    # the 0-map system kills a homogeneous path with probability 0.1 per level
    fam = equicontractive_family([3, 0], 1 / 3, [0.9, 0.1])
    h, depths = power(0.9), [10, 1000]
    seeds = ensemble_seeds(4, 6)
    dying = [s for s in seeds if _all_level_log_sums(sample(model, s, fam), h, 1000)[-1] == -math.inf]
    assert dying
    with pytest.raises(ExtinctionError, match=f"seed {dying[0]} dies out at level"):
        drift_experiment(fam, model, h, 6, depths, seed=4)
    with pytest.raises(ExtinctionError):
        drift_experiment(fam, model, h, 6, depths, seed=4, workers=2)


# ---- packing ----------------------------------------------------------------------


def test_packing_running_max_deterministic_line():
    fam = equicontractive_family([2], 0.5, [1.0])
    r = sample(HOM, 0, fam)
    series = packing_level_limsup(r, power(1.0), [1, 10, 50])
    assert series.kind == "running_max"
    assert series.log_sums == pytest.approx(np.zeros(3), abs=1e-9)


def test_packing_running_max_on_the_stream_path():
    # recursive trees have no fast path; these sums rise, so the maximum over the
    # requested depths is the maximum over every level up to them
    r = sample(REC, 4, worked_family())
    h = power(S_HOM)
    depths = [1, 3, 4, 7]
    assert _all_level_log_sums(r, h, depths[-1]) is None
    series = packing_level_limsup(r, h, depths)
    assert series.kind == "running_max"
    want = np.maximum.accumulate(oracle_stream_log_sums(r, h, depths, DEFAULT_NODE_BUDGET))
    assert series.log_sums.tolist() == want.tolist()


@pytest.mark.parametrize("s", [0.9, 1.0])
def test_packing_max_on_the_stream_path_runs_over_every_level(s):
    # the stream path's maximum covers the levels between requested depths, as the fast path's does
    fam, h, depths = worked_family(), power(s), [2, 5, 8]
    idx = np.asarray(depths) - 1
    for seed in range(20):
        r = sample(REC, seed, fam)
        every = oracle_stream_log_sums(r, h, range(1, depths[-1] + 1), DEFAULT_NODE_BUDGET)
        want = np.maximum.accumulate(every)[idx]
        assert packing_level_limsup(r, h, depths).log_sums.tobytes() == want.tobytes(), seed


def test_packing_running_max_is_monotone():
    fam = worked_family()
    r = sample(HOM, 9, fam)
    series = packing_level_limsup(r, h1_star(S_HOM, 0.0374, gamma=0.5), [10, 100, 1000])
    assert np.all(np.diff(series.log_sums) >= 0)


# ---- LIL calibration -----------------------------------------------------------


def test_lil_calibration_statistics():
    fam = worked_family()
    cal = lil_calibration(fam, HOM, S_HOM, n_paths=300, depth=3000, seed=5)
    v = 0.041100488
    assert cal.increment_var == pytest.approx(v, rel=0.1)
    assert abs(cal.increment_mean) <= 3 * math.sqrt(v / (300 * 3000))
    assert cal.frac_exit < 0.2
    assert cal.frac_touch > 0.5
    assert cal.first_checked_depth == 300  # last-decade start of a 3000-deep run


def test_lil_calibration_needs_a_path():
    with pytest.raises(ParameterError, match="at least one path"):
        lil_calibration(worked_family(), HOM, S_HOM, n_paths=0, depth=100, seed=5)


THREE_SYSTEMS = equicontractive_family([2, 3, 1], 1 / 3, [0.3, 0.3, 0.4])  # TWO_TEMPLATES's three systems
PER_SYSTEM_RATIOS = RIFSFamily(
    systems=tuple(IFS(tuple(SimilarityMap(c) for _ in range(n))) for n, c in ((2, 0.2), (3, 0.25), (2, 1 / 3))),
    weights=(0.4, 0.3, 0.3),
)


@pytest.mark.parametrize("family, model, s", [
    (worked_family(), HOM, S_HOM),
    (THREE_SYSTEMS, TWO_TEMPLATES, 0.7),
    # no fast path: its maps' ratios differ within a system
    (RIFSFamily(systems=(IFS((SimilarityMap(0.5), SimilarityMap(0.3))),
                         IFS((SimilarityMap(0.4), SimilarityMap(0.35), SimilarityMap(0.2)))),
                weights=(0.5, 0.5)), HOM, 0.9),
], ids=["worked-homogeneous", "neck-block", "non-equicontractive"])
def test_lil_calibration_keeps_the_bits_of_its_own_label_loop(family, model, s):
    got = lil_calibration(family, model, s, n_paths=40, depth=600, seed=3)
    want = oracle_lil_calibration(family, model, s, n_paths=40, depth=600, seed=3)
    for field in dataclasses.fields(got):
        assert float(getattr(got, field.name)).hex() == float(getattr(want, field.name)).hex(), field.name


@pytest.mark.parametrize("model", [REC, VV2])
def test_lil_calibration_needs_level_labels(model):
    with pytest.raises(UnsupportedModelError, match="no per-level label sequence"):
        lil_calibration(worked_family(), model, S_HOM, n_paths=2, depth=100, seed=5)


@pytest.mark.parametrize("family, model", [
    (worked_family(), HOM),
    (PER_SYSTEM_RATIOS, HOM),
    (THREE_SYSTEMS, TWO_TEMPLATES),
    (worked_family(), VV2),
], ids=["one-ratio", "per-system-ratios", "neck-block", "v-variable"])
def test_fast_path_is_gauge_free(family, model):
    kmax, rs = 200, [sample(model, seed, family) for seed in range(3)]
    with mock.patch.object(GaugeFunction, "eval_log", side_effect=AssertionError("gauge evaluated")):
        paths, log_ratio = _fast_log_sums(family, model, kmax)
        drawn = [(R.copy(), lr.copy()) for R, lr in paths(rs)]  # the closed form overwrites one buffer
    assert len(drawn) == len(rs) and (log_ratio is None) == (family.uniform_ratio is None)
    # one R stream serves every gauge: each gauge's sums are R + h(lr), with the bytes of its level_sums
    for h in (power(0.7), h1(0.8, 0.5, 0.3)):
        for r, (R, lr) in zip(rs, drawn):
            assert (R + h.eval_log(lr)).tobytes() == level_sums(r, h, range(1, kmax + 1)).log_sums.tobytes()


def test_drift_checks_thresholds_before_drawing_a_path():
    with mock.patch.object(measure, "sample", side_effect=AssertionError("path drawn")):
        for bad in ((math.nan, math.nan), (1.0,), None):
            with pytest.raises(ParameterError, match="thresholds must be two finite numbers"):
                drift_experiment(worked_family(), HOM, power(S_HOM), 4, [10], seed=0, thresholds=bad)


# ---- natural measure and mass distribution ----------------------------------------


def test_natural_measure_children_sum_to_parent():
    fam = worked_family()
    r = sample(HOM, 6, fam)
    nu = natural_measure(r)
    total = 0.0
    for coding in coding_level(r, 6):
        total += nu.mass(coding)
    assert total == pytest.approx(1.0, abs=1e-12)
    # per-cylinder conservation at an interior node
    for coding in coding_level(r, 3):
        si = r.label_of(tuple(j for _, j in coding.letters))
        n = fam.systems[si].nmaps
        child_mass = sum(
            nu.mass(Coding(coding.letters + ((si, j),), 0.0)) for j in range(1, n + 1)
        )
        assert child_mass == pytest.approx(nu.mass(coding), rel=1e-12)
        break


def test_log_masses_refuse_a_coding_through_a_0_map_system():
    # system 0 has no maps, so no coding passes through it: its log map count is -inf
    nu = natural_measure(sample(HOM, 0, equicontractive_family([0, 2], 1 / 3, [0.5, 0.5])))
    through = Coding(((1, 2), (0, 1)), 0.0)
    for log_mass in (nu.log_mass, lambda c: oracle_log_mass(nu, c)):
        with pytest.raises(ParameterError, match="coding passes through an extinct node"):
            log_mass(through)
    letters = np.array([[[1, 2], [1, 1]], [[1, 1], [0, 0]], [[0, 1], [0, 0]]])  # the last row passes system 0
    with pytest.raises(ParameterError, match="extinct node"):
        nu.log_masses(letters)
    assert nu.log_masses(letters[:2]).tolist() == [-2 * math.log(2), -math.log(2)]


def test_mass_distribution_dyadic_interval():
    fam = RIFSFamily(
        systems=(
            IFS(
                maps=(
                    SimilarityMap(0.5, translation=np.zeros(1)),
                    SimilarityMap(0.5, translation=np.array([0.5])),
                ),
                label="halves",
            ),
        ),
        weights=(1.0,),
    )
    r = sample(HOM, 0, fam)
    nu = natural_measure(r)
    report = mass_distribution_check(
        r, power(1.0), nu, n_balls=200, epsilon_grid=[2.0**-k for k in range(2, 9)], seed=1
    )
    assert report.max_neighbor_count <= report.neighbor_bound == 8.0
    assert report.sup_mass_ratio <= 4.0
    assert report.hausdorff_lower_bound >= 0.25


def _separated_family(rng: np.random.Generator) -> RIFSFamily:
    """A 1-D family whose maps of each system have disjoint images in [0, 1]."""
    systems = []
    for i in range(int(rng.integers(1, 4))):
        ratios = rng.uniform(0.15, 0.3, size=int(rng.integers(0 if i else 2, 4)))
        gap = (1.0 - ratios.sum()) / (ratios.size + 1)
        starts = gap * np.arange(1, ratios.size + 1) + np.concatenate(([0.0], np.cumsum(ratios)[:-1]))
        maps = tuple(SimilarityMap(float(c), translation=np.array([t])) for c, t in zip(ratios, starts))
        systems.append(IFS(maps=maps, label=f"s{i}"))
    w = rng.uniform(0.1, 1.0, size=len(systems))
    return RIFSFamily(systems=tuple(systems), weights=tuple(w / w.sum()))


def test_mass_check_1d_matches_the_per_centre_loop():
    rng = np.random.default_rng(11)
    eps = [0.1, 0.02, 0.005]
    checked = 0
    for _ in range(12):
        fam = _separated_family(rng)
        for model in (HOM, REC, VV2):
            for seed, n_balls in ((0, 0), (1, 1), (2, 25)):
                try:
                    r = sample(model, seed, fam)
                    nu = natural_measure(r)
                    report = mass_distribution_check(r, power(0.6), nu, n_balls, eps, seed=seed)
                except ExtinctionError:
                    continue
                count, ratio = oracle_mass_check_1d(r, power(0.6), nu, n_balls, eps, seed)
                assert report.max_neighbor_count == count
                assert report.sup_mass_ratio.hex() == float(ratio).hex()
                checked += 1
    assert checked >= 60


def test_mass_distribution_needs_geometry():
    fam = worked_family()  # identity translations overlap at the origin
    r = sample(HOM, 0, fam)
    nu = natural_measure(r)
    from necktree.errors import GeometryError

    with pytest.raises(GeometryError):
        mass_distribution_check(r, power(S_HOM), nu, 10, [0.1])
