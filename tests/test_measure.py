import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from necktree import rifs
from necktree.errors import (
    ExtinctionError,
    NecktreeError,
    ParameterError,
    PreconditionError,
    ResourceError,
    UnsupportedModelError,
)
from necktree.gauges import h1, h1_star, loglog_power, power
from necktree.geometry import percolation_preset
from necktree.measure import (
    DEFAULT_NODE_BUDGET,
    _all_level_log_sums,
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
from necktree.trees import BlockTemplate, Coding, ModelSpec, coding_level, sample

from helpers import (
    min_section_sum_log,
    oracle_drift_experiment,
    oracle_mass_check_1d,
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


def test_drift_matches_per_path_reference_with_two_workers():
    # 70 paths make two chunks of 64, each building its own tables and gauge term
    for model in (HOM, VV2):
        case = (worked_family(), model, h1_star(S_HOM, 0.04, 0.5), 70, [1, 10, 100], 5)
        assert_same_report(drift_experiment(*case, workers=2), oracle_drift_experiment(*case))


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
