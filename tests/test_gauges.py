import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from necktree.errors import ConfigError, ParameterError
from necktree.gauges import H1, H1_STAR, LOGLOG_POWER, POWER, GaugeFunction, h1, h1_star, loglog_power, power

from helpers import oracle_eval_log

S_STAR = 0.8154648
FAMILIES = (POWER, LOGLOG_POWER, H1, H1_STAR)


def mp_h1_log(log_t, s, beta, gamma, sign=1):
    """Arbitrary-precision oracle for the square-root-corrected gauges."""
    import mpmath as mp

    mp.mp.dps = 50
    lt = mp.mpf(log_t)
    L = -lt
    corr = mp.sqrt(2 * mp.mpf(beta) * L * mp.log(mp.log(mp.mpf(beta) * L)))
    return float(mp.mpf(s) * lt + sign * (1 - mp.mpf(gamma)) * corr)


def test_power_gauge_is_identity_at_s1():
    g = power(1.0)
    assert g.r0 == 1.0 and g.h_bar == 1.0
    for lt in (-0.5, -10.0, -1e5):
        assert g.eval_log(lt) == pytest.approx(lt, rel=1e-15)


def test_h1_eval_matches_oracle():
    g = h1(S_STAR, beta=0.05, gamma=0.0)
    lt = -100 * math.log(3)
    # frozen from the oracle below: -87.168863861
    assert g.eval_log(lt) == pytest.approx(-87.168863861, abs=1e-6)
    assert g.eval_log(lt) == pytest.approx(mp_h1_log(lt, S_STAR, 0.05, 0.0), rel=1e-12)


def test_h1_star_eval_matches_oracle():
    g = h1_star(S_STAR, beta=0.05, gamma=0.0)
    lt = -100 * math.log(3)
    assert g.eval_log(lt) == pytest.approx(-92.0070661903, abs=1e-6)
    assert g.eval_log(lt) == pytest.approx(mp_h1_log(lt, S_STAR, 0.05, 0.0, sign=-1), rel=1e-12)


def test_eval_log_vectorized_and_plateau():
    g = h1(S_STAR, beta=0.05)
    grid = np.array([-200.0, -100.0, -60.0])
    vec = g.eval_log(grid)
    assert vec.shape == (3,)
    for i, lt in enumerate(grid):
        assert vec[i] == g.eval_log(float(lt))
    # above the cutoff the plateau value is returned, never an error
    assert g.eval_log(-1.0) == pytest.approx(math.log(g.h_bar))
    assert g.eval_log(0.0) == pytest.approx(math.log(g.h_bar))
    with pytest.raises(ParameterError):
        g.eval_log(float("nan"))


def test_cutoff_loglog_power():
    # stationary point of t (loglog(1/t)): L log L = 1, L = e^Omega = 1.7632228...
    g = loglog_power(1.0, beta=1.0)
    L = -math.log(g.r0)
    assert L * math.log(L) == pytest.approx(1.0, abs=1e-10)
    assert g.r0 == pytest.approx(0.1714912843, abs=1e-9)


def test_cutoff_h1_is_validity_boundary():
    g = h1(S_STAR, beta=0.05)
    assert -math.log(g.r0) == pytest.approx(math.e / 0.05, rel=1e-12)
    assert -math.log(g.r0) == pytest.approx(54.3656365692, abs=1e-8)


def test_cutoff_power():
    assert power(0.7).r0 == 1.0


@pytest.mark.parametrize("make", [lambda: loglog_power(1e-300, 1e300), lambda: h1(0.8, 1e-320, 0.5)])
def test_gauge_with_a_non_finite_cutoff_is_a_config_error(make):
    # log r0 = -inf would leave h = 1 everywhere
    with pytest.raises(ConfigError, match="not finite"):
        make()


def test_doubling_power_exact():
    g = power(0.8)
    ratios = g.doubling_ratio_scan([-5.0, -50.0, -500.0])
    assert ratios == pytest.approx(np.full(3, 2**0.8), rel=1e-12)


def test_doubling_h1_increases_to_2s_from_below():
    g = h1(S_STAR, beta=0.05, gamma=0.0)
    grid = [-(10.0**e) for e in (2, 3, 4)]
    ratios = g.doubling_ratio_scan(grid)
    # frozen oracle values (50-digit arithmetic)
    assert ratios == pytest.approx([1.729354747, 1.751425566, 1.757030717], rel=1e-8)
    two_s = 2.0**S_STAR
    assert np.all(ratios < two_s)
    assert np.all(np.diff(ratios) > 0)


def test_doubling_h1_star_decreases_to_2s_from_above():
    g = h1_star(S_STAR, beta=0.05, gamma=0.0)
    grid = [-(10.0**e) for e in (2, 3, 4)]
    ratios = g.doubling_ratio_scan(grid)
    assert ratios == pytest.approx([1.790913623, 1.76834519, 1.762703944], rel=1e-8)
    two_s = 2.0**S_STAR
    assert np.all(ratios > two_s)
    assert np.all(np.diff(ratios) < 0)


def test_doubling_grid_must_sit_below_cutoff():
    g = h1(S_STAR, beta=0.05)
    with pytest.raises(ParameterError):
        g.doubling_ratio_scan([math.log(g.r0)])


@pytest.mark.parametrize("point", [math.nan, -math.inf])
def test_doubling_grid_must_be_finite(point):
    with pytest.raises(ParameterError, match="finite"):
        power(0.8).doubling_ratio_scan([-5.0, point])


def test_monotone_on_certified_region():
    for g in (
        power(0.9),
        loglog_power(0.9, beta=2.0),
        h1(S_STAR, beta=0.05, gamma=0.0),
        h1(S_STAR, beta=0.05, gamma=0.5),
        h1_star(S_STAR, beta=0.05, gamma=0.0),
        h1(0.1, beta=1.0, gamma=-20.0),  # a hump far from the first bracket: stationary_log_t doubles it
    ):
        top = g.stationary_log_t()
        if top is None:
            top = math.log(g.r0)
        grid = np.linspace(top - 200.0, top, 1000)
        vals = g.eval_log(grid)
        assert np.all(np.diff(vals) >= -1e-12), g.describe()


def test_h1_hump_sits_inside_validity_sliver():
    # positive-correction gauges have a tiny non-monotone hump just inside
    # the validity cutoff; its top must lie within a hair of the boundary
    g = h1(S_STAR, beta=0.05, gamma=0.0)
    top = g.stationary_log_t()
    assert top is not None
    assert math.log(g.r0) - 0.1 < top < math.log(g.r0)


def test_vanishing_slope_approaches_s():
    g1 = loglog_power(0.9, beta=2.0)
    assert g1.eval_log(-1e5) / -1e5 == pytest.approx(0.9, abs=1e-3)
    g2 = h1(S_STAR, beta=0.05, gamma=0.5)
    assert g2.eval_log(-1e5) / -1e5 == pytest.approx(S_STAR, abs=1e-3)
    g3 = h1(S_STAR, beta=0.05, gamma=0.0)
    assert g3.eval_log(-1e6) / -1e6 == pytest.approx(S_STAR, abs=1e-3)


def test_gauge_ordering_loglog_below_h1():
    # (loglog)^beta correction is eventually negligible against the
    # square-root correction: log difference far below -10 deep down
    lt = -1e6
    lhb = loglog_power(S_STAR, beta=2.0).eval_log(lt)
    lh1 = h1(S_STAR, beta=0.05, gamma=0.1).eval_log(lt)
    assert lhb - lh1 <= -10


def test_duality_corrections_cancel():
    a = h1(S_STAR, beta=0.05, gamma=0.3)
    b = h1_star(S_STAR, beta=0.05, gamma=0.3)
    for lt in (-60.0, -1e3, -1e6):
        total = a.eval_log(lt) + b.eval_log(lt)
        assert total == pytest.approx(2 * S_STAR * lt, rel=1e-12)


# ---- one elementwise rule, against the scalar-flag reference --------------------------


def test_eval_log_reads_lists_and_tuples_as_arrays():
    g = power(0.8)
    want = g.eval_log(np.array([-5.0, -6.0, -7.0]))
    assert want == pytest.approx([-4.0, -4.8, -5.6], rel=1e-15)
    assert g.eval_log([-5.0, -6.0, -7.0]).tobytes() == want.tobytes()
    assert g.eval_log((-5.0, -6.0, -7.0)).tobytes() == want.tobytes()


@st.composite
def gauges(draw):
    family = draw(st.sampled_from(FAMILIES))
    beta = None if family == POWER else draw(st.floats(0.01, 5.0))
    gamma = draw(st.floats(-2.0, 2.0)) if family in (H1, H1_STAR) else None
    return GaugeFunction(s=draw(st.floats(0.01, 2.0)), family=family, beta=beta, gamma=gamma)


def log_ts(h: GaugeFunction):
    """log t on both sides of the cutoff, with the cutoff, its neighbours, signed zeros and subnormals."""
    lr = h.log_r0
    edges = [lr, math.nextafter(lr, -math.inf), math.nextafter(lr, math.inf), 0.0, -0.0, 5e-324, -5e-324]
    return st.one_of(st.sampled_from(edges), st.floats(lr - 20.0, lr + 20.0), st.floats(-1e7, 10.0))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@given(st.data())
def test_eval_log_has_the_reference_bits_on_every_shape(data):
    h = data.draw(gauges())
    xs = data.draw(st.lists(log_ts(h), max_size=12))
    x = data.draw(log_ts(h))
    n = data.draw(st.integers(-10**6, 10))
    for scalar in (x, n, np.float64(x), np.array(x)):
        got = h.eval_log(scalar)
        assert type(got) is float and _bits(got) == _bits(oracle_eval_log(h, scalar))
    even = xs[: len(xs) // 2 * 2]
    for arr in (np.array(xs), np.array(even).reshape(2, -1), np.array(xs).reshape(-1, 1), np.empty((2, 0))):
        got, want = h.eval_log(arr), oracle_eval_log(h, arr)
        assert got.shape == arr.shape and _bits(got) == _bits(want)
    want = h.eval_log(np.array(xs))
    assert _bits(h.eval_log(xs)) == _bits(want) and _bits(h.eval_log(tuple(xs))) == _bits(want)
    bad = xs + [data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))]
    with pytest.raises(ParameterError):
        h.eval_log(np.array(data.draw(st.permutations(bad))))


@given(st.sampled_from(FAMILIES), st.floats(), st.floats(), st.floats())
# the formula at r0 is NaN (2 beta overflows) or -inf (s log r0 overflows): refused, with no RuntimeWarning
@example(H1, 0.0, 1.7e308, 0.5)
@example(H1_STAR, 1e10, 1e-300, 0.0)
def test_gauge_is_well_formed_or_refused(family, s, beta, gamma):
    try:
        h = GaugeFunction(
            s=s, family=family, beta=None if family == POWER else beta, gamma=gamma if family in (H1, H1_STAR) else None
        )
    except ConfigError:
        return
    assert math.isfinite(h.log_r0) and 0 < h.h_bar <= 1
