"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; ``pytest -v`` shows the same information through test outcomes.
"""
import json
import math
import time

import numpy as np
import pytest

from necktree.cli import run as cli_run
from necktree.gauges import h1, h1_star, loglog_power, power
from necktree.geometry import (
    box_dimension_from_counts,
    percolation_preset,
    stopping_counts,
)
from necktree.measure import (
    DEFAULT_NODE_BUDGET,
    _stream_log_sums,
    beta_hat,
    drift_experiment,
    level_sums,
    lil_calibration,
    mass_distribution_check,
    natural_measure,
    section_infimum,
)
from necktree.rifs import dimension, log_moment_stats, moment
from necktree.trees import ModelSpec, sample

from helpers import (
    min_section_sum_log,
    random_equicontractive_family,
    random_family,
    worked_family,
    worked_family_geometric,
)

HOM = ModelSpec(kind="homogeneous")
S_HOM = 0.8154648767854269
S_REC = 0.8340437671463405
V_WORKED = 0.041100488473291355


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def fifty_families():
    rng = np.random.default_rng(2718281828)
    return [random_equicontractive_family(rng) for _ in range(50)]


def test_criterion_01_dimension_oracles(fifty_families):
    t0 = time.perf_counter()
    worst = 0.0
    for fam in fifty_families:
        c = fam.uniform_ratio
        counts = np.array([s.nmaps for s in fam.systems], dtype=float)
        w = np.array(fam.weights)
        s_hom_cf = float(np.dot(w, np.log(counts))) / math.log(1 / c)
        s_rec_cf = math.log(float(np.dot(w, counts))) / math.log(1 / c)
        worst = max(worst, abs(dimension(fam, "homogeneous") - s_hom_cf))
        worst = max(worst, abs(dimension(fam, "recursive") - s_rec_cf))
    fam = worked_family()
    hom, rec = dimension(fam, "homogeneous"), dimension(fam, "recursive")
    elapsed = time.perf_counter() - t0
    ok = (
        worst <= 1e-9
        and abs(hom - 0.8154648) < 1e-7  # matches the 7-decimal printed value
        and abs(rec - 0.8340438) < 1e-7
        and elapsed < 1.0
    )
    _report(1, "dimension solvers match closed forms on 50 random families",
            ok, f"max err {worst:.2e}, worked ({hom:.7f}, {rec:.7f}), {elapsed:.2f}s")


def test_criterion_02_jensen_ordering(fifty_families):
    violations = [
        fam for fam in fifty_families
        if dimension(fam, "homogeneous") > dimension(fam, "recursive") + 1e-9
    ]
    _report(2, "homogeneous dimension <= recursive dimension on all 50 families",
            not violations, f"{len(violations)} violations")


def test_criterion_03_percolation_box_dimension():
    t0 = time.perf_counter()
    fam, model = percolation_preset(0.8)
    target = math.log(1.6) / math.log(2)
    scales = [2.0**-k for k in range(2, 15)]
    slopes = []
    seed = 0
    while len(slopes) < 20 and seed < 400:
        r = sample(model, seed, fam)
        seed += 1
        counts = stopping_counts(r, scales)
        if counts[-1] == 0:
            continue
        slopes.append(box_dimension_from_counts(scales, counts)[0])
    mean_slope = float(np.mean(slopes))
    elapsed = time.perf_counter() - t0
    ok = len(slopes) == 20 and abs(mean_slope - target) <= 0.1 and elapsed < 60
    _report(3, "percolation p=0.8 stopping-set box dimension near log(1.6)/log 2",
            ok, f"mean {mean_slope:.4f} vs {target:.4f}, {elapsed:.1f}s")


def test_criterion_04_section_dp_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31415926)
    models = [HOM, ModelSpec(kind="recursive"), ModelSpec(kind="v_variable", v=2)]
    failures = 0
    for trial in range(100):
        fam = random_family(rng, max_maps=2)
        r = sample(models[trial % 3], int(rng.integers(0, 2**63)), fam)
        if rng.uniform() < 0.5:
            g = power(float(rng.uniform(0.2, 1.2)))
        else:
            g = h1(float(rng.uniform(0.3, 1.0)), beta=float(rng.uniform(0.02, 0.2)),
                   gamma=float(rng.uniform(-0.5, 0.5)))
        dmin = int(rng.integers(0, 3))
        dp = section_infimum(r, g, depth_min=dmin, depth_cap=4).value_log
        oracle = min_section_sum_log(r, g, dmin, 4)
        if not (dp == oracle or abs(dp - oracle) < 1e-12):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30
    _report(4, "section DP equals exhaustive section minimum on 100 random triples",
            ok, f"{failures} mismatches, {elapsed:.1f}s")


def test_criterion_05_level_sum_identity():
    fam = worked_family()
    g = power(S_HOM)
    logs = np.array([math.log(moment(fam, i, S_HOM)) for i in range(fam.nsystems)])
    depths = [1, 10, 100, 1000]
    worst = 0.0
    for seed in range(100):
        r = sample(HOM, seed, fam)
        walk = np.cumsum(logs[r.level_systems(1000)])
        series = level_sums(r, g, depths)
        worst = max(worst, float(np.max(np.abs(series.log_sums - walk[np.array(depths) - 1]))))
    # streamed enumeration cross-check where the level is enumerable
    worst_stream = 0.0
    for seed in range(100):
        r = sample(HOM, seed, fam)
        a = level_sums(r, g, [1, 5, 9]).log_sums
        b = _stream_log_sums(r, g, [1, 5, 9], DEFAULT_NODE_BUDGET)
        worst_stream = max(worst_stream, float(np.max(np.abs(a - b))))
    ok = worst <= 1e-9 and worst_stream <= 1e-9
    _report(5, "level sums equal random-walk closed form (and streamed sums where enumerable)",
            ok, f"walk err {worst:.2e}, stream err {worst_stream:.2e}")


def test_criterion_06_lil_calibration():
    t0 = time.perf_counter()
    fam = worked_family()
    cal = lil_calibration(fam, HOM, S_HOM, n_paths=1000, depth=10_000, seed=271828)
    elapsed = time.perf_counter() - t0
    var_ok = abs(cal.increment_var - 0.041101) <= 0.1 * 0.041101
    ok = var_ok and cal.frac_exit < 0.10 and cal.frac_touch > 0.50 and elapsed < 120
    _report(6, "LIL calibration: increment variance, 1.5x exits rare, 0.5x touches common",
            ok,
            f"var {cal.increment_var:.6f} vs 0.041101, exit {cal.frac_exit:.3f}, "
            f"touch {cal.frac_touch:.3f}, {elapsed:.1f}s")


def _last_decade_slope(depths: np.ndarray, values: np.ndarray) -> float:
    mask = depths >= depths[-1] / 10
    return float(np.polyfit(np.log10(depths[mask]), values[mask], 1)[0])


def _dichotomy_run(gauge_builder, estimator: str, n_seeds: int = 30):
    """Per-seed (final value, last-decade slope) of a liminf/limsup estimate."""
    fam = worked_family()
    b = beta_hat(fam, S_HOM)
    depths = [int(d) for d in np.unique(np.rint(np.geomspace(100, 10_000, 17)))]
    out = []
    for m in range(n_seeds):
        rep = drift_experiment(fam, HOM, gauge_builder(b), 64, depths, seed=10_000 + m)
        est = getattr(rep, estimator)
        out.append((est[-1], _last_decade_slope(np.array(depths, float), est)))
    return out


def test_criterion_07_hausdorff_dichotomy_direction():
    t0 = time.perf_counter()
    shrink = _dichotomy_run(lambda b: h1(S_HOM, b, gamma=+0.5), "liminf_est")
    grow = _dichotomy_run(lambda b: h1(S_HOM, b, gamma=-0.5), "liminf_est")
    good = sum(
        (a < -5 and sa < 0) and (bv > 5 and sb > 0)
        for (a, sa), (bv, sb) in zip(shrink, grow)
    )
    elapsed = time.perf_counter() - t0
    ok = good >= math.ceil(0.95 * 30) and elapsed < 600
    med_a = float(np.median([a for a, _ in shrink]))
    med_b = float(np.median([b for b, _ in grow]))
    _report(7, "h1 gamma=+/-0.5: envelope-adjusted median level sums split at -5/+5",
            ok, f"{good}/30 seeds, medians {med_a:.1f} / {med_b:.1f}, {elapsed:.1f}s")


def test_criterion_08_packing_direction():
    t0 = time.perf_counter()
    grow = _dichotomy_run(lambda b: h1_star(S_HOM, b, gamma=+0.5), "limsup_est")
    shrink = _dichotomy_run(lambda b: h1_star(S_HOM, b, gamma=-0.5), "limsup_est")
    good = sum(
        (a > 5 and sa > 0) and (bv < -5 and sb < 0)
        for (a, sa), (bv, sb) in zip(grow, shrink)
    )
    elapsed = time.perf_counter() - t0
    ok = good >= math.ceil(0.95 * 30) and elapsed < 600
    med_a = float(np.median([a for a, _ in grow]))
    med_b = float(np.median([b for b, _ in shrink]))
    _report(8, "h1* epsilon=+/-0.5: running-max estimates split at +5/-5",
            ok, f"{good}/30 seeds, medians {med_a:.1f} / {med_b:.1f}, {elapsed:.1f}s")


def test_criterion_09_doubling_scan():
    grid = -np.geomspace(100.0, 1e6, 60)  # log t from -1e2 down to -1e6
    two_s = 2.0**S_HOM
    ln2 = math.log(2.0)
    # stated bracket and monotone-decreasing direction: the negative-corrected
    # gauge; the positive-corrected gauge mirrors it from below (see ledger)
    star = h1_star(S_HOM, beta=0.05, gamma=0.0).doubling_ratio_scan(grid)
    rho_star = float(np.max(np.abs(np.log(star) - S_HOM * ln2))) / math.sqrt(2)
    star_ok = (
        np.all(star >= two_s * (1 - 1e-6))
        and np.all(star <= two_s * math.exp(math.sqrt(2) * rho_star) + 1e-12)
        and np.all(np.diff(star) < 0)
        and abs(star[-1] - two_s) < 1e-3
    )
    plain = h1(S_HOM, beta=0.05, gamma=0.0).doubling_ratio_scan(grid)
    rho = float(np.max(np.abs(np.log(plain) - S_HOM * ln2))) / math.sqrt(2)
    plain_ok = (
        np.all(plain <= two_s * (1 + 1e-6))
        and np.all(plain >= two_s * math.exp(-math.sqrt(2) * rho) - 1e-12)
        and np.all(np.diff(plain) > 0)
        and abs(plain[-1] - two_s) < 1e-3
    )
    _report(9, "doubling ratios stay in the fitted bracket and converge to 2^s",
            star_ok and plain_ok,
            f"rho_hat {rho_star:.4f}, final ratios {star[-1]:.6f}/{plain[-1]:.6f} vs 2^s {two_s:.6f}")


def test_criterion_10_gauge_ordering():
    lt = -1e6
    diff = loglog_power(S_HOM, beta=2.0).eval_log(lt) - h1(S_HOM, beta=0.05, gamma=0.1).eval_log(lt)
    _report(10, "loglog-power gauge falls at least 10 nats below h1 at log t = -1e6",
            diff <= -10, f"log difference {diff:.1f}")


def test_criterion_11_neighbor_bound():
    t0 = time.perf_counter()
    fam = worked_family_geometric()
    r = sample(HOM, 5, fam)
    nu = natural_measure(r)
    eps_grid = [1.5 * 3.0**-j for j in range(1, 11)]  # stopping depths 1..10
    rep = mass_distribution_check(r, power(S_HOM), nu, n_balls=1000,
                                  epsilon_grid=eps_grid, seed=9)
    elapsed = time.perf_counter() - t0
    ok = rep.max_neighbor_count <= 12 and rep.neighbor_ok
    _report(11, "stopping-set cylinders meeting any sampled ball <= (4/c_min)^d = 12",
            ok, f"max count {rep.max_neighbor_count}, {elapsed:.1f}s")


def test_criterion_12_cli_determinism(tmp_path):
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps({
        "ambient_dim": 1,
        "systems": [
            {"label": "A", "weight": 0.5, "maps": [
                {"ratio": 1 / 3, "translation": [0.0]},
                {"ratio": 1 / 3, "translation": [2 / 3]}]},
            {"label": "B", "weight": 0.5, "maps": [
                {"ratio": 1 / 3, "translation": [0.0]},
                {"ratio": 1 / 3, "translation": [1 / 3]},
                {"ratio": 1 / 3, "translation": [2 / 3]}]},
        ],
    }))
    gauge_path = tmp_path / "gauge.json"
    gauge_path.write_text(json.dumps({"s": "auto", "family": {"h1": {"beta": "auto", "gamma": 0.5}}}))
    power_path = tmp_path / "power.json"
    power_path.write_text(json.dumps({"s": "auto", "family": "power"}))

    blobs = {}
    for tag, extra in (("a", ["--workers", "1"]), ("b", ["--workers", "2"]),
                       ("c", ["--workers", "1"])):
        out = tmp_path / f"drift_{tag}.csv"
        code = cli_run([
            "drift", "--family", str(fam_path), "--model", "homogeneous",
            "--gauge", str(gauge_path), "--seed", "7", "--n", "50",
            "--depths", "100:2000:log", "--out", str(out), *extra,
        ])
        assert code == 0
        blobs[tag] = out.read_bytes()
    drift_ok = blobs["a"] == blobs["b"] == blobs["c"]

    reruns = []
    for tag in ("x", "y"):
        out = tmp_path / f"ls_{tag}.csv"
        assert cli_run([
            "levelsum", "--family", str(fam_path), "--model", "homogeneous",
            "--gauge", str(power_path), "--seed", "11", "--depths", "1:200:log",
            "--out", str(out),
        ]) == 0
        reruns.append(out.read_bytes())
    level_ok = reruns[0] == reruns[1]

    renders = []
    for tag in ("p", "q"):
        out = tmp_path / f"pts_{tag}.csv"
        assert cli_run([
            "render", "--family", str(fam_path), "--model", "homogeneous",
            "--seed", "3", "--n", "500", "--out", str(out),
        ]) == 0
        renders.append(out.read_bytes())
    render_ok = renders[0] == renders[1]

    ok = drift_ok and level_ok and render_ok
    _report(12, "CLI reruns are byte-identical, including across worker counts",
            ok, f"drift {drift_ok}, levelsum {level_ok}, render {render_ok}")
