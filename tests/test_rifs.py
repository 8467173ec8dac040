import math

import numpy as np
import pytest

from necktree.errors import ConfigError, PreconditionError
from necktree.rifs import (
    IFS,
    RIFSFamily,
    SimilarityMap,
    dimension,
    equicontractive_family,
    log_moment_stats,
    moment,
    validate,
)

from helpers import random_equicontractive_family, random_family, worked_family

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
