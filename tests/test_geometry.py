import math

import numpy as np
import pytest
from scipy import stats as sstats

from necktree.errors import ConfigError, ExtinctionError, GeometryError, ParameterError, PreconditionError
from necktree.geometry import (
    _maps,
    box_count_points,
    box_dimension,
    box_dimension_from_counts,
    compose,
    export_pgm,
    export_points_csv,
    percolation_preset,
    rasterize,
    require_geometry,
    sample_points,
    stopping_counts,
    uosc_audit_1d,
)
from necktree.rifs import IFS, RIFSFamily, SimilarityMap, dimension, validate
from necktree.trees import Coding, ModelSpec, sample

from helpers import time_limit, worked_family

HOM = ModelSpec(kind="homogeneous")


def halves_family() -> RIFSFamily:
    return RIFSFamily(
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


from helpers import worked_family_geometric as ternary_geometric_family  # noqa: E402


# ---- composition -------------------------------------------------------------


def test_compose_right_then_left():
    fam = halves_family()
    cyl = compose(fam, Coding(letters=((0, 2), (0, 1)), log_ratio=math.log(0.25)))
    # f_r o f_l([0,1]) = [1/2, 3/4]
    assert cyl.center[0] == pytest.approx(0.625, abs=1e-12)
    assert cyl.diameter == pytest.approx(0.25, rel=1e-12)
    lo = cyl.affine.apply(np.zeros(1))[0]
    hi = cyl.affine.apply(np.ones(1))[0]
    assert (lo, hi) == pytest.approx((0.5, 0.75), abs=1e-12)


def test_compose_empty_coding_is_seed():
    fam = halves_family()
    cyl = compose(fam, Coding(letters=(), log_ratio=0.0))
    assert cyl.center[0] == pytest.approx(0.5)
    assert cyl.diameter == pytest.approx(1.0)


def test_compose_ratio_is_letter_product():
    fam = ternary_geometric_family()
    r = sample(HOM, 4, fam)
    from necktree.trees import coding_level

    for coding in coding_level(r, 5):
        cyl = compose(fam, coding)
        assert math.log(cyl.affine.ratio) == pytest.approx(coding.log_ratio, abs=5e-12)
        break


def test_cylinder_nesting_and_shrinkage():
    fam = ternary_geometric_family()
    r = sample(HOM, 4, fam)
    from necktree.trees import coding_level

    parents = {c.letters: compose(fam, c) for c in coding_level(r, 2)}
    for child in coding_level(r, 3):
        pc = parents[child.letters[:-1]]
        cc = compose(fam, child)
        assert cc.diameter == pytest.approx(pc.diameter / 3, rel=1e-12)
        assert np.linalg.norm(cc.center - pc.center) <= (pc.diameter + cc.diameter) / 2


# ---- separation audits ---------------------------------------------------------


def test_uosc_audit_passes_separated_family():
    uosc_audit_1d(halves_family())
    uosc_audit_1d(ternary_geometric_family())


def test_uosc_audit_rejects_overlap():
    fam = worked_family()  # default zero translations overlap
    with pytest.raises(GeometryError, match="overlap"):
        uosc_audit_1d(fam)


def test_sibling_cylinders_disjoint_to_depth_10():
    fam = halves_family()
    r = sample(HOM, 0, fam)
    from necktree.trees import coding_level

    for k in (4, 10):
        spans = []
        for coding in coding_level(r, k):
            cyl = compose(fam, coding)
            spans.append((cyl.center[0] - cyl.diameter / 2, cyl.center[0] + cyl.diameter / 2))
        spans.sort()
        for (_, h1), (l2, _) in zip(spans, spans[1:]):
            assert l2 >= h1 - 1e-12


def test_containment_rejection_names_map():
    bad = RIFSFamily(
        systems=(
            IFS(maps=(SimilarityMap(0.5, translation=np.array([0.75])),), label="drifts"),
        ),
        weights=(1.0,),
    )
    with pytest.raises(ConfigError, match="map 1 of system 'drifts'"):
        require_geometry(bad)


def test_map_arrays_are_built_once_per_family_and_read_only():
    fam = ternary_geometric_family()
    maps = _maps(fam)
    assert _maps(fam) is maps
    assert _maps(ternary_geometric_family()) is not maps  # families hash by identity
    for a in maps:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 2.0
    # a mismatched map is not cached: it raises on every call
    wrong = RIFSFamily(systems=(IFS(maps=(SimilarityMap(0.5, translation=np.zeros(2)),)),), weights=(1.0,))
    for _ in range(2):
        with pytest.raises(ConfigError, match="does not match ambient dimension 1"):
            _maps(wrong)


# ---- point sampling --------------------------------------------------------------


def test_sample_points_uniform_on_interval():
    fam = halves_family()
    r = sample(HOM, 0, fam)
    pts = sample_points(r, 10_000, seed=42)
    stat = sstats.kstest(pts[:, 0], "uniform").statistic
    assert stat <= 0.02
    assert np.all((pts >= -1e-9) & (pts <= 1 + 1e-9))


def test_sample_points_singleton_attractor():
    fam = RIFSFamily(
        systems=(IFS(maps=(SimilarityMap(0.5, translation=np.zeros(1)),), label="left"),),
        weights=(1.0,),
    )
    r = sample(HOM, 1, fam)
    pts = sample_points(r, 50, seed=0)
    assert np.all(np.abs(pts) <= 1e-8)


def test_sample_points_reproducible():
    fam, model = percolation_preset(0.8)
    r = sample(model, 7, fam)
    a = sample_points(r, 64, seed=5)
    b = sample_points(r, 64, seed=5)
    assert np.array_equal(a, b)


def test_sample_points_extinction():
    fam, model = percolation_preset(0.2)  # subcritical: dies almost surely
    r = sample(model, 3, fam)
    with pytest.raises(ExtinctionError):
        sample_points(r, 4, seed=0, max_retries=20)


def test_sample_points_refuses_a_map_that_never_shrinks():
    fam = RIFSFamily(
        systems=(IFS(maps=(SimilarityMap(1.0, translation=np.zeros(1)),), label="identity"),),
        weights=(1.0,),
    )
    r = sample(HOM, 0, fam)
    with time_limit(10), pytest.raises(PreconditionError, match="ratios < 1"):
        sample_points(r, 4, seed=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"diameter_tol": -1.0}, "diameter_tol must be finite and > 0"),
        ({"diameter_tol": math.nan}, "diameter_tol must be finite and > 0"),
        ({"diameter_tol": math.inf}, "diameter_tol must be finite and > 0"),
        ({"max_retries": 0}, "max_retries must be an integer >= 1"),
        ({"max_retries": 2.5}, "max_retries must be an integer >= 1"),
        ({"n": 2.5}, "point count must be an integer, got 2.5"),
        ({"max_retries": True}, "max_retries must be an integer >= 1, got True"),
    ],
    ids=["negative-tol", "nan-tol", "infinite-tol", "no-retries", "fraction-retries", "fraction-count",
         "boolean-retries"],
)
def test_sample_points_refuses_bad_descent_limits(kwargs, message):
    r = sample(HOM, 0, halves_family())
    with time_limit(10), pytest.raises(ParameterError, match=message):
        sample_points(r, **{"n": 4, "seed": 0, **kwargs})


# ---- box dimension -----------------------------------------------------------------


def test_box_dimension_interval_exact():
    fam = halves_family()
    r = sample(HOM, 0, fam)
    scales = [2.0**-k for k in range(2, 11)]
    slope, counts = box_dimension(r, scales)
    assert slope == pytest.approx(1.0, abs=0.01)
    assert list(counts) == [2**k for k in range(2, 11)]


def test_box_dimension_worked_family_matches_solver():
    fam = ternary_geometric_family()
    target = dimension(fam, "homogeneous")
    # mid-band scales keep the stopping depth unambiguous under rounding
    scales = [1.5 * 3.0**-k for k in range(2, 13)]
    slopes = [box_dimension(sample(HOM, seed, fam), scales)[0] for seed in range(10)]
    assert float(np.mean(slopes)) == pytest.approx(target, abs=0.05)


def test_box_dimension_exact_self_similar_cantor():
    third = 1 / 3
    fam = RIFSFamily(
        systems=(
            IFS(
                maps=(
                    SimilarityMap(third, translation=np.zeros(1)),
                    SimilarityMap(third, translation=np.array([2 / 3])),
                ),
                label="cantor",
            ),
        ),
        weights=(1.0,),
    )
    r = sample(HOM, 0, fam)
    slope, _ = box_dimension(r, [1.5 * 3.0**-k for k in range(2, 12)])
    assert slope == pytest.approx(math.log(2) / math.log(3), abs=0.02)


def test_box_dimension_from_points():
    fam = halves_family()
    r = sample(HOM, 0, fam)
    pts = sample_points(r, 20_000, seed=9)
    slope, _ = box_dimension(pts, [2.0**-k for k in range(2, 9)])
    assert slope == pytest.approx(1.0, abs=0.05)


def test_box_dimension_parameter_errors():
    fam = halves_family()
    r = sample(HOM, 0, fam)
    with pytest.raises(ParameterError, match="6 distinct scales"):
        box_dimension(r, [0.5, 0.25, 0.125])
    with pytest.raises(ParameterError, match="octaves"):
        box_dimension(r, [0.5, 0.45, 0.4, 0.35, 0.3, 0.25])
    with pytest.raises(ParameterError, match="10\\^4"):
        box_dimension(np.zeros((10, 1)), [2.0**-k for k in range(2, 9)])


def test_box_counts_match_a_set_of_occupied_cells():
    rng = np.random.default_rng(5)
    for n, dim in ((0, 1), (1, 2), (2, 1), (500, 1), (500, 2), (2000, 3)):
        pts = rng.random((n, dim)) ** 3  # bunched toward 0, so cells repeat at every scale
        scales = [2.0**-k for k in range(1, 12)]
        want = [len({tuple(c) for c in np.floor(pts / d).astype(np.int64).tolist()}) for d in scales]
        assert box_count_points(pts, scales).tolist() == want
        if dim == 1:
            assert box_count_points(pts[:, 0], scales).tolist() == want


def test_box_dimension_extinct_counts():
    with pytest.raises(ExtinctionError):
        box_dimension_from_counts([2.0**-k for k in range(2, 9)], [4, 8, 16, 0, 0, 0, 0])


# ---- percolation preset ---------------------------------------------------------------


def test_percolation_half_retention_is_uniform_quarters():
    fam, model = percolation_preset(0.5)
    assert model.kind == "recursive"
    assert fam.weights == pytest.approx((0.25, 0.25, 0.25, 0.25))
    assert [s.nmaps for s in fam.systems] == [0, 1, 1, 2]


def test_percolation_supercriticality_threshold():
    for p, expect in ((0.4, False), (0.5, False), (0.6, True)):
        fam, _ = percolation_preset(p)
        assert validate(fam, "recursive").recursive_supercritical is expect


def test_percolation_dimension_closed_form():
    fam, _ = percolation_preset(0.8)
    assert dimension(fam, "recursive") == pytest.approx(math.log(1.6) / math.log(2), abs=1e-9)


def test_percolation_domain():
    with pytest.raises(ParameterError):
        percolation_preset(1.0)


# ---- exports -----------------------------------------------------------------------------


def test_points_csv_formats_each_value_as_its_float64(tmp_path):
    tiny = np.nextafter(0.0, 1.0)
    values = np.array([-0.0, 0.0, tiny, -tiny, 2.5e-310, 1 / 3, -2 / 3, 1e300, 123456789.5, 0.1])
    for dim in (1, 2, 3):
        pts = values[: len(values) // dim * dim].reshape(-1, dim)
        out = tmp_path / f"points{dim}.csv"
        export_points_csv(str(out), pts, "prov")
        want = "# prov\n" + "".join(",".join(f"{x:.9g}" for x in row) + "\n" for row in pts)
        assert want.startswith("# prov\n-0")
        assert out.read_bytes() == want.encode()


def test_rasterize_and_pgm(tmp_path):
    pts = np.array([[0.1, 0.1], [0.9, 0.9], [0.9, 0.9]])
    counts = rasterize(pts, 4, 4)
    assert counts.sum() == 3
    assert counts[0, 3] == 2  # top-right pixel holds the doubled point
    out = tmp_path / "img.pgm"
    export_pgm(str(out), counts, "prov")
    data = out.read_bytes()
    assert data.startswith(b"P5\n# prov\n4 4\n255\n")
    assert len(data) == len(b"P5\n# prov\n4 4\n255\n") + 16
    export_pgm(str(out) + "2", counts, "prov")
    assert data == (tmp_path / "img.pgm2").read_bytes()


@pytest.mark.parametrize("size, message", [
    ((2.5, 3), "raster width must be an integer, got 2.5"),
    ((3, math.nan), "raster height must be an integer, got nan"),
    ((True, 3), "raster width must be an integer, got True"),
    ((0, 3), "raster width and height must be >= 1"),
], ids=["fraction-width", "nan-height", "boolean-width", "zero-width"])
def test_rasterize_refuses_sizes_that_are_not_counts(size, message):
    with pytest.raises(ParameterError, match=message):
        rasterize(np.array([[0.1, 0.1]]), *size)
