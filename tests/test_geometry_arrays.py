"""Row-wise composition of similarities against the one-letter-at-a-time oracle,
and geometry in ambient dimension 2."""
import math
import re
import tracemalloc
import weakref
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from necktree import geometry, trees
from necktree.errors import ExtinctionError, GeometryError, ParameterError
from necktree.gauges import GaugeFunction, power
from necktree.geometry import compose, percolation_preset, require_geometry, sample_points
from necktree.measure import mass_distribution_check, natural_measure
from necktree.rifs import IFS, RIFSFamily, SimilarityMap, dimension
from necktree.trees import BlockTemplate, Coding, ModelSpec, coding_level, sample, stopping_set

from helpers import (
    oracle_chunk_stopping_set,
    oracle_compose,
    oracle_cylinders,
    oracle_log_mass,
    oracle_mass_distribution_check,
    oracle_sample_points,
    worked_family_geometric,
)

HOM = ModelSpec(kind="homogeneous")


def _normalized(ws):
    total = sum(ws)
    return tuple(w / total for w in ws)


@st.composite
def cube_maps(draw, dim: int):
    """A similarity keeping the unit cube inside itself, mostly with a non-identity isometry."""
    ratio = draw(st.floats(0.15, 0.45 / math.sqrt(dim)))
    isometry = None
    if draw(st.booleans()) or draw(st.booleans()):
        entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim * dim, max_size=dim * dim))
        isometry = np.linalg.qr(np.reshape(entries, (dim, dim)))[0]
    q = np.eye(dim) if isometry is None else isometry
    # the image of the cube lies within half a diagonal of the image of its center
    half = ratio * math.sqrt(dim) / 2
    where = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim)))
    center = half + where * (1 - 2 * half)
    return SimilarityMap(ratio, isometry=isometry, translation=center - ratio * (q @ np.full(dim, 0.5)))


@st.composite
def families(draw):
    """1-3 systems of 0-3 maps in ambient dimension 1-3; the first system has a map."""
    dim = draw(st.integers(1, 3))
    n_sys = draw(st.integers(1, 3))
    systems = [
        IFS(maps=tuple(draw(st.lists(cube_maps(dim), min_size=int(i == 0), max_size=3))), label=f"s{i}")
        for i in range(n_sys)
    ]
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=n_sys, max_size=n_sys))
    return RIFSFamily(systems=tuple(systems), weights=_normalized(weights), ambient_dim=dim)


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
def separated_families(draw):
    """1-D families of 1-3 systems whose maps have disjoint images in [0, 1]; the first system has 2 or 3."""
    systems = []
    for i in range(draw(st.integers(1, 3))):
        maps, start = [], 0.0
        ratios = draw(st.lists(st.floats(0.15, 0.3), min_size=0 if i else 2, max_size=3))
        gap = (1.0 - sum(ratios)) / (len(ratios) + 1)
        for c in ratios:
            maps.append(SimilarityMap(c, translation=np.array([start + gap])))
            start += gap + c
        systems.append(IFS(maps=tuple(maps), label=f"s{i}"))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(systems), max_size=len(systems)))
    return RIFSFamily(systems=tuple(systems), weights=_normalized(weights))


@st.composite
def realizations(draw, families=families()):
    fam = draw(families)
    r = sample(draw(models(fam.nsystems)), draw(st.integers(0, 2**64 - 1)), fam)
    return replace(r, offset=draw(st.integers(0, 3)))


def _bytes(cyl) -> tuple:
    a = cyl.affine
    return tuple(np.asarray(x).tobytes() for x in (a.ratio, a.matrix, a.translation, cyl.center, cyl.diameter))


def _cells(cylinders) -> tuple:
    """The bytes of the centers and diameters of ``(letters or similarities, centers, diameters)``."""
    *_, center, diameter = cylinders
    return center.tobytes(), diameter.tobytes()


def _points_or_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs).tobytes()
    except ExtinctionError as exc:
        return type(exc), str(exc)


@settings(max_examples=150)
@given(
    realizations(),
    st.floats(0.05, 0.5),
    st.integers(0, 24),
    st.integers(0, 2**64 - 1),
    st.sampled_from([1e-2, 1e-4, 1e-9]),
    st.integers(1, 5),
    st.integers(1, 7),
)
def test_array_composition_matches_one_letter_at_a_time(r, epsilon, n, seed, tol, retries, frontier):
    fam = r.family
    codings = [Coding((), 0.0), *stopping_set(r, epsilon)]  # words of mixed lengths
    for coding in codings:
        assert _bytes(compose(fam, coding)) == _bytes(oracle_compose(fam, coding))
    assert _cells(geometry._stopping_cylinders(r, [epsilon])[0]) == _cells(oracle_cylinders(fam, codings[1:]))
    nu = natural_measure(r)
    # blocks of 1-7 points make every sample split into several blocks
    with patch.object(trees, "FRONTIER_NODES", frontier):
        got = _points_or_error(sample_points, r, n, seed, diameter_tol=tol, max_retries=retries)
    assert got == _points_or_error(oracle_sample_points, r, nu, n, seed, diameter_tol=tol, max_retries=retries)


def _words(codings) -> list:
    return [(c.letters, c.log_ratio.hex()) for c in codings]


def _report_or_error(check, *args, **kwargs):
    try:
        return repr(check(*args, **kwargs))
    except (ExtinctionError, GeometryError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150)
@given(
    st.one_of(realizations(), realizations(separated_families())),
    st.lists(st.floats(0.02, 0.5), min_size=1, max_size=3),
    st.integers(0, 12),
    st.integers(0, 2**64 - 1),
    st.integers(1, 7),
)
def test_mass_check_on_letter_arrays_matches_coding_tuples(r, epsilons, n_balls, seed, frontier):
    fam, nu, h = r.family, natural_measure(r), power(0.7)
    # chunks of 1-7 nodes spread each stopping set over several chunks and depths
    with patch.object(trees, "FRONTIER_NODES", frontier):
        for eps in epsilons:
            want = list(oracle_chunk_stopping_set(r, eps))
            assert _words(stopping_set(r, eps)) == _words(want)
            letters, _ = trees._stopping_letters(r, eps)
            assert _cells(geometry._stopping_cylinders(r, [eps])[0]) == _cells(oracle_cylinders(fam, want))
            masses = [math.exp(x).hex() for x in nu.log_masses(letters).tolist()]
            assert masses == [math.exp(oracle_log_mass(nu, c)).hex() for c in want]
            assert [nu.mass(c).hex() for c in want] == masses
        # d = 1 runs the interval audit whatever assume_uosc says
        args = (r, h, nu, n_balls, epsilons, seed)
        got = _report_or_error(mass_distribution_check, *args, assume_uosc=True)
        assert got == _report_or_error(oracle_mass_distribution_check, *args, assume_uosc=True)


def _dying_realization(seed: int):
    """A homogeneous tree over one single-map system and one 0-map system: seed 0 lives to level 4, seed 1 dies at
    its root."""
    one = IFS(maps=(SimilarityMap(0.5, translation=np.zeros(1)),), label="one")
    return sample(HOM, seed, RIFSFamily(systems=(one, IFS(maps=(), label="none")), weights=(0.5, 0.5)))


def _shaped(*arrays) -> tuple:
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


@settings(max_examples=150)
@given(
    st.one_of(realizations(), realizations(separated_families())),
    # unsorted grids of 1-4 radii with repeats
    st.lists(st.floats(0.02, 0.5), min_size=1, max_size=3).flatmap(
        lambda radii: st.lists(st.sampled_from(radii), min_size=1, max_size=4)
    ),
    st.integers(1, 7),
)
@example(_dying_realization(0), [0.01, 0.3, 0.01], 2)  # empty at 0.01 only
@example(_dying_realization(1), [0.3, 0.1], 1)  # empty everywhere
def test_one_walk_over_a_grid_matches_the_walk_per_epsilon(r, epsilons, frontier):
    fam, nu = r.family, natural_measure(r)
    # chunks of 1-7 nodes spread each stopping set over several chunks and depths
    with patch.object(trees, "FRONTIER_NODES", frontier):
        got = geometry._stopping_cylinders(r, epsilons)
        assert len(got) == len(epsilons)
        for eps, (letters, center, diameter) in zip(epsilons, got):
            want, _ = trees._stopping_letters(r, eps)
            _, want_center, want_diameter = oracle_cylinders(fam, list(stopping_set(r, eps)))
            assert _shaped(letters, center, diameter) == _shaped(want, want_center, want_diameter)
            assert nu.log_masses(letters).tobytes() == nu.log_masses(want).tobytes()


def test_a_grid_walk_of_a_dying_tree_gives_empty_sets():
    for seed, sizes in ((0, [0, 1, 0]), (1, [0, 0, 0])):
        got = geometry._stopping_cylinders(_dying_realization(seed), [0.01, 0.3, 0.01])
        assert [len(letters) for letters, *_ in got] == sizes


def test_a_mass_check_walks_once_and_keeps_one_row_set_per_depth():
    r, frontier = sample(HOM, 3, worked_family_geometric()), 5
    walks, outputs, step, walk = [], [], geometry._compose_step, trees.levels

    def counted_walk(*args, **kwargs):
        walks.append(kwargs)
        for chunk in walk(*args, **kwargs):
            yield chunk
            # the consumer is done with this chunk: what it holds are the row sets of depths 1..chunk.depth
            held = sum(len(rows) for rows in (ref() for ref in outputs) if rows is not None)
            assert held <= chunk.depth * frontier

    def tracked_step(*args):
        out = step(*args)
        outputs.append(weakref.ref(out[0]))
        return out

    with patch.object(trees, "levels", counted_walk), patch.object(geometry, "_compose_step", tracked_step), \
            patch.object(trees, "FRONTIER_NODES", frontier):
        report = mass_distribution_check(r, power(0.6), natural_measure(r), 10, [0.03, 0.004, 0.1], seed=1)
    assert len(walks) == 1
    assert len(outputs) > 20 and report.max_neighbor_count > 0


@settings(max_examples=100)
@given(
    realizations(),
    st.integers(0, 24),
    st.data(),
    st.integers(0, 2**64 - 1),
    st.sampled_from([1e-2, 1e-4, 1e-9]),
    st.integers(1, 3),
    st.integers(1, 7),
)
def test_the_first_points_of_a_sample_are_the_sample_of_that_size(r, n, data, seed, tol, retries, frontier):
    m = data.draw(st.integers(0, n))
    # blocks of 1-7 points and draws: the block length depends on the number of rows
    with patch.object(trees, "FRONTIER_NODES", frontier):
        whole, part = (
            _points_or_error(sample_points, r, k, seed, diameter_tol=tol, max_retries=retries) for k in (n, m)
        )
    if isinstance(whole, bytes):
        assert part == whole[: m * r.family.ambient_dim * 8]
    elif int(re.match(r"point (\d+):", whole[1]).group(1)) < m:
        assert part == whole
    else:
        assert isinstance(part, bytes)


def test_extinction_names_the_first_failing_point_across_blocks():
    fam, model = percolation_preset(0.9)
    r = sample(model, 7, fam)
    nu = natural_measure(r)
    with pytest.raises(ExtinctionError) as want:
        oracle_sample_points(r, nu, 60, 2, max_retries=3)
    assert str(want.value) == "point 48: all 3 descents hit extinct branches"
    for frontier in (1, 5, 16, 64):
        with patch.object(trees, "FRONTIER_NODES", frontier), pytest.raises(ExtinctionError) as got:
            sample_points(r, 60, 2, max_retries=3)
        assert str(got.value) == str(want.value)


def test_compose_refuses_a_letter_without_a_map():
    fam = quarter_turn_family()
    for letters in (((0, 5),), ((0, 1), (0, 0))):
        with pytest.raises(ParameterError, match=r"coding letter \(0, [05]\) has no matching map"):
            compose(fam, Coding(letters, 0.0))


@pytest.mark.parametrize("dim", [1, 2])
def test_mass_check_evaluates_the_gauge_once_per_epsilon(dim):
    if dim == 1:
        halves = (SimilarityMap(0.5, translation=np.zeros(1)), SimilarityMap(0.5, translation=np.array([0.5])))
        fam = RIFSFamily(systems=(IFS(maps=halves, label="halves"),), weights=(1.0,))
    else:
        fam = quarter_turn_family()
    r = sample(ModelSpec(kind="homogeneous"), 1, fam)
    h, epsilons = power(1.0), [0.1, 0.03, 0.01]
    with patch.object(GaugeFunction, "eval_log", autospec=True, side_effect=GaugeFunction.eval_log) as spy:
        mass_distribution_check(r, h, natural_measure(r), 20, epsilons, seed=1, assume_uosc=True)
    assert spy.call_count == len(epsilons)


def test_mass_check_refuses_a_measure_of_another_family():
    fam = worked_family_geometric()
    r, h, epsilons = sample(HOM, 3, fam), power(0.8), [1e-2]
    a, b = fam.systems
    fewer = RIFSFamily(systems=(b,), weights=(1.0,))
    swapped = RIFSFamily(systems=(b, a), weights=fam.weights)
    for other in (fewer, swapped):
        with pytest.raises(ParameterError, match="the measure must split mass over the realization's map counts"):
            mass_distribution_check(r, h, natural_measure(sample(HOM, 3, other)), 50, epsilons, seed=3)
    # a measure of another family with the same map counts splits mass alike
    twin = RIFSFamily(systems=(a, b), weights=(0.25, 0.75))
    want = mass_distribution_check(r, h, natural_measure(r), 50, epsilons, seed=3)
    assert mass_distribution_check(r, h, natural_measure(sample(HOM, 3, twin)), 50, epsilons, seed=3) == want


def test_wide_sample_stays_in_bounded_memory():
    fam, model = percolation_preset(0.9)
    r = sample(model, 0, fam)
    tracemalloc.start()
    try:
        points = sample_points(r, 2**17, seed=3)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 8
    assert points.shape == (2**17, 1)
    assert np.all((points >= 0) & (points <= 1))


# ---- ambient dimension 2 ------------------------------------------------------

THIRD = 1 / 3
QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])
CORNERS = ((0.0, 0.0), (2 / 3, 0.0), (2 / 3, 2 / 3), (0.0, 2 / 3))


def quarter_turn_family() -> RIFSFamily:
    """Four ratio-1/3 maps; map k turns by k quarter turns into the square at corner k."""
    maps = []
    for k, corner in enumerate(CORNERS):
        q = np.linalg.matrix_power(QUARTER_TURN, k)
        image = THIRD * (q @ np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]]))
        maps.append(SimilarityMap(THIRD, isometry=q, translation=np.array(corner) - image.min(axis=1)))
    return RIFSFamily(systems=(IFS(maps=tuple(maps), label="turns"),), weights=(1.0,), ambient_dim=2)


def _square(cyl) -> np.ndarray:
    """[[x_lo, y_lo], [x_hi, y_hi]] of the image of the unit square."""
    corners = np.array([cyl.affine.apply(np.array(c, dtype=float)) for c in ((0, 0), (1, 0), (0, 1), (1, 1))])
    return np.array([corners.min(axis=0), corners.max(axis=0)])


def test_quarter_turn_family_keeps_the_square():
    fam = quarter_turn_family()
    require_geometry(fam)
    for j, corner in enumerate(CORNERS, start=1):
        cyl = compose(fam, Coding(((0, j),), math.log(THIRD)))
        assert _square(cyl) == pytest.approx(np.array([corner, np.add(corner, THIRD)]), abs=1e-12)


def test_quarter_turn_composition_order_and_nesting():
    fam = quarter_turn_family()
    r = sample(HOM, 0, fam)
    x = np.array([0.2, 0.7])
    f = [fam.systems[0].maps[j] for j in range(4)]
    # f_2 o f_3: the second letter is applied first
    cyl = compose(fam, Coding(((0, 2), (0, 3)), 2 * math.log(THIRD)))
    inner = THIRD * (f[2].isometry @ x) + f[2].translation
    assert cyl.affine.apply(x) == pytest.approx(THIRD * (f[1].isometry @ inner) + f[1].translation, abs=1e-12)
    parents = {c.letters: compose(fam, c) for c in coding_level(r, 2)}
    children = list(coding_level(r, 3))
    assert len(children) == 64
    for child in children:
        pc, cc = parents[child.letters[:-1]], compose(fam, child)
        assert cc.diameter == pytest.approx(pc.diameter / 3, rel=1e-12)
        assert cc.diameter == pytest.approx(math.sqrt(2) / 27, rel=1e-12)
        outer, inner = _square(pc), _square(cc)
        assert np.all(inner[0] >= outer[0] - 1e-12) and np.all(inner[1] <= outer[1] + 1e-12)


def test_quarter_turn_points_fill_the_square():
    fam = quarter_turn_family()
    r = sample(HOM, 5, fam)
    points = sample_points(r, 4000, seed=11)
    assert points.shape == (4000, 2)
    assert np.all((points >= -1e-9) & (points <= 1 + 1e-9))
    # the natural measure gives each corner square a quarter of the mass
    quadrant = (points[:, 0] > 0.5).astype(int) + 2 * (points[:, 1] > 0.5)
    assert np.all(np.abs(np.bincount(quadrant, minlength=4) / 4000 - 0.25) < 0.03)


def test_quarter_turn_mass_distribution_check():
    fam = quarter_turn_family()
    r = sample(HOM, 2, fam)
    nu = natural_measure(r)
    s = dimension(fam, "homogeneous")
    assert s == pytest.approx(math.log(4) / math.log(3), abs=1e-9)
    with pytest.raises(GeometryError, match="declare UOSC"):
        mass_distribution_check(r, power(s), nu, 20, [0.1, 0.01])
    report = mass_distribution_check(r, power(s), nu, 20, [0.1, 0.01], seed=1, assume_uosc=True)
    assert report.neighbor_bound == 144.0
    assert report.neighbor_ok
    assert 0 < report.max_neighbor_count <= report.neighbor_bound
    assert 0 < report.sup_mass_ratio < math.inf
