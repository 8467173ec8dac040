"""Concrete geometry: composed similarities, point clouds, box dimension.

The seed set is the closed unit cube and the separation open set is its
interior.  Families whose maps do not keep the cube inside itself are
rejected before any geometric operation runs.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import streams, trees
from .errors import ConfigError, ExtinctionError, GeometryError, ParameterError, PreconditionError
from .rifs import IFS, RIFSFamily, SimilarityMap, _is_integer
from .trees import Coding, ModelSpec, Realization, stopping_counts

POINT_DIAMETER_TOL = 1e-9
MAX_SAMPLE_RETRIES = 100


@dataclass(frozen=True, eq=False)
class Affine:
    """Similarity x -> ratio * Q x + b."""

    ratio: float
    matrix: np.ndarray
    translation: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.ratio * (self.matrix @ x) + self.translation


@dataclass(frozen=True, eq=False)
class Cylinder:
    """Image of the seed cube under a composed coding."""

    coding: Coding
    affine: Affine
    center: np.ndarray
    diameter: float


@functools.lru_cache(maxsize=8)
def _maps(family: RIFSFamily) -> tuple[np.ndarray, ...]:
    """Read-only arrays ratio, isometry, translation: map j of system i at [i, j], j = 0 the identity.

    Built once per family (families hash by identity); a mismatched map raises on every call.
    """
    dim = family.ambient_dim
    shape = (family.nsystems, family.n_max + 1)
    ratio, translation = np.ones(shape), np.zeros(shape + (dim,))
    isometry = np.broadcast_to(np.eye(dim), shape + (dim, dim)).copy()
    for i, sysm in enumerate(family.systems):
        for j, m in enumerate(sysm.maps, start=1):
            q = m.isometry if m.isometry is not None else np.eye(dim)
            b = m.translation if m.translation is not None else np.zeros(dim)
            if q.shape != (dim, dim) or b.shape != (dim,):
                raise ConfigError(f"map geometry does not match ambient dimension {dim}")
            ratio[i, j], isometry[i, j], translation[i, j] = m.ratio, q, b
    for a in (ratio, isometry, translation):
        a.flags.writeable = False
    return ratio, isometry, translation


def _compose_step(acc: Sequence[np.ndarray], maps: tuple, sys: np.ndarray, j: np.ndarray) -> tuple:
    """Row k of ``acc = (ratio, matrix, translation)`` composed with map ``j[k]`` of system ``sys[k]`` applied first.

    Each row repeats the arithmetic of composing two ``Affine``s, so it is
    bit-identical to composing one coding at a time.
    """
    ratio, matrix, translation = acc
    dim, flat = translation.shape[1], sys * maps[0].shape[1] + j  # map [sys, j] in row-major order
    r = maps[0].reshape(-1).take(flat)
    q, b = maps[1].reshape(-1, dim, dim).take(flat, 0), maps[2].reshape(-1, dim).take(flat, 0)
    return ratio * r, matrix @ q, ratio[:, None] * (matrix @ b[:, :, None])[:, :, 0] + translation


def _apply(acc: list, x: np.ndarray) -> np.ndarray:
    """Row-wise ``Affine.apply``."""
    ratio, matrix, translation = acc
    return ratio[..., None] * (matrix @ x) + translation


def _stopping_cylinders(r: Realization, epsilons: Sequence[float]) -> list[tuple[np.ndarray, ...]]:
    """Per ε: the letters of ``trees.stopping_set``'s codings and their cylinders' centers and diameters, in one walk.

    The bytes are those of ``trees._stopping_letters`` and ``compose``.  Each chunk's similarity rows are one
    ``_compose_step`` on its parent chunk's rows.  The walk is depth-first, so a chunk's parent is the last chunk
    a level up, and only the rows of the last chunk of each depth are kept.
    """
    maps, dim = _maps(r.family), r.family.ambient_dim
    held = [tuple(t[0, :1] for t in maps)]  # held[d]: the rows of the last chunk at depth d, the identity at the root

    def rows(chunk: trees.Chunk) -> tuple:
        if chunk.up is not None:
            del held[chunk.depth :]
            held.append(_compose_step([a[chunk.parent] for a in held[-1]], maps, chunk.sys, chunk.j))
        return held[chunk.depth]

    return [
        (letters, _apply(acc, np.full(dim, 0.5)), acc[0] * math.sqrt(dim))
        for letters, *acc in trees._stopping_sets(r, epsilons, rows)
    ]


def require_geometry(family: RIFSFamily) -> None:
    """Reject families whose maps do not keep the seed cube inside itself."""
    dim = family.ambient_dim
    maps = _maps(family)
    corners = np.array(np.meshgrid(*([[0.0, 1.0]] * dim), indexing="ij")).reshape(dim, -1).T
    images = np.stack([_apply(maps, c) for c in corners])  # [corner, i, j, axis]
    outside = ((images < -1e-12) | (images > 1 + 1e-12)).any(axis=(0, 3))
    if outside.any():
        i, j = np.argwhere(outside)[0]
        raise ConfigError(
            f"map {j} of system {family.systems[i].label!r} does not map the unit cube into itself"
        )


def compose(family: RIFSFamily, coding: Coding) -> Cylinder:
    """Compose the coding's maps left to right and return the cylinder."""
    maps, dim = _maps(family), family.ambient_dim
    acc = tuple(t[0, :1] for t in maps)  # the identity row
    for si, j in coding.letters:
        if not 1 <= j <= family.systems[si].nmaps:
            raise ParameterError(f"coding letter ({si}, {j}) has no matching map")
        acc = _compose_step(acc, maps, np.array([si]), np.array([j]))
    affine = Affine(ratio=float(acc[0][0]), matrix=acc[1][0], translation=acc[2][0])
    return Cylinder(coding, affine, center=_apply(acc, np.full(dim, 0.5))[0], diameter=affine.ratio * math.sqrt(dim))


def uosc_audit_1d(family: RIFSFamily) -> None:
    """Exact interval check of the open-set condition on (0, 1).

    For each system the open images of (0, 1) must be pairwise disjoint and
    contained in (0, 1); raises with the offending system named.
    """
    if family.ambient_dim != 1:
        raise GeometryError("interval audit only applies to ambient dimension 1")
    maps = _maps(family)
    lo, hi = np.sort([_apply(maps, np.zeros(1)), _apply(maps, np.ones(1))], axis=0)[..., 0].tolist()
    for i, sysm in enumerate(family.systems):
        spans = sorted(zip(lo[i][1 : sysm.nmaps + 1], hi[i][1 : sysm.nmaps + 1]))
        if any(a < -1e-12 or b > 1 + 1e-12 for a, b in spans):
            raise GeometryError(f"system {sysm.label!r} maps outside the unit interval")
        for (_, hi1), (lo2, _) in zip(spans, spans[1:]):
            if lo2 < hi1 - 1e-12:
                raise GeometryError(f"system {sysm.label!r} has overlapping map images")


def sample_points(
    r: Realization,
    n: int,
    seed: int,
    diameter_tol: float = POINT_DIAMETER_TOL,
    max_retries: int = MAX_SAMPLE_RETRIES,
) -> np.ndarray:
    """Sample n attractor points by mass-proportional descent of the tree.

    Each point descends choosing uniformly among live children until the
    cylinder diameter drops below ``diameter_tol``; extinct branches retry
    from the root, up to ``max_retries`` descents per point.  Point i's child
    at step s of descent a is drawn from ``fold(fold(fold(base, i), a), s)``.
    Points descend together a level per step, in blocks of at most
    ``trees.FRONTIER_NODES``, with labels and child states from one ``trees.expander``.
    Only the rows still descending are kept, as compact arrays of ratios,
    matrices and translations that one ``_compose_step`` advances; a step
    where some row stops writes its points and gathers the rest once.  The
    draws are counter-based, so one ``fold_array`` gives a block of steps:
    as many as the slowest-shrinking descent needs, at most
    ``trees.FRONTIER_NODES`` draws, and a descent that outlives its block
    draws the next.  A family with a map of ratio 1 has branches that never
    shrink, so it is refused.
    """
    family = r.family
    trees._require_count("point count", n)
    if not 0.0 < diameter_tol < math.inf:
        raise ParameterError(f"diameter_tol must be finite and > 0, got {diameter_tol}")
    if not _is_integer(max_retries) or max_retries < 1:
        raise ParameterError(f"max_retries must be an integer >= 1, got {max_retries}")
    if family.c_max >= 1.0:
        raise PreconditionError("point sampling needs all contraction ratios < 1")
    require_geometry(family)
    maps, nmaps = _maps(family), family.map_counts
    expand, aux0 = trees.expander(r), r._root_state[1]
    dim = family.ambient_dim
    scale, center = math.sqrt(dim), np.full(dim, 0.5)
    steps = math.ceil(math.log(diameter_tol / scale) / math.log(family.c_max))  # of the slowest-shrinking descent
    base = streams.fold(int(seed) & streams.MASK64, streams.TAG_POINT)
    out = np.empty((n, dim))
    for start in range(0, n, trees.FRONTIER_NODES):
        todo = np.arange(start, min(n, start + trees.FRONTIER_NODES))
        for attempt in range(max_retries):
            if not todo.size:
                break
            rows, extinct = todo, [todo[:0]]  # the points still descending, in order, and the lost ones
            stream = streams.fold_array(streams.fold_array(base, rows), attempt)
            acc = tuple(t[0, np.zeros(rows.size, dtype=np.intp)] for t in maps)  # identity rows
            aux = None if aux0 is None else np.full(rows.size, aux0, dtype=np.uint64)
            u, first = np.empty((rows.size, 0)), 0  # the block of draws: column k is step first + k
            here, step = np.arange(rows.size), 0  # row numbers, for ``children[here, j - 1]``
            while True:
                sys, children = expand(step, aux, rows.size)
                big, count = acc[0] * scale > diameter_tol, nmaps[sys]
                go = big & (count > 0)
                if not go.all():
                    done = ~big
                    out[rows[done]] = _apply([a[done] for a in acc], center)
                    extinct.append(rows[big & (count == 0)])
                    rows, stream, sys, count, u = rows[go], stream[go], sys[go], count[go], u[go]
                    acc, here = tuple(a[go] for a in acc), here[: rows.size]
                    children = None if children is None else children[go]
                    if not rows.size:
                        break
                if step - first == u.shape[1]:
                    block = max(1, min(steps - step, trees.FRONTIER_NODES // rows.size))
                    u = streams.u01_array(streams.fold_array(stream[:, None], np.arange(step, step + block)))
                    first = step
                j = 1 + (u[:, step - first] * count).astype(np.intp)
                acc = _compose_step(acc, maps, sys, j)
                aux = None if children is None else children[here, j - 1]
                step += 1
            todo = np.sort(np.concatenate(extinct))
        if todo.size:
            raise ExtinctionError(f"point {todo[0]}: all {max_retries} descents hit extinct branches")
    return out


# ---------------------------------------------------------------------------
# box dimension


def _check_scales(scales: Sequence[float]) -> np.ndarray:
    s = np.asarray([float(x) for x in scales], dtype=float)
    grid = np.sort(s)  # not np.unique, whose first call imports numpy.ma
    if s.size < 6 or 1 + np.count_nonzero(grid[1:] != grid[:-1]) < 6:
        raise ParameterError("box dimension needs at least 6 distinct scales")
    if np.any(s <= 0) or np.any(s >= 1):
        raise ParameterError("scales must lie in (0, 1)")
    if s.max() / s.min() < 8:
        raise ParameterError("scales must span at least 3 octaves")
    return s


def box_dimension_from_counts(
    scales: Sequence[float], counts: Sequence[int]
) -> tuple[float, np.ndarray]:
    """Least-squares slope of log N(delta) against log(1/delta)."""
    s = np.asarray(scales, dtype=float)
    n = np.asarray(counts, dtype=float)
    if s.shape != n.shape:
        raise ParameterError("scales and counts must have equal length")
    if np.any(n <= 0):
        raise ExtinctionError("a scale has zero cover count (extinct tree?)")
    slope = np.polyfit(np.log(1.0 / s), np.log(n), 1)[0]
    return float(slope), n


def box_count_points(points: np.ndarray, scales: Sequence[float]) -> np.ndarray:
    """Occupied-grid-cell counts of a point cloud per scale."""
    pts = np.atleast_2d(np.asarray(points, dtype=float).T).T  # a 1-d array as one column
    s = np.asarray(scales, dtype=float)
    counts = np.empty(s.size, dtype=np.int64)
    for i, delta in enumerate(s):
        cells = np.floor(pts / delta).astype(np.int64)
        cells = cells[np.lexsort(cells.T)]  # not np.unique, whose first call imports numpy.ma
        counts[i] = np.count_nonzero((cells[1:] != cells[:-1]).any(axis=1)) + (len(cells) > 0)
    return counts


def box_dimension(
    source: Union[np.ndarray, Realization],
    scales: Sequence[float],
) -> tuple[float, np.ndarray]:
    """Box-counting dimension estimate from points or from stopping sets.

    A realization input uses stopping-set counts, which are exact for the
    construction; a point-cloud input needs at least 10^4 points.
    """
    s = _check_scales(scales)
    if isinstance(source, Realization):
        counts = stopping_counts(source, s)
    else:
        pts = np.asarray(source, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 10**4:
            raise ParameterError("point input needs a (n >= 10^4, d) array")
        counts = box_count_points(pts, s)
    return box_dimension_from_counts(s, counts)


# ---------------------------------------------------------------------------
# percolation preset


def percolation_preset(p: float) -> tuple[RIFSFamily, ModelSpec]:
    """Halving percolation of the unit interval with retention probability p.

    Each half survives independently with probability p, realized by four
    systems (neither, left, right, both) under the recursive model.
    """
    if not 0.0 < p < 1.0:
        raise ParameterError("retention probability must lie in (0, 1)")
    f_l = SimilarityMap(ratio=0.5, translation=np.zeros(1))
    f_r = SimilarityMap(ratio=0.5, translation=np.array([0.5]))
    family = RIFSFamily(
        systems=(
            IFS(maps=(), label="neither"),
            IFS(maps=(f_l,), label="left"),
            IFS(maps=(f_r,), label="right"),
            IFS(maps=(f_l, f_r), label="both"),
        ),
        weights=((1 - p) ** 2, p * (1 - p), p * (1 - p), p * p),
        ambient_dim=1,
    )
    return family, ModelSpec(kind="recursive")


# ---------------------------------------------------------------------------
# exports


def export_points_csv(path: str, points: np.ndarray, provenance: str = "") -> None:
    rows = np.atleast_2d(np.asarray(points, dtype=float)).tolist()
    text = "".join([",".join([f"{x:.9g}" for x in row]) + "\n" for row in rows])
    with open(path, "w", newline="") as fh:
        fh.write(f"# {provenance}\n{text}" if provenance else text)


def rasterize(points: np.ndarray, width: int, height: int) -> np.ndarray:
    """Occupancy counts of unit-square points on a width x height grid."""
    if trees._require_integer("raster width", width) < 1 or trees._require_integer("raster height", height) < 1:
        raise ParameterError("raster width and height must be >= 1")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] > 2:
        raise ParameterError("raster export supports ambient dimension <= 2")
    if pts.shape[1] == 1:
        pts = np.column_stack([pts[:, 0], np.full(pts.shape[0], 0.5)])
    ix = np.clip((pts[:, 0] * width).astype(int), 0, width - 1)
    iy = np.clip((pts[:, 1] * height).astype(int), 0, height - 1)
    counts = np.zeros((height, width), dtype=np.int64)
    np.add.at(counts, (height - 1 - iy, ix), 1)
    return counts


def export_pgm(path: str, counts: np.ndarray, provenance: str = "") -> None:
    """Write occupancy counts as a binary PGM grayscale image."""
    c = np.asarray(counts)
    peak = int(c.max()) if c.size else 0
    scaled = (c * (255.0 / peak)).astype(np.uint8) if peak > 0 else c.astype(np.uint8)
    header = f"P5\n# {provenance}\n{c.shape[1]} {c.shape[0]}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(scaled.tobytes())
