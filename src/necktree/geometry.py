"""Concrete geometry: composed similarities, point clouds, box dimension.

The seed set is the closed unit cube and the separation open set is its
interior.  Families whose maps do not keep the cube inside itself are
rejected before any geometric operation runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import streams
from .errors import ConfigError, ExtinctionError, GeometryError, ParameterError
from .measure import NaturalMeasure
from .rifs import IFS, RIFSFamily, SimilarityMap
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

    def then_inner(self, other: "Affine") -> "Affine":
        """Composition self o other (other applied first)."""
        return Affine(
            ratio=self.ratio * other.ratio,
            matrix=self.matrix @ other.matrix,
            translation=self.ratio * (self.matrix @ other.translation) + self.translation,
        )


@dataclass(frozen=True, eq=False)
class Cylinder:
    """Image of the seed cube under a composed coding."""

    coding: Coding
    affine: Affine
    center: np.ndarray
    diameter: float


def _affine_of(m: SimilarityMap, dim: int) -> Affine:
    q = m.isometry if m.isometry is not None else np.eye(dim)
    b = m.translation if m.translation is not None else np.zeros(dim)
    if q.shape != (dim, dim) or b.shape != (dim,):
        raise ConfigError(f"map geometry does not match ambient dimension {dim}")
    return Affine(ratio=m.ratio, matrix=q, translation=b)


def _identity(dim: int) -> Affine:
    return Affine(ratio=1.0, matrix=np.eye(dim), translation=np.zeros(dim))


def require_geometry(family: RIFSFamily) -> None:
    """Reject families whose maps do not keep the seed cube inside itself."""
    dim = family.ambient_dim
    corners = np.array(np.meshgrid(*([[0.0, 1.0]] * dim), indexing="ij")).reshape(dim, -1).T
    for sysm in family.systems:
        for j, m in enumerate(sysm.maps, start=1):
            aff = _affine_of(m, dim)
            img = np.array([aff.apply(c) for c in corners])
            if img.min() < -1e-12 or img.max() > 1 + 1e-12:
                raise ConfigError(
                    f"map {j} of system {sysm.label!r} does not map the unit cube into itself"
                )


def compose(family: RIFSFamily, coding: Coding) -> Cylinder:
    """Compose the coding's maps left to right and return the cylinder."""
    dim = family.ambient_dim
    acc = _identity(dim)
    for si, j in coding.letters:
        sysm = family.systems[si]
        if not 1 <= j <= sysm.nmaps:
            raise ParameterError(f"coding letter ({si}, {j}) has no matching map")
        acc = acc.then_inner(_affine_of(sysm.maps[j - 1], dim))
    seed_center = np.full(dim, 0.5)
    return Cylinder(
        coding=coding,
        affine=acc,
        center=acc.apply(seed_center),
        diameter=acc.ratio * math.sqrt(dim),
    )


def uosc_audit_1d(family: RIFSFamily) -> None:
    """Exact interval check of the open-set condition on (0, 1).

    For each system the open images of (0, 1) must be pairwise disjoint and
    contained in (0, 1); raises with the offending system named.
    """
    if family.ambient_dim != 1:
        raise GeometryError("interval audit only applies to ambient dimension 1")
    for sysm in family.systems:
        spans = []
        for m in sysm.maps:
            a = _affine_of(m, 1)
            x0, x1 = float(a.apply(np.zeros(1))[0]), float(a.apply(np.ones(1))[0])
            spans.append((min(x0, x1), max(x0, x1)))
        if any(lo < -1e-12 or hi > 1 + 1e-12 for lo, hi in spans):
            raise GeometryError(f"system {sysm.label!r} maps outside the unit interval")
        spans.sort()
        for (_, hi1), (lo2, _) in zip(spans, spans[1:]):
            if lo2 < hi1 - 1e-12:
                raise GeometryError(f"system {sysm.label!r} has overlapping map images")


def sample_points(
    r: Realization,
    nu: NaturalMeasure,
    n: int,
    seed: int,
    diameter_tol: float = POINT_DIAMETER_TOL,
    max_retries: int = MAX_SAMPLE_RETRIES,
) -> np.ndarray:
    """Sample n attractor points by mass-proportional descent of the tree.

    Each point descends choosing uniformly among live children until the
    cylinder diameter drops below ``diameter_tol``; extinct branches retry
    from the root a bounded number of times.
    """
    family = r.family
    require_geometry(family)
    dim = family.ambient_dim
    base = streams.fold(int(seed) & streams.MASK64, streams.TAG_POINT)
    seed_center = np.full(dim, 0.5)
    out = np.empty((n, dim))
    for i in range(n):
        point = None
        for attempt in range(max_retries):
            stream = streams.fold(streams.fold(base, i), attempt)
            state = r._root_state
            acc = _identity(dim)
            step = 0
            alive = True
            while acc.ratio * math.sqrt(dim) > diameter_tol:
                si = r._sys_of_state(state)
                sysm = family.systems[si]
                if sysm.nmaps == 0:
                    alive = False
                    break
                u = streams.u01(streams.fold(stream, step))
                j = 1 + int(u * sysm.nmaps)
                acc = acc.then_inner(_affine_of(sysm.maps[j - 1], dim))
                state = r._child_state(state, j)
                step += 1
            if alive:
                point = acc.apply(seed_center)
                break
        if point is None:
            raise ExtinctionError(f"point {i}: all {max_retries} descents hit extinct branches")
        out[i] = point
    return out


# ---------------------------------------------------------------------------
# box dimension


def _check_scales(scales: Sequence[float]) -> np.ndarray:
    s = np.asarray([float(x) for x in scales], dtype=float)
    if np.unique(s).size < 6:
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
    pts = np.asarray(points, dtype=float)
    s = np.asarray(scales, dtype=float)
    counts = np.empty(s.size, dtype=np.int64)
    for i, delta in enumerate(s):
        cells = np.floor(pts / delta).astype(np.int64)
        counts[i] = np.unique(cells, axis=0).shape[0]
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
    slope, counts = box_dimension_from_counts(s, counts)
    return slope, counts


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
    pts = np.asarray(points, dtype=float)
    with open(path, "w", newline="") as fh:
        if provenance:
            fh.write(f"# {provenance}\n")
        for row in np.atleast_2d(pts):
            fh.write(",".join(f"{x:.9g}" for x in row) + "\n")


def rasterize(points: np.ndarray, width: int, height: int) -> np.ndarray:
    """Occupancy counts of unit-square points on a width x height grid."""
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
