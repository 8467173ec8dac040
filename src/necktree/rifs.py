"""Random iterated function systems: moments and almost-sure dimension.

A family is a finite list of similarity IFSs with selection weights.  The
moment sums ``S^s = sum_j c_j^s`` drive everything downstream: the dimension
equations, the gap witness separating the almost-deterministic boundary case
from the zero-or-infinite regime, and the variance feeding the iterated
logarithm envelopes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, ParameterError, PreconditionError

# Module-wide tolerances; callers may override per operation.
STRUCT_TOL = 1e-12
ROOT_TOL = 1e-12
ASSERT_TOL = 1e-9

RECURSIVE = "recursive"
HOMOGENEOUS = "homogeneous"
_MODELS = (RECURSIVE, HOMOGENEOUS)


@dataclass(frozen=True, eq=False)
class SimilarityMap:
    """A contracting similarity ``x -> ratio * Q x + b``.

    ``isometry`` and ``translation`` may be omitted for measure-only work;
    they default to the identity and the origin when geometry is composed.
    """

    ratio: float
    isometry: Optional[np.ndarray] = None
    translation: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if not (0.0 < self.ratio <= 1.0):
            raise ConfigError(f"map ratio must be in (0, 1], got {self.ratio}")
        if self.isometry is not None:
            q = np.asarray(self.isometry, dtype=float)
            if q.ndim != 2 or q.shape[0] != q.shape[1]:
                raise ConfigError("isometry must be a square matrix")
            err = np.max(np.abs(q.T @ q - np.eye(q.shape[0])))
            if err > STRUCT_TOL:
                raise ConfigError(f"isometry is not orthogonal (|Q^T Q - I| = {err:.3e})")
            object.__setattr__(self, "isometry", q)
        if self.translation is not None:
            object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float).ravel())


@dataclass(frozen=True, eq=False)
class IFS:
    """An ordered list of similarity maps with an opaque label.

    An empty map list is allowed and acts as pure branch deletion; the
    percolation preset relies on it.
    """

    maps: tuple[SimilarityMap, ...]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "maps", tuple(self.maps))

    @property
    def nmaps(self) -> int:
        return len(self.maps)

    @property
    def ratios(self) -> np.ndarray:
        return np.array([m.ratio for m in self.maps], dtype=float)

    @property
    def common_ratio(self) -> Optional[float]:
        """The shared contraction ratio, or None if the maps differ."""
        if not self.maps:
            return None
        r = self.maps[0].ratio
        return r if all(m.ratio == r for m in self.maps) else None


@dataclass(frozen=True, eq=False)
class RIFSFamily:
    """A finite family of IFSs with selection weights (the randomness source)."""

    systems: tuple[IFS, ...]
    weights: tuple[float, ...]
    ambient_dim: int = 1

    # derived, filled in __post_init__
    c_min: float = field(init=False)
    c_max: float = field(init=False)
    n_max: int = field(init=False)

    def __post_init__(self) -> None:
        systems = tuple(self.systems)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "systems", systems)
        object.__setattr__(self, "weights", weights)
        if not systems:
            raise ConfigError("family needs at least one system")
        if len(weights) != len(systems):
            raise ConfigError("weights and systems must have equal length")
        if any(w < 0 for w in weights):
            raise ConfigError("weights must be non-negative")
        if abs(sum(weights) - 1.0) > STRUCT_TOL:
            raise ConfigError(f"weights must sum to 1, got {sum(weights)!r}")
        if self.ambient_dim < 1:
            raise ConfigError("ambient_dim must be a positive integer")
        ratios = [m.ratio for s in systems for m in s.maps]
        if not ratios:
            raise ConfigError("family has no maps at all")
        object.__setattr__(self, "c_min", min(ratios))
        object.__setattr__(self, "c_max", max(ratios))
        object.__setattr__(self, "n_max", max(s.nmaps for s in systems))

    @property
    def nsystems(self) -> int:
        return len(self.systems)

    @property
    def cum_weights(self) -> np.ndarray:
        cw = np.cumsum(np.asarray(self.weights, dtype=float))
        cw[-1] = 1.0
        return cw

    @property
    def uniform_ratio(self) -> Optional[float]:
        """The single contraction shared by every map, or None."""
        return self.c_min if self.c_min == self.c_max else None

    def is_equicontractive(self) -> bool:
        """True when each system's maps share one ratio (ratios may differ across systems)."""
        return all(s.common_ratio is not None or s.nmaps == 0 for s in self.systems)


@dataclass(frozen=True)
class ConditionsReport:
    """Outcome of the standing-assumption checks for a family."""

    n_bound_ok: bool
    ratio_bounds_ok: bool
    recursive_supercritical: bool
    homogeneous_supercritical: bool
    almost_deterministic_at: Optional[float]
    gap: Optional[tuple[float, float, float]]  # (epsilon, gamma, p0)


def moment(family: RIFSFamily, lambda_index: int, s: float) -> float:
    """Moment sum ``S^s = sum_j (c_j)^s`` of one system."""
    if not 0 <= lambda_index < family.nsystems:
        raise IndexError(f"system index {lambda_index} out of range")
    if s < 0:
        raise ParameterError("moment exponent s must be >= 0")
    return float(sum(m.ratio**s for m in family.systems[lambda_index].maps))


def bisect_decreasing(f, lo: float, hi: float, tol: float = ROOT_TOL) -> float:
    """Root of a function positive at lo and non-positive at hi, in at most 200 halvings."""
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solver_model(kind: str) -> str:
    """The dimension solver for a tree model kind: recursive or homogeneous."""
    return RECURSIVE if kind == RECURSIVE else HOMOGENEOUS


def _moment_root(system: IFS, tol: float = ROOT_TOL) -> Optional[float]:
    """Unique s >= 0 with S^s = 1, or None when no root exists."""
    if system.nmaps == 0:
        return None
    g = lambda s: sum(m.ratio**s for m in system.maps) - 1.0
    if system.nmaps == 1:
        # S^0 = 1 exactly; S^s < 1 for s > 0 unless the single ratio is 1.
        return 0.0 if system.maps[0].ratio < 1.0 else None
    cmax = max(m.ratio for m in system.maps)
    if cmax >= 1.0:
        return None
    return bisect_decreasing(g, 0.0, math.log(system.nmaps) / math.log(1.0 / cmax) + 1.0, tol)


def log_moments(family: RIFSFamily, s: float) -> np.ndarray:
    """Per-system ``log S^s``, -inf for an empty system."""
    return np.array(
        [math.log(v) if (v := moment(family, i, s)) > 0 else -math.inf for i in range(family.nsystems)]
    )


def log_moment_stats(family: RIFSFamily, s: float) -> tuple[float, float]:
    """Mean and variance of ``log S^s`` under the selection weights."""
    if s < 0:
        raise ParameterError("moment exponent s must be >= 0")
    vals = log_moments(family, s)
    w = np.asarray(family.weights)
    if 0.0 in family.weights:  # a zero weight adds an exact 0, even for an empty system's -inf
        vals[w == 0] = 0.0
    mean = float(np.dot(w, vals))
    var = float(np.dot(w, (vals - mean) ** 2)) if math.isfinite(mean) else math.nan
    return mean, var


def _mean_s0(family: RIFSFamily) -> float:
    return float(sum(w * s.nmaps for w, s in zip(family.weights, family.systems)))


def dimension(family: RIFSFamily, model: str, tol: float = 1e-10) -> float:
    """Almost-sure dimension: root of E[S^s] = 1 (recursive) or E[log S^s] = 0 (homogeneous)."""
    if model not in _MODELS:
        raise ParameterError(f"model must be one of {_MODELS}, got {model!r}")
    if family.c_max >= 1.0:
        raise PreconditionError("dimension needs all contraction ratios < 1")
    if model == RECURSIVE:
        es0 = _mean_s0(family)
        if not es0 > 1.0:
            raise PreconditionError(f"recursive model needs E[S^0] > 1, got E[S^0] = {es0}")
        objective = lambda s: sum(w * moment(family, i, s) for i, w in enumerate(family.weights)) - 1.0
    else:
        els0 = log_moment_stats(family, 0.0)[0]
        if not els0 > 0.0:
            raise PreconditionError(f"homogeneous model needs E[log S^0] > 0, got E[log S^0] = {els0}")
        objective = lambda s: log_moment_stats(family, s)[0]

    hi = math.log(max(family.n_max, 2)) / math.log(1.0 / family.c_max) + 1.0
    return bisect_decreasing(objective, 0.0, hi, min(tol, ROOT_TOL))


def _almost_deterministic_at(family: RIFSFamily) -> Optional[float]:
    """The common root of S^s = 1 of all positive-weight systems (to ``ASSERT_TOL``), or None."""
    active = [(w, s) for w, s in zip(family.weights, family.systems) if w > 0]
    roots = [_moment_root(s) for _, s in active]
    if any(r is None for r in roots) or not (0.0 < family.c_min and family.c_max < 1.0):
        return None
    s_bar = float(np.dot([w for w, _ in active], roots)) / sum(w for w, _ in active)
    if all(abs(sum(m.ratio**s_bar for m in sys.maps) - 1.0) <= ASSERT_TOL for _, sys in active):
        return s_bar
    return None


def validate(family: RIFSFamily, model: str, gap_epsilon_frac: float = 0.01) -> ConditionsReport:
    """Check the standing assumptions and locate the degeneracy witnesses.

    Always returns a report.  ``almost_deterministic_at`` is present when all
    positive-weight systems share (to 1e-9) a common root of S^s = 1.  The
    gap triple (epsilon, gamma, p0) witnesses the moment-sum drop available
    below the dimension; it is present only when the family is supercritical
    for ``model`` and some positive-weight system has S^(s-eps) < 1.
    """
    if model not in _MODELS:
        raise ParameterError(f"model must be one of {_MODELS}, got {model!r}")
    n_bound_ok = family.n_max >= 2
    ratio_bounds_ok = 0.0 < family.c_min and family.c_max < 1.0
    recursive_super = _mean_s0(family) > 1.0
    homogeneous_super = log_moment_stats(family, 0.0)[0] > 0.0

    almost_det = _almost_deterministic_at(family)

    gap: Optional[tuple[float, float, float]] = None
    supercritical = recursive_super if model == RECURSIVE else homogeneous_super
    if almost_det is None and supercritical and ratio_bounds_ok:
        s_star = dimension(family, model)
        eps = gap_epsilon_frac * s_star
        vals = [moment(family, i, s_star - eps) for i in range(family.nsystems)]
        sub_unit = [v for v, w in zip(vals, family.weights) if w > 0 and v < 1.0]
        if sub_unit:
            gamma = max(sub_unit)
            p0 = float(sum(w for v, w in zip(vals, family.weights) if w > 0 and v <= gamma))
            if p0 > 0:
                gap = (eps, gamma, p0)

    return ConditionsReport(
        n_bound_ok=n_bound_ok,
        ratio_bounds_ok=ratio_bounds_ok,
        recursive_supercritical=recursive_super,
        homogeneous_supercritical=homogeneous_super,
        almost_deterministic_at=almost_det,
        gap=gap,
    )


def equicontractive_family(
    counts: Sequence[int], ratio: float, weights: Sequence[float], ambient_dim: int = 1
) -> RIFSFamily:
    """Convenience builder: one shared ratio, given map counts per system."""
    systems = tuple(
        IFS(tuple(SimilarityMap(ratio) for _ in range(n)), label=f"sys{i}")
        for i, n in enumerate(counts)
    )
    return RIFSFamily(systems=systems, weights=tuple(weights), ambient_dim=ambient_dim)
