"""Random iterated function systems: moments and almost-sure dimension.

A family is a finite list of similarity IFSs with selection weights.  The
moment sums ``S^s = sum_j c_j^s`` drive everything downstream: the dimension
equations, the gap witness separating the almost-deterministic boundary case
from the zero-or-infinite regime, and the variance feeding the iterated
logarithm envelopes.  Each statistic reads per-system values of ``map_ratios``
rows under a model's one weight vector, from ``_model_weights``; ``_solver``
maps the model to its dimension solver, and ``_statistic`` gives its statistic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, ParameterError, PreconditionError

# Module-wide tolerances.
STRUCT_TOL = 1e-12
ROOT_TOL = 1e-12
ASSERT_TOL = 1e-9
# The gap witness's epsilon, as a fraction of the dimension.
GAP_EPSILON_FRAC = 0.01

RECURSIVE = "recursive"
HOMOGENEOUS = "homogeneous"
V_VARIABLE = "v_variable"
NECK_BLOCK = "neck_block"
_KINDS = (HOMOGENEOUS, RECURSIVE, V_VARIABLE, NECK_BLOCK)


def _left_sum(xs):
    """``xs`` added left to right from 0, as 3.11's float ``sum()`` adds and 3.12's, which compensates, does not."""
    total = 0
    for x in xs:
        total += x
    return total


def _is_integer(value) -> bool:
    """True for an int or a numpy integer; a count of 2.5, 2.0, NaN or True is none."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_integer(name: str, value) -> int:
    """``value`` as an int, or ``ParameterError`` unless ``_is_integer``."""
    if not _is_integer(value):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_count(name: str, value) -> int:
    """``value`` as an int, or ``ParameterError`` unless it is an integer >= 0."""
    if _require_integer(name, value) < 0:
        raise ParameterError(f"{name} must be >= 0, got {value}")
    return int(value)


@dataclass(frozen=True, eq=False)
class SimilarityMap:
    """A contracting similarity ``x -> ratio * Q x + b``.

    ``isometry`` and ``translation`` may be omitted for measure-only work;
    they default to the identity and the origin when geometry is composed.
    Given ones are kept as read-only float copies.
    """

    ratio: float
    isometry: Optional[np.ndarray] = None
    translation: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if not (0.0 < self.ratio <= 1.0):
            raise ConfigError(f"map ratio must be in (0, 1], got {self.ratio}")
        try:
            q = None if self.isometry is None else np.array(self.isometry, dtype=float)
            b = None if self.translation is None else np.array(self.translation, dtype=float)
        except (TypeError, ValueError):
            given = f"isometry {self.isometry!r}, translation {self.translation!r}"
            raise ConfigError(f"map geometry must be arrays of numbers ({given})") from None
        if any(a is not None and not np.isfinite(a).all() for a in (q, b)):
            raise ConfigError(f"map geometry must be finite (isometry {q}, translation {b})")
        if q is not None:
            if q.ndim != 2 or q.shape[0] != q.shape[1]:
                raise ConfigError("isometry must be a square matrix")
            err = np.max(np.abs(q.T @ q - np.eye(q.shape[0])))
            if err > STRUCT_TOL:
                raise ConfigError(f"isometry is not orthogonal (|Q^T Q - I| = {err:.3e})")
            _set_tables(self, isometry=q)
        if b is not None:
            _set_tables(self, translation=b.ravel())


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
    def common_ratio(self) -> Optional[float]:
        """The shared contraction ratio, or None if the maps differ."""
        if not self.maps:
            return None
        r = self.maps[0].ratio
        return r if all(m.ratio == r for m in self.maps) else None


@dataclass(frozen=True, eq=False)
class RIFSFamily:
    """A finite family of IFSs with selection weights (the randomness source).

    Its label tables, read-only: ``label_bounds``, ``map_counts``, ``log_ratios`` (``[nsystems, n_max]``, the
    log ratio of map j + 1 of system i, 0 past its maps) and ``log_map_counts`` (-inf for no maps).
    ``map_ratios[i]`` is the tuple of system i's map ratios as floats, which the moment sums read.
    """

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
        _check_weights(weights)
        if not _is_integer(self.ambient_dim) or self.ambient_dim < 1:
            raise ConfigError("ambient_dim must be a positive integer")
        ratios = [m.ratio for s in systems for m in s.maps]
        if not ratios:
            raise ConfigError("family has no maps at all")
        object.__setattr__(self, "c_min", min(ratios))
        object.__setattr__(self, "c_max", max(ratios))
        object.__setattr__(self, "n_max", max(s.nmaps for s in systems))
        log_ratios = [[math.log(m.ratio) for m in s.maps] + [0.0] * (self.n_max - s.nmaps) for s in systems]
        object.__setattr__(self, "map_ratios", tuple(tuple(float(m.ratio) for m in s.maps) for s in systems))
        _set_tables(self, label_bounds=_label_bounds(cumulative_weights(weights)),
                    map_counts=np.array([s.nmaps for s in systems]), log_ratios=np.array(log_ratios),
                    log_map_counts=np.array([math.log(s.nmaps) if s.nmaps else -math.inf for s in systems]))

    @property
    def nsystems(self) -> int:
        return len(self.systems)

    @property
    def uniform_ratio(self) -> Optional[float]:
        """The single contraction shared by every map, or None."""
        return self.c_min if self.c_min == self.c_max else None

    def is_equicontractive(self) -> bool:
        """True when each system's maps share one ratio (ratios may differ across systems)."""
        return all(s.common_ratio is not None or s.nmaps == 0 for s in self.systems)


@dataclass(frozen=True)
class BlockTemplate:
    """One block shape: a label distribution for each level of the block."""

    levels: tuple[tuple[float, ...], ...]
    weight: float = 1.0

    @property
    def length(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class ModelSpec:
    """A tree model kind with its V or block templates; only ``check_levels`` needs a family.

    A neck_block spec's read-only tables lie outside its fields, so equal specs hash alike:
    ``template_bounds`` (as ``_label_bounds``), the template ``lengths``, and the thresholds of level off of
    template t in row ``first_rows[t] + off`` of ``level_thresholds``.
    """

    kind: str
    v: int = 0
    templates: tuple[BlockTemplate, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.kind == V_VARIABLE and _require_integer("v", self.v) < 1:
            raise ParameterError("v_variable needs V >= 1")
        if self.kind != NECK_BLOCK:
            return
        if not self.templates:
            raise ConfigError("neck_block model needs at least one template")
        tw = [t.weight for t in self.templates]
        if not all(0 <= w < math.inf for w in tw) or not 0 < sum(tw) < math.inf:
            raise ConfigError(f"template weights must be finite and non-negative with a positive finite sum, got {tw}")
        for t in self.templates:
            if t.length < 1:
                raise ConfigError("block templates need at least one level")
            if any(not all(p >= 0 for p in dist) or abs(sum(dist) - 1.0) > 1e-12 for dist in t.levels):
                raise ConfigError("template level distributions must sum to 1")
        if len({len(dist) for t in self.templates for dist in t.levels}) > 1:
            raise ConfigError("template level distributions must all have one length")
        lengths = np.array([t.length for t in self.templates])
        rows = [cumulative_weights(d) for t in self.templates for d in t.levels]
        tcum = cumulative_weights(np.asarray(tw, dtype=float) / _left_sum(tw))
        _set_tables(self, template_bounds=_label_bounds(tcum), level_thresholds=_label_thresholds(rows),
                    lengths=lengths, first_rows=np.cumsum(lengths) - lengths)

    def check_levels(self, family: RIFSFamily) -> None:
        """Refuse level distributions whose length is not the family's number of systems."""
        if any(len(dist) != family.nsystems for t in self.templates for dist in t.levels):
            raise ConfigError("template level distribution length must match the number of systems")


def _check_weights(weights: tuple[float, ...]) -> tuple[float, ...]:
    """``weights``, or ``ConfigError`` unless they are finite, non-negative and sum to 1."""
    if not all(0 <= w < math.inf for w in weights):
        raise ConfigError(f"weights must be finite and non-negative, got {weights}")
    if abs(sum(weights) - 1.0) > STRUCT_TOL:
        raise ConfigError(f"weights must sum to 1, got {sum(weights)!r}")
    return weights


def _model_weights(family: RIFSFamily, model: ModelSpec | str) -> tuple[ModelSpec, tuple[float, ...]]:
    """``model`` as a spec, and its statistics' weights: the selection weights, or neck_block's level weights."""
    spec = model if isinstance(model, ModelSpec) else ModelSpec(model)
    if spec.kind != NECK_BLOCK:
        return spec, family.weights
    spec.check_levels(family)
    with np.errstate(over="ignore", invalid="ignore"):  # level weights that overflow are refused just below
        q = sum(t.weight * np.sum(t.levels, axis=0) for t in spec.templates)  # q_i = sum_t w_t sum_l p_{t,l,i}
        total = q.sum()
        if not math.isfinite(total):
            raise ConfigError("neck_block level weights must be finite: their sum overflows")
        q = q / total
    return spec, _check_weights(tuple(q.tolist()))


def _solver(family: RIFSFamily, model: ModelSpec | str) -> tuple[str, tuple[float, ...]]:
    """The dimension solver of ``model`` (recursive or homogeneous; none for v_variable V >= 2) and its weights."""
    spec, weights = _model_weights(family, model)
    if spec.kind == V_VARIABLE and spec.v >= 2:
        raise ConfigError(f"no dimension solver for v_variable models with V >= 2 (V = {spec.v})")
    return (RECURSIVE if spec.kind == RECURSIVE else HOMOGENEOUS), weights


@dataclass(frozen=True)
class ConditionsReport:
    """Outcome of the standing-assumption checks for a family."""

    n_bound_ok: bool
    ratio_bounds_ok: bool
    recursive_supercritical: bool
    homogeneous_supercritical: bool
    almost_deterministic_at: Optional[float]
    gap: Optional[tuple[float, float, float]]  # (epsilon, gamma, p0)


def cumulative_weights(weights: Sequence[float]) -> np.ndarray:
    """Cumulative sums of weights with the last entry 1.0, so ``bisect_right`` of a u01 draw always lands."""
    cw = np.cumsum(np.asarray(weights, dtype=float))
    cw[-1] = 1.0
    return cw


def _label_thresholds(cum) -> np.ndarray:
    """``ceil(c 2^53)`` for each cumulative weight c: ``bisect_right(cum, u01(x))`` counts those ``<= x >> 11``,
    as c 2^53 is exact and ``x >> 11`` an integer; c = 1.0 gives 2^53, which no draw reaches."""
    return np.ceil(np.asarray(cum) * 2.0**53).astype(np.uint64)


def _label_bounds(cum) -> np.ndarray:
    """The bounds ``t << 11`` of the ``_label_thresholds`` t < 2^53: a raw draw x (``u01``'s input) has label
    ``#{b : x >= b}``, as x >> 11 >= t exactly when x >= t << 11.  No draw reaches a threshold of 2^53 or more
    (the last, and those of trailing zero weights), and 2^53 << 11 would wrap to 0 in uint64."""
    t = _label_thresholds(cum)
    return t[t < 2**53] << np.uint64(11)


def _set_tables(value, **tables: np.ndarray) -> None:
    """Set read-only array attributes on a frozen value."""
    for name, table in tables.items():
        table.flags.writeable = False
        object.__setattr__(value, name, table)


def moment(family: RIFSFamily, lambda_index: int, s: float) -> float:
    """Moment sum ``S^s = sum_j (c_j)^s`` of one system."""
    if not 0 <= lambda_index < family.nsystems:
        raise IndexError(f"system index {lambda_index} out of range")
    return _moments(family, s)[lambda_index]


def _moments(family: RIFSFamily, s: float) -> list[float]:
    """``S^s`` of every system, each ``c ** s`` over ``map_ratios`` added left to right (0.0 for no maps)."""
    if s < 0:
        raise ParameterError("moment exponent s must be >= 0")
    return [float(_left_sum([c**s for c in row])) for row in family.map_ratios]


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


def _moment_root(row: tuple[float, ...]) -> Optional[float]:
    """Unique s >= 0 with S^s = 1 of one ``map_ratios`` row, or None when no root exists."""
    if not row:
        return None
    if len(row) == 1:
        # S^0 = 1 exactly; S^s < 1 for s > 0 unless the single ratio is 1.
        return 0.0 if row[0] < 1.0 else None
    cmax = max(row)
    if cmax >= 1.0:
        return None
    hi = math.log(len(row)) / math.log(1.0 / cmax) + 1.0
    return bisect_decreasing(lambda s: _left_sum([c**s for c in row]) - 1.0, 0.0, hi)


def log_moments(family: RIFSFamily, s: float) -> np.ndarray:
    """Per-system ``log S^s``, -inf for an empty system."""
    return np.array([math.log(v) if v > 0 else -math.inf for v in _moments(family, s)])


def _weight_array(weights: Sequence[float]) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """``weights`` as a float array, and the mask of its zeros (None when no weight is 0)."""
    w = np.asarray(weights, dtype=float)
    return w, (w == 0 if 0.0 in weights else None)


def _mean_log_moment(weight_array: tuple, vals: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The mean of per-system ``vals`` under a ``_weight_array``, with the weights and the values it sums (a copy
    when some weight is 0, which adds an exact 0, even for an empty system's -inf)."""
    w, zero = weight_array
    vals = vals if zero is None else np.where(zero, 0.0, vals)
    return float(np.dot(w, vals)), w, vals


def _log_stats(weights: Sequence[float], vals: np.ndarray) -> tuple[float, float]:
    """Mean and variance of per-system ``vals`` under ``weights``; the variance is NaN when the mean is not finite."""
    mean, w, vals = _mean_log_moment(_weight_array(weights), vals)
    return mean, float(np.dot(w, (vals - mean) ** 2)) if math.isfinite(mean) else math.nan


def log_moment_stats(family: RIFSFamily, s: float, model: ModelSpec | str = HOMOGENEOUS) -> tuple[float, float]:
    """Mean and variance per level of ``log S^s`` along a ``model`` tree's levels.

    neck_block blocks are i.i.d., so by renewal-reward the variance is
    sum_t w_t (sum_l v_{t,l} + (m_t - mean L_t)^2) / sum_t w_t L_t, where
    level l of template t has variance v_{t,l} under its probability row and
    the block has mean m_t; the mean is under ``_model_weights``.
    """
    spec, weights = _model_weights(family, model)  # a level row of the wrong length first
    vals = log_moments(family, s)
    if spec.kind != NECK_BLOCK:
        return _log_stats(weights, vals)
    mean = _mean_log_moment(_weight_array(weights), vals)[0]
    num = total = 0.0
    for t in spec.templates:
        stats = [_log_stats(dist, vals) for dist in t.levels]
        num += t.weight * (_left_sum([v for _, v in stats]) + (_left_sum([m for m, _ in stats]) - mean * t.length) ** 2)
        total += t.weight * t.length
    return mean, num / total


def eta_hat(family: RIFSFamily, model: ModelSpec | str = HOMOGENEOUS) -> float:
    """|mean log geometric-mean contraction| under ``model``'s weights."""
    active = [(w, row) for w, row in zip(_model_weights(family, model)[1], family.map_ratios) if w > 0]
    if not all(row for _, row in active):
        raise PreconditionError("eta_hat needs every positive-weight system non-empty")
    return abs(_left_sum([w * float(np.mean(np.log(row))) for w, row in active]))


def beta_hat(family: RIFSFamily, s: float, model: ModelSpec | str = HOMOGENEOUS) -> float:
    """Default envelope-matching gauge parameter Var(log S^s) / eta_hat of ``model``."""
    _, var = log_moment_stats(family, s, model)
    eta = eta_hat(family, model)
    if not (var > 0) or eta == 0:
        raise PreconditionError("beta_hat needs positive variance and contraction")
    return var / eta


def _statistic(solver: str, family: RIFSFamily, weights: tuple[float, ...]):
    """The statistic of s that ``solver`` drives to its root value, with its name at s = 0 and that value:
    E[S^s] against 1 (recursive) or E[log S^s] against 0 (homogeneous), under ``weights``, whose array the
    homogeneous statistic builds once per solve."""
    if solver == RECURSIVE:  # ``_moments`` inlined for the bisection; w * 0 adds the 0.0 of an empty system
        rows = list(zip(weights, family.map_ratios))
        return (lambda s: _left_sum([w * _left_sum([c**s for c in row]) for w, row in rows])), "E[S^0]", 1
    weight_array = _weight_array(weights)
    return (lambda s: _mean_log_moment(weight_array, log_moments(family, s))[0]), "E[log S^0]", 0


def dimension(family: RIFSFamily, model: ModelSpec | str) -> float:
    """Almost-sure dimension of ``model``: the s at which its solver's ``_statistic`` meets its root value."""
    solver, weights = _solver(family, model)
    if family.c_max >= 1.0:
        raise PreconditionError("dimension needs all contraction ratios < 1")
    stat, name, at_root = _statistic(solver, family, weights)
    if not (at0 := stat(0.0)) > at_root:
        raise PreconditionError(f"{solver} model needs {name} > {at_root}, got {name} = {at0}")
    hi = math.log(max(family.n_max, 2)) / math.log(1.0 / family.c_max) + 1.0
    return bisect_decreasing(lambda s: stat(s) - at_root, 0.0, hi)


def _almost_deterministic_at(family: RIFSFamily, weights: tuple[float, ...]) -> Optional[float]:
    """The common root of S^s = 1 of all systems of positive weight in ``weights`` (to ``ASSERT_TOL``), or None."""
    active = [(w, row) for w, row in zip(weights, family.map_ratios) if w > 0]
    roots = [_moment_root(row) for _, row in active]
    if any(r is None for r in roots) or not (0.0 < family.c_min and family.c_max < 1.0):
        return None
    s_bar = float(np.dot([w for w, _ in active], roots)) / _left_sum([w for w, _ in active])
    ok = all(abs(v - 1.0) <= ASSERT_TOL for w, v in zip(weights, _moments(family, s_bar)) if w > 0)
    return s_bar if ok else None


def validate(family: RIFSFamily, model: ModelSpec | str) -> ConditionsReport:
    """Check the standing assumptions and locate the degeneracy witnesses.

    The report reads ``model``'s weights (see ``_model_weights``).
    ``almost_deterministic_at`` is present when all positive-weight systems
    share (to 1e-9) a common root of S^s = 1.  The gap triple (epsilon,
    gamma, p0) witnesses the moment-sum drop available below the dimension;
    it is present only when the family is supercritical for ``model`` and
    some positive-weight system has S^(s-eps) < 1.
    """
    solver, weights = _solver(family, model)
    ratio_bounds_ok = 0.0 < family.c_min and family.c_max < 1.0
    stats = {name: _statistic(name, family, weights) for name in (RECURSIVE, HOMOGENEOUS)}
    supercritical = {name: stat(0.0) > at_root for name, (stat, _, at_root) in stats.items()}
    almost_det = _almost_deterministic_at(family, weights)

    gap: Optional[tuple[float, float, float]] = None
    if almost_det is None and supercritical[solver] and ratio_bounds_ok:
        s_star = dimension(family, model)
        eps = GAP_EPSILON_FRAC * s_star
        vals = _moments(family, s_star - eps)
        sub_unit = [v for v, w in zip(vals, weights) if w > 0 and v < 1.0]
        if sub_unit:
            gamma = max(sub_unit)
            p0 = float(_left_sum([w for v, w in zip(vals, weights) if w > 0 and v <= gamma]))
            if p0 > 0:
                gap = (eps, gamma, p0)

    return ConditionsReport(
        n_bound_ok=family.n_max >= 2,
        ratio_bounds_ok=ratio_bounds_ok,
        recursive_supercritical=supercritical[RECURSIVE],
        homogeneous_supercritical=supercritical[HOMOGENEOUS],
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
