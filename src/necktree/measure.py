"""Level sums, LIL envelopes, section infima, and dichotomy experiments.

The gauged level sum  sum_{e at level k} h(c_e)  is the workhorse: its
liminf tracks the gauged Hausdorff measure and its limsup the packing
pre-measure, up to constants.  Everything here runs in log-space and, for
homogeneous equicontractive families, in O(k) per depth via the product
form of the level sum.  A drift ensemble does its path-independent work
(the fast path's tables and, over one ratio, its gauge term) once per chunk
of paths, not once per path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import geometry, streams
from .errors import (
    ExtinctionError,
    GeometryError,
    ParameterError,
    PreconditionError,
    ResourceError,
    UnsupportedModelError,
)
from .gauges import GaugeFunction
from .rifs import HOMOGENEOUS, RIFSFamily, _almost_deterministic_at, log_moment_stats, log_moments
from .trees import (
    NECK_BLOCK,
    V_VARIABLE,
    Chunk,
    Coding,
    ModelSpec,
    Realization,
    levels,
    sample,
    stopping_set,
    vv_log_counts,
)

DEFAULT_NODE_BUDGET = 10**8
DEFAULT_THRESHOLDS = (-20.0, 20.0)
# Envelope exit/touch comparisons start this far into the requested horizon
# (the same last-decade convention used for trend slopes); near the envelope's
# birth at v k = e the band is degenerate and exceedances carry no information.
ENVELOPE_CHECK_FRACTION = 0.1

_E = math.e


# ---------------------------------------------------------------------------
# data containers


@dataclass(frozen=True)
class LevelSumSeries:
    """Per-depth log of the gauged level sums (or their running maxima)."""

    depths: tuple[int, ...]
    log_sums: np.ndarray
    seed: int = 0
    model_kind: str = ""
    gauge: str = ""
    kind: str = "level"  # "level" or "running_max"


@dataclass(frozen=True)
class SectionValue:
    """Result of the infimum-over-sections dynamic program."""

    value_log: float
    depth_min: int
    argmin_section: Optional[tuple[tuple[int, ...], ...]] = None


@dataclass(frozen=True, eq=False)
class NaturalMeasure:
    """Cylinder measure splitting mass equally among live children.

    For homogeneous realizations the mass of a level-k cylinder is
    1 / prod_{i<=k} N_i, the branching-uniform measure.
    """

    realization: Realization

    def __post_init__(self) -> None:
        # log map count per system, +inf for a 0-map system
        logn = [math.log(s.nmaps) if s.nmaps else math.inf for s in self.realization.family.systems]
        object.__setattr__(self, "_logn", logn)

    def log_mass(self, coding: Coding) -> float:
        total = 0.0
        for si, _ in coding.letters:
            total -= self._logn[si]
        if total == -math.inf:
            raise ParameterError("coding passes through an extinct node")
        return total

    def mass(self, coding: Coding) -> float:
        return math.exp(self.log_mass(coding))


def natural_measure(r: Realization) -> NaturalMeasure:
    return NaturalMeasure(realization=r)


@dataclass(frozen=True)
class DriftReport:
    """Ensemble statistics of log level sums over a depth grid."""

    depths: tuple[int, ...]
    median: np.ndarray
    q10: np.ndarray
    q90: np.ndarray
    env_plus: np.ndarray
    env_minus: np.ndarray
    liminf_est: np.ndarray  # median - envelope
    limsup_est: np.ndarray  # median + envelope
    runmin_median: np.ndarray
    runmax_median: np.ndarray
    frac_below: np.ndarray
    frac_above: np.ndarray
    increment_mean: float
    increment_var: float
    n_realizations: int
    seed: int
    thresholds: tuple[float, float]
    gauge: str
    model_kind: str
    variance: float


@dataclass(frozen=True)
class LilCalibration:
    """Increment statistics and envelope exit/touch fractions of the walk."""

    increment_mean: float
    increment_var: float
    frac_exit: float
    frac_touch: float
    exit_factor: float
    touch_factor: float
    n_paths: int
    depth: int
    first_checked_depth: int


@dataclass(frozen=True)
class MassDistributionReport:
    n_balls: int
    epsilons: tuple[float, ...]
    max_neighbor_count: int
    neighbor_bound: float
    neighbor_ok: bool
    sup_mass_ratio: float
    hausdorff_lower_bound: float


# ---------------------------------------------------------------------------
# defaults derived from the family


def eta_hat(family: RIFSFamily) -> float:
    """|mean log geometric-mean contraction| under the selection weights."""
    total = 0.0
    for w, sysm in zip(family.weights, family.systems):
        if w == 0:
            continue
        if sysm.nmaps == 0:
            raise PreconditionError("eta_hat needs every positive-weight system non-empty")
        total += w * float(np.mean(np.log(sysm.ratios)))
    return abs(total)


def beta_hat(family: RIFSFamily, s: float) -> float:
    """Default envelope-matching gauge parameter Var(log S^s) / eta_hat."""
    _, var = log_moment_stats(family, s)
    eta = eta_hat(family)
    if not (var > 0) or eta == 0:
        raise PreconditionError("beta_hat needs positive variance and contraction")
    return var / eta


# ---------------------------------------------------------------------------
# level sums


def lil_envelope(variance: float, depths: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(+, -) envelopes sqrt(2 v k loglog(v k)); NaN where v k <= e."""
    if variance <= 0:
        raise ParameterError("variance must be positive")
    k = np.asarray(depths, dtype=float)
    vk = variance * k
    plus = np.full(k.shape, np.nan)
    ok = vk > _E
    plus[ok] = np.sqrt(2.0 * vk[ok] * np.log(np.log(vk[ok])))
    return plus, -plus


def _fast_log_sums(
    family: RIFSFamily, model: ModelSpec, h: GaugeFunction, kmax: int
) -> Optional[Callable[[Realization], np.ndarray]]:
    """The fast path's log level sums at levels 1..kmax of a realization, or None.

    Level-driven equicontractive trees use the product form
    cumsum(log N) + h(cumsum(log c)); v_variable trees over one ratio c add up
    the ``vv_log_counts`` of each level's buffers.  What does not depend on
    the realization is computed here, once: the per-system tables and, when
    every level-k coding has the ratio c^k, the gauge term.  On the product
    form that term has the bits of the per-path cumsum up to the first
    extinct level, past which the sum is -inf either way.
    """
    c = family.uniform_ratio
    if model.kind in (HOMOGENEOUS, NECK_BLOCK) and family.is_equicontractive():
        logn = np.array([math.log(s.nmaps) if s.nmaps else -math.inf for s in family.systems])
        if c is not None:
            gauge = h.eval_log(np.cumsum(np.full(kmax, math.log(c))))
            return lambda r: np.cumsum(logn[r.level_systems(kmax)]) + gauge
        logc = np.array([math.log(s.common_ratio) if s.nmaps else 0.0 for s in family.systems])

        def closed_form(r: Realization) -> np.ndarray:
            sysidx = r.level_systems(kmax)
            return np.cumsum(logn[sysidx]) + h.eval_log(np.cumsum(logc[sysidx]))

        return closed_form
    if model.kind == V_VARIABLE and c is not None:
        gauge = h.eval_log(np.arange(1, kmax + 1) * math.log(c))
        return lambda r: np.concatenate(
            [np.logaddexp.reduce(counts, axis=1) for counts in vv_log_counts(r, kmax)]
        ) + gauge
    return None


class _LogSumAcc:
    """Streaming log-sum-exp accumulator."""

    __slots__ = ("m", "acc")

    def __init__(self) -> None:
        self.m = -math.inf
        self.acc = 0.0

    def extend(self, xs: list[float]) -> None:
        m, acc = self.m, self.acc
        for x in xs:
            if x == -math.inf:
                continue
            if x > m:
                acc = acc * math.exp(m - x) + 1.0 if acc else 1.0
                m = x
            else:
                acc += math.exp(x - m)
        self.m, self.acc = m, acc

    def value(self) -> float:
        return self.m + math.log(self.acc) if self.acc > 0 else -math.inf


def _stream_log_sums(
    r: Realization, h: GaugeFunction, depths: Sequence[int], node_budget: int
) -> np.ndarray:
    """Log level sums at the requested depths by one walk over level chunks.

    Each depth's values are accumulated in address order, one gauge
    evaluation per chunk.
    """
    accs = {d: _LogSumAcc() for d in depths}
    visited = 0
    for chunk in levels(r, max_depth=max(depths)):
        visited += len(chunk)
        if visited > node_budget:
            raise ResourceError(
                f"node budget {node_budget} exceeded while streaming level {chunk.depth}"
            )
        if chunk.depth in accs:
            accs[chunk.depth].extend(h.eval_log(chunk.log_ratio).tolist())
    return np.array([accs[d].value() for d in depths])


def _all_level_log_sums(r: Realization, h: GaugeFunction, kmax: int) -> Optional[np.ndarray]:
    """Fast-path log sums at every level 1..kmax, or None when unavailable."""
    sums = _fast_log_sums(r.family, r.model, h, kmax)
    return None if sums is None else sums(r)


def level_sums(
    r: Realization,
    h: GaugeFunction,
    depths: Sequence[int],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> LevelSumSeries:
    """Gauged level sums at the requested depths.

    Level-driven equicontractive trees use the O(k) product form; anything
    else streams codings depth-first under ``node_budget``.
    """
    depths = _check_depths(depths)
    full = _all_level_log_sums(r, h, depths[-1])
    if full is not None:
        return _series(r, h, depths, full[np.asarray(depths) - 1])
    return _series(r, h, depths, _stream_log_sums(r, h, depths, node_budget))


def packing_level_limsup(
    r: Realization,
    h: GaugeFunction,
    depths: Sequence[int],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> LevelSumSeries:
    """Running maxima of the level sums, a finite-depth limsup proxy.

    On the fast path the maximum runs over every level up to each depth; on
    the streaming path it runs over the requested depths only.
    """
    depths = _check_depths(depths)
    full = _all_level_log_sums(r, h, depths[-1])
    if full is not None:
        vals = _running_at(np.maximum, full, np.asarray(depths) - 1)
    else:
        vals = np.maximum.accumulate(_stream_log_sums(r, h, depths, node_budget))
    series = _series(r, h, depths, vals)
    return replace(series, kind="running_max")


def _running_at(extremum: np.ufunc, full: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``extremum.accumulate(full)[idx]`` for increasing ``idx`` ending at the last level.

    Each stretch between grid points is reduced once, then the stretches are
    accumulated; min and max are exact, so the bits are the same.
    """
    return extremum.accumulate(extremum.reduceat(full, np.concatenate(([0], idx[:-1] + 1))))


def _check_depths(depths: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in depths)
    if not out or any(d < 1 for d in out) or any(b <= a for a, b in zip(out, out[1:])):
        raise ParameterError("depths must be a strictly increasing sequence of levels >= 1")
    return out

def _series(r: Realization, h: GaugeFunction, depths, vals: np.ndarray) -> LevelSumSeries:
    return LevelSumSeries(
        depths=tuple(depths),
        log_sums=vals,
        seed=r.seed,
        model_kind=r.model.kind,
        gauge=h.describe(),
    )


# ---------------------------------------------------------------------------
# ensemble experiments


def ensemble_seeds(master_seed: int, n: int) -> list[int]:
    h = streams.fold(master_seed, streams.TAG_SUBSTREAM)
    return [streams.fold(h, i) for i in range(n)]


def _path_stats(
    full: np.ndarray, start: float, idx: np.ndarray, path_seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float, int]:
    """Grid values, running min/max, and increment accumulators of one path's level sums."""
    if full[-1] == -math.inf:
        level = int(np.argmax(full == -math.inf)) + 1
        raise ExtinctionError(f"drift path with seed {path_seed} dies out at level {level}")
    incs = np.diff(np.concatenate(([start], full)))
    return (
        full[idx],
        _running_at(np.minimum, full, idx),
        _running_at(np.maximum, full, idx),
        float(np.sum(incs)),
        float(np.sum(incs * incs)),
        incs.size,
    )


def _drift_chunk(args) -> list:
    """Path statistics of a chunk of seeds, with the path-independent work done once."""
    family, model, h, seeds, depths = args
    sums = _fast_log_sums(family, model, h, depths[-1])
    if sums is None:
        raise UnsupportedModelError(
            "drift experiments need a closed-form level-sum path "
            "(level-driven equicontractive, or v_variable with one ratio)"
        )
    start, idx = h.eval_log(0.0), np.asarray(depths) - 1
    return [_path_stats(sums(sample(model, s, family)), start, idx, s) for s in seeds]


def drift_experiment(
    family: RIFSFamily,
    model: ModelSpec,
    h: GaugeFunction,
    n_realizations: int,
    depths: Sequence[int],
    seed: int,
    thresholds: tuple[float, float] = DEFAULT_THRESHOLDS,
    workers: int = 1,
) -> DriftReport:
    """Ensemble of independent level-sum paths with LIL envelope context.

    Per depth: median and 10/90 quantiles of the log level sums, the LIL
    envelopes around the median, liminf/limsup estimates (median -/+
    envelope), medians of the running extrema, and the fractions of paths
    whose running extrema crossed the thresholds.

    Each chunk of paths builds the fast path's tables and, over one ratio,
    its gauge term once; a path then draws its labels or buffer counts and
    reads its running extrema at the grid depths only.
    A path whose level sums reach -inf (its tree dies out) raises
    ``ExtinctionError`` naming its seed.
    """
    if model.kind not in (HOMOGENEOUS, V_VARIABLE):
        raise PreconditionError("drift experiments support homogeneous or v_variable models")
    s_bar = _almost_deterministic_at(family)
    if s_bar is not None:
        raise PreconditionError(f"family is almost deterministic at s = {s_bar}; drift is null")
    depths = _check_depths(depths)
    if n_realizations < 1:
        raise ParameterError("need at least one realization")

    seeds = ensemble_seeds(seed, n_realizations)
    chunks = _chunk(seeds, workers)
    args = [(family, model, h, c, depths) for c in chunks]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_drift_chunk, args))
    else:
        results = [_drift_chunk(a) for a in args]
    flat = [stats for chunk in results for stats in chunk]

    vals = np.stack([f[0] for f in flat])
    runmin = np.stack([f[1] for f in flat])
    runmax = np.stack([f[2] for f in flat])
    inc_sum = sum(f[3] for f in flat)
    inc_sumsq = sum(f[4] for f in flat)
    inc_n = sum(f[5] for f in flat)
    inc_mean = inc_sum / inc_n
    inc_var = max(inc_sumsq / inc_n - inc_mean**2, 0.0)

    _, variance = log_moment_stats(family, h.s)
    env_plus, env_minus = lil_envelope(variance, depths) if variance > 0 else (
        np.full(len(depths), np.nan),
        np.full(len(depths), np.nan),
    )
    med = np.median(vals, axis=0)
    return DriftReport(
        depths=depths,
        median=med,
        q10=np.quantile(vals, 0.1, axis=0),
        q90=np.quantile(vals, 0.9, axis=0),
        env_plus=env_plus,
        env_minus=env_minus,
        liminf_est=med + env_minus,
        limsup_est=med + env_plus,
        runmin_median=np.median(runmin, axis=0),
        runmax_median=np.median(runmax, axis=0),
        frac_below=np.mean(runmin <= thresholds[0], axis=0),
        frac_above=np.mean(runmax >= thresholds[1], axis=0),
        increment_mean=inc_mean,
        increment_var=inc_var,
        n_realizations=n_realizations,
        seed=seed,
        thresholds=thresholds,
        gauge=h.describe(),
        model_kind=model.kind,
        variance=variance,
    )


def _chunk(items: list, workers: int, size: int = 64) -> list[list]:
    if workers <= 1:
        return [items]
    return [items[i : i + size] for i in range(0, len(items), size)]


def lil_calibration(
    family: RIFSFamily,
    model: ModelSpec,
    s: float,
    n_paths: int,
    depth: int,
    seed: int,
    exit_factor: float = 1.5,
    touch_factor: float = 0.5,
) -> LilCalibration:
    """Exit/touch fractions of the moment-sum walk against its LIL envelope.

    The walk is the partial sums of log S^s along the level labels.  The
    envelope is compared from ``ENVELOPE_CHECK_FRACTION`` of the horizon
    onward (and only where it is defined, v k > e); near its birth the band
    is degenerate and exceedances carry no information.
    """
    mean, variance = log_moment_stats(family, s)
    if not variance > 0:
        raise PreconditionError("calibration needs Var(log S^s) > 0")
    logs = log_moments(family, s)
    k = np.arange(1, depth + 1, dtype=float)
    vk = variance * k
    checked = (vk > _E) & (k >= math.ceil(ENVELOPE_CHECK_FRACTION * depth))
    if not np.any(checked):
        raise ParameterError("depth too small for any envelope comparison")
    env = np.empty(depth)
    env[checked] = np.sqrt(2.0 * vk[checked] * np.log(np.log(vk[checked])))
    first_checked = int(np.argmax(checked)) + 1

    seeds = ensemble_seeds(seed, n_paths)
    n_exit = 0
    n_touch = 0
    inc_sum = 0.0
    inc_sumsq = 0.0
    for ps in seeds:
        r = sample(model, ps, family)
        w = np.cumsum(logs[r.level_systems(depth)])
        a = np.abs(w[checked])
        e = env[checked]
        n_exit += bool(np.any(a > exit_factor * e))
        n_touch += bool(np.any(a >= touch_factor * e))
        incs = np.diff(np.concatenate(([0.0], w)))
        inc_sum += float(np.sum(incs))
        inc_sumsq += float(np.sum(incs * incs))
    total = n_paths * depth
    inc_mean = inc_sum / total
    return LilCalibration(
        increment_mean=inc_mean,
        increment_var=max(inc_sumsq / total - inc_mean**2, 0.0),
        frac_exit=n_exit / n_paths,
        frac_touch=n_touch / n_paths,
        exit_factor=exit_factor,
        touch_factor=touch_factor,
        n_paths=n_paths,
        depth=depth,
        first_checked_depth=first_checked,
    )


# ---------------------------------------------------------------------------
# sections


def section_infimum(
    r: Realization,
    h: GaugeFunction,
    depth_min: int,
    depth_cap: int,
    node_budget: int = 10**6,
    argmin_limit: int = 10**4,
) -> SectionValue:
    """Infimum of gauge sums over sections, on the depth-capped tree.

    Bottom-up dynamic program: leaves at ``depth_cap`` are forced into the
    section; a node of depth >= ``depth_min`` may replace its subtree;
    shallower nodes must recurse.  Extinct subtrees contribute zero.
    """
    if depth_min < 0 or depth_cap < depth_min:
        raise ParameterError("need 0 <= depth_min <= depth_cap")
    # open_[d] is the open chunk at depth d; a chunk closes once the walk
    # returns to its depth or shallower, when all its descendants have been seen.
    open_: list[_OpenChunk] = []

    def close_to(depth: int) -> None:
        while open_ and open_[-1].chunk.depth >= depth:
            done = open_.pop()
            open_[-1].take(done.chunk, *done.finish(h, depth_min, depth_cap, track))

    visited = 0
    for chunk in levels(r, max_depth=depth_cap):
        visited += len(chunk)
        if visited > node_budget:
            raise ResourceError(f"node budget {node_budget} exceeded at depth {chunk.depth}")
        # sections are dropped for good once the tree outgrows argmin_limit
        track = visited <= argmin_limit
        close_to(chunk.depth)
        open_.append(_OpenChunk(chunk, open_[-1] if open_ else None, track))
    close_to(1)
    (val,), sections = open_[0].finish(h, depth_min, depth_cap, track)
    argmin = tuple(sections[0]) if track else None
    return SectionValue(value_log=val, depth_min=depth_min, argmin_section=argmin)


class _OpenChunk:
    """A chunk of the section DP whose descendants are still being walked.

    ``parts[i]`` collects node i's children's values, in address order;
    while sections are tracked, ``sections[i]`` collects their sections and
    ``addresses[i]`` is node i's address.
    """

    __slots__ = ("chunk", "parts", "sections", "addresses")

    def __init__(self, chunk: Chunk, parent: Optional["_OpenChunk"], track: bool) -> None:
        n = len(chunk)
        self.chunk = chunk
        self.parts: list[list[float]] = [[] for _ in range(n)]
        self.sections = self.addresses = None
        if track:
            self.sections = [[] for _ in range(n)]
            self.addresses = [()] if parent is None else [
                parent.addresses[p] + (j,) for p, j in zip(chunk.parent.tolist(), chunk.j.tolist())
            ]

    def take(self, child: Chunk, values: list[float], sections: Optional[list]) -> None:
        """Collect the values and sections of the nodes of a child chunk."""
        parents = child.parent.tolist()
        for p, v in zip(parents, values):
            self.parts[p].append(v)
        if sections is not None:
            for p, s in zip(parents, sections):
                self.sections[p].extend(s)

    def finish(self, h: GaugeFunction, depth_min: int, depth_cap: int, track: bool):
        """Each node's value and, while tracked, section (else None).

        A node at ``depth_cap`` is its own section; one shallower than
        ``depth_min`` takes its children's; any other takes the cheaper of
        the two, its children's on a tie.
        """
        own = h.eval_log(self.chunk.log_ratio).tolist()
        if self.chunk.depth == depth_cap:
            return own, [[a] for a in self.addresses] if track else None
        recurse = self.chunk.depth < depth_min
        values, chosen = [], []
        for i, o in enumerate(own):
            child_sum = _logsumexp(self.parts[i])
            mine = not recurse and o < child_sum
            values.append(o if mine else child_sum)
            if track:
                chosen.append([self.addresses[i]] if mine else self.sections[i])
        return values, chosen if track else None


def _logsumexp(parts: list[float]) -> float:
    finite = [p for p in parts if p != -math.inf]
    if not finite:
        return -math.inf
    m = max(finite)
    return m + math.log(sum(math.exp(p - m) for p in finite))


# ---------------------------------------------------------------------------
# mass distribution


def mass_distribution_check(
    r: Realization,
    h: GaugeFunction,
    nu: NaturalMeasure,
    n_balls: int,
    epsilon_grid: Sequence[float],
    seed: int = 0,
    assume_uosc: bool = False,
) -> MassDistributionReport:
    """Ball-mass versus gauge check plus the stopping-set neighbor bound.

    Centers are drawn by ``geometry.sample_points``, whose descent splits
    mass equally among live children as ``nu`` does; for each epsilon the
    stopping-set cylinders meeting each ball B(z, eps) are counted (bounded
    by (4/c_min)^d under the separation condition) and their total ``nu``
    mass is compared against h(2 eps).
    """
    family = r.family
    d = family.ambient_dim
    geometry.require_geometry(family)
    if d == 1:
        geometry.uosc_audit_1d(family)
    elif not assume_uosc:
        raise GeometryError("declare UOSC explicitly for ambient dimension >= 2")
    eps_list = tuple(float(e) for e in epsilon_grid)
    if not eps_list or any(not 0 < e < 1 for e in eps_list):
        raise ParameterError("epsilon grid must lie in (0, 1)")

    centers = geometry.sample_points(r, n=n_balls, seed=seed)
    bound = (4.0 / family.c_min) ** d
    max_count = 0
    sup_ratio = 0.0
    for eps in eps_list:
        codings = list(stopping_set(r, eps))
        if not codings:
            continue
        _, cent, diam = geometry._cylinders(family, codings)
        masses = np.array([nu.mass(c) for c in codings])
        h_2eps = math.exp(h.eval_log(math.log(2 * eps)))
        if d == 1:
            lo = cent[:, 0] - diam / 2
            order = np.argsort(lo)
            lo, hi = lo[order], (cent[:, 0] + diam / 2)[order]
            prefix = np.concatenate(([0.0], np.cumsum(masses[order])))
            z = centers[:, 0]
            iright = np.searchsorted(lo, z + eps + 1e-12, side="right")
            ileft = np.searchsorted(hi, z - eps - 1e-12, side="left")
            max_count = max(max_count, int(np.max(iright - ileft, initial=0)))
            ratio = (prefix[iright] - prefix[ileft]) / h_2eps
            sup_ratio = max(sup_ratio, float(np.max(ratio, initial=0.0)))
        else:
            for z in centers:
                dist = np.linalg.norm(cent - z, axis=1)
                meets = dist <= eps + diam / 2 + 1e-12
                count = int(np.sum(meets))
                max_count = max(max_count, count)
                ratio = float(np.sum(masses[meets])) / h_2eps
                sup_ratio = max(sup_ratio, ratio)
    return MassDistributionReport(
        n_balls=n_balls,
        epsilons=eps_list,
        max_neighbor_count=max_count,
        neighbor_bound=bound,
        neighbor_ok=max_count <= bound,
        sup_mass_ratio=sup_ratio,
        hausdorff_lower_bound=1.0 / sup_ratio if sup_ratio > 0 else math.inf,
    )
