"""Level sums, LIL envelopes, section infima, and dichotomy experiments.

The gauged level sum  sum_{e at level k} h(c_e)  is the workhorse: its
liminf tracks the gauged Hausdorff measure and its limsup the packing
pre-measure, up to constants.  Everything here runs in log-space and, for
homogeneous equicontractive families, in O(k) per depth via the product
form of the level sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import streams
from .errors import (
    GeometryError,
    ParameterError,
    PreconditionError,
    ResourceError,
    UnsupportedModelError,
)
from .gauges import GaugeFunction
from .rifs import HOMOGENEOUS, RIFSFamily, log_moment_stats, log_moments, validate
from .trees import (
    V_VARIABLE,
    Chunk,
    Coding,
    ModelSpec,
    Realization,
    levels,
    sample,
    stopping_set,
    vv_tables,
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
    envelope_plus: Optional[np.ndarray] = None
    envelope_minus: Optional[np.ndarray] = None
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

    def log_mass(self, coding: Coding) -> float:
        total = 0.0
        for si, _ in coding.letters:
            n = self.realization.family.systems[si].nmaps
            if n == 0:
                raise ParameterError("coding passes through an extinct node")
            total -= math.log(n)
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


def _level_tables(family: RIFSFamily) -> tuple[np.ndarray, np.ndarray]:
    """Per-system (log map count, log common ratio) lookup tables."""
    logn = np.array(
        [math.log(s.nmaps) if s.nmaps > 0 else -math.inf for s in family.systems]
    )
    logc = np.zeros(len(family.systems))
    for i, s in enumerate(family.systems):
        if s.nmaps > 0:
            r = s.common_ratio
            if r is None:
                raise UnsupportedModelError("closed-form level sums need equicontractive systems")
            logc[i] = math.log(r)
    return logn, logc


def _closed_form_log_sums(r: Realization, h: GaugeFunction, kmax: int) -> np.ndarray:
    """Log level sums at levels 1..kmax for level-driven equicontractive trees."""
    logn, logc = _level_tables(r.family)
    sysidx = r.level_systems(kmax)
    cum_n = np.cumsum(logn[sysidx])
    cum_c = np.cumsum(logc[sysidx])
    return cum_n + h.eval_log(cum_c)


def _vv_count_log_sums(r: Realization, h: GaugeFunction, kmax: int) -> np.ndarray:
    """Log level sums for a v_variable tree over a single-ratio family.

    Live-node counts per buffer are tracked in log-space; the shared ratio
    makes every level-k coding carry the same gauge value.  Each level folds
    the parents' counts into every buffer with ``np.logaddexp`` in (parent
    buffer, map) order, the order of a scalar loop over the tree's edges, so
    results do not depend on the chunking of ``vv_tables``.
    """
    ct = r.family.uniform_ratio
    if ct is None:
        raise UnsupportedModelError("v_variable count path needs one global ratio")
    log_counts = np.full(r.model.v + 1, -np.inf)  # slot 0 is no buffer and stays -inf
    log_counts[r._root_state[1]] = 0.0
    totals = []
    for table in vv_tables(r, kmax):
        counts = np.empty((len(table), log_counts.size))
        for k, src in enumerate(_vv_sources(table)):
            log_counts = np.logaddexp.reduce(log_counts[src], axis=0)
            counts[k] = log_counts
        totals.append(np.logaddexp.reduce(counts, axis=1))
    return np.concatenate(totals) + h.eval_log(np.arange(1, kmax + 1) * math.log(ct))


def _vv_sources(table: np.ndarray) -> np.ndarray:
    """Edge rounds ``src[k, t, c]`` of a ``vv_children`` table.

    ``src[k, t, c]`` is the parent buffer of the t-th edge into buffer c at
    level k, ranking edges in (parent buffer, map) order, and 0 (whose count
    is -inf) where c has fewer than t + 1 edges.
    """
    n, nbuf, nmax = table.shape
    edges = table.reshape(n, -1)  # a level's edges in (parent buffer, map) order
    k, e = np.nonzero(edges)
    key = k * nbuf + edges[k, e]  # (level, child)
    order = np.argsort(key, kind="stable")
    key, e = key[order], e[order]
    idx = np.arange(key.size)
    rank = idx - np.maximum.accumulate(np.where(np.diff(key, prepend=-1) != 0, idx, 0))
    src = np.zeros((n, int(rank.max(initial=0)) + 1, nbuf), dtype=np.int32)
    src[key // nbuf, rank, key % nbuf] = e // nmax
    return src


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
    if r.is_level_driven() and r.family.is_equicontractive():
        return _closed_form_log_sums(r, h, kmax)
    if r.model.kind == V_VARIABLE and r.family.uniform_ratio is not None:
        return _vv_count_log_sums(r, h, kmax)
    return None


def level_sums(
    r: Realization,
    h: GaugeFunction,
    depths: Sequence[int],
    node_budget: int = DEFAULT_NODE_BUDGET,
    force_stream: bool = False,
) -> LevelSumSeries:
    """Gauged level sums at the requested depths.

    Level-driven equicontractive trees use the O(k) product form; anything
    else streams codings depth-first under ``node_budget``.
    """
    depths = _check_depths(depths)
    if not force_stream:
        full = _all_level_log_sums(r, h, depths[-1])
        if full is not None:
            vals = full[np.asarray(depths) - 1]
            return _series(r, h, depths, vals)
    vals = _stream_log_sums(r, h, depths, node_budget)
    return _series(r, h, depths, vals)


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
        runmax = np.maximum.accumulate(full)
        vals = runmax[np.asarray(depths) - 1]
    else:
        vals = np.maximum.accumulate(_stream_log_sums(r, h, depths, node_budget))
    series = _series(r, h, depths, vals)
    return replace(series, kind="running_max")


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
    family: RIFSFamily,
    model: ModelSpec,
    h: GaugeFunction,
    path_seed: int,
    depths: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float, int]:
    """Per-path grid values, running min/max, and increment accumulators."""
    r = sample(model, path_seed, family)
    kmax = depths[-1]
    full = _all_level_log_sums(r, h, kmax)
    if full is None:
        raise UnsupportedModelError(
            "drift experiments need a closed-form level-sum path "
            "(level-driven equicontractive, or v_variable with one ratio)"
        )
    idx = np.asarray(depths) - 1
    runmin = np.minimum.accumulate(full)
    runmax = np.maximum.accumulate(full)
    incs = np.diff(np.concatenate(([h.eval_log(0.0)], full)))
    return (
        full[idx],
        runmin[idx],
        runmax[idx],
        float(np.sum(incs)),
        float(np.sum(incs * incs)),
        incs.size,
    )


def _drift_chunk(args) -> list:
    family, model, h, seeds, depths = args
    return [_path_stats(family, model, h, s, depths) for s in seeds]


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
    """
    if model.kind not in (HOMOGENEOUS, V_VARIABLE):
        raise PreconditionError("drift experiments support homogeneous or v_variable models")
    report = validate(family, HOMOGENEOUS)
    if report.almost_deterministic_at is not None:
        raise PreconditionError(
            f"family is almost deterministic at s = {report.almost_deterministic_at}; drift is null"
        )
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

    Centers are sampled from ``nu``; for each epsilon the stopping-set
    cylinders meeting each ball B(z, eps) are counted (bounded by
    (4/c_min)^d under the separation condition) and their total mass is
    compared against h(2 eps).
    """
    from . import geometry

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

    centers = geometry.sample_points(r, nu, n_balls, seed)
    bound = (4.0 / family.c_min) ** d
    max_count = 0
    sup_ratio = 0.0
    for eps in eps_list:
        cyls = []
        for coding in stopping_set(r, eps):
            cyl = geometry.compose(family, coding)
            cyls.append((cyl, nu.mass(coding)))
        if not cyls:
            continue
        if d == 1:
            lo = np.array([c.center[0] - c.diameter / 2 for c, _ in cyls])
            order = np.argsort(lo)
            lo = lo[order]
            hi = np.array([c.center[0] + c.diameter / 2 for c, _ in cyls])[order]
            masses = np.array([m for _, m in cyls])[order]
            prefix = np.concatenate(([0.0], np.cumsum(masses)))
            for z in centers[:, 0]:
                a, b = z - eps, z + eps
                iright = int(np.searchsorted(lo, b + 1e-12, side="right"))
                ileft = int(np.searchsorted(hi, a - 1e-12, side="left"))
                count = max(iright - ileft, 0)
                mass = prefix[iright] - prefix[ileft]
                max_count = max(max_count, count)
                ratio = mass / math.exp(h.eval_log(math.log(2 * eps)))
                sup_ratio = max(sup_ratio, ratio)
        else:
            cent = np.stack([c.center for c, _ in cyls])
            diam = np.array([c.diameter for c, _ in cyls])
            masses = np.array([m for _, m in cyls])
            for z in centers:
                dist = np.linalg.norm(cent - z, axis=1)
                meets = dist <= eps + diam / 2 + 1e-12
                count = int(np.sum(meets))
                max_count = max(max_count, count)
                ratio = float(np.sum(masses[meets])) / math.exp(h.eval_log(math.log(2 * eps)))
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
