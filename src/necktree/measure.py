"""Level sums, LIL envelopes, section infima, and dichotomy experiments.

The gauged level sum  sum_{e at level k} h(c_e)  is the workhorse: its
liminf tracks the gauged Hausdorff measure and its limsup the packing
pre-measure, up to constants.  Everything here runs in log-space and, for
homogeneous equicontractive families, in O(k) per depth via the product
form of the level sum.  The fast path draws each path's gauge-free log count
and log ratio, and ``_gauged`` alone adds the gauge term, once per chunk of
paths when they share one ratio.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import geometry, streams, trees
from .errors import ExtinctionError, GeometryError, ParameterError, PreconditionError
from .gauges import GaugeFunction
from .rifs import HOMOGENEOUS, NECK_BLOCK, V_VARIABLE, ModelSpec, RIFSFamily, _left_sum, _model_weights, log_moments
from .rifs import _almost_deterministic_at, beta_hat, eta_hat, log_moment_stats  # noqa: F401  (re-exports)
from .trees import DEFAULT_NODE_BUDGET, Chunk, Coding, Realization, level_labels, levels, sample, vv_level_counts

DEFAULT_THRESHOLDS = (-20.0, 20.0)
# Envelope exit/touch comparisons start this far into the requested horizon
# (the same last-decade convention used for trend slopes); near the envelope's
# birth at v k = e the band is degenerate and exceedances carry no information.
ENVELOPE_CHECK_FRACTION = 0.1
# lil_calibration's exit and touch: |walk| > EXIT_FACTOR x envelope, and |walk| >= TOUCH_FACTOR x envelope.
EXIT_FACTOR = 1.5
TOUCH_FACTOR = 0.5

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

    def log_masses(self, letters: np.ndarray) -> np.ndarray:
        """Log masses of the codings of ``[n, width, 2]`` letters ``(sys, j)``, zero-padded past each coding."""
        total = np.zeros(len(letters))
        for sys, j in letters.transpose(1, 2, 0):
            rows = (j > 0).nonzero()[0]
            total[rows] -= self.realization.family.log_map_counts[sys[rows]]
        if np.any(total == math.inf):  # a 0-map system's log map count is -inf
            raise ParameterError("coding passes through an extinct node")
        return total

    def log_mass(self, coding: Coding) -> float:
        return float(self.log_masses(np.array(coding.letters, dtype=np.intp).reshape(1, -1, 2))[0])

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
# level sums


def lil_envelope(variance: float, depths: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(+, -) envelopes sqrt(2 v k loglog(v k)); NaN where v k <= e."""
    if not 0 < variance < math.inf:
        raise ParameterError(f"variance must be positive and finite, got {variance!r}")
    k = np.asarray(depths, dtype=float)
    vk = variance * k
    plus = np.full(k.shape, np.nan)
    ok = vk > _E
    plus[ok] = np.sqrt(2.0 * vk[ok] * np.log(np.log(vk[ok])))
    return plus, -plus


def _level_walks(rs: Iterable[Realization], kmax: int, table: np.ndarray) -> Iterator[np.ndarray]:
    """cumsum(table[labels]) over levels 0..kmax-1 of each realization in turn, in one buffer each path overwrites."""
    walk = np.empty((kmax, *table.shape[1:]))
    for labels in level_labels(rs, kmax):
        # labels are in range, and "clip" writes into ``walk`` without a buffer
        np.cumsum(np.take(table, labels, axis=0, out=walk, mode="clip"), axis=0, out=walk)
        yield walk


def _fast_log_sums(family: RIFSFamily, model: ModelSpec, kmax: int) -> Optional[tuple[Callable, Optional[np.ndarray]]]:
    """The fast path's gauge-free part at levels 1..kmax, ``(paths, log_ratio)``, or None.

    ``paths(rs)`` yields each realization's (R, lr), the log count and log ratio of its level-k codings, whose log
    level sums are R + h(lr) (``_gauged``); ``log_ratio`` is the lr all paths share over one ratio c, or None.
    A walked R, and lr when it follows the path, lie in one buffer that the next path overwrites: copy to keep.
    ``_gauged`` adds the gauge term into R, so R is consumed; a caller that gauges one R several times adds each
    gauge term out of place.
    Level-driven equicontractive trees walk cumsum(log N) and, over several ratios, cumsum(log c) on the same labels;
    v_variable trees over one ratio read R = log Z_k from ``trees.vv_level_counts``.  The shared lr has the bits of
    the per-path cumsum up to the first extinct level, past which the sum is -inf either way.
    """
    c = family.uniform_ratio
    if model.kind in (HOMOGENEOUS, NECK_BLOCK) and family.is_equicontractive():
        if c is None:
            table = np.stack([family.log_map_counts, family.log_ratios[:, 0]], axis=1)
            return (lambda rs: ((w[:, 0], w[:, 1]) for w in _level_walks(rs, kmax, table))), None
        lr = np.cumsum(np.full(kmax, math.log(c)))
        return (lambda rs: ((w, lr) for w in _level_walks(rs, kmax, family.log_map_counts))), lr
    if model.kind == V_VARIABLE and c is not None:
        # arange * log c differs from the cumsum in its last bits; pinned bytes hold each form
        lr = np.arange(1, kmax + 1) * math.log(c)
        return (lambda rs: ((z, lr) for z in vv_level_counts(rs, kmax))), lr
    return None


def _gauged(fast: tuple, h: GaugeFunction, rs: Iterable[Realization]) -> Iterator[np.ndarray]:
    """Log level sums R + h(lr) of each path of ``fast``; a shared lr's gauge term is evaluated once per call.

    The gauge term is added into R, which is consumed: the yielded sums are R's buffer, a walk buffer that the next
    path overwrites or a fresh count-path row.  Several gauges over one R stream each add theirs out of place.
    """
    paths, log_ratio = fast
    gauge = None if log_ratio is None else h.eval_log(log_ratio)
    return (np.add(R, h.eval_log(lr) if gauge is None else gauge, out=R) for R, lr in paths(rs))


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
    for chunk in levels(r, max_depth=max(depths), node_budget=node_budget):
        if chunk.depth in accs:
            accs[chunk.depth].extend(h.eval_log(chunk.log_ratio).tolist())
    return np.array([accs[d].value() for d in depths])


def _all_level_log_sums(r: Realization, h: GaugeFunction, kmax: int) -> Optional[np.ndarray]:
    """Fast-path log sums at every level 1..kmax, or None when unavailable."""
    fast = _fast_log_sums(r.family, r.model, kmax)
    return None if fast is None else next(_gauged(fast, h, [r]))


def level_sums(
    r: Realization,
    h: GaugeFunction,
    depths: Sequence[int],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> LevelSumSeries:
    """Gauged level sums at the requested depths.

    Level-driven equicontractive trees use the O(k) product form, and
    v_variable trees over one ratio the count path of
    ``trees.vv_level_counts``; anything else streams the tree a level at a
    time under ``node_budget``.
    """
    depths = _check_depths(depths)
    trees._require_count("node_budget", node_budget)
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

    The value at each requested depth is the largest log level sum over every
    level from 1 to that depth.
    """
    depths = _check_depths(depths)
    trees._require_count("node_budget", node_budget)
    full = _all_level_log_sums(r, h, depths[-1])
    if full is None:
        full = _stream_log_sums(r, h, range(1, depths[-1] + 1), node_budget)
    series = _series(r, h, depths, _running_at(np.maximum, full, _stretch_starts(np.asarray(depths) - 1)))
    return replace(series, kind="running_max")


def _stretch_starts(idx: np.ndarray) -> np.ndarray:
    """The first level of each stretch that ends at a grid point of ``idx``, as ``_running_at`` reads them."""
    return np.concatenate(([0], idx[:-1] + 1))


def _running_at(extremum: np.ufunc, full: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``extremum.accumulate(full)[idx]`` for increasing ``idx`` ending at the last level, from its ``_stretch_starts``.

    Each stretch between grid points is reduced once, then the stretches are
    accumulated; min and max are exact, so the bits are the same.
    """
    return extremum.accumulate(extremum.reduceat(full, starts))


def _check_depths(depths: Sequence[int]) -> tuple[int, ...]:
    out = tuple(trees._require_integer("depth", d) for d in depths)
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


def seed_stream(master_seed: int) -> Iterator[int]:
    """Path seeds ``fold(fold(master_seed, TAG_SUBSTREAM), i)`` for i = 0, 1, ..., derived lazily."""
    h = streams.fold(master_seed, streams.TAG_SUBSTREAM)
    return (streams.fold(h, i) for i in itertools.count())


def ensemble_seeds(master_seed: int, n: int) -> list[int]:
    trees._require_count("n", n)
    return list(itertools.islice(seed_stream(master_seed), n))


def _increments(start: float, walk: np.ndarray, out: Optional[np.ndarray] = None) -> tuple[float, float, int]:
    """Sum, sum of squares and number of the increments of a walk from ``start``, computed in ``out`` (a contiguous
    float array of the walk's length, overwritten) or in a new array."""
    incs = np.empty_like(walk) if out is None else out
    incs[0] = walk[0] - start
    np.subtract(walk[1:], walk[:-1], out=incs[1:])
    total = float(np.sum(incs))
    return total, float(np.sum(np.multiply(incs, incs, out=incs))), incs.size


def _increment_mean_var(paths: list[tuple[float, float, int]]) -> tuple[float, float]:
    """Mean and variance E[x^2] - mean^2 (clamped at 0) of the pooled increments of ``paths``."""
    total, total_sq, n = map(_left_sum, zip(*paths))
    mean = total / n
    return mean, max(total_sq / n - mean**2, 0.0)


def _path_stats(
    full: np.ndarray, start: float, idx: np.ndarray, starts: np.ndarray, path_seed: int, incs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[float, float, int]]:
    """Grid values at ``idx``, running min/max from its ``_stretch_starts``, and increment sums of one path, whose
    increments overwrite ``incs``."""
    if full[-1] == -math.inf:
        level = int(np.argmax(full == -math.inf)) + 1
        raise ExtinctionError(f"drift path with seed {path_seed} dies out at level {level}")
    return (
        full[idx],
        _running_at(np.minimum, full, starts),
        _running_at(np.maximum, full, starts),
        _increments(start, full, incs),
    )


def _drift_chunk(args) -> list:
    """Path statistics of a chunk of seeds, with the path-independent work done once."""
    family, model, h, seeds, depths = args
    fast = _fast_log_sums(family, model, depths[-1])
    if fast is None:
        raise PreconditionError(
            "drift experiments need a closed-form level-sum path "
            "(level-driven equicontractive, or v_variable with one ratio)"
        )
    start, idx = h.eval_log(0.0), np.asarray(depths) - 1
    starts, incs = _stretch_starts(idx), np.empty(depths[-1])
    paths = _gauged(fast, h, (sample(model, s, family) for s in seeds))
    return [_path_stats(next(paths), start, idx, starts, s, incs) for s in seeds]


def drift_experiment(
    family: RIFSFamily,
    model: ModelSpec | str,
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

    ``thresholds`` must be two finite numbers, checked before any path is
    drawn.  Each path walks its labels or, if v_variable, reads its
    ``trees.vv_level_counts``; ``_gauged`` adds the gauge term, once per
    chunk of paths over one ratio.  Each path reads its running extrema at
    the grid depths only, in seed order, and the first path whose level
    sums reach -inf (its tree dies out) raises ``ExtinctionError`` naming
    its seed.  The envelope variance is ``log_moment_stats``'s for the
    model; v_variable envelopes use the family's, exact at V = 1 and kept
    for V >= 2 until ROADMAP item 2(d).
    """
    model, weights = _model_weights(family, model)
    s_bar = _almost_deterministic_at(family, weights)
    if s_bar is not None:
        raise PreconditionError(f"family is almost deterministic at s = {s_bar}; drift is null")
    depths = _check_depths(depths)
    if trees._require_integer("n_realizations", n_realizations) < 1:
        raise ParameterError("need at least one realization")
    if trees._require_integer("workers", workers) < 1:
        raise ParameterError("need at least one worker")
    if not (isinstance(thresholds, (tuple, list)) and len(thresholds) == 2 and all(
            isinstance(t, (int, float, np.integer, np.floating)) and type(t) is not bool and math.isfinite(t)
            for t in thresholds)):
        raise ParameterError(f"thresholds must be two finite numbers lo,hi, got {thresholds!r}")

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
    inc_mean, inc_var = _increment_mean_var([f[3] for f in flat])

    _, variance = log_moment_stats(family, h.s, model)
    env_plus, env_minus = lil_envelope(variance, depths) if variance > 0 else np.full((2, len(depths)), np.nan)
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
    model: ModelSpec | str,
    s: float,
    n_paths: int,
    depth: int,
    seed: int,
) -> LilCalibration:
    """Exit/touch fractions of the moment-sum walk against its LIL envelope.

    The walk is the partial sums of log S^s along the level labels.  The
    envelope is compared from ``ENVELOPE_CHECK_FRACTION`` of the horizon
    onward (and only where it is defined, v k > e); near its birth the band
    is degenerate and exceedances carry no information.
    """
    model = _model_weights(family, model)[0]
    trees._require_integer("depth", depth)
    if trees._require_integer("n_paths", n_paths) < 1:
        raise ParameterError("need at least one path")
    _, variance = log_moment_stats(family, s, model)
    if not variance > 0:
        raise PreconditionError("calibration needs Var(log S^s) > 0")
    logs = log_moments(family, s)
    k = np.arange(1, depth + 1)
    env = lil_envelope(variance, k)[0]
    checked = ~np.isnan(env) & (k >= math.ceil(ENVELOPE_CHECK_FRACTION * depth))
    if not np.any(checked):
        raise ParameterError("depth too small for any envelope comparison")
    first_checked = int(np.argmax(checked)) + 1

    e, incs = env[checked], np.empty(depth)
    n_exit = n_touch = 0
    paths = []
    for w in _level_walks((sample(model, ps, family) for ps in ensemble_seeds(seed, n_paths)), depth, logs):
        a = np.abs(w[checked])
        n_exit += bool(np.any(a > EXIT_FACTOR * e))
        n_touch += bool(np.any(a >= TOUCH_FACTOR * e))
        paths.append(_increments(0.0, w, incs))
    inc_mean, inc_var = _increment_mean_var(paths)
    return LilCalibration(
        increment_mean=inc_mean,
        increment_var=inc_var,
        frac_exit=n_exit / n_paths,
        frac_touch=n_touch / n_paths,
        exit_factor=EXIT_FACTOR,
        touch_factor=TOUCH_FACTOR,
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

    Bottom-up dynamic program over the chunks of ``levels``: leaves at
    ``depth_cap`` are forced into the section; a node of depth >= ``depth_min``
    may replace its subtree, and keeps its children's sum on a tie; shallower
    nodes must recurse.  Extinct subtrees contribute zero.  A chunk's
    children's values land in its ``_OpenChunk`` one child chunk at a time, and
    each node's child sum is a log-sum-exp whose bits are those of a
    ``math.exp`` per term added left to right.  While the walk has visited at
    most ``argmin_limit`` nodes, each chunk keeps its nodes' choices, and the
    argmin section is rebuilt from them once, at the end.
    """
    for name, value in (("depth_min", depth_min), ("depth_cap", depth_cap), ("argmin_limit", argmin_limit)):
        trees._require_integer(name, value)
    trees._require_count("node_budget", node_budget)
    if depth_min < 0 or depth_cap < depth_min:
        raise ParameterError("need 0 <= depth_min <= depth_cap")
    n_max = r.family.n_max
    # open_[d] is the open chunk at depth d; a chunk closes once the walk
    # returns to its depth or shallower, when all its descendants have been seen.
    open_: list[_OpenChunk] = []
    kept: Optional[list[_OpenChunk]] = []  # every chunk in walk order, parents first, while the argmin is tracked

    def close_to(depth: int) -> None:
        while open_ and open_[-1].chunk.depth >= depth:
            done = open_.pop()
            open_[-1].take(done.chunk, done.finish(h, depth_min, depth_cap))

    visited = 0
    for chunk in levels(r, max_depth=depth_cap, node_budget=node_budget):
        visited += len(chunk)
        close_to(chunk.depth)
        open_.append(_OpenChunk(chunk, n_max, depth_cap))
        # the argmin is dropped for good once the tree outgrows argmin_limit
        if visited <= argmin_limit:
            kept.append(open_[-1])
        else:
            kept = None
    close_to(1)
    (val,) = open_[0].finish(h, depth_min, depth_cap)
    argmin = None if kept is None else _argmin_section(kept)
    return SectionValue(value_log=float(val), depth_min=depth_min, argmin_section=argmin)


class _OpenChunk:
    """A chunk of the section DP whose descendants are still being walked.

    ``kids[i][j - 1]`` collects the value of child j of node i, and stays -inf
    where there is no such child: its term exp(-inf) = 0.0 leaves the sum's
    bits as they are.  ``kids`` is an ``[n, n_max]`` array, or a list of lists
    in a ``small`` chunk of at most ``trees.SCALAR_NODES`` nodes, where numpy's
    per-call cost would dominate; a chunk at ``depth_cap`` has none.
    ``finish`` drops it and keeps ``mine``, whether each node took its own
    value.
    """

    __slots__ = ("chunk", "small", "kids", "mine")

    def __init__(self, chunk: Chunk, n_max: int, depth_cap: int) -> None:
        n = len(chunk)
        self.chunk, self.small = chunk, n <= trees.SCALAR_NODES
        self.kids = self.mine = None
        if chunk.depth < depth_cap:
            self.kids = [[-math.inf] * n_max for _ in range(n)] if self.small else np.full((n, n_max), -math.inf)

    def take(self, child: Chunk, values) -> None:
        """Collect the values of the nodes of a child chunk, in one scatter."""
        if not self.small:
            self.kids[child.parent, child.j - 1] = values
            return
        kids, values = self.kids, values if type(values) is list else values.tolist()
        for p, j, v in zip(child.parent.tolist(), child.j.tolist(), values):
            kids[p][j - 1] = v

    def finish(self, h: GaugeFunction, depth_min: int, depth_cap: int):
        """Each node's value, as a list or an array like ``kids``.

        A node at ``depth_cap`` is its own section; one shallower than
        ``depth_min`` takes its children's; any other takes the cheaper of
        the two, its children's on a tie.
        """
        own, kids, self.kids = h.eval_log(self.chunk.log_ratio), self.kids, None
        may_stop = self.chunk.depth >= depth_min
        if not self.small:
            if kids is None:
                self.mine = np.ones(own.size, dtype=bool)
                return own
            child = _log_sum_rows(kids)
            self.mine = (own < child) & may_stop
            return np.where(self.mine, own, child)
        own = own.tolist()
        if kids is None:
            self.mine = [True] * len(own)
            return own
        values, self.mine = [], []
        for o, row in zip(own, kids):
            c = _log_sum(row)
            self.mine.append(may_stop and o < c)
            values.append(o if self.mine[-1] else c)
        return values


def _log_sum(row: list[float]) -> float:
    """log sum exp(row): each term's ``math.exp`` relative to the maximum, added left to right; -inf if all are."""
    m = max(row)
    return m if m == -math.inf else m + math.log(_left_sum([math.exp(x - m) for x in row]))


def _log_sum_rows(rows: np.ndarray) -> np.ndarray:
    """``_log_sum`` of each row of a 2-d array, with its bits.

    Terms go through ``math.exp`` and sums through ``math.log``, whose last
    bits ``np.exp`` and ``np.log`` do not keep; the columns are added one at
    a time, left to right, as ``sum`` adds a row, not pairwise as ``np.sum``.
    """
    m = rows.max(axis=1)
    dead = m == -math.inf
    shifted = (rows - np.where(dead, 0.0, m)[:, None]).ravel()
    terms = np.fromiter(map(math.exp, shifted.tolist()), float, shifted.size).reshape(rows.shape)
    total = terms[:, 0].copy()
    for col in terms.T[1:]:
        total += col
    total[dead] = 1.0  # log 1 = 0, and -inf + 0 = -inf
    return m + np.fromiter(map(math.log, total.tolist()), float, total.size)


def _argmin_section(kept: list[_OpenChunk]) -> tuple[tuple[int, ...], ...]:
    """The nodes that took their own value under no ancestor that did, in address order.

    ``kept`` comes parents first, so one pass finds, chunk by chunk, whether each node or an ancestor took its own
    value; a chunk is left out of ``taken`` where none did.  Only the chunks that hold a section node read their
    letters, since ``Chunk.letters`` walks every depth even for no node.
    """
    parts, taken = [], {}  # taken: by the id of a chunk
    for node in kept:
        above = taken.get(id(node.chunk.up))
        if above is not None or True in node.mine:
            mine = np.asarray(node.mine, dtype=bool)
            above = False if above is None else above[node.chunk.parent]
            taken[id(node.chunk)], section = mine | above, np.greater(mine, above).nonzero()[0]  # mine and not above
            if section.size:
                parts.append((node.chunk.letters(section),))
    j = trees._in_address_order(parts)[0][:, :, 1]
    return tuple([tuple(a[:n]) for a, n in zip(j.tolist(), np.count_nonzero(j, axis=1).tolist())])


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
    if not np.array_equal(nu.realization.family.log_map_counts, family.log_map_counts):
        raise ParameterError("the measure must split mass over the realization's map counts")
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
    for eps, (letters, cent, diam) in zip(eps_list, geometry._stopping_cylinders(r, eps_list)):
        if not len(letters):
            continue
        masses = np.array([math.exp(x) for x in nu.log_masses(letters).tolist()])
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
