"""Shared test fixtures: random families and independent brute-force oracles."""
from __future__ import annotations

import math
import signal
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import replace
from itertools import product
from math import inf, log
from typing import Iterator, Sequence

import numpy as np

from necktree import streams
from necktree.errors import (
    ConfigError,
    ExtinctionError,
    GeometryError,
    ParameterError,
    PreconditionError,
    ResourceError,
    UnsupportedModelError,
)
from necktree.gauges import GaugeFunction
from necktree.geometry import (
    MAX_SAMPLE_RETRIES,
    POINT_DIAMETER_TOL,
    Affine,
    Cylinder,
    require_geometry,
    sample_points,
    uosc_audit_1d,
)
from necktree.measure import (
    DEFAULT_THRESHOLDS,
    ENVELOPE_CHECK_FRACTION,
    EXIT_FACTOR,
    TOUCH_FACTOR,
    DriftReport,
    LilCalibration,
    MassDistributionReport,
    NaturalMeasure,
    SectionValue,
    _check_depths,
    _chunk,
    _increment_mean_var,
    _increments,
    ensemble_seeds,
    lil_envelope,
)
from necktree.rifs import (
    ASSERT_TOL,
    GAP_EPSILON_FRAC,
    HOMOGENEOUS,
    IFS,
    NECK_BLOCK,
    RECURSIVE,
    ConditionsReport,
    RIFSFamily,
    SimilarityMap,
    bisect_decreasing,
    cumulative_weights,
    equicontractive_family,
    _require_integer,
    eta_hat,
    log_moment_stats,
    log_moments,
    validate,
)
from necktree.trees import (
    V_VARIABLE,
    Coding,
    ModelSpec,
    Realization,
    _codings,
    _log_epsilon,
    level_labels,
    levels,
    sample,
)


@contextmanager
def time_limit(seconds: int) -> Iterator[None]:
    """Raise ``TimeoutError`` in the body once it has run ``seconds``, so a hang fails the test."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def worked_family() -> RIFSFamily:
    """Two equicontractive systems at ratio 1/3 with 2 and 3 maps, weights 1/2."""
    return equicontractive_family([2, 3], 1 / 3, [0.5, 0.5])


def worked_family_geometric() -> RIFSFamily:
    """The worked family with separated translations on [0, 1] (UOSC holds)."""
    third = 1 / 3
    m = lambda t: SimilarityMap(third, translation=np.array([t]))
    return RIFSFamily(
        systems=(
            IFS(maps=(m(0.0), m(2 / 3)), label="A"),
            IFS(maps=(m(0.0), m(1 / 3), m(2 / 3)), label="B"),
        ),
        weights=(0.5, 0.5),
    )


def deep_thin_family() -> RIFSFamily:
    """Narrow and deep: a single-map 0.9-ratio system at weight 0.999, else a fork."""
    return RIFSFamily(
        systems=(
            IFS(maps=(SimilarityMap(0.9),), label="thin"),
            IFS(maps=(SimilarityMap(0.5), SimilarityMap(0.3)), label="fork"),
        ),
        weights=(0.999, 0.001),
    )


def random_equicontractive_family(rng: np.random.Generator, max_systems: int = 4) -> RIFSFamily:
    """A family with one global ratio and at least one branching system."""
    n_sys = int(rng.integers(1, max_systems + 1))
    counts = [int(rng.integers(1, 4)) for _ in range(n_sys)]
    if max(counts) < 2:
        counts[0] = 2
    ratio = float(rng.uniform(0.2, min(0.7, 1.0 / max(counts) + 0.2)))
    w = rng.uniform(0.1, 1.0, size=n_sys)
    return equicontractive_family(counts, ratio, list(w / w.sum()))


def random_family(rng: np.random.Generator, max_maps: int = 3) -> RIFSFamily:
    """A family with per-map ratios, not necessarily equicontractive."""
    n_sys = int(rng.integers(1, 4))
    systems = []
    for i in range(n_sys):
        n = int(rng.integers(1, max_maps + 1))
        maps = tuple(SimilarityMap(float(rng.uniform(0.15, 0.6))) for _ in range(n))
        systems.append(IFS(maps=maps, label=f"s{i}"))
    if max(s.nmaps for s in systems) < 2:
        systems[0] = IFS(
            maps=(SimilarityMap(0.3), SimilarityMap(0.3)), label=systems[0].label
        )
    w = rng.uniform(0.1, 1.0, size=n_sys)
    return RIFSFamily(systems=tuple(systems), weights=tuple(w / w.sum()), ambient_dim=1)


def oracle_children(r: Realization, nodes: list) -> list:
    """Children of (address, letters, log_ratio) nodes, in address order.

    Labels are read only through ``Realization.label_of``, independently of
    the tree walker.
    """
    out = []
    for addr, letters, logr in nodes:
        si = r.label_of(addr)
        for j, m in enumerate(r.family.systems[si].maps, start=1):
            out.append((addr + (j,), letters + ((si, j),), logr + math.log(m.ratio)))
    return out


def oracle_levels(r: Realization, kmax: int) -> list:
    """Breadth-first levels 0..kmax as lists of (address, letters, log_ratio)."""
    levels = [[((), (), 0.0)]]
    for _ in range(kmax):
        levels.append(oracle_children(r, levels[-1]))
    return levels


def brute_force_stopping(r: Realization, epsilon: float, max_depth: int) -> set:
    """Stopping-set letters by breadth-first enumeration (independent path)."""
    log_eps = math.log(epsilon)
    out = set()
    alive = [((), (), 0.0)]  # nodes whose subtree may still contain stopping elements
    for _ in range(max_depth):
        children = oracle_children(r, alive)
        out.update(letters for _, letters, logr in children if logr <= log_eps)
        alive = [c for c in children if c[2] > log_eps]
        if not alive:
            break
    return out


def enumerate_sections(r: Realization, depth_min: int, depth_cap: int):
    """Every section of the depth-capped tree as a list of (address, log_ratio).

    Uses only the public address-based label lookup, independently of the
    walker the dynamic program relies on.
    """
    systems = r.family.systems

    def rec(addr: tuple, logr: float, depth: int):
        if depth == depth_cap:
            return [[(addr, logr)]]
        si = r.label_of(addr)
        sysm = systems[si]
        combos = [[]]
        for j in range(1, sysm.nmaps + 1):
            child = rec(addr + (j,), logr + math.log(sysm.maps[j - 1].ratio), depth + 1)
            combos = [a + s for a in combos for s in child]
        if depth >= depth_min:
            combos.append([(addr, logr)])
        return combos

    return rec((), 0.0, 0)


def min_section_sum_log(r: Realization, h, depth_min: int, depth_cap: int) -> float:
    """Exhaustive minimum of gauge sums over all sections (oracle)."""
    best = math.inf
    for section in enumerate_sections(r, depth_min, depth_cap):
        total = sum(math.exp(h.eval_log(logr)) for _, logr in section)
        best = min(best, total)
    return math.log(best) if best > 0 else -math.inf


# ---- scalar V-variable reference ---------------------------------------------
# The per-buffer, per-map loops the table-driven engine replaced, kept as the
# bit-identity reference.  Labels are read only through ``_vv_label`` and
# ``_vv_assign``, one scalar draw at a time.


def oracle_vv_count_log_sums(r: Realization, h, kmax: int) -> np.ndarray:
    """Log level sums for a v_variable tree over a single-ratio family.

    Live-node counts per buffer are tracked in log-space; the shared ratio
    makes every level-k coding carry the same gauge value.
    """
    ct = r.family.uniform_ratio
    if ct is None:
        raise UnsupportedModelError("v_variable count path needs one global ratio")
    logct = math.log(ct)
    v = r.model.v
    nmaps = [s.nmaps for s in r.family.systems]
    level0, buf0 = r._root_state
    log_counts = np.full(v + 1, -np.inf)
    log_counts[buf0] = 0.0
    out = np.empty(kmax)
    for k in range(1, kmax + 1):
        abs_level = level0 + k - 1
        nxt = np.full(v + 1, -np.inf)
        for b in range(1, v + 1):
            if log_counts[b] == -np.inf:
                continue
            si = r._vv_label(abs_level, b)
            for j in range(1, nmaps[si] + 1):
                bb = r._vv_assign(abs_level, b, j)
                nxt[bb] = np.logaddexp(nxt[bb], log_counts[b])
        log_counts = nxt
        total = float(np.logaddexp.reduce(log_counts))
        out[k - 1] = total + h.eval_log(k * logct)
    return out


def oracle_vv_reachable(r: Realization, up_to_level: int):
    """Yield (relative level, reachable buffer set) for a v_variable tree."""
    level0, buf0 = r._root_state
    reach = frozenset([buf0])
    for rel in range(1, up_to_level + 1):
        abs_level = level0 + rel - 1
        nxt = set()
        for b in reach:
            si = r._vv_label(abs_level, b)
            for j in range(1, r.family.systems[si].nmaps + 1):
                nxt.add(r._vv_assign(abs_level, b, j))
        reach = frozenset(nxt)
        yield rel, reach


def oracle_vv_necks(r: Realization, up_to_level: int) -> tuple[int, ...]:
    """Neck levels <= up_to_level: levels reaching at most one buffer."""
    return tuple(rel for rel, reach in oracle_vv_reachable(r, up_to_level) if len(reach) <= 1)


# ---- depth-first walker reference ---------------------------------------------
# The one-node-per-step pre-order walker and its consumers that the level
# walker replaced, kept verbatim (names aside) as the bit-identity reference.


def oracle_walk(
    r: Realization, max_depth: float = inf, log_stop: float = -inf
) -> Iterator[tuple[int, float, list[tuple[int, int]]]]:
    """Depth-first pre-order walk of the tree, children in order 1..n.

    Yields ``(depth, log_ratio, letters)`` for every node reached.  A node is
    expanded, and its state derived, only while ``depth < max_depth`` and
    ``log_ratio > log_stop``.  ``letters`` is one list updated in place; copy
    it to keep it.  The stack is explicit, so the interpreter's recursion
    limit does not bound the depth.
    """
    systems = r.family.systems
    letters: list[tuple[int, int]] = []
    # frames[d] is the expanded ancestor at depth d: [state, system, maps, log ratio, next child]
    frames: list[list] = []
    depth, log_ratio = 0, 0.0
    while True:
        yield depth, log_ratio, letters
        if depth < max_depth and log_ratio > log_stop:
            state = r._child_state(frames[-1][0], letters[-1][1]) if frames else r._root_state
            si = r._sys_of_state(state)
            frames.append([state, si, systems[si].maps, log_ratio, 0])
        while frames and frames[-1][4] == len(frames[-1][2]):
            frames.pop()
        if not frames:
            return
        top = frames[-1]
        j = top[4]
        top[4] = j + 1
        depth = len(frames)
        del letters[depth - 1 :]
        letters.append((top[1], j + 1))
        log_ratio = top[3] + log(top[2][j].ratio)


def oracle_stopping_set(r: Realization, epsilon: float) -> Iterator[Coding]:
    """Stream the antichain of codings first reaching ratio <= epsilon.

    Every streamed coding has ratio <= epsilon while its parent ratio is
    above epsilon; every infinite live branch passes through exactly one.
    Codings come in depth-first address order.  A family with a map of
    ratio 1 has branches that never shrink, so it is refused.
    """
    if not 0.0 < epsilon < 1.0:
        raise ParameterError("epsilon must lie in (0, 1)")
    if r.family.c_max >= 1.0:
        raise PreconditionError("stopping sets need all contraction ratios < 1")
    log_eps = log(epsilon)
    for _, log_ratio, letters in oracle_walk(r, log_stop=log_eps):
        if log_ratio <= log_eps:
            yield Coding(tuple(letters), log_ratio)


class OracleLogSumAcc:
    """Streaming log-sum-exp accumulator."""

    __slots__ = ("m", "acc")

    def __init__(self) -> None:
        self.m = -math.inf
        self.acc = 0.0

    def add(self, x: float) -> None:
        if x == -math.inf:
            return
        if x > self.m:
            self.acc = self.acc * math.exp(self.m - x) + 1.0 if self.acc else 1.0
            self.m = x
        else:
            self.acc += math.exp(x - self.m)

    def value(self) -> float:
        return self.m + math.log(self.acc) if self.acc > 0 else -math.inf


def oracle_stream_log_sums(
    r: Realization, h: GaugeFunction, depths: Sequence[int], node_budget: int
) -> np.ndarray:
    """Log level sums at the requested depths by a single depth-first pass."""
    accs = {d: OracleLogSumAcc() for d in depths}
    visited = 0
    for depth, log_ratio, _ in oracle_walk(r, max_depth=max(depths)):
        visited += 1
        if visited > node_budget:
            raise ResourceError(f"node budget {node_budget} exceeded while streaming level {depth}")
        if depth in accs:
            accs[depth].add(h.eval_log(log_ratio))
    return np.array([accs[d].value() for d in depths])


def oracle_section_infimum(
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
    # stack[d + 1] is the open node at depth d: [own value, address or None,
    # child values or None at depth_cap, child section]; stack[0] collects the root.
    stack: list[list] = [[None, None, [], []]]
    visited = 0
    for depth, log_ratio, letters in oracle_walk(r, max_depth=depth_cap):
        visited += 1
        if visited > node_budget:
            raise ResourceError(f"node budget {node_budget} exceeded at depth {depth}")
        oracle_close_sections(stack, depth, depth_min)
        address = tuple(j for _, j in letters) if visited <= argmin_limit else None
        parts = None if depth == depth_cap else []
        stack.append([h.eval_log(log_ratio), address, parts, []])
    oracle_close_sections(stack, 0, depth_min)
    (val,), section = stack[0][2], stack[0][3]
    argmin = tuple(section) if visited <= argmin_limit else None
    return SectionValue(value_log=val, depth_min=depth_min, argmin_section=argmin)


def _logsumexp(parts: list[float]) -> float:
    finite = [p for p in parts if p != -math.inf]
    if not finite:
        return -math.inf
    m = max(finite)
    return m + math.log(sum(math.exp(p - m) for p in finite))


def oracle_close_sections(stack: list[list], depth: int, depth_min: int) -> None:
    """Finish the open nodes at ``depth`` or deeper, passing each value to its parent."""
    while len(stack) > depth + 1:
        own, address, parts, section = stack.pop()
        parent = stack[-1]
        if parts is not None:
            child_sum = _logsumexp(parts)
            if len(stack) <= depth_min or child_sum <= own:
                parent[2].append(child_sum)
                parent[3].extend(section)
                continue
        parent[2].append(own)
        if address is not None:
            parent[3].append(address)


# ---- one-letter-at-a-time geometry reference -------------------------------
# The per-letter ``Affine`` composition and the per-point scalar descent that
# the row-wise array composition replaced, kept verbatim (names aside) as the
# bit-identity reference.


def oracle_then_inner(self: Affine, other: Affine) -> Affine:
    """Composition self o other (other applied first)."""
    return Affine(
        ratio=self.ratio * other.ratio,
        matrix=self.matrix @ other.matrix,
        translation=self.ratio * (self.matrix @ other.translation) + self.translation,
    )


def oracle_affine_of(m: SimilarityMap, dim: int) -> Affine:
    q = m.isometry if m.isometry is not None else np.eye(dim)
    b = m.translation if m.translation is not None else np.zeros(dim)
    if q.shape != (dim, dim) or b.shape != (dim,):
        raise ConfigError(f"map geometry does not match ambient dimension {dim}")
    return Affine(ratio=m.ratio, matrix=q, translation=b)


def oracle_identity(dim: int) -> Affine:
    return Affine(ratio=1.0, matrix=np.eye(dim), translation=np.zeros(dim))


def oracle_compose(family: RIFSFamily, coding: Coding) -> Cylinder:
    """Compose the coding's maps left to right and return the cylinder."""
    dim = family.ambient_dim
    acc = oracle_identity(dim)
    for si, j in coding.letters:
        sysm = family.systems[si]
        if not 1 <= j <= sysm.nmaps:
            raise ParameterError(f"coding letter ({si}, {j}) has no matching map")
        acc = oracle_then_inner(acc, oracle_affine_of(sysm.maps[j - 1], dim))
    seed_center = np.full(dim, 0.5)
    return Cylinder(
        coding=coding,
        affine=acc,
        center=acc.apply(seed_center),
        diameter=acc.ratio * math.sqrt(dim),
    )


def oracle_sample_points(
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
            acc = oracle_identity(dim)
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
                acc = oracle_then_inner(acc, oracle_affine_of(sysm.maps[j - 1], dim))
                state = r._child_state(state, j)
                step += 1
            if alive:
                point = acc.apply(seed_center)
                break
        if point is None:
            raise ExtinctionError(f"point {i}: all {max_retries} descents hit extinct branches")
        out[i] = point
    return out


# ---- per-path drift reference --------------------------------------------------
# The drift ensemble as it ran before its path-independent work was hoisted
# out of the per-path loop: per-path tables and gauge term, full-length running
# extrema, labels by ``searchsorted``, and a ``validate`` call for the
# almost-deterministic check.  Kept as the bit-identity reference.


def oracle_level_systems(r: Realization, depth: int) -> np.ndarray:
    """Homogeneous level labels by ``searchsorted`` over the cumulative weights."""
    counters = np.arange(r.offset, r.offset + depth, dtype=np.uint64)
    u = streams.u01_array(streams.fold_array(r._h, counters))
    return cumulative_weights(r.family.weights).searchsorted(u, side="right").astype(np.int64)


def oracle_level_tables(family: RIFSFamily) -> tuple[np.ndarray, np.ndarray]:
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


def oracle_all_level_log_sums(r: Realization, h: GaugeFunction, kmax: int):
    """Fast-path log sums at every level 1..kmax, or None when unavailable."""
    if r.model.kind == HOMOGENEOUS and r.family.is_equicontractive():
        logn, logc = oracle_level_tables(r.family)
        sysidx = oracle_level_systems(r, kmax)
        cum_n = np.cumsum(logn[sysidx])
        cum_c = np.cumsum(logc[sysidx])
        return cum_n + h.eval_log(cum_c)
    if r.model.kind == V_VARIABLE and r.family.uniform_ratio is not None:
        return oracle_vv_count_log_sums(r, h, kmax)
    return None


# ---- mass check on coding tuples -------------------------------------------------
# The stopping set sorted as ``Coding`` tuples, the composition that reads the
# tuples back into arrays, the per-coding log-mass loop and the mass check
# over them, as they ran before the check read the stopping set as letter
# arrays; kept verbatim (names aside) as the bit-identity reference.


def oracle_chunk_stopping_set(r: Realization, epsilon: float) -> Iterator[Coding]:
    """Stream the antichain of codings first reaching ratio <= epsilon.

    Every streamed coding has ratio <= epsilon while its parent ratio is
    above epsilon; every infinite live branch passes through exactly one.
    Codings come in address order, which is depth-first order.  A family with
    a map of ratio 1 has branches that never shrink, so it is refused.
    """
    log_eps = _log_epsilon(r, epsilon)
    found: list[Coding] = []
    for chunk in levels(r, log_stop=log_eps):
        stopped = (chunk.log_ratio <= log_eps).nonzero()[0]
        if stopped.size:
            found.extend(_codings(chunk.letters(stopped), chunk.log_ratio[stopped]))
    # letters order addresses: siblings share their parent's system
    found.sort(key=lambda c: c.letters)
    yield from found


def oracle_cylinders(family: RIFSFamily, codings: Sequence[Coding]) -> tuple[list, np.ndarray, np.ndarray]:
    """Row k: the similarity ``oracle_compose`` builds from ``codings[k]``, its cylinder's center and diameter."""
    dim = family.ambient_dim
    cyls = [oracle_compose(family, c) for c in codings]
    acc = [
        np.array([c.affine.ratio for c in cyls], dtype=float),
        np.array([c.affine.matrix for c in cyls], dtype=float).reshape(-1, dim, dim),
        np.array([c.affine.translation for c in cyls], dtype=float).reshape(-1, dim),
    ]
    center = np.array([c.center for c in cyls], dtype=float).reshape(-1, dim)
    return acc, center, np.array([c.diameter for c in cyls], dtype=float)


def oracle_log_mass(nu: NaturalMeasure, coding: Coding) -> float:
    """``NaturalMeasure.log_mass``: minus the log map counts of the coding's systems, one letter at a time."""
    logn = [math.log(s.nmaps) if s.nmaps else math.inf for s in nu.realization.family.systems]
    total = 0.0
    for si, _ in coding.letters:
        total -= logn[si]
    if total == -math.inf:
        raise ParameterError("coding passes through an extinct node")
    return total


def oracle_mass_distribution_check(
    r: Realization,
    h: GaugeFunction,
    nu: NaturalMeasure,
    n_balls: int,
    epsilon_grid: Sequence[float],
    seed: int = 0,
    assume_uosc: bool = False,
) -> MassDistributionReport:
    """Ball-mass versus gauge check plus the stopping-set neighbor bound."""
    family = r.family
    d = family.ambient_dim
    require_geometry(family)
    if d == 1:
        uosc_audit_1d(family)
    elif not assume_uosc:
        raise GeometryError("declare UOSC explicitly for ambient dimension >= 2")
    eps_list = tuple(float(e) for e in epsilon_grid)
    if not eps_list or any(not 0 < e < 1 for e in eps_list):
        raise ParameterError("epsilon grid must lie in (0, 1)")

    centers = sample_points(r, n=n_balls, seed=seed)
    bound = (4.0 / family.c_min) ** d
    max_count = 0
    sup_ratio = 0.0
    for eps in eps_list:
        codings = list(oracle_chunk_stopping_set(r, eps))
        if not codings:
            continue
        _, cent, diam = oracle_cylinders(family, codings)
        masses = np.array([math.exp(oracle_log_mass(nu, c)) for c in codings])
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


def oracle_mass_check_1d(
    r: Realization, h: GaugeFunction, nu: NaturalMeasure, n_balls: int, eps_list: Sequence[float], seed: int
) -> tuple[int, float]:
    """``mass_distribution_check``'s (max_neighbor_count, sup_mass_ratio) in d = 1, one centre at a time."""
    centers = sample_points(r, n=n_balls, seed=seed)
    max_count, sup_ratio = 0, 0.0
    for eps in eps_list:
        codings = list(oracle_chunk_stopping_set(r, eps))
        if not codings:
            continue
        _, cent, diam = oracle_cylinders(r.family, codings)
        masses = np.array([math.exp(oracle_log_mass(nu, c)) for c in codings])
        h_2eps = math.exp(h.eval_log(math.log(2 * eps)))
        lo = cent[:, 0] - diam / 2
        order = np.argsort(lo)
        lo, hi = lo[order], (cent[:, 0] + diam / 2)[order]
        prefix = np.concatenate(([0.0], np.cumsum(masses[order])))
        for z in centers[:, 0]:
            a, b = z - eps, z + eps
            iright = int(np.searchsorted(lo, b + 1e-12, side="right"))
            ileft = int(np.searchsorted(hi, a - 1e-12, side="left"))
            max_count = max(max_count, max(iright - ileft, 0))
            sup_ratio = max(sup_ratio, (prefix[iright] - prefix[ileft]) / h_2eps)
    return max_count, sup_ratio


def oracle_path_stats(
    family: RIFSFamily,
    model: ModelSpec,
    h: GaugeFunction,
    path_seed: int,
    depths: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float, int]:
    """Per-path grid values, running min/max, and increment accumulators."""
    r = sample(model, path_seed, family)
    kmax = depths[-1]
    full = oracle_all_level_log_sums(r, h, kmax)
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


def oracle_drift_chunk(args) -> list:
    family, model, h, seeds, depths = args
    return [oracle_path_stats(family, model, h, s, depths) for s in seeds]


def oracle_drift_experiment(
    family: RIFSFamily,
    model: ModelSpec,
    h: GaugeFunction,
    n_realizations: int,
    depths: Sequence[int],
    seed: int,
    thresholds: tuple[float, float] = DEFAULT_THRESHOLDS,
    workers: int = 1,
) -> DriftReport:
    """Ensemble of independent level-sum paths with LIL envelope context."""
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
            results = list(pool.map(oracle_drift_chunk, args))
    else:
        results = [oracle_drift_chunk(a) for a in args]
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


# ---- the moment-sum walk by its own label loop -----------------------------------
# lil_calibration as it was before its walk shared the fast path's label walk:
# a fresh cumsum(log S^s[labels]) per path.  Kept verbatim as the bit-identity reference.


def oracle_lil_calibration(
    family: RIFSFamily,
    model: ModelSpec,
    s: float,
    n_paths: int,
    depth: int,
    seed: int,
) -> LilCalibration:
    """Exit/touch fractions of the moment-sum walk against its LIL envelope."""
    _require_integer("depth", depth)
    if _require_integer("n_paths", n_paths) < 1:
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

    e = env[checked]
    n_exit = n_touch = 0
    paths = []
    for sysidx in level_labels((sample(model, ps, family) for ps in ensemble_seeds(seed, n_paths)), depth):
        w = np.cumsum(logs[sysidx])
        a = np.abs(w[checked])
        n_exit += bool(np.any(a > EXIT_FACTOR * e))
        n_touch += bool(np.any(a >= TOUCH_FACTOR * e))
        paths.append(_increments(0.0, w))
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


# ---- neck_block blocks, necks and labels by a scalar block walk -------------------
# A neck_block realization's blocks as they were found before one array layout
# drew them: one float draw per block against the templates' cumulative weights,
# and a list of block bounds grown up to the level asked for.  A level's label
# is a running sum over its distribution, compared with the draw.  Kept verbatim
# (names aside) as the bit-identity reference.


def oracle_template_of(r: Realization, block: int) -> int:
    """Template index of neck_block ``block``."""
    tw = [t.weight for t in r.model.templates]
    tcum = cumulative_weights(np.asarray(tw, dtype=float) / sum(tw)).tolist()
    return bisect_right(tcum, streams.u01(streams.fold(r._hb, block)))


def oracle_block_of(r: Realization, level: int) -> tuple[int, int]:
    """(block index, offset inside block) for an absolute tree level."""
    bounds = [0]
    while bounds[-1] <= level:
        b = len(bounds) - 1
        bounds.append(bounds[-1] + r.model.templates[oracle_template_of(r, b)].length)
    b = bisect_right(bounds, level) - 1
    return b, level - bounds[b]


def oracle_neck_block_necks(r: Realization, horizon: int) -> list[int]:
    """Neck levels <= horizon, relative to the realization root: the block ends below it."""
    b, off = oracle_block_of(r, r.offset)
    rel, necks = -off, []
    while True:
        rel += r.model.templates[oracle_template_of(r, b)].length
        if rel > horizon:
            return necks
        necks.append(rel)
        b += 1


def oracle_neck_block_label(r: Realization, level: int) -> int:
    """System index of absolute ``level`` of a neck_block realization."""
    b, off = oracle_block_of(r, level)
    tpl = r.model.templates[oracle_template_of(r, b)]
    u = streams.u01(streams.fold(streams.fold(r._hbl, b), off))
    dist = tpl.levels[off]
    acc = 0.0
    for i, p in enumerate(dist):
        acc += p
        if u < acc:
            return i
    return len(dist) - 1


# ---- neck_block walk statistics by enumerating one block ---------------------------


def oracle_block_log_moment_stats(family: RIFSFamily, model: ModelSpec, s: float) -> tuple[float, float]:
    """Mean and variance per level of the walk of log S^s along a neck_block tree's levels.

    Blocks are i.i.d., so by renewal-reward the walk's mean per level is
    E[R] / E[L] and its variance per level E[(R - mean L)^2] / E[L], where R is
    one block's total log S^s and L its length.  Both expectations sum over
    every template and every label sequence of its levels, with that
    sequence's probability.  Every system needs at least one map.
    """
    log_s = [log(sum(m.ratio**s for m in sysm.maps)) for sysm in family.systems]
    total_weight = sum(t.weight for t in model.templates)
    outcomes = []  # (probability, R, L) of one block
    for t in model.templates:
        for labels in product(range(family.nsystems), repeat=t.length):
            prob = t.weight / total_weight * math.prod(dist[i] for dist, i in zip(t.levels, labels))
            outcomes.append((prob, sum(log_s[i] for i in labels), t.length))
    mean_length = sum(p * n for p, _, n in outcomes)
    mean = sum(p * r for p, r, _ in outcomes) / mean_length
    return mean, sum(p * (r - mean * n) ** 2 for p, r, n in outcomes) / mean_length


# ---- closed form per path, labels from ``level_systems`` ---------------------------
# The closed-form walk as it ran before it was drawn in buffers reused across
# paths: per-path tables and labels, cumsums into fresh arrays, and the gauge
# term added last.  Homogeneous labels come from ``oracle_level_systems``, so
# they do not share the buffer walk's label code.


def oracle_closed_form_log_sums(r: Realization, h: GaugeFunction, kmax: int) -> np.ndarray:
    """Log level sums at levels 1..kmax of a level-driven equicontractive realization."""
    logn, logc = oracle_level_tables(r.family)
    sysidx = oracle_level_systems(r, kmax) if r.model.kind == HOMOGENEOUS else r.level_systems(kmax)
    c = r.family.uniform_ratio
    g = h.eval_log(np.cumsum(logc[sysidx])) if c is None else h.eval_log(np.cumsum(np.full(kmax, math.log(c))))
    return np.cumsum(logn[sysidx]) + g


# ---- homogeneous dimension over the full log-moment statistics ---------------------
# The homogeneous solver as it ran before its objective computed the mean
# alone: each bisection step called ``log_moment_stats``, which builds a model
# spec and a variance.  Kept verbatim (names aside) as the bit-identity reference.


def oracle_homogeneous_dimension(family: RIFSFamily) -> float:
    """Root of E[log S^s] = 0 by bisection."""
    if family.c_max >= 1.0:
        raise PreconditionError("dimension needs all contraction ratios < 1")
    els0 = log_moment_stats(family, 0.0)[0]
    if not els0 > 0.0:
        raise PreconditionError(f"homogeneous model needs E[log S^0] > 0, got E[log S^0] = {els0}")
    objective = lambda s: log_moment_stats(family, s)[0]

    hi = math.log(max(family.n_max, 2)) / math.log(1.0 / family.c_max) + 1.0
    return bisect_decreasing(objective, 0.0, hi)


# ---- label tables as each reader built them -----------------------------------------
# The per-family and per-model label tables as the realization, the level walker,
# the closed form and the neck_block block draw built them before the tables
# moved onto ``RIFSFamily`` and ``ModelSpec``.  Kept verbatim (names aside) as
# the bit-identity reference.


def oracle_label_thresholds(cum) -> np.ndarray:
    """``ceil(c 2^53)`` for each cumulative weight c."""
    return np.ceil(np.asarray(cum) * 2.0**53).astype(np.uint64)


def oracle_label_bounds(thresholds: np.ndarray) -> np.ndarray:
    """The raw-draw bounds ``t << 11`` of the thresholds t < 2^53, as the walkers listed them from the thresholds."""
    return np.array([int(t) << 11 for t in thresholds[:-1] if t < 2**53], dtype=np.uint64)


def oracle_walk_tables(family: RIFSFamily) -> tuple[np.ndarray, np.ndarray]:
    """Map counts and the ``[nsystems, n_max]`` log ratios of the level walker."""
    systems = family.systems
    nmaps = np.array([s.nmaps for s in systems])
    slots = np.arange(max(1, family.n_max))
    log_c = np.zeros((len(systems), slots.size))
    for i, sysm in enumerate(systems):
        log_c[i, : sysm.nmaps] = [log(m.ratio) for m in sysm.maps]
    return nmaps, log_c


def oracle_log_map_counts(family: RIFSFamily) -> np.ndarray:
    """The closed form's log map counts, -inf for a 0-map system."""
    return np.array([math.log(s.nmaps) if s.nmaps else -math.inf for s in family.systems])


def oracle_log_common_ratios(family: RIFSFamily) -> np.ndarray:
    """The closed form's log common ratios, 0 for a 0-map system (equicontractive families)."""
    return np.array([math.log(s.common_ratio) if s.nmaps else 0.0 for s in family.systems])


def oracle_block_tables(model: ModelSpec) -> tuple[np.ndarray, ...]:
    """Template thresholds, level threshold rows, lengths and first rows of a neck_block model."""
    tw = [t.weight for t in model.templates]
    tcum = cumulative_weights(np.asarray(tw, dtype=float) / sum(tw))
    rows = [cumulative_weights(d) for t in model.templates for d in t.levels]
    lengths = np.array([t.length for t in model.templates])
    return oracle_label_thresholds(tcum), oracle_label_thresholds(rows), lengths, np.cumsum(lengths) - lengths


# ---- gauge evaluation with a scalar flag and a plateau scatter ------------------------
# ``GaugeFunction.eval_log`` as it ran before it became one elementwise rule: a
# scalar flag, a 1-d copy, a plateau-filled output and a masked scatter of the
# formula values.  Kept verbatim (names aside) as the bit-identity reference.


def oracle_eval_log(h: GaugeFunction, log_t):
    """log h(t) given log t.  Arguments above the cutoff return log h_bar."""
    scalar = np.isscalar(log_t) or getattr(log_t, "ndim", 0) == 0
    arr = np.atleast_1d(np.asarray(log_t, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise ParameterError("eval_log needs finite log t")
    out = np.full(arr.shape, math.log(h.h_bar))
    inside = arr <= h.log_r0
    if np.any(inside):
        out[inside] = h._formula_log(arr[inside])
    return float(out[0]) if scalar else out


# ---- moment sums over each system's maps ----------------------------------------------
# ``rifs.moment`` and its readers as they ran before the moment sums read the
# family's ``map_ratios``: one ``moment`` call per system, each summing
# ``m.ratio**s`` over the system's maps.  Kept verbatim (names aside) as the
# bit-identity reference for the homogeneous and recursive models.


def oracle_moment(family: RIFSFamily, lambda_index: int, s: float) -> float:
    """Moment sum ``S^s = sum_j (c_j)^s`` of one system."""
    return float(sum(m.ratio**s for m in family.systems[lambda_index].maps))


def oracle_log_moments(family: RIFSFamily, s: float) -> np.ndarray:
    """Per-system ``log S^s``, -inf for an empty system."""
    return np.array(
        [math.log(v) if (v := oracle_moment(family, i, s)) > 0 else -math.inf for i in range(family.nsystems)]
    )


def oracle_mean_log_moment(family: RIFSFamily, s: float) -> tuple[float, np.ndarray, np.ndarray]:
    """E[log S^s] under the selection weights, with the weights and per-system ``log S^s`` it sums."""
    vals = oracle_log_moments(family, s)
    w = np.asarray(family.weights)
    if 0.0 in family.weights:
        vals[w == 0] = 0.0
    return float(np.dot(w, vals)), w, vals


def oracle_dimension(family: RIFSFamily, model: str) -> float:
    """Root of E[S^s] = 1 (recursive) or E[log S^s] = 0 (homogeneous) by bisection."""
    if family.c_max >= 1.0:
        raise PreconditionError("dimension needs all contraction ratios < 1")
    if model == RECURSIVE:
        es0 = float(sum(w * s.nmaps for w, s in zip(family.weights, family.systems)))
        if not es0 > 1.0:
            raise PreconditionError(f"recursive model needs E[S^0] > 1, got E[S^0] = {es0}")
        objective = lambda s: sum(w * oracle_moment(family, i, s) for i, w in enumerate(family.weights)) - 1.0
    else:
        els0 = oracle_mean_log_moment(family, 0.0)[0]
        if not els0 > 0.0:
            raise PreconditionError(f"homogeneous model needs E[log S^0] > 0, got E[log S^0] = {els0}")
        objective = lambda s: oracle_mean_log_moment(family, s)[0]

    hi = math.log(max(family.n_max, 2)) / math.log(1.0 / family.c_max) + 1.0
    return bisect_decreasing(objective, 0.0, hi)


def oracle_beta_hat(family: RIFSFamily, s: float) -> float:
    """Var(log S^s) / eta_hat under the selection weights."""
    mean, w, vals = oracle_mean_log_moment(family, s)
    var = float(np.dot(w, (vals - mean) ** 2)) if math.isfinite(mean) else math.nan
    eta = eta_hat(family)
    if not (var > 0) or eta == 0:
        raise PreconditionError("beta_hat needs positive variance and contraction")
    return var / eta


# ---- statistics over IFS objects and rebuilt families ---------------------------------
# The statistics as they ran before each became per-system values of
# ``map_ratios`` rows under one weight vector: the neck_block branch of
# ``log_moment_stats`` rebuilt the family for each template level, the moment
# root summed over ``SimilarityMap`` objects, ``eta_hat`` read ``IFS.ratios``,
# and the recursive supercritical check had its own sum at s = 0.  A neck_block
# model's other statistics ran on the whole family rebuilt with its level
# weights (``_level_family``), and its solver handed that family on
# (``oracle_solver``).  Kept verbatim (names aside) as the bit-identity reference.


def _level_weights(family: RIFSFamily, spec: ModelSpec) -> tuple[float, ...]:
    """A neck_block model's level weights q_i = sum_t w_t sum_l p_{t,l,i} / sum_t w_t L_t, after ``check_levels``."""
    spec.check_levels(family)
    q = sum(t.weight * np.sum(t.levels, axis=0) for t in spec.templates)
    return tuple((q / q.sum()).tolist())


def _level_family(family: RIFSFamily, model) -> RIFSFamily:
    """``family`` reweighted by ``_level_weights`` for neck_block."""
    spec = model if isinstance(model, ModelSpec) else ModelSpec(model)
    return replace(family, weights=_level_weights(family, spec)) if spec.kind == NECK_BLOCK else family


def oracle_solver(family: RIFSFamily, model) -> tuple[str, RIFSFamily]:
    """The dimension solver of ``model`` (a spec or a bare kind name) and the family it solves:
    E[S^s] = 1 for recursive, else E[log S^s] = 0 on the ``_level_family``; none for v_variable V >= 2."""
    spec = model if isinstance(model, ModelSpec) else ModelSpec(model)
    if spec.kind == V_VARIABLE and spec.v >= 2:
        raise ConfigError(f"no dimension solver for v_variable models with V >= 2 (V = {spec.v})")
    return (RECURSIVE if spec.kind == RECURSIVE else HOMOGENEOUS), _level_family(family, spec)


def oracle_log_moment_stats(family: RIFSFamily, s: float, model=HOMOGENEOUS) -> tuple[float, float]:
    """Mean and variance per level of ``log S^s`` along a ``model`` tree's levels."""
    spec = model if isinstance(model, ModelSpec) else ModelSpec(model)
    if spec.kind == NECK_BLOCK:
        mean = oracle_log_moment_stats(_level_family(family, spec), s)[0]
        num = total = 0.0
        for t in spec.templates:
            stats = [oracle_log_moment_stats(replace(family, weights=dist), s) for dist in t.levels]
            num += t.weight * (sum(v for _, v in stats) + (sum(m for m, _ in stats) - mean * t.length) ** 2)
            total += t.weight * t.length
        return mean, num / total
    mean, w, vals = oracle_mean_log_moment(family, s)
    return mean, float(np.dot(w, (vals - mean) ** 2)) if math.isfinite(mean) else math.nan


def oracle_moment_root(system: IFS):
    """Unique s >= 0 with S^s = 1, or None when no root exists."""
    if system.nmaps == 0:
        return None
    g = lambda s: sum(m.ratio**s for m in system.maps) - 1.0
    if system.nmaps == 1:
        return 0.0 if system.maps[0].ratio < 1.0 else None
    cmax = max(m.ratio for m in system.maps)
    if cmax >= 1.0:
        return None
    return bisect_decreasing(g, 0.0, math.log(system.nmaps) / math.log(1.0 / cmax) + 1.0)


def oracle_almost_deterministic_at(family: RIFSFamily):
    """The common root of S^s = 1 of all positive-weight systems (to ``ASSERT_TOL``), or None."""
    active = [(w, s) for w, s in zip(family.weights, family.systems) if w > 0]
    roots = [oracle_moment_root(s) for _, s in active]
    if any(r is None for r in roots) or not (0.0 < family.c_min and family.c_max < 1.0):
        return None
    s_bar = float(np.dot([w for w, _ in active], roots)) / sum(w for w, _ in active)
    if all(abs(sum(m.ratio**s_bar for m in sys.maps) - 1.0) <= ASSERT_TOL for _, sys in active):
        return s_bar
    return None


def oracle_mean_s0(family: RIFSFamily) -> float:
    return float(sum(w * s.nmaps for w, s in zip(family.weights, family.systems)))


def oracle_eta_hat(family: RIFSFamily) -> float:
    """|mean log geometric-mean contraction| under the selection weights."""
    active = [(w, sysm) for w, sysm in zip(family.weights, family.systems) if w > 0]
    if any(sysm.nmaps == 0 for _, sysm in active):
        raise PreconditionError("eta_hat needs every positive-weight system non-empty")
    ratios = lambda sysm: np.array([m.ratio for m in sysm.maps], dtype=float)  # the deleted ``IFS.ratios``
    return abs(sum(w * float(np.mean(np.log(ratios(sysm)))) for w, sysm in active))


def oracle_model_beta_hat(family: RIFSFamily, s: float, model) -> float:
    """Var(log S^s) / eta_hat of ``model``."""
    _, var = oracle_log_moment_stats(family, s, model)
    eta = oracle_eta_hat(_level_family(family, model))
    if not (var > 0) or eta == 0:
        raise PreconditionError("beta_hat needs positive variance and contraction")
    return var / eta


def oracle_validate(family: RIFSFamily, model) -> ConditionsReport:
    """The standing assumptions and the degeneracy witnesses on the family ``model``'s solver solves."""
    model, family = oracle_solver(family, model)
    n_bound_ok = family.n_max >= 2
    ratio_bounds_ok = 0.0 < family.c_min and family.c_max < 1.0
    recursive_super = oracle_mean_s0(family) > 1.0
    homogeneous_super = oracle_mean_log_moment(family, 0.0)[0] > 0.0

    almost_det = oracle_almost_deterministic_at(family)

    gap = None
    supercritical = recursive_super if model == RECURSIVE else homogeneous_super
    if almost_det is None and supercritical and ratio_bounds_ok:
        s_star = oracle_dimension(family, model)
        eps = GAP_EPSILON_FRAC * s_star
        vals = [oracle_moment(family, i, s_star - eps) for i in range(family.nsystems)]
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
