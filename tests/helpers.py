"""Shared test fixtures: random families and independent brute-force oracles."""
from __future__ import annotations

import math
import signal
from contextlib import contextmanager
from itertools import product
from math import inf, log
from typing import Iterator, Sequence

import numpy as np

from necktree import streams
from necktree.errors import (
    ConfigError,
    ExtinctionError,
    ParameterError,
    PreconditionError,
    ResourceError,
    UnsupportedModelError,
)
from necktree.gauges import GaugeFunction
from necktree.geometry import MAX_SAMPLE_RETRIES, POINT_DIAMETER_TOL, Affine, Cylinder, require_geometry
from necktree.measure import NaturalMeasure, SectionValue, _logsumexp
from necktree.rifs import IFS, RIFSFamily, SimilarityMap, equicontractive_family
from necktree.trees import Coding, Realization


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
