"""Shared test fixtures: random families and independent brute-force oracles."""
from __future__ import annotations

import math
from itertools import product

import numpy as np

from necktree.errors import UnsupportedModelError
from necktree.rifs import IFS, RIFSFamily, SimilarityMap, equicontractive_family
from necktree.trees import Realization


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
