"""Shared test fixtures: random families and independent brute-force oracles."""
from __future__ import annotations

import math
from itertools import product

import numpy as np

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
