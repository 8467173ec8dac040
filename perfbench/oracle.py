"""Independent check of deep-thin level sums.

Deep-thin jobs are checked against an oracle rather than a byte reference:
their CSV is compared with level sums recomputed here by breadth-first
enumeration of node addresses, reading every label through
``Realization.label_of`` and nothing else of the walker.
"""
from __future__ import annotations

import math

import numpy as np

# The CLI prints %.9g, which rounds by up to 5e-9 relative; the comparison
# allows 1e-9 relative on top of that.
REL_TOL = 1e-9 + 5e-9
ABS_TOL = 1e-12


def level_log_sums(r, h, depths) -> dict[int, float]:
    """log sum_{e at level k} h(c_e) for each k in ``depths``."""
    wanted = set(depths)
    kmax = max(depths)
    systems = r.family.systems
    out = {}
    level = [((), 0.0)]
    for k in range(kmax + 1):
        if k in wanted:
            vals = np.asarray(h.eval_log(np.array([lr for _, lr in level])), dtype=float)
            m = float(vals.max()) if vals.size else -math.inf
            out[k] = m + math.log(float(np.sum(np.exp(vals - m)))) if math.isfinite(m) else -math.inf
        if k == kmax:
            break
        nxt = []
        for addr, lr in level:
            for j, m in enumerate(systems[r.label_of(addr)].maps, start=1):
                nxt.append((addr + (j,), lr + math.log(m.ratio)))
        level = nxt
    return out


def parse_levelsum_csv(data: bytes) -> dict[int, float]:
    rows = [ln for ln in data.decode().splitlines() if ln and not ln.startswith("#")]
    if not rows or rows[0] != "depth,log_sum":
        raise ValueError("levelsum output has no depth,log_sum header")
    out = {}
    for ln in rows[1:]:
        d, v = ln.split(",")
        out[int(d)] = float(v)
    return out


def check_levelsum(data: bytes, expected: dict[int, float]) -> str:
    """Empty string when the CSV matches ``expected``, else what differs."""
    got = parse_levelsum_csv(data)
    if sorted(got) != sorted(expected):
        return f"depths {sorted(got)} != {sorted(expected)}"
    for d, want in expected.items():
        have = got[d]
        if not math.isclose(have, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return f"depth {d}: {have!r} != oracle {want!r}"
    return ""
