"""Counter-based reproducible random streams.

Every draw is a pure function of a 64-bit state and an integer counter, so
labels of unbounded lazy trees can be read in any order, from any worker,
with bit-identical results.  The mixer is the splitmix64 finalizer applied
to golden-ratio-spaced counters.
"""
from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# Mixer constants are 0-d arrays, not numpy scalars: arithmetic that involves
# an array runs as a ufunc, which wraps modulo 2**64 without the overflow
# warning of numpy's scalar arithmetic, and dispatches faster.
_U_GOLDEN = np.array(GOLDEN, dtype=np.uint64)
_U_M1 = np.array(0xBF58476D1CE4E5B9, dtype=np.uint64)
_U_M2 = np.array(0x94D049BB133111EB, dtype=np.uint64)
_U1 = np.array(1, dtype=np.uint64)
_U30 = np.array(30, dtype=np.uint64)
_U27 = np.array(27, dtype=np.uint64)
_U31 = np.array(31, dtype=np.uint64)
_U11 = np.array(11, dtype=np.uint64)
_INV53 = float(2.0**-53)

# Stream tags keep unrelated draw families disjoint.  Values are arbitrary
# but fixed forever: changing one changes every sampled tree.
TAG_HOMOGENEOUS = 0x686F6D31
TAG_RECURSIVE = 0x72656331
TAG_VV_LABEL = 0x76766C31
TAG_VV_ASSIGN = 0x76766131
TAG_BLOCK = 0x626C6B31
TAG_BLOCK_LEVEL = 0x626C6C31
TAG_LABEL_DRAW = 0x10000001
TAG_SUBSTREAM = 0x73756231
TAG_POINT = 0x706F6931


def mix64(x: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def fold(state: int, counter: int) -> int:
    """Derive a new 64-bit state from ``state`` and a counter.

    Counters are spaced by the golden-ratio constant before mixing, so
    consecutive counters produce statistically independent outputs.
    """
    return mix64((int(state) + ((int(counter) + 1) * GOLDEN)) & MASK64)


def fold_array(state: int | np.ndarray, counters: int | np.ndarray) -> np.ndarray:
    """Vectorized ``fold`` over a counter array.

    ``state`` is one integer, or a uint64 array broadcast against
    ``counters``; either way entry i equals ``fold(state[i], counters[i])``
    after broadcasting, wrapping modulo 2**64 as ``fold`` does.  Scalar and
    0-d counters are accepted too.
    """
    c = np.asarray(counters).astype(np.uint64, copy=False)
    s = state if isinstance(state, np.ndarray) else np.array(int(state) & MASK64, dtype=np.uint64)
    x = s + (c + _U1) * _U_GOLDEN
    x ^= x >> _U30
    x *= _U_M1
    x ^= x >> _U27
    x *= _U_M2
    x ^= x >> _U31
    return x


def u01(state: int) -> float:
    """Map a 64-bit state to a float in [0, 1)."""
    return (state >> 11) * _INV53


def u01_array(states: np.ndarray) -> np.ndarray:
    return (states >> _U11).astype(np.float64) * _INV53
