"""Random code-trees: labelled N-ary trees, codings, stopping sets, necks.

A realization assigns an IFS label to every node of the full tree.  Labels
are never stored; they are recomputed on demand from (model, seed, address)
through counter-based streams, so trees of unbounded depth cost nothing to
hold and are reproducible across workers.

Models
    homogeneous     one label per level, i.i.d. across levels
    recursive       one label per node, i.i.d. across nodes
    v_variable(V)   V buffers per level; each node reads a buffer, child
                    buffers drawn uniformly; at most V subtree types per level
    neck_block      i.i.d. blocks drawn from weighted templates; each block
                    fixes a per-level label distribution and the block
                    boundaries are necks by construction
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from math import exp, inf, log
from typing import Iterator, Sequence

import numpy as np

from . import streams
from .errors import ConfigError, HorizonError, ParameterError, PreconditionError, UnsupportedModelError
from .rifs import HOMOGENEOUS, RECURSIVE, RIFSFamily

V_VARIABLE = "v_variable"
NECK_BLOCK = "neck_block"
_KINDS = (HOMOGENEOUS, RECURSIVE, V_VARIABLE, NECK_BLOCK)

NECK_SEARCH_HORIZON = 10**6

Address = tuple[int, ...]


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
    kind: str
    v: int = 0
    templates: tuple[BlockTemplate, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}")


@dataclass(frozen=True)
class Coding:
    """A composition word of (system index, map index) letters."""

    letters: tuple[tuple[int, int], ...]
    log_ratio: float

    @property
    def ratio(self) -> float:
        return exp(self.log_ratio)

    def __len__(self) -> int:
        return len(self.letters)


EMPTY_CODING = Coding(letters=(), log_ratio=0.0)


@dataclass(frozen=True)
class NeckList:
    """Strictly increasing neck levels, relative to the realization root."""

    necks: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.necks, self.necks[1:])):
            raise ParameterError("neck levels must be strictly increasing")


@dataclass(frozen=True, eq=False)
class Realization:
    """A sampled labelling, readable at any node address.

    ``offset`` re-roots the tree at the all-ones node of that depth; it is
    how the neck shift is realized without copying anything.
    """

    family: RIFSFamily
    model: ModelSpec
    seed: int
    offset: int = 0

    def __post_init__(self) -> None:
        seed = int(self.seed) & streams.MASK64
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "_cumw", list(self.family.cum_weights))
        kind = self.model.kind
        if kind == HOMOGENEOUS:
            object.__setattr__(self, "_h", streams.fold(seed, streams.TAG_HOMOGENEOUS))
        elif kind == RECURSIVE:
            object.__setattr__(self, "_h", streams.fold(seed, streams.TAG_RECURSIVE))
        elif kind == V_VARIABLE:
            if self.model.v < 1:
                raise ParameterError("v_variable needs V >= 1")
            object.__setattr__(self, "_hl", streams.fold(seed, streams.TAG_VV_LABEL))
            object.__setattr__(self, "_ha", streams.fold(seed, streams.TAG_VV_ASSIGN))
        elif kind == NECK_BLOCK:
            if not self.model.templates:
                raise ConfigError("neck_block model needs at least one template")
            tw = [t.weight for t in self.model.templates]
            if any(w < 0 for w in tw) or sum(tw) <= 0:
                raise ConfigError("template weights must be non-negative with positive sum")
            cum = list(np.cumsum(np.asarray(tw, dtype=float) / sum(tw)))
            cum[-1] = 1.0
            object.__setattr__(self, "_tcum", cum)
            for t in self.model.templates:
                if t.length < 1:
                    raise ConfigError("block templates need at least one level")
                for dist in t.levels:
                    if len(dist) != self.family.nsystems:
                        raise ConfigError(
                            "template level distribution length must match the number of systems"
                        )
                    if any(p < 0 for p in dist) or abs(sum(dist) - 1.0) > 1e-12:
                        raise ConfigError("template level distributions must sum to 1")
            object.__setattr__(self, "_hb", streams.fold(seed, streams.TAG_BLOCK))
            object.__setattr__(self, "_hbl", streams.fold(seed, streams.TAG_BLOCK_LEVEL))
            object.__setattr__(self, "_block_bounds", [0])
        object.__setattr__(self, "_root_state", self._walk_to_offset())

    # ---- per-model label machinery -------------------------------------

    def _pick(self, u: float) -> int:
        return bisect_right(self._cumw, u)

    def _sys_at_level(self, level: int) -> int:
        """System index for level-driven models (homogeneous, neck_block)."""
        kind = self.model.kind
        if kind == HOMOGENEOUS:
            return self._pick(streams.u01(streams.fold(self._h, level)))
        if kind == NECK_BLOCK:
            b, off = self._block_of(level)
            tpl = self.model.templates[self._template_of(b)]
            u = streams.u01(streams.fold(streams.fold(self._hbl, b), off))
            dist = tpl.levels[off]
            acc = 0.0
            for i, p in enumerate(dist):
                acc += p
                if u < acc:
                    return i
            return len(dist) - 1
        raise UnsupportedModelError(f"{kind} labels are not level-driven")

    def _template_of(self, block: int) -> int:
        return bisect_right(self._tcum, streams.u01(streams.fold(self._hb, block)))

    def _block_of(self, level: int) -> tuple[int, int]:
        """(block index, offset inside block) for an absolute tree level."""
        bounds = self._block_bounds
        while bounds[-1] <= level:
            b = len(bounds) - 1
            bounds.append(bounds[-1] + self.model.templates[self._template_of(b)].length)
        b = bisect_right(bounds, level) - 1
        return b, level - bounds[b]

    def _vv_label(self, level: int, buf: int) -> int:
        return self._pick(streams.u01(streams.fold(streams.fold(self._hl, level), buf)))

    def _vv_assign(self, level: int, buf: int, j: int) -> int:
        u = streams.u01(streams.fold(streams.fold(streams.fold(self._ha, level), buf), j))
        return 1 + int(u * self.model.v)

    # ---- generic walker state -------------------------------------------
    # state = (absolute level, aux); aux is a buffer for v_variable, a path
    # hash for recursive, and None for level-driven models.

    def _state0_unshifted(self):
        if self.model.kind == V_VARIABLE:
            return (0, 1)
        if self.model.kind == RECURSIVE:
            return (0, self._h)
        return (0, None)

    def _walk_to_offset(self):
        state = self._state0_unshifted()
        for _ in range(self.offset):
            state = self._child_state(state, 1)
        return state

    def _child_state(self, state, j: int):
        level, aux = state
        kind = self.model.kind
        if kind == V_VARIABLE:
            return (level + 1, self._vv_assign(level, aux, j))
        if kind == RECURSIVE:
            return (level + 1, streams.fold(aux, j))
        return (level + 1, None)

    def _sys_of_state(self, state) -> int:
        level, aux = state
        kind = self.model.kind
        if kind == V_VARIABLE:
            return self._vv_label(level, aux)
        if kind == RECURSIVE:
            return self._pick(streams.u01(streams.fold(aux, streams.TAG_LABEL_DRAW)))
        return self._sys_at_level(level)

    # ---- public API ------------------------------------------------------

    def label_of(self, address: Sequence[int]) -> int:
        """System index labelling the node at ``address`` (root is ())."""
        n = self.family.n_max
        state = self._root_state
        for v in address:
            if not 1 <= v <= n:
                raise ParameterError(f"address entries must lie in [1, {n}], got {v}")
            state = self._child_state(state, v)
        return self._sys_of_state(state)

    def system_of(self, address: Sequence[int]):
        return self.family.systems[self.label_of(address)]

    def level_systems(self, depth: int) -> np.ndarray:
        """System indices for levels 0..depth-1 (level-driven models only)."""
        kind = self.model.kind
        if kind == HOMOGENEOUS:
            counters = np.arange(self.offset, self.offset + depth, dtype=np.uint64)
            u = streams.u01_array(streams.fold_array(self._h, counters))
            cw = np.asarray(self._cumw)
            return np.searchsorted(cw, u, side="right").astype(np.int64)
        if kind == NECK_BLOCK:
            return np.array(
                [self._sys_at_level(self.offset + k) for k in range(depth)], dtype=np.int64
            )
        raise UnsupportedModelError(f"{kind} model has no per-level label sequence")

    def is_level_driven(self) -> bool:
        return self.model.kind in (HOMOGENEOUS, NECK_BLOCK)


def sample(model: ModelSpec, seed: int, family: RIFSFamily) -> Realization:
    """Draw a realization of ``model`` over ``family`` from a 64-bit seed."""
    return Realization(family=family, model=model, seed=seed)


# ---- tree walks -------------------------------------------------------------


def walk(
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


def coding_level(r: Realization, k: int) -> Iterator[Coding]:
    """Stream all live codings at level ``k`` in depth-first address order."""
    if k < 0:
        raise ParameterError("level must be >= 0")
    for depth, log_ratio, letters in walk(r, max_depth=k):
        if depth == k:
            yield Coding(tuple(letters), log_ratio)


def stopping_set(r: Realization, epsilon: float) -> Iterator[Coding]:
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
    for _, log_ratio, letters in walk(r, log_stop=log_eps):
        if log_ratio <= log_eps:
            yield Coding(tuple(letters), log_ratio)


# ---- necks -----------------------------------------------------------------


def _vv_reachable(r: Realization, up_to_level: int) -> Iterator[tuple[int, frozenset]]:
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


def neck_list(r: Realization, up_to_level: int) -> NeckList:
    """All neck levels <= up_to_level, relative to the realization root."""
    if up_to_level < 0:
        raise ParameterError("up_to_level must be >= 0")
    kind = r.model.kind
    if kind == HOMOGENEOUS:
        return NeckList(tuple(range(1, up_to_level + 1)))
    if kind == V_VARIABLE:
        necks = []
        dead = False
        for rel, reach in _vv_reachable(r, up_to_level):
            if dead or len(reach) <= 1:
                necks.append(rel)
            if not reach:
                dead = True  # extinct tree: the neck condition holds vacuously
        return NeckList(tuple(necks))
    if kind == NECK_BLOCK:
        necks = []
        b, off = r._block_of(r.offset)
        level_end = r.offset - off + r.model.templates[r._template_of(b)].length
        while True:
            rel = level_end - r.offset
            if rel > up_to_level:
                break
            if rel >= 1:
                necks.append(rel)
            b += 1
            level_end += r.model.templates[r._template_of(b)].length
        return NeckList(tuple(necks))
    raise UnsupportedModelError("recursive trees have no necks (probability zero)")


def first_neck(r: Realization, horizon: int = NECK_SEARCH_HORIZON) -> int:
    """Smallest neck level, searching up to ``horizon`` levels."""
    kind = r.model.kind
    if kind == HOMOGENEOUS:
        return 1
    if kind == NECK_BLOCK:
        b, off = r._block_of(r.offset)
        return r.model.templates[r._template_of(b)].length - off
    if kind == V_VARIABLE:
        for rel, reach in _vv_reachable(r, horizon):
            if len(reach) <= 1:
                return rel
        raise HorizonError(f"no neck found within {horizon} levels")
    raise UnsupportedModelError("recursive trees have no necks (probability zero)")


def neck_shift(r: Realization, horizon: int = NECK_SEARCH_HORIZON) -> Realization:
    """Re-root the realization at the all-ones node of the first neck level."""
    n1 = first_neck(r, horizon)
    return replace(r, offset=r.offset + n1)
