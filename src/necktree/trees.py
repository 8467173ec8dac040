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
from typing import Iterator, Optional, Sequence

import numpy as np

from . import streams
from .errors import ConfigError, HorizonError, ParameterError, PreconditionError, UnsupportedModelError
from .rifs import HOMOGENEOUS, RECURSIVE, RIFSFamily

V_VARIABLE = "v_variable"
NECK_BLOCK = "neck_block"
_KINDS = (HOMOGENEOUS, RECURSIVE, V_VARIABLE, NECK_BLOCK)

NECK_SEARCH_HORIZON = 10**6
# Entries of one chunk of V-variable tables (levels x (V + 1) buffers x maps).
VV_TABLE_ENTRIES = 2**12
# Nodes of one chunk of a tree level handed out by ``levels``.
FRONTIER_NODES = 2**14

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
        object.__setattr__(self, "_cumw_array", np.asarray(self._cumw))
        kind = self.model.kind
        if kind == HOMOGENEOUS:
            object.__setattr__(self, "_h", streams.fold(seed, streams.TAG_HOMOGENEOUS))
        elif kind == RECURSIVE:
            object.__setattr__(self, "_h", streams.fold(seed, streams.TAG_RECURSIVE))
            # counters of one node's draws in ``expand``: its label, then children 1..n_max
            counters = np.arange(self.family.n_max + 1, dtype=np.uint64)
            counters[0] = streams.TAG_LABEL_DRAW
            object.__setattr__(self, "_node_counters", counters)
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

    def vv_children(self, level0: int, n: int) -> np.ndarray:
        """Child buffers of absolute levels ``level0 .. level0 + n - 1`` (v_variable).

        Returns an int32 table ``[k, b, j - 1]``: the buffer that map j of the
        node reading buffer b draws at level ``level0 + k``, the same value as
        ``_vv_assign``.  It is 0 where that map does not exist, because buffer
        b's system (``_vv_label``) has fewer than j maps, and on row b = 0,
        which is no buffer.  Labels and assignments of the whole table are
        drawn in one vectorized pass; draws do not depend on visit order.
        """
        v = self.model.v
        nmaps = np.array([s.nmaps for s in self.family.systems])
        levels = np.arange(level0, level0 + n, dtype=np.uint64)[:, None]
        bufs = np.arange(1, v + 1, dtype=np.uint64)
        js = np.arange(1, self.family.n_max + 1)
        u = streams.u01_array(streams.fold_array(streams.fold_array(self._hl, levels), bufs))
        labels = self._cumw_array.searchsorted(u, side="right")
        states = streams.fold_array(streams.fold_array(self._ha, levels), bufs)[:, :, None]
        u = streams.u01_array(streams.fold_array(states, js))
        table = np.zeros((n, v + 1, js.size), dtype=np.int32)
        table[:, 1:] = np.where(js <= nmaps[labels][:, :, None], 1 + (u * v).astype(np.int32), 0)
        return table

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

    def expand(self, level: int, aux: Optional[np.ndarray], n: int):
        """Labels of n nodes at absolute ``level`` and the states of their children.

        The vectorized ``_sys_of_state`` and ``_child_state``: ``systems[i]``
        labels the node in state ``(level, aux[i])``, and ``children[i, j - 1]``
        is the state of its child j, for every j up to ``n_max`` whether or not
        the node's system has map j.  ``aux`` and ``children`` are None for
        level-driven models.  Returns ``(systems, children)``.
        """
        kind = self.model.kind
        if kind == RECURSIVE:
            states = streams.fold_array(aux[:, None], self._node_counters)
            u, children = streams.u01_array(states[:, 0]), states[:, 1:]
        elif kind == V_VARIABLE:
            u = streams.u01_array(streams.fold_array(streams.fold(self._hl, level), aux))
            children = self.vv_children(level, 1)[0][aux]
        else:
            return np.full(n, self._sys_at_level(level)), None
        return self._cumw_array.searchsorted(u, side="right"), children

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

    def level_systems(self, depth: int) -> np.ndarray:
        """System indices for levels 0..depth-1 (level-driven models only)."""
        kind = self.model.kind
        if kind == HOMOGENEOUS:
            counters = np.arange(self.offset, self.offset + depth, dtype=np.uint64)
            u = streams.u01_array(streams.fold_array(self._h, counters))
            # entries of the cumulative weights <= u, as searchsorted(side="right")
            # counts them: they never decrease and the last one, 1.0, exceeds u
            out = np.zeros(depth, dtype=np.int64)
            for c in self._cumw_array[:-1]:
                out += u >= c
            return out
        if kind == NECK_BLOCK:
            return np.array(
                [self._sys_at_level(self.offset + k) for k in range(depth)], dtype=np.int64
            )
        raise UnsupportedModelError(f"{kind} model has no per-level label sequence")


def sample(model: ModelSpec, seed: int, family: RIFSFamily) -> Realization:
    """Draw a realization of ``model`` over ``family`` from a 64-bit seed."""
    return Realization(family=family, model=model, seed=seed)


# ---- tree walks -------------------------------------------------------------


@dataclass(frozen=True, eq=False, slots=True)
class Chunk:
    """Up to ``FRONTIER_NODES`` nodes of one tree level, in address order.

    Node i has log ratio ``log_ratio[i]`` and walker state ``aux[i]`` (None
    for level-driven models).  Its last letter is ``(sys[i], j[i])``: it is
    child ``j[i]`` of node ``parent[i]`` of the chunk ``up``, whose system is
    ``sys[i]``.  The root chunk (depth 0) has no letters and no ``up``.
    """

    depth: int
    log_ratio: np.ndarray
    sys: np.ndarray
    j: np.ndarray
    parent: np.ndarray
    aux: Optional[np.ndarray]
    up: Optional["Chunk"]

    def __len__(self) -> int:
        return self.log_ratio.size

    def codings(self, index: np.ndarray) -> list[Coding]:
        """Codings of the nodes ``index``, in the order given, read up the ``up`` links."""
        log_ratio = self.log_ratio[index].tolist()
        sys = np.empty((index.size, self.depth), dtype=np.int64)
        j = np.empty_like(sys)
        chunk = self
        for d in range(self.depth - 1, -1, -1):
            sys[:, d] = chunk.sys[index]
            j[:, d] = chunk.j[index]
            index = chunk.parent[index]
            chunk = chunk.up
        return [Coding(tuple(zip(s, jj)), lr) for s, jj, lr in zip(sys.tolist(), j.tolist(), log_ratio)]


def levels(r: Realization, max_depth: float = inf, log_stop: float = -inf) -> Iterator[Chunk]:
    """Walk the tree a level at a time, in chunks of at most ``FRONTIER_NODES`` nodes.

    A node is expanded only while ``depth < max_depth`` and ``log_ratio >
    log_stop``; the children of a chunk's expanded nodes form the next level's
    chunks.  Chunks come depth-first over chunks from an explicit stack, so
    memory stays O(depth x chunk), and the chunks of each depth come in
    address order.  Labels and child states of a whole chunk are drawn in one
    vectorized pass; counter-based draws do not depend on visit order.
    """
    systems = r.family.systems
    nmaps = np.array([s.nmaps for s in systems])
    slots = np.arange(max(1, r.family.n_max))
    log_c = np.zeros((len(systems), slots.size))
    for i, sysm in enumerate(systems):
        log_c[i, : sysm.nmaps] = [log(m.ratio) for m in sysm.maps]
    level0, aux0 = r._root_state
    none = np.zeros(0, dtype=np.int64)
    aux = None if aux0 is None else np.array([aux0], dtype=np.uint64)
    stack = [Chunk(0, np.zeros(1), none, none, none, aux, None)]
    while stack:
        chunk = stack.pop()
        yield chunk
        if chunk.depth >= max_depth:
            continue
        live = (chunk.log_ratio > log_stop).nonzero()[0]
        aux = None if chunk.aux is None else chunk.aux[live]
        sys, children = r.expand(level0 + chunk.depth, aux, live.size)
        node, k = (slots < nmaps[sys][:, None]).nonzero()  # children in address order
        if not node.size:
            continue
        parent, sys, j = live[node], sys[node], k + 1
        log_ratio = chunk.log_ratio[parent] + log_c[sys, k]
        aux = None if children is None else children[node, k]
        size = FRONTIER_NODES
        if node.size <= size:  # whole arrays: views would double the objects a level keeps
            stack.append(Chunk(chunk.depth + 1, log_ratio, sys, j, parent, aux, chunk))
            continue
        for s in reversed(range(0, node.size, size)):
            part = slice(s, s + size)
            stack.append(Chunk(chunk.depth + 1, log_ratio[part], sys[part], j[part], parent[part],
                               None if aux is None else aux[part], chunk))


def coding_level(r: Realization, k: int) -> Iterator[Coding]:
    """Stream all live codings at level ``k`` in address order."""
    if k < 0:
        raise ParameterError("level must be >= 0")
    for chunk in levels(r, max_depth=k):
        if chunk.depth == k:
            yield from chunk.codings(np.arange(len(chunk)))


def _log_epsilon(r: Realization, epsilon: float) -> float:
    if not 0.0 < epsilon < 1.0:
        raise ParameterError("epsilon must lie in (0, 1)")
    if r.family.c_max >= 1.0:
        raise PreconditionError("stopping sets need all contraction ratios < 1")
    return log(epsilon)


def stopping_set(r: Realization, epsilon: float) -> Iterator[Coding]:
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
            found.extend(chunk.codings(stopped))
    # letters order addresses: siblings share their parent's system
    found.sort(key=lambda c: c.letters)
    yield from found


def stopping_counts(r: Realization, scales: Sequence[float]) -> np.ndarray:
    """Stopping-set sizes per scale, the exact cover counts of the construction.

    Entry i equals the length of ``stopping_set(r, scales[i])``.  One walk to
    the smallest scale counts every node for each scale epsilon with
    ``log_ratio <= log epsilon < parent log_ratio``.
    """
    log_eps = np.array([_log_epsilon(r, e) for e in scales], dtype=float)
    if not log_eps.size:
        return np.zeros(0, dtype=np.int64)
    grid = np.sort(log_eps)  # not np.unique, whose first call imports numpy.ma (1 MiB)
    # a node counts for grid indices [first >= log_ratio, first >= parent log_ratio)
    delta = np.zeros(grid.size + 1, dtype=np.int64)
    for chunk in levels(r, log_stop=grid[0]):
        if chunk.up is None:
            continue
        first = np.searchsorted(grid, chunk.log_ratio)
        past = np.searchsorted(grid, chunk.up.log_ratio[chunk.parent])
        delta += np.bincount(first, minlength=delta.size) - np.bincount(past, minlength=delta.size)
    return np.cumsum(delta)[np.searchsorted(grid, log_eps)]


# ---- necks -----------------------------------------------------------------


def vv_log_counts(r: Realization, n: int) -> Iterator[np.ndarray]:
    """Per-buffer log counts of the codings at levels 1..n below the root, in chunks.

    Each chunk is a ``[k, V + 1]`` array over k consecutive levels: entry
    ``[i, b]`` is the log of the number of codings at that level whose node
    reads buffer b, -inf where none does (so b is reachable exactly when it is
    finite), and -inf in column 0, which is no buffer.  A level adds each
    parent's log count into its children's buffers with one ordered scatter
    over its ``vv_children`` table in (parent buffer, map) order, the order of
    a scalar loop over the tree's edges, so results do not depend on the
    chunking.  A chunk's table holds at most ``VV_TABLE_ENTRIES`` entries (one
    level if a level alone holds more), so a long search holds one small table.
    """
    v, n_max = r.model.v, r.family.n_max
    level0, buf0 = r._root_state
    log_counts = np.full(v + 1, -np.inf)
    log_counts[buf0] = 0.0
    parent = np.repeat(np.arange(v + 1), n_max)
    step = max(1, VV_TABLE_ENTRIES // ((v + 1) * n_max))
    for start in range(0, n, step):
        table = r.vv_children(level0 + start, min(step, n - start))
        counts = np.full((len(table), v + 1), -np.inf)
        for row, children in zip(counts, table):
            np.logaddexp.at(row, children.ravel(), log_counts[parent])
            row[0] = -np.inf  # where the maps that do not exist point
            log_counts = row
        yield counts


def _necks(r: Realization, horizon: int) -> Iterator[int]:
    """Neck levels <= horizon, relative to the realization root, in increasing order.

    A v_variable level is a neck when the root reaches at most one of its
    buffers; an extinct tree reaches none, so the condition holds vacuously.
    """
    kind = r.model.kind
    if kind == HOMOGENEOUS:
        yield from range(1, horizon + 1)
    elif kind == V_VARIABLE:
        start = 1
        for counts in vv_log_counts(r, horizon):
            reached = np.count_nonzero(counts > -np.inf, axis=1)
            yield from (start + (reached <= 1).nonzero()[0]).tolist()
            start += len(counts)
    elif kind == NECK_BLOCK:
        b, off = r._block_of(r.offset)
        rel = -off
        while True:
            rel += r.model.templates[r._template_of(b)].length
            if rel > horizon:
                return
            yield rel
            b += 1
    else:
        raise UnsupportedModelError("recursive trees have no necks (probability zero)")


def neck_list(r: Realization, up_to_level: int) -> NeckList:
    """All neck levels <= up_to_level, relative to the realization root.

    The v_variable search holds one ``vv_log_counts`` chunk at a time.
    """
    if up_to_level < 0:
        raise ParameterError("up_to_level must be >= 0")
    return NeckList(tuple(_necks(r, up_to_level)))


def first_neck(r: Realization, horizon: int = NECK_SEARCH_HORIZON) -> int:
    """Smallest neck level; raises ``HorizonError`` when none lies within ``horizon`` levels."""
    for rel in _necks(r, horizon):
        return rel
    raise HorizonError(f"no neck found within {horizon} levels")


def neck_shift(r: Realization, horizon: int = NECK_SEARCH_HORIZON) -> Realization:
    """Re-root the realization at the all-ones node of the first neck level."""
    n1 = first_neck(r, horizon)
    return replace(r, offset=r.offset + n1)
