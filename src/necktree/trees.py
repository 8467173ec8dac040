"""Random code-trees: labelled N-ary trees, codings, stopping sets, necks.

A realization assigns an IFS label to every node of the full tree.  Labels
are never stored; they are recomputed on demand from (model, seed, address)
through counter-based streams, so trees of unbounded depth cost nothing to
hold and are reproducible across workers.  A realization holds only its seed
state: its label tables are built once, on its family and its ``ModelSpec``.

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
from functools import lru_cache
from itertools import islice
from math import exp, inf, log
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import streams
from .errors import HorizonError, ParameterError, PreconditionError, ResourceError, UnsupportedModelError
from .rifs import HOMOGENEOUS, NECK_BLOCK, RECURSIVE, V_VARIABLE, RIFSFamily, _require_integer
from .rifs import BlockTemplate, ModelSpec  # noqa: F401  (re-exported)

NECK_SEARCH_HORIZON = 10**6
# Nodes a tree walk may visit before it raises ``ResourceError``.
DEFAULT_NODE_BUDGET = 10**8
# Log counts (paths x levels) of a ``vv_level_counts`` batch, and entries (paths x levels x (V + 1) x maps)
# of one ``vv_log_counts`` table chunk, unless one path or one level holds more.
VV_BATCH_ENTRIES = 2**17
# Nodes of one chunk of a tree level handed out by ``levels``.
FRONTIER_NODES = 2**14
# ``levels`` expands a chunk of at most this many nodes on Python ints and floats, not numpy arrays.
SCALAR_NODES = 4

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
    how the neck shift is realized without copying anything.  It holds its
    stream hashes and ``_root_state``, the walker state of that node: the
    level ``offset`` alone for level-driven models, and for recursive and
    v_variable ones the state reached down the all-ones path.  The label and
    map tables are ``family``'s, the neck_block block tables ``model``'s.
    """

    family: RIFSFamily
    model: ModelSpec
    seed: int
    offset: int = 0

    def __post_init__(self) -> None:
        if _require_integer("offset", self.offset) < 0:
            raise ParameterError("offset must be >= 0")
        seed = int(self.seed) & streams.MASK64
        object.__setattr__(self, "seed", seed)
        kind = self.model.kind
        if kind == HOMOGENEOUS:
            object.__setattr__(self, "_h", streams.fold(seed, streams.TAG_HOMOGENEOUS))
        elif kind == RECURSIVE:
            object.__setattr__(self, "_h", streams.fold(seed, streams.TAG_RECURSIVE))
        elif kind == V_VARIABLE:
            object.__setattr__(self, "_hl", streams.fold(seed, streams.TAG_VV_LABEL))
            object.__setattr__(self, "_ha", streams.fold(seed, streams.TAG_VV_ASSIGN))
        elif kind == NECK_BLOCK:
            self.model.check_levels(self.family)
            object.__setattr__(self, "_hb", streams.fold(seed, streams.TAG_BLOCK))
            object.__setattr__(self, "_hbl", streams.fold(seed, streams.TAG_BLOCK_LEVEL))
        state = (self.offset, None)  # a level-driven step only adds 1 to the level
        if kind in (RECURSIVE, V_VARIABLE):
            state = (0, self._h if kind == RECURSIVE else 1)
            for _ in range(self.offset):
                state = self._child_state(state, 1)
        object.__setattr__(self, "_root_state", state)

    # ---- per-model label machinery -------------------------------------

    def _pick(self, x: int) -> int:
        """The label of raw draw ``x``."""
        return bisect_right(self.family.label_thresholds, x >> 11)

    def _blocks(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Template index and first absolute level of neck_block blocks 0..n-1."""
        x = streams.fold_array(self._hb, np.arange(n)) >> 11
        template = self.model.template_thresholds.searchsorted(x, side="right")
        lengths = self.model.lengths[template]
        return template, np.cumsum(lengths) - lengths

    def _block_labels(self, levels: np.ndarray) -> np.ndarray:
        """System indices of absolute neck_block ``levels``, from the blocks up to the deepest one."""
        model = self.model
        template, first = self._blocks(int(levels.max(initial=0)) // int(model.lengths.min()) + 1)
        block = first.searchsorted(levels, side="right") - 1
        off = levels - first[block]
        x = streams.fold_array(streams.fold_array(self._hbl, block), off)
        rows = model.level_thresholds[model.first_rows[template[block]] + off]
        return (x[:, None] >> 11 >= rows).sum(axis=1)

    def _vv_label(self, level: int, buf: int) -> int:
        return self._pick(streams.fold(streams.fold(self._hl, level), buf))

    def _vv_assign(self, level: int, buf: int, j: int) -> int:
        u = streams.u01(streams.fold(streams.fold(streams.fold(self._ha, level), buf), j))
        return 1 + int(u * self.model.v)

    # ---- generic walker state -------------------------------------------
    # state = (absolute level, aux); aux is a buffer for v_variable, a path
    # hash for recursive, and None for level-driven models.

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
            return self._pick(streams.fold(aux, streams.TAG_LABEL_DRAW))
        if kind == HOMOGENEOUS:
            return self._pick(streams.fold(self._h, level))
        return int(self._block_labels(np.array([level]))[0])

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
        return next(level_labels([self], depth))


def sample(model: ModelSpec, seed: int, family: RIFSFamily) -> Realization:
    """Draw a realization of ``model`` over ``family`` from a 64-bit seed."""
    return Realization(family=family, model=model, seed=seed)


def level_labels(rs: Iterable[Realization], depth: int) -> Iterator[np.ndarray]:
    """System indices of levels 0..depth-1 of each realization in turn; a yielded array may be overwritten by the next.

    Homogeneous paths reuse buffers and the counter spacing of levels 0..depth-1; offset o moves the state by o GOLDEN.
    neck_block paths read ``_block_labels``; other models raise ``UnsupportedModelError``.
    """
    if isinstance(depth, bool) or not isinstance(depth, (int, np.integer)) or depth < 0:
        raise ParameterError(f"depth must be an integer >= 0, got {depth!r}")
    step = streams.spacing(np.arange(depth))
    x, tmp, out = np.empty_like(step), np.empty_like(step), np.empty(depth, dtype=np.int64)
    family, bounds = None, []
    for r in rs:
        kind = r.model.kind
        if kind == NECK_BLOCK:
            yield r._block_labels(np.arange(r.offset, r.offset + depth))
            continue
        if kind != HOMOGENEOUS:
            raise UnsupportedModelError(f"{kind} model has no per-level label sequence")
        if r.family is not family:
            # The label counts the thresholds t <= x >> 11 of the raw draw x, as the recursive draws'
            # searchsorted(side="right") does, and x >> 11 >= t exactly when x >= t << 11.  Thresholds of 2^53
            # (the last, and those of trailing zero weights) are never reached and are dropped: 2^53 << 11 = 2^64
            # is past uint64, in which it would wrap to 0.
            family = r.family
            bounds = [int(t) << 11 for t in family.label_thresholds[:-1] if t < 2**53]
        np.add(step, np.uint64((r._h + r.offset * streams.GOLDEN) & streams.MASK64), out=x)
        draws = streams.mix_array(x, tmp)
        if bounds:
            np.greater_equal(draws, bounds[0], out=out, casting="unsafe")
        else:
            out.fill(0)
        for b in bounds[1:]:
            out += draws >= b
        yield out


# ---- tree walks -------------------------------------------------------------


def expander(r: Realization):
    """The ``expand(depth, aux, n)`` of one walk: labels of n nodes ``depth`` below the root and their child states.

    The vectorized ``_sys_of_state`` and ``_child_state``: ``children[i, j - 1]`` is the state of child j of node i, for
    every j up to ``n_max``.  ``aux`` and ``children`` are None for level-driven models, whose labels come from a
    ``level_labels`` window redrawn at twice the depth past its end: a walk to depth D draws O(D) labels in all.
    ``expand.node(depth, a)`` is the one-node form on Python ints: the label of the node of state ``a`` and its
    children's states (None if level-driven), from the same window and tables listed once per walk.
    """
    kind, level0 = r.model.kind, r._root_state[0]
    counters = np.arange(r.family.n_max + 1, dtype=np.uint64)  # a recursive node's draws: its label, then children
    counters[0] = streams.TAG_LABEL_DRAW
    thresholds, nmaps = r.family.label_thresholds.tolist(), r.family.map_counts.tolist()
    spacing = streams.spacing(counters).tolist()  # fold(a, counters[i]) is mix64(a + spacing[i])
    window = np.zeros(0, dtype=np.int64)

    def expand(depth: int, aux: Optional[np.ndarray], n: int):
        if kind == RECURSIVE:
            states = streams.fold_array(aux[:, None], counters)
            return r.family.label_thresholds.searchsorted(states[:, 0] >> 11, side="right"), states[:, 1:]
        if kind == V_VARIABLE:
            labels, table = _vv_children([r], np.array([level0 + depth], dtype=np.uint64), 1)
            return labels[0, 0, aux - 1], table[0, 0, aux].astype(np.uint64)
        return np.full(n, node(depth, None)[0]), None

    def node(depth: int, a: Optional[int]):
        nonlocal window
        if kind == RECURSIVE:
            sys = bisect_right(thresholds, streams.mix64(a + spacing[0]) >> 11)
            return sys, [streams.mix64(a + s) for s in spacing[1 : nmaps[sys] + 1]]
        if kind == V_VARIABLE:
            sys = r._vv_label(level0 + depth, a)
            return sys, [r._vv_assign(level0 + depth, a, j) for j in range(1, nmaps[sys] + 1)]
        if depth >= window.size:
            window = next(level_labels([r], 2 * depth + 32))
        return int(window[depth]), None
    expand.node = node
    return expand


@dataclass(eq=False, slots=True)
class Chunk:
    """Up to ``FRONTIER_NODES`` nodes of one tree level, in address order.

    Node i has log ratio ``log_ratio[i]`` and walker state ``aux[i]`` (None
    for level-driven models).  Its last letter is ``(sys[i], j[i])``: it is
    child ``j[i]`` of node ``parent[i]`` of the chunk ``up``, whose system is
    ``sys[i]``.  The root chunk (depth 0) has no letters and no ``up``.
    A chunk and its arrays are read-only by contract (small index arrays are shared); frozen would cost 1.6 us a level.
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

    def letters(self, index: np.ndarray) -> np.ndarray:
        """Row i: the letters ``(sys, j)`` of the coding of node ``index[i]``, read up the ``up`` links."""
        out = np.empty((index.size, self.depth, 2), dtype=np.intp)
        chunk = self
        for d in range(self.depth - 1, -1, -1):
            out[:, d, 0], out[:, d, 1] = chunk.sys[index], chunk.j[index]
            index = chunk.parent[index]
            chunk = chunk.up
        return out


@lru_cache(maxsize=4096)
def _intp(values: tuple[int, ...]) -> np.ndarray:
    """A shared read-only intp array of ``values``: the scalar step's index arrays repeat from level to level."""
    out = np.array(values, dtype=np.intp)
    out.flags.writeable = False
    return out


def levels(
    r: Realization, max_depth: float = inf, log_stop: float = -inf, node_budget: float = inf
) -> Iterator[Chunk]:
    """Walk the tree a level at a time, in chunks of at most ``FRONTIER_NODES`` nodes.

    A node is expanded only while ``depth < max_depth`` and ``log_ratio >
    log_stop``; the children of a chunk's expanded nodes form the next level's
    chunks.  Chunks come depth-first over chunks from an explicit stack, so
    memory stays O(depth x chunk), and the chunks of each depth come in
    address order.  A chunk's labels and child states come from one
    vectorized ``expander`` pass, or from ``expand.node`` on Python ints and
    floats in a chunk of at most ``SCALAR_NODES`` nodes, where numpy's
    per-call cost, paid at every level of a deep narrow tree, would dominate.
    Draws are counter-based, so visit order does not matter.  The walk raises
    ``ResourceError`` instead of handing out a chunk past ``node_budget`` nodes.
    """
    nmaps, log_c = r.family.map_counts, r.family.log_ratios
    maps_of = [list(enumerate(row[:n], 1)) for row, n in zip(log_c.tolist(), nmaps.tolist())]  # (j, log c_j) by system
    slots = np.arange(r.family.n_max)
    expand, aux0 = expander(r), r._root_state[1]
    none = np.zeros(0, dtype=np.int64)
    aux = None if aux0 is None else np.array([aux0], dtype=np.uint64)
    stack = [Chunk(0, np.zeros(1), none, none, none, aux, None)]
    visited = 0
    while stack:
        chunk = stack.pop()
        visited += len(chunk)
        if visited > node_budget:
            raise ResourceError(f"node budget {node_budget} exceeded while streaming level {chunk.depth}")
        yield chunk
        if chunk.depth >= max_depth:
            continue
        if len(chunk) <= SCALAR_NODES:
            rows, aux = [], []
            auxs = [None] * len(chunk) if chunk.aux is None else chunk.aux.tolist()
            for i, (x, a) in enumerate(zip(chunk.log_ratio.tolist(), auxs)):
                if x > log_stop:
                    si, kids = expand.node(chunk.depth, a)
                    rows += [(x + c, si, j, i) for j, c in maps_of[si]]
                    aux += kids or ()
            log_ratio, sys, j, parent = zip(*rows) if rows else [()] * 4
            log_ratio, sys, j, parent = np.array(log_ratio), _intp(sys), _intp(j), _intp(parent)
            aux = None if chunk.aux is None else np.array(aux, dtype=np.uint64)
        else:
            live = (chunk.log_ratio > log_stop).nonzero()[0]
            sys, children = expand(chunk.depth, None if chunk.aux is None else chunk.aux[live], live.size)
            node, k = (slots < nmaps[sys][:, None]).nonzero()  # children in address order
            parent, sys, j = live[node], sys[node], k + 1
            log_ratio = chunk.log_ratio[parent] + log_c[sys, k]
            aux = None if children is None else children[node, k]
        if not parent.size:
            continue
        size = FRONTIER_NODES
        if parent.size <= size:  # whole arrays: views would double the objects a level keeps
            stack.append(Chunk(chunk.depth + 1, log_ratio, sys, j, parent, aux, chunk))
            continue
        for s in reversed(range(0, parent.size, size)):
            part = slice(s, s + size)
            stack.append(Chunk(chunk.depth + 1, log_ratio[part], sys[part], j[part], parent[part],
                               None if aux is None else aux[part], chunk))


def coding_level(r: Realization, k: int) -> Iterator[Coding]:
    """Stream all live codings at level ``k`` in address order, under ``DEFAULT_NODE_BUDGET``."""
    _require_integer("level", k)
    if k < 0:
        raise ParameterError("level must be >= 0")
    for chunk in levels(r, max_depth=k, node_budget=DEFAULT_NODE_BUDGET):
        if chunk.depth == k:
            yield from _codings(chunk.letters(np.arange(len(chunk))), chunk.log_ratio)


def _codings(letters: np.ndarray, log_ratio: np.ndarray) -> Iterator[Coding]:
    """The ``Coding`` of each row of an ``[n, width, 2]`` letter array, cut at the row's first ``j == 0``."""
    length = np.count_nonzero(letters[:, :, 1], axis=1)
    sys, j = letters.transpose(2, 0, 1).tolist()
    for s, jj, k, lr in zip(sys, j, length.tolist(), log_ratio.tolist()):
        yield Coding(tuple(zip(s[:k], jj[:k])), lr)


def _log_epsilon(r: Realization, epsilon: float) -> float:
    if not 0.0 < epsilon < 1.0:
        raise ParameterError("epsilon must lie in (0, 1)")
    if r.family.c_max >= 1.0:
        raise PreconditionError("stopping sets need all contraction ratios < 1")
    return log(epsilon)


def _address_order(j: np.ndarray) -> np.ndarray:
    """The order that puts the nodes of an antichain in address order, from their ``[n, width]`` map indices.

    Row i holds one node's map indices ``j`` and then zeros; maps are
    numbered from 1, so ``j == 0`` marks the end.  No node of an antichain
    lies below another and siblings share their parent's system, so one
    ``np.lexsort`` on the ``j`` columns, the first column as the primary
    key, gives address order.
    """
    return np.lexsort(j[:, ::-1].T)


def _stopping_letters(r: Realization, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """The codings of ``stopping_set`` in address order: ``[n, width, 2]`` letters and log ratios.

    Row i holds one coding's letters ``(sys, j)`` and then zeros, as
    ``_address_order`` reads them.
    """
    log_eps = _log_epsilon(r, epsilon)
    parts = []
    for chunk in levels(r, log_stop=log_eps, node_budget=DEFAULT_NODE_BUDGET):
        stopped = (chunk.log_ratio <= log_eps).nonzero()[0]
        if stopped.size:
            parts.append((chunk.log_ratio[stopped], chunk.letters(stopped)))
    log_ratio = np.concatenate([np.zeros(0), *(lr for lr, _ in parts)])
    width = max((w.shape[1] for _, w in parts), default=1)  # lexsort needs a column
    letters, start = np.zeros((log_ratio.size, width, 2), dtype=np.intp), 0
    for _, w in parts:
        letters[start : start + len(w), : w.shape[1]] = w
        start += len(w)
    order = _address_order(letters[:, :, 1])
    return letters[order], log_ratio[order]


def stopping_set(r: Realization, epsilon: float) -> Iterator[Coding]:
    """Stream the antichain of codings first reaching ratio <= epsilon.

    Every streamed coding has ratio <= epsilon while its parent ratio is
    above epsilon; every infinite live branch passes through exactly one.
    Codings come in address order, which is depth-first order.  A family with
    a map of ratio 1 has branches that never shrink, so it is refused.  The
    walk runs under ``DEFAULT_NODE_BUDGET``.
    """
    yield from _codings(*_stopping_letters(r, epsilon))


def stopping_counts(r: Realization, scales: Sequence[float]) -> np.ndarray:
    """Stopping-set sizes per scale, the exact cover counts of the construction.

    Entry i equals the length of ``stopping_set(r, scales[i])``.  One walk to
    the smallest scale counts every node for each scale epsilon with
    ``log_ratio <= log epsilon < parent log_ratio``, under ``DEFAULT_NODE_BUDGET``.
    """
    log_eps = np.array([_log_epsilon(r, e) for e in scales], dtype=float)
    if not log_eps.size:
        return np.zeros(0, dtype=np.int64)
    grid = np.sort(log_eps)  # not np.unique, whose first call imports numpy.ma (1 MiB)
    # a node counts for grid indices [first >= log_ratio, first >= parent log_ratio)
    delta = np.zeros(grid.size + 1, dtype=np.int64)
    for chunk in levels(r, log_stop=grid[0], node_budget=DEFAULT_NODE_BUDGET):
        if chunk.up is None:
            continue
        first = np.searchsorted(grid, chunk.log_ratio)
        past = np.searchsorted(grid, chunk.up.log_ratio[chunk.parent])
        delta += np.bincount(first, minlength=delta.size) - np.bincount(past, minlength=delta.size)
    return np.cumsum(delta)[np.searchsorted(grid, log_eps)]


# ---- necks -----------------------------------------------------------------


def _vv_level_entries(rs: Sequence[Realization]) -> int:
    """Entries of one level of ``_vv_children``'s table, paths x (V + 1) x n_max, at most ``DEFAULT_NODE_BUDGET``."""
    entries = len(rs) * (rs[0].model.v + 1) * rs[0].family.n_max
    if entries > DEFAULT_NODE_BUDGET:
        raise ResourceError(f"a V-variable level table of {entries} entries exceeds the budget {DEFAULT_NODE_BUDGET}")
    return entries


def _vv_children(rs: Sequence[Realization], level0: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels and child buffers of v_variable paths of one model and family at n levels, drawn in one pass.

    Returns ``(labels, table)``: ``labels[k, p, b - 1]`` is the system of buffer b of path p at level
    ``level0[p] + k`` (``rs[p]._vv_label``), and ``table[k, p, b, j - 1]`` the buffer that map j of its node
    draws (``rs[p]._vv_assign``), or 0 where the system has fewer than j maps and on row b = 0, which is no buffer.
    """
    _vv_level_entries(rs)
    r = rs[0]
    v, js = r.model.v, np.arange(1, r.family.n_max + 1)
    levels = (level0 + np.arange(n, dtype=np.uint64)[:, None])[:, :, None]  # [k, p, 1]
    bufs = np.arange(1, v + 1, dtype=np.uint64)
    hl, ha = np.array([(q._hl, q._ha) for q in rs], dtype=np.uint64)[:, :, None].transpose(1, 0, 2)
    x = streams.fold_array(streams.fold_array(hl, levels), bufs)
    labels = r.family.label_thresholds.searchsorted(x >> 11, side="right")
    states = streams.fold_array(streams.fold_array(ha, levels), bufs)[..., None]
    u = streams.u01_array(streams.fold_array(states, js))
    table = np.zeros((n, len(rs), v + 1, js.size), dtype=np.int32)
    table[:, :, 1:] = np.where(js <= r.family.map_counts[labels][..., None], 1 + (u * v).astype(np.int32), 0)
    return labels, table


def vv_log_counts(rs: Sequence[Realization], n: int) -> Iterator[np.ndarray]:
    """Per-buffer log counts of the codings at levels 1..n below each root, in chunks.

    ``rs`` are v_variable realizations of one model and family, each with its
    own seed and offset.  Each chunk is a ``[k, len(rs), V + 1]`` array over k
    consecutive levels: entry ``[i, p, b]`` is the log of the number of
    codings of path p at that level whose node reads buffer b, -inf where none
    does (so b is reachable exactly when it is finite), and -inf in column 0,
    which is no buffer.  A level adds each parent's log count into its
    children's buffers with one ordered scatter over the ``_vv_children``
    table in (path, parent buffer, map) order: each path sees the order of a
    scalar loop over its tree's edges, so results depend neither on the
    chunking nor on the other paths.  Chunks start at 1/32 of the levels
    whose table holds ``VV_BATCH_ENTRIES`` entries and double up to them (one
    level at least), so a search that stops early draws a small table and a
    long one holds one bounded table.  ``n = 0`` yields nothing.
    """
    if _require_integer("n", n) < 0:
        raise ParameterError("n must be >= 0")
    if not rs:
        raise ParameterError("need at least one realization")
    v, n_max, paths = rs[0].model.v, rs[0].family.n_max, len(rs)
    step = max(1, VV_BATCH_ENTRIES // _vv_level_entries(rs))
    level0 = np.array([r._root_state[0] for r in rs], dtype=np.uint64)
    flat = np.arange(paths * (v + 1)).reshape(paths, v + 1)  # (path, buffer) -> index in a level's row
    log_counts = np.full(flat.size, -np.inf)
    log_counts[flat[:, 0] + [r._root_state[1] for r in rs]] = 0.0
    parents = np.repeat(flat[:, 1:], n_max)  # each edge's parent, in (path, parent buffer, map) order
    start, k = 0, max(1, step >> 5)  # a small first chunk for searches that stop early, doubling to step
    while start < n:
        _, table = _vv_children(rs, level0 + np.uint64(start), min(k, n - start))
        start, k = start + len(table), min(2 * k, step)
        # maps that do not exist point to the path's column 0
        children = (table[:, :, 1:] + flat[:, :1, None]).reshape(len(table), -1)
        counts = np.full((len(table), paths, v + 1), -np.inf)
        for row, edges in zip(counts.reshape(len(table), -1), children):
            np.logaddexp.at(row, edges, log_counts[parents])
            log_counts = row
        counts[:, :, 0] = -np.inf
        yield counts


def vv_level_counts(rs: Iterable[Realization], n: int) -> Iterator[np.ndarray]:
    """Log Z_1..Z_n of each v_variable realization in turn, one ``vv_log_counts`` recursion per batch as it is drawn."""
    if _require_integer("n", n) < 1:
        raise ParameterError("n must be >= 1")
    rs = iter(rs)
    for r in rs:
        batch = [r, *islice(rs, max(1, VV_BATCH_ENTRIES // max(n, _vv_level_entries([r]))) - 1)]
        yield from np.concatenate([np.logaddexp.reduce(x, axis=2).T for x in vv_log_counts(batch, n)], 1)


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
        for counts in vv_log_counts([r], horizon):
            reached = np.count_nonzero(counts[:, 0] > -np.inf, axis=1)
            yield from (start + (reached <= 1).nonzero()[0]).tolist()
            start += len(counts)
    elif kind == NECK_BLOCK:
        # blocks in doubling batches, so a search stops soon after its first neck
        n, seen = 1, 0
        while True:
            template, first = r._blocks(n)
            ends = (first + r.model.lengths[template])[seen:] - r.offset  # relative to the root
            yield from ends[(ends > 0) & (ends <= horizon)].tolist()
            if ends[-1] >= horizon:
                return
            n, seen = 2 * n, n
    else:
        raise UnsupportedModelError("recursive trees have no necks (probability zero)")


def neck_list(r: Realization, up_to_level: int) -> NeckList:
    """All neck levels <= up_to_level, relative to the realization root.

    The v_variable search holds one ``vv_log_counts`` chunk at a time.
    """
    _require_integer("up_to_level", up_to_level)
    if up_to_level < 0:
        raise ParameterError("up_to_level must be >= 0")
    return NeckList(tuple(_necks(r, up_to_level)))


def first_neck(r: Realization, horizon: int = NECK_SEARCH_HORIZON) -> int:
    """Smallest neck level; raises ``HorizonError`` when none lies within ``horizon`` levels."""
    _require_integer("horizon", horizon)
    if horizon < 0:
        raise ParameterError("horizon must be >= 0")
    for rel in _necks(r, horizon):
        return rel
    raise HorizonError(f"no neck found within {horizon} levels")


def neck_shift(r: Realization, horizon: int = NECK_SEARCH_HORIZON) -> Realization:
    """Re-root the realization at the all-ones node of the first neck level."""
    n1 = first_neck(r, horizon)
    return replace(r, offset=r.offset + n1)
