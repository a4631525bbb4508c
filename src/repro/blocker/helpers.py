"""Helper protocols for the blocker-set algorithms (Algorithms 3, 4, 5 + [2]'s
Ancestors algorithm).

* :func:`compute_vi_counts` — the ``beta`` flood of Compute-Pij
  (Algorithm 4): within each tree the root floods a running count of
  ``V_i``-members at depth >= 1 down the live tree; each depth-``h`` leaf
  then knows how many ``V_i`` nodes its path contains.  Compute-Pi
  (Algorithm 3) is the special case "count >= 1", so one flood serves both.
* :func:`broadcast_selection_stats` — Algorithm 5 fused with Step 8's
  score broadcast: one all-to-all broadcast of per-node
  ``(score_ij(v), |P_ij^v|)`` pairs, after which every node knows
  ``|P_ij|`` (the sum of the second coordinates) and every score.
* :func:`collect_ancestors` — [2]'s Ancestors algorithm (Algorithm 7
  Step 1): a pipelined downward stream of ``(depth, id)`` records so every
  node learns the ids on its root path; a leaf can then evaluate path
  coverage locally.  ``O(h)`` rounds per tree.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.congest.compressed import (
    CompressedPhase,
    PhaseSchedule,
    TreeStack,
    edge_counts,
    live_child_counts,
    tree_arrays,
)
from repro.congest.metrics import RoundStats
from repro.congest.network import CongestNetwork
from repro.congest.node import Ctx, NodeProgram
from repro.csssp.collection import CSSSPCollection, TreeView
from repro.primitives.bfs import BFSTree
from repro.primitives.broadcast import gather_and_broadcast


class _ViCountProgram(NodeProgram):
    """Algorithm 4 for one tree: flood the V_i-member count down."""

    __slots__ = ("tree", "in_vi", "beta")

    def __init__(self, node: int, tree: TreeView, in_vi: bool) -> None:
        super().__init__(node)
        self.tree = tree
        self.in_vi = in_vi
        self.beta = -1
        if tree.live(node) and tree.depth[node] == 0:
            self.beta = 0  # the root slot never counts (hyperedges exclude it)
        self.active = self.beta == 0

    def on_round(self, ctx: Ctx) -> None:
        v = ctx.node
        t = self.tree
        for msg in ctx.inbox:
            if msg.kind == "beta" and msg.src == t.parent[v] and self.beta < 0:
                self.beta = msg.payload[0] + (1 if self.in_vi else 0)
        if self.beta >= 0 and ctx.round == t.depth[v]:
            for c in t.live_children(v):
                ctx.send(c, "beta", (self.beta,))
        self.active = False


class _CompressedViCount(CompressedPhase):
    """Round-compressed `_ViCountProgram`: the beta flood, evaluated top-down.

    The flood is a synchronized wave — a live node at depth ``d``
    forwards the running count to each live child in round ``d`` — so the
    schedule is one message per live non-root node and the wave ends one
    round after the deepest live internal node fires.
    """

    def __init__(self, tree: TreeView, h: int, vi: Set[int], label: str) -> None:
        self.tree = tree
        self.h = h
        self.vi = vi
        self.label = label
        self._parent, self._depth, self._live = tree_arrays(tree)
        self._lc = live_child_counts(self._parent, self._live, tree.n)

    def schedule(self, net: CongestNetwork) -> PhaseSchedule:
        t = self.tree
        internal = self._live & (self._lc > 0)
        if not internal.any() or not t.live(t.root):
            return PhaseSchedule()
        idx = np.flatnonzero(internal)
        per_node = dict(zip(idx.tolist(), self._lc[idx].tolist()))
        per_edge = None
        if net.track_edges:
            kids = np.flatnonzero(self._live & (self._parent >= 0))
            per_edge = {
                (p, c): 1
                for c, p in zip(kids.tolist(), self._parent[kids].tolist())
            }
        return PhaseSchedule(
            rounds=int(self._depth[idx].max()) + 1,
            messages=int(self._lc[idx].sum()),
            per_node_sent=per_node,
            per_edge_sent=per_edge,
        )

    def evaluate(self, net: CongestNetwork) -> Dict[int, int]:
        t = self.tree
        if not t.live(t.root):
            return {}
        parent, depth, live = self._parent, self._depth, self._live
        n = t.n
        in_vi = np.zeros(n, dtype=np.int64)
        for v in self.vi:
            if 0 <= v < n:
                in_vi[v] = 1
        beta = np.zeros(n, dtype=np.int64)
        for d in range(1, self.h + 1):
            idx = np.flatnonzero(live & (depth == d))
            if len(idx):
                # The root slot never counts, so beta[root] stays 0.
                beta[idx] = beta[parent[idx]] + in_vi[idx]
        leaves = np.flatnonzero(live & (depth == self.h))
        return dict(zip(leaves.tolist(), beta[leaves].tolist()))


class _CompressedViCountBatch(CompressedPhase):
    """Every tree's beta flood (Algorithms 3/4) evaluated as one phase.

    The stacked counterpart of `_CompressedViCount` over a
    :class:`~repro.congest.compressed.TreeStack`: the per-tree schedules
    sum (rounds add per tree with at least one live non-root node), and
    the synchronized top-down wave runs level by level over the view's
    precomputed depth order, filtered to live nodes.
    """

    def __init__(self, view: TreeStack, vi: Set[int], label: str) -> None:
        self.view = view
        self.vi = vi
        self.label = label
        self._pos, self._levels = view.live_kids()

    def schedule(self, net: CongestNetwork) -> PhaseSchedule:
        view, pos = self.view, self._pos
        if not len(pos):
            return PhaseSchedule()
        n = view.n
        # A tree's wave ends one round after its deepest live internal
        # node fires, i.e. at the depth of its deepest live non-root node.
        deepest = np.zeros(len(view.xs), dtype=np.int64)
        np.maximum.at(deepest, view.kid_rows[pos], view.kid_depth[pos])
        senders = view.kid_pcols[pos]
        per_node_counts = np.bincount(senders, minlength=n)
        idx = np.flatnonzero(per_node_counts)
        per_edge = None
        if net.track_edges:
            per_edge = edge_counts(senders, view.kid_cols[pos], n)
        return PhaseSchedule(
            rounds=int(deepest.sum()),
            messages=len(pos),
            per_node_sent=dict(zip(idx.tolist(),
                                   per_node_counts[idx].tolist())),
            per_edge_sent=per_edge,
        )

    def evaluate(self, net: CongestNetwork) -> "np.ndarray":
        view, pos, levels = self.view, self._pos, self._levels
        n = view.n
        in_vi = np.zeros(n, dtype=np.int64)
        for v in self.vi:
            if 0 <= v < n:
                in_vi[v] = 1
        beta = np.zeros(view.depth.size, dtype=np.int64)
        kid, par, cols = view.kid[pos], view.par[pos], view.kid_cols[pos]
        for a, b in zip(levels[:-1].tolist(), levels[1:].tolist()):
            # Top-down: level d reads level d-1 (the root slot stays 0).
            beta[kid[a:b]] = beta[par[a:b]] + in_vi[cols[a:b]]
        leaves = view.live() & (view.depth == view.h)
        return np.where(leaves, beta.reshape(view.depth.shape), -1)


def leaf_vi_counts(
    net: CongestNetwork,
    coll: CSSSPCollection,
    vi: Set[int],
    view: TreeStack,
    label: str = "compute-pij",
    compress: Optional[bool] = None,
) -> Tuple["np.ndarray", RoundStats]:
    """:func:`compute_vi_counts` as one ``(T, n)`` array over ``view``'s rows.

    ``beta[i, leaf]`` is the count for every live depth-``h`` leaf of tree
    ``view.xs[i]`` and -1 everywhere else.  The batched compressed engine
    evaluates all trees as one phase over ``view``; the other engines run
    one flood per tree and fill the rows.
    """
    if net.use_compressed_batched(compress) and view.xs:
        beta, stats = net.run_compressed(
            _CompressedViCountBatch(view, vi, label))
        stats.label = label
        return beta, stats
    compressed = net.use_compressed(compress)
    total = RoundStats(label=label)
    beta = np.full(view.depth.shape, -1, dtype=np.int64)
    for i, x in enumerate(view.xs):
        t = coll.trees[x]
        if compressed:
            per_leaf, stats = net.run_compressed(
                _CompressedViCount(t, coll.h, vi, f"{label}({x})")
            )
            total.merge(stats)
        else:
            programs = [_ViCountProgram(v, t, v in vi) for v in range(coll.n)]
            total.merge(net.run(programs, label=f"{label}({x})"))
            per_leaf = {
                v: programs[v].beta
                for v in range(coll.n)
                if t.depth[v] == coll.h and not t.removed[v]
            }
        if per_leaf:
            beta[i, list(per_leaf)] = list(per_leaf.values())
    return beta, total


def compute_vi_counts(
    net: CongestNetwork,
    coll: CSSSPCollection,
    vi: Set[int],
    label: str = "compute-pij",
    compress: Optional[bool] = None,
) -> Tuple[Dict[int, Dict[int, int]], RoundStats]:
    """Per-leaf ``V_i``-member counts for every live length-``h`` path.

    Returns ``(beta, stats)`` with ``beta[x][leaf]`` = number of depth>=1
    nodes of the root-to-``leaf`` path of ``T_x`` that are in ``vi``, for
    every live leaf at depth ``h``.  One ``O(h)``-round flood per tree
    (Algorithms 3/4; Lemmas 3.3/3.4), ``O(|S| \\cdot h)`` in total.
    ``compress`` selects the round-compressed execution mode (default:
    the network's setting).  The Algorithm-2 driver reads the same counts
    as an array through :func:`leaf_vi_counts`.
    """
    view = TreeStack(coll)
    counts, stats = leaf_vi_counts(net, coll, vi, view, label, compress)
    leaves = view.leaf_lists(view.live() & (view.depth == coll.h))
    beta = {
        x: dict(zip(leaves[x], counts[i, leaves[x]].tolist()))
        for i, x in enumerate(view.xs)
    }
    return beta, stats


def paths_with_min_count(
    beta: Dict[int, Dict[int, int]], threshold: float
) -> Dict[int, List[int]]:
    """Leaves whose path has at least ``threshold`` V_i nodes (P_i / P_ij)."""
    return {
        x: sorted(v for v, b in leaves.items() if b >= threshold)
        for x, leaves in beta.items()
    }


def count_paths(members: Dict[int, List[int]]) -> int:
    """Total paths across all trees in a per-tree leaf map."""
    return sum(len(v) for v in members.values())


def broadcast_selection_stats(
    net: CongestNetwork,
    tree: BFSTree,
    score_ij: Sequence[float],
    pij_leaf_counts: Sequence[int],
    label: str = "selection-stats",
) -> Tuple[Dict[int, float], int, RoundStats]:
    """Algorithm 5 + Step 8: everyone learns all score_ij values and |P_ij|.

    Every node contributes one ``(id, score_ij, |P_ij^v|)`` word triple to
    an all-to-all broadcast (Lemma A.2, ``O(n)`` rounds); ``|P_ij|`` is the
    sum of the third coordinates (each path counted once, at its leaf).
    Nodes with nothing to report stay silent to keep the message count at
    the paper's "at most n messages".
    """
    items = [
        [(v, float(score_ij[v]), int(pij_leaf_counts[v]))]
        if score_ij[v] or pij_leaf_counts[v]
        else []
        for v in range(net.n)
    ]
    received, stats = gather_and_broadcast(net, tree, items, label=label)
    view = received[tree.root]
    scores = {v: s for (v, s, _c) in view}
    pij_total = int(sum(c for (_v, _s, c) in view))
    return scores, pij_total, stats


class _AncestorsProgram(NodeProgram):
    """[2]'s Ancestors algorithm for one tree: stream (depth, id) downward."""

    __slots__ = ("tree", "queue", "ancestors")

    def __init__(self, node: int, tree: TreeView) -> None:
        super().__init__(node)
        self.tree = tree
        self.queue: deque = deque()
        self.ancestors: List[Tuple[int, int]] = []
        if tree.live(node) and tree.live_children(node):
            self.queue.append((tree.depth[node], node))
        self.active = bool(self.queue)

    def on_round(self, ctx: Ctx) -> None:
        v = ctx.node
        t = self.tree
        for msg in ctx.inbox:
            if msg.kind == "anc" and msg.src == t.parent[v]:
                self.ancestors.append(msg.payload)
                if t.live_children(v):
                    self.queue.append(msg.payload)
        if self.queue:
            record = self.queue.popleft()
            for c in t.live_children(v):
                ctx.send(c, "anc", record)
        self.active = bool(self.queue)


class _CompressedAncestors(CompressedPhase):
    """Round-compressed `_AncestorsProgram`: the pipelined ancestor stream.

    The stream never stalls — a live internal node at depth ``d``
    forwards its own record in round 0 and the record of its depth-``a``
    ancestor in round ``d - a`` — so node ``v`` sends exactly
    ``depth(v) + 1`` records to each live child and the phase ends one
    round after the deepest internal node forwards the root's record.
    """

    def __init__(self, tree: TreeView, label: str) -> None:
        self.tree = tree
        self.label = label

    def schedule(self, net: CongestNetwork) -> PhaseSchedule:
        t = self.tree
        parent, depth, live = tree_arrays(t)
        lc = live_child_counts(parent, live, t.n)
        internal = live & (lc > 0)
        if not internal.any():
            return PhaseSchedule()
        idx = np.flatnonzero(internal)
        records = depth[idx] + 1  # own record plus one per strict ancestor
        per_node = dict(zip(idx.tolist(), (records * lc[idx]).tolist()))
        per_edge = None
        if net.track_edges:
            kids = np.flatnonzero(live & (parent >= 0))
            per_edge = {
                (p, c): int(depth[p] + 1)
                for c, p in zip(kids.tolist(), parent[kids].tolist())
            }
        return PhaseSchedule(
            rounds=int(depth[idx].max()) + 1,
            messages=int((records * lc[idx]).sum()),
            per_node_sent=per_node,
            per_edge_sent=per_edge,
        )

    def evaluate(self, net: CongestNetwork) -> Dict[int, List[int]]:
        t = self.tree
        per_node: Dict[int, List[int]] = {}
        if t.live(t.root):
            per_node[t.root] = []
            stack = [t.root]
            while stack:
                v = stack.pop()
                path = per_node[v]
                for c in t.live_children(v):
                    per_node[c] = path + [v]
                    stack.append(c)
        return per_node


def collect_ancestors(
    net: CongestNetwork,
    coll: CSSSPCollection,
    label: str = "ancestors",
    compress: Optional[bool] = None,
) -> Tuple[Dict[int, Dict[int, List[int]]], RoundStats]:
    """Every live node learns the ids on its root path, in every tree.

    Returns ``(anc, stats)`` where ``anc[x][v]`` lists the strict ancestors
    of ``v`` in ``T_x`` ordered root-first (so the hyperedge ending at leaf
    ``v`` is ``anc[x][v][1:] + [v]``).  ``O(h)`` rounds per tree — each
    edge forwards one record per round and carries at most ``h`` of them.
    ``compress`` selects the round-compressed execution mode (default:
    the network's setting).
    """
    compressed = net.use_compressed(compress)
    total = RoundStats(label=label)
    anc: Dict[int, Dict[int, List[int]]] = {}
    for x, t in coll.trees.items():
        if compressed:
            per_node, stats = net.run_compressed(
                _CompressedAncestors(t, f"{label}({x})")
            )
            total.merge(stats)
            anc[x] = per_node
            continue
        programs = [_AncestorsProgram(v, t) for v in range(coll.n)]
        total.merge(net.run(programs, label=f"{label}({x})"))
        per_node: Dict[int, List[int]] = {}
        for v in range(coll.n):
            if t.live(v):
                records = sorted(programs[v].ancestors)
                if len(records) != t.depth[v]:
                    raise AssertionError(
                        f"tree {x}: node {v} collected {len(records)} ancestors, "
                        f"expected {t.depth[v]}"
                    )
                per_node[v] = [node for (_d, node) in records]
        anc[x] = per_node
    return anc, total


__all__ = [
    "broadcast_selection_stats",
    "collect_ancestors",
    "compute_vi_counts",
    "count_paths",
    "leaf_vi_counts",
    "paths_with_min_count",
]
