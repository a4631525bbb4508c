"""Distributed score computation over CSSSP trees.

``score(v)`` is the number of live length-``h`` root-to-leaf paths that
contain ``v`` at depth >= 1 (Table 2; the root slot is excluded — see
:mod:`repro.csssp.collection`).  The paper computes scores with the
convergecast of [2]'s Algorithm 3: within each tree, every node learns the
number of live depth-``h`` leaves in its subtree via a fixed-schedule
bottom-up sum (node at depth ``d`` fires in round ``h - d``), then sums its
per-tree values locally.  ``O(h)`` rounds per tree, ``O(|S| \\cdot h)``
total.

:func:`subtree_sums` is the generic convergecast (any per-node values);
``score_ij`` reuses it with "leaf whose path is in P_ij" indicators, and
Algorithm 13's message counts reuse it with all-ones values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.congest.compressed import (
    CompressedPhase,
    PhaseSchedule,
    TreeStack,
    edge_counts,
    tree_arrays,
)
from repro.congest.metrics import RoundStats
from repro.congest.network import CongestNetwork
from repro.congest.node import Ctx, NodeProgram
from repro.csssp.collection import CSSSPCollection, TreeView


class _SubtreeSumProgram(NodeProgram):
    """Fixed-schedule bottom-up sum within one tree.

    A node at depth ``d`` accumulates its children's sums (delivered in
    round ``h - d``, since children fire in round ``h - d - 1``) and sends
    its own subtree sum to its parent during round ``h - d``.  Detached
    (removed) nodes stay silent, so sums cover live nodes only.
    """

    __slots__ = ("tree", "h", "acc")

    def __init__(self, node: int, tree: TreeView, h: int, value: float) -> None:
        super().__init__(node)
        self.tree = tree
        self.h = h
        self.acc = value
        self.active = tree.live(node)

    def on_round(self, ctx: Ctx) -> None:
        v = ctx.node
        t = self.tree
        for msg in ctx.inbox:
            if msg.kind == "ss" and t.parent[msg.src] == v:
                self.acc += msg.payload[0]
        fire = self.h - t.depth[v]
        if ctx.round == fire and t.parent[v] >= 0:
            ctx.send(t.parent[v], "ss", (self.acc,))
        self.active = t.live(v) and ctx.round < fire


class _CompressedSubtreeSum(CompressedPhase):
    """Round-compressed `_SubtreeSumProgram`: the bottom-up tree sum.

    Every live non-root node sends exactly one message — in round
    ``h - depth(v)`` — so the schedule is immediate.  The sums accumulate
    level by level with ``np.add.at`` when the values are integer-valued
    (the score/indicator workloads — exact in float64 regardless of add
    order); otherwise a Python fold replays the engine's exact
    accumulation order (live children in ascending id).
    """

    def __init__(
        self, tree: TreeView, h: int, values: Sequence[float], label: str
    ) -> None:
        self.tree = tree
        self.h = h
        self.values = values
        self.label = label
        self._parent, self._depth, self._live = tree_arrays(tree)
        self._senders = self._live & (self._parent >= 0)

    def schedule(self, net: CongestNetwork) -> PhaseSchedule:
        senders = self._senders
        count = int(senders.sum())
        if not count:
            return PhaseSchedule()
        idx = np.flatnonzero(senders)
        per_edge = None
        if net.track_edges:
            per_edge = {
                (v, p): 1
                for v, p in zip(idx.tolist(), self._parent[idx].tolist())
            }
        return PhaseSchedule(
            rounds=self.h - int(self._depth[idx].min()) + 1,
            messages=count,
            per_node_sent=dict.fromkeys(idx.tolist(), 1),
            per_edge_sent=per_edge,
        )

    def evaluate(self, net: CongestNetwork) -> List[float]:
        t = self.tree
        parent, depth, live = self._parent, self._depth, self._live
        vals = np.asarray(self.values, dtype=np.float64)
        acc = np.where(live, vals, 0.0)
        if np.array_equal(acc, np.trunc(acc)):
            # Integer-valued: float addition is exact in any order, so the
            # level-by-level vectorized accumulation matches the engine.
            senders = self._senders
            for d in range(int(depth.max(initial=0)), 0, -1):
                idx = np.flatnonzero(senders & (depth == d))
                if len(idx):
                    np.add.at(acc, parent[idx], acc[idx])
            return acc.tolist()
        # General floats: replay the engine's exact fold order.
        out = [0.0] * t.n
        if not t.live(t.root):
            return out
        order: List[int] = []
        stack = [t.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(t.live_children(v))
        for v in reversed(order):
            total = self.values[v]
            for c in sorted(t.live_children(v)):
                total += out[c]
            out[v] = total
        return out


class _CompressedSubtreeSumBatch(CompressedPhase):
    """All trees' subtree-sum convergecasts evaluated as one phase.

    Valid for integer-valued inputs only (float addition is exact in any
    order, so the level-by-level ``np.add.at`` accumulation over a
    :class:`~repro.congest.compressed.TreeStack` matches every engine
    fold) — which covers all the batch call sites: leaf indicators
    (scores / score_ij) and live counts (Algorithm 14).  The schedule is
    the sum of the per-tree schedules, computed in one vectorized pass.
    """

    def __init__(self, view: TreeStack, values: "np.ndarray",
                 label: str) -> None:
        self.view = view
        self.label = label
        self._values = values
        self._pos, self._levels = view.live_kids()
        self._acc: Optional[np.ndarray] = None

    def schedule(self, net: CongestNetwork) -> PhaseSchedule:
        view, pos = self.view, self._pos
        if not len(pos):
            return PhaseSchedule()
        n, h = view.n, view.h
        # Per-tree rounds: h - (shallowest live sender depth) + 1, summed.
        shallowest = np.full(len(view.xs), h + 1, dtype=np.int64)
        np.minimum.at(shallowest, view.kid_rows[pos], view.kid_depth[pos])
        has = shallowest <= h
        rounds = int((h - shallowest[has] + 1).sum())
        cols = view.kid_cols[pos]
        per_node_counts = np.bincount(cols, minlength=n)
        idx = np.flatnonzero(per_node_counts)
        per_edge = None
        if net.track_edges:
            per_edge = edge_counts(cols, view.kid_pcols[pos], n)
        return PhaseSchedule(
            rounds=rounds,
            messages=len(pos),
            per_node_sent=dict(zip(idx.tolist(),
                                   per_node_counts[idx].tolist())),
            per_edge_sent=per_edge,
        )

    def evaluate(self, net: CongestNetwork) -> "np.ndarray":
        if self._acc is not None:
            return self._acc
        view, pos, levels = self.view, self._pos, self._levels
        acc = np.where(view.live(), self._values, 0.0)
        if not np.array_equal(acc, np.trunc(acc)):
            raise ValueError(
                "batched subtree sums require integer-valued inputs "
                "(float addition must be order-independent); use the "
                "per-tree subtree_sums for general floats"
            )
        # One bottom-up np.add.at per depth level, deepest first, over
        # the view's precomputed depth order.
        flat = acc.reshape(-1)
        kid, par = view.kid[pos], view.par[pos]
        bounds = levels.tolist()
        for d in range(len(bounds) - 1, 0, -1):
            a, b = bounds[d - 1], bounds[d]
            if a < b:
                np.add.at(flat, par[a:b], flat[kid[a:b]])
        self._acc = acc
        return acc


def batched_subtree_sums(
    net: CongestNetwork,
    view: TreeStack,
    values: "np.ndarray",
    label: str,
) -> Tuple["np.ndarray", RoundStats]:
    """One compressed phase covering ``subtree_sums`` on every row of ``view``.

    ``values`` is the raw ``(T, n)`` input (masked to live nodes
    internally, as the per-tree calls do).  Returns ``(acc, stats)`` with
    ``acc[i]`` the live-subtree sums of tree ``view.xs[i]`` —
    bit-identical to the per-tree runs, whose merged stats equal
    ``stats``.  Integer-valued inputs only (checked).
    """
    return net.run_compressed(_CompressedSubtreeSumBatch(view, values, label))


def subtree_sums(
    net: CongestNetwork,
    coll: CSSSPCollection,
    x: int,
    values: Sequence[float],
    label: str = "",
    compress: Optional[bool] = None,
) -> Tuple[List[float], RoundStats]:
    """Per-node live-subtree sums of ``values`` in tree ``T_x``.

    Returns ``sums`` with ``sums[v] = sum(values[u] for u in live
    subtree(v))`` for live ``v`` (0 elsewhere), in at most ``h + 1``
    rounds.  ``compress`` selects the round-compressed execution mode
    (default: the network's setting).
    """
    t = coll.trees[x]
    if net.use_compressed(compress):
        phase = _CompressedSubtreeSum(
            t, coll.h, [values[v] if t.live(v) else 0.0 for v in range(coll.n)],
            label or f"subtree-sums({x})",
        )
        return net.run_compressed(phase)
    programs = [
        _SubtreeSumProgram(v, t, coll.h, values[v] if t.live(v) else 0.0)
        for v in range(coll.n)
    ]
    stats = net.run(programs, label=label or f"subtree-sums({x})")
    sums = [programs[v].acc if t.live(v) else 0.0 for v in range(coll.n)]
    return sums, stats


def leaf_indicators(coll: CSSSPCollection, x: int) -> List[float]:
    """1.0 at live depth-``h`` leaves of ``T_x`` (hyperedge endpoints)."""
    t = coll.trees[x]
    return [
        1.0 if t.depth[v] == coll.h and not t.removed[v] else 0.0
        for v in range(coll.n)
    ]


def compute_scores(
    net: CongestNetwork,
    coll: CSSSPCollection,
    label: str = "scores",
    compress: Optional[bool] = None,
    per_tree: bool = True,
    view: Optional[TreeStack] = None,
) -> Tuple[List[float], Dict[int, List[float]], RoundStats]:
    """``score(v)`` for every node plus the per-tree leaf-count aggregates.

    Returns ``(score, per_tree, stats)`` where ``per_tree[x][v]`` is the
    number of live depth-``h`` leaves under ``v`` in ``T_x`` — exactly the
    subtree-additive aggregate :class:`repro.csssp.pruning.ParallelPruner`
    maintains for the greedy baseline.  ``O(|S| \\cdot h)`` rounds.
    ``per_tree=False`` skips materializing the per-tree lists (the
    rescore loop of Algorithm 2 only reads the totals) and returns an
    empty dict in their place.  ``view`` is the collection's
    :class:`~repro.congest.compressed.TreeStack` for the batched engine
    (built fresh when omitted).
    """
    if net.use_compressed_batched(compress) and coll.trees:
        view = view or TreeStack(coll)
        live = view.live()
        leaf_vals = ((view.depth == coll.h) & live).astype(np.float64)
        acc, stats = batched_subtree_sums(net, view, leaf_vals, label)
        tree_sums = (
            {x: acc[i].tolist() for i, x in enumerate(view.xs)}
            if per_tree else {}
        )
        score = _counted_total(view, live, acc)
        stats.label = label
        return score, tree_sums, stats
    total = RoundStats(label=label)
    score = [0.0] * coll.n
    tree_sums: Dict[int, List[float]] = {}
    for x in coll.trees:
        sums, stats = subtree_sums(
            net, coll, x, leaf_indicators(coll, x), label=f"{label}({x})",
            compress=compress,
        )
        total.merge(stats)
        if per_tree:
            tree_sums[x] = sums
        t = coll.trees[x]
        for v in range(coll.n):
            if t.depth[v] >= 1 and not t.removed[v]:
                score[v] += sums[v]
    return score, tree_sums, total


def _counted_total(view: TreeStack, live: "np.ndarray",
                   acc: "np.ndarray") -> List[float]:
    """Per-node sum of ``acc`` over the trees where the node counts.

    A node counts in a tree where it is live at depth >= 1 (hyperedges
    exclude the root slot).
    """
    return np.where(live & (view.depth >= 1), acc, 0.0).sum(axis=0).tolist()


def score_ij_rows(
    net: CongestNetwork,
    coll: CSSSPCollection,
    view: TreeStack,
    pij: "np.ndarray",
    label: str = "score-ij",
    compress: Optional[bool] = None,
) -> Tuple[List[float], RoundStats]:
    """:func:`compute_score_ij` with ``P_ij`` as a ``(T, n)`` leaf mask.

    ``pij[i, leaf]`` marks the leaves of tree ``view.xs[i]`` whose path is
    in ``P_ij``.  Trees without such a leaf stay silent; in the batched
    engine the rest run as one phase over that row selection of ``view``.
    """
    has = pij.any(axis=1)
    if net.use_compressed_batched(compress) and has.any():
        sub = view.select(has)
        acc, stats = batched_subtree_sums(
            net, sub, pij[has].astype(np.float64), label)
        stats.label = label
        return _counted_total(sub, sub.live(), acc), stats
    total = RoundStats(label=label)
    score = [0.0] * coll.n
    for i in np.flatnonzero(has).tolist():
        x = view.xs[i]
        sums, stats = subtree_sums(
            net, coll, x, pij[i].astype(np.float64).tolist(),
            label=f"{label}({x})", compress=compress)
        total.merge(stats)
        t = coll.trees[x]
        for v in range(coll.n):
            if t.depth[v] >= 1 and not t.removed[v]:
                score[v] += sums[v]
    return score, total


def compute_score_ij(
    net: CongestNetwork,
    coll: CSSSPCollection,
    pij_leaf: Dict[int, List[int]],
    label: str = "score-ij",
    compress: Optional[bool] = None,
) -> Tuple[List[float], RoundStats]:
    """``score_ij(v)`` — live paths in ``P_ij`` through ``v`` (Step 8, Alg. 2).

    ``pij_leaf[x]`` lists the leaves of ``T_x`` whose path is in ``P_ij``
    (each leaf knows this locally after Compute-Pij).  Same convergecast as
    :func:`compute_scores`, ``O(|S| \\cdot h)`` rounds.  The Algorithm-2
    driver passes ``P_ij`` as a leaf mask through :func:`score_ij_rows`.
    """
    view = TreeStack(coll)
    pij = np.zeros(view.depth.shape, dtype=bool)
    for x, leaves in pij_leaf.items():
        pij[view.row[x], leaves] = True
    return score_ij_rows(net, coll, view, pij, label, compress)


__all__ = [
    "batched_subtree_sums",
    "compute_score_ij",
    "compute_scores",
    "leaf_indicators",
    "score_ij_rows",
    "subtree_sums",
]
