"""APSP outcome record shared by every end-to-end algorithm."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.congest.metrics import PhaseLog, RoundStats
from repro.graphs.reference import adjacency_matrix, min_plus_closure
from repro.graphs.spec import Graph


@dataclass
class APSPResult:
    """Distance matrix + the per-step round ledger of one APSP run.

    ``dist[x, t]`` is the computed ``delta(x, t)`` (``inf`` when ``t`` is
    unreachable from ``x``); ``pred[x, t]`` the predecessor of ``t`` on a
    shortest ``x -> t`` path (-1 at the source / unreachable pairs) — the
    "last edge" part of the APSP output (Section 1.1); ``log`` holds one
    entry per paper step so the per-step budget of Theorem 1.1's proof can
    be inspected (experiment F1); ``meta`` carries algorithm-specific
    facts (``h``, ``|Q|``, ``|Q'|``, ``|B|``, blocker/delivery choices).
    """

    algorithm: str
    dist: np.ndarray
    log: PhaseLog
    meta: Dict[str, object] = field(default_factory=dict)
    pred: Optional[np.ndarray] = None

    @property
    def stats(self) -> RoundStats:
        return self.log.total(self.algorithm)

    @property
    def rounds(self) -> int:
        return self.stats.rounds

    def step_rounds(self) -> Dict[str, int]:
        """Rounds aggregated per step label (Theorem 1.1's budget view)."""
        return self.log.rounds_by_label()

    def path(self, x: int, t: int) -> list:
        """Reconstruct one shortest ``x -> t`` path from the predecessors.

        Returns the node sequence ``[x, ..., t]``; raises if the pair is
        unreachable or the result carries no routing information.
        """
        if self.pred is None:
            raise ValueError(f"{self.algorithm} recorded no predecessors")
        if math.isinf(self.dist[x, t]):
            raise ValueError(f"{t} is unreachable from {x}")
        out = [t]
        while out[-1] != x:
            p = int(self.pred[x, out[-1]])
            if p < 0 or len(out) > self.dist.shape[0]:
                raise AssertionError(
                    f"broken predecessor chain {x} -> {t} at {out[-1]}"
                )
            out.append(p)
        out.reverse()
        return out

    def verify(self, graph: Graph) -> None:
        """Check the output exactly against the centralized reference.

        The reference is the numpy Floyd-Warshall closure of the weight
        matrix (pinned bit-identical to per-source Dijkstra in the tests).
        Weights sit on the dyadic ``2^-16`` grid, so every distance must
        match bit for bit; the predecessor plane, when present, is checked
        by :meth:`verify_paths`.  Raises ``AssertionError`` naming the
        first bad ``(x, t)`` pair.
        """
        weight = adjacency_matrix(graph)
        ref = min_plus_closure(weight)
        if self.dist.shape != ref.shape:
            raise AssertionError(
                f"{self.algorithm}: distance plane has shape "
                f"{self.dist.shape}, expected {ref.shape}"
            )
        bad = self.dist != ref
        if bad.any():
            x, t = (int(i) for i in np.argwhere(bad)[0])
            raise AssertionError(
                f"{self.algorithm}: dist[{x}, {t}] = {float(self.dist[x, t])!r}, "
                f"expected {float(ref[x, t])!r} ({int(bad.sum())} of {bad.size} "
                f"pairs differ)"
            )
        if self.pred is not None:
            self._check_pred(weight)

    def verify_paths(self, graph: Graph) -> None:
        """Check the predecessor plane exactly against ``dist``.

        Raises ``ValueError`` when the result carries no predecessors and
        ``AssertionError`` naming the first bad ``(x, t)`` pair and the
        rule it breaks (see :meth:`_check_pred`).
        """
        if self.pred is None:
            raise ValueError(f"{self.algorithm} recorded no predecessors")
        self._check_pred(adjacency_matrix(graph))

    def _check_pred(self, weight: np.ndarray) -> None:
        """Four vectorized rules over every ``(x, t)`` pair, in order.

        * mask: the source and unreachable pairs carry -1, every other
          pair does not;
        * non-edge: ``pred[x, t] = p`` names an edge ``(p, t)``;
        * not tight: ``dist[x, p] + w(p, t) == dist[x, t]`` exactly;
        * cycle: every chain reaches ``x``, by pointer doubling over
          ``ceil(log2 n) + 1`` steps.  This catches zero-weight
          predecessor cycles, which the tight-edge rule alone misses.
        """
        dist, pred = self.dist, self.pred
        n = dist.shape[0]
        if pred.shape != dist.shape:
            raise AssertionError(
                f"{self.algorithm}: predecessor plane has shape "
                f"{pred.shape}, expected {dist.shape}"
            )
        routed = np.isfinite(dist)
        np.fill_diagonal(routed, False)
        bad = routed != (pred != -1)
        if bad.any():
            x, t = (int(i) for i in np.argwhere(bad)[0])
            want = "a predecessor" if routed[x, t] else "-1"
            raise AssertionError(
                f"{self.algorithm}: mask rule: pred[{x}, {t}] = "
                f"{int(pred[x, t])}, expected {want}"
            )
        xs, ts = np.nonzero(routed)
        ps = pred[xs, ts].astype(np.int64)
        in_range = (ps >= 0) & (ps < n) & (ps != ts)
        w = np.where(in_range, weight[np.where(in_range, ps, 0), ts], np.inf)
        self._first_pred_error("non-edge", ~np.isfinite(w), xs, ts, ps,
                               lambda x, t, p: f"({p}, {t}) is not an edge")
        reached = dist[xs, ps] + w
        self._first_pred_error(
            "not tight", reached != dist[xs, ts], xs, ts, ps,
            lambda x, t, p: (
                f"dist[{x}, {p}] + w({p}, {t}) = {float(dist[x, p])!r} + "
                f"{float(weight[p, t])!r} != dist[{x}, {t}] = {float(dist[x, t])!r}"
            ),
        )
        # Sources and unreachable pairs point at the source itself, so a
        # chain that reaches x stays there under doubling.
        jump = np.repeat(np.arange(n, dtype=np.int64)[:, None], n, axis=1)
        jump[xs, ts] = ps
        for _ in range((n - 1).bit_length() + 1):
            jump = np.take_along_axis(jump, jump, axis=1)
        self._first_pred_error(
            "cycle", jump[xs, ts] != xs, xs, ts, ps,
            lambda x, t, p: f"following pred from {t} never reaches {x}",
        )

    def _first_pred_error(self, rule, bad, xs, ts, ps, describe) -> None:
        if bad.any():
            i = int(np.argmax(bad))
            x, t, p = int(xs[i]), int(ts[i]), int(ps[i])
            raise AssertionError(
                f"{self.algorithm}: {rule} rule: pred[{x}, {t}] = {p}: "
                f"{describe(x, t, p)} ({int(bad.sum())} bad pairs)"
            )


__all__ = ["APSPResult"]
