"""Centralized references cross-checked against networkx and brute force."""

from __future__ import annotations

import itertools
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.experiments import GRAPH_FAMILIES, WEIGHT_MODELS, make_graph
from repro.graphs import erdos_renyi, grid2d, path_graph
from repro.graphs.reference import (
    adjacency_matrix,
    all_pairs_shortest_paths,
    h_hop_distances,
    h_hop_labels,
    min_plus_closure,
    single_source_shortest_paths,
)
from repro.graphs.spec import Graph, INF_COST

from conftest import GRAPH_KINDS, graph_of


def to_nx(g: Graph):
    G = nx.DiGraph() if g.directed else nx.Graph()
    G.add_nodes_from(range(g.n))
    for u, v, w in g.edges:
        G.add_edge(u, v, weight=w)
    return G


@pytest.mark.parametrize("kind", GRAPH_KINDS)
def test_apsp_matches_networkx(kind):
    g = graph_of(kind)
    ref = all_pairs_shortest_paths(g)
    G = to_nx(g)
    lengths = dict(nx.all_pairs_dijkstra_path_length(G))
    for s in range(g.n):
        for t in range(g.n):
            expect = lengths.get(s, {}).get(t, math.inf)
            assert ref[s, t] == pytest.approx(expect), (s, t)


def test_sssp_parents_form_shortest_path_tree():
    g = erdos_renyi(25, p=0.2, seed=9)
    dist, parent = single_source_shortest_paths(g, 0)
    w = {(u, v): wt for u, v, wt in g.edges}
    w.update({(v, u): wt for u, v, wt in g.edges})
    for v in range(1, g.n):
        if math.isinf(dist[v]):
            assert parent[v] == -1
            continue
        p = parent[v]
        assert dist[v] == pytest.approx(dist[p] + w[(p, v)])


def test_sssp_reverse_equals_forward_on_reversed_graph():
    g = erdos_renyi(18, p=0.3, seed=4, directed=True)
    rev = g.reverse()
    for s in (0, 5, 11):
        d_in, _ = single_source_shortest_paths(g, s, reverse=True)
        d_fwd, _ = single_source_shortest_paths(rev, s)
        assert np.allclose(
            np.nan_to_num(np.asarray(d_in), posinf=-1),
            np.nan_to_num(np.asarray(d_fwd), posinf=-1),
        )


def brute_force_h_hop(g: Graph, s: int, t: int, h: int) -> float:
    """Exponential-time h-hop distance (tiny graphs only)."""
    best = math.inf if s != t else 0.0
    frontier = {s: 0.0}
    for _ in range(h):
        nxt = {}
        for v, d in frontier.items():
            for u, w, _tb in g.out_edges(v):
                cand = d + w
                if cand < nxt.get(u, math.inf):
                    nxt[u] = cand
        for v, d in nxt.items():
            frontier[v] = min(frontier.get(v, math.inf), d)
        if t in frontier:
            best = min(best, frontier[t])
    return best


@pytest.mark.parametrize("h", [1, 2, 3, 5])
def test_h_hop_distances_vs_brute_force(h):
    g = erdos_renyi(10, p=0.3, seed=13)
    mat = h_hop_distances(g, h)
    for s in range(g.n):
        for t in range(g.n):
            assert mat[s, t] == pytest.approx(brute_force_h_hop(g, s, t, h))


def test_h_hop_distances_monotone_in_h():
    g = grid2d(4, 4, seed=5)
    prev = h_hop_distances(g, 1)
    for h in (2, 4, 8, 16):
        cur = h_hop_distances(g, h)
        assert (cur <= prev + 1e-12).all()
        prev = cur
    full = all_pairs_shortest_paths(g)
    assert np.allclose(h_hop_distances(g, g.n), full)


def test_h_hop_labels_agree_with_h_hop_distances():
    g = erdos_renyi(15, p=0.25, seed=21)
    for s in (0, 7):
        for h in (1, 3, 6):
            labels = h_hop_labels(g, s, h)
            mat = h_hop_distances(g, h, [s])
            for v in range(g.n):
                d = labels[v][0]
                assert d == pytest.approx(mat[0, v]) or (
                    math.isinf(d) and math.isinf(mat[0, v])
                )
                if labels[v] != INF_COST:
                    assert labels[v][1] <= h  # hop budget respected


def test_h_hop_labels_reverse():
    g = erdos_renyi(12, p=0.3, seed=2, directed=True)
    labels = h_hop_labels(g, 3, g.n, reverse=True)
    dist, _ = single_source_shortest_paths(g, 3, reverse=True)
    for v in range(g.n):
        assert labels[v][0] == pytest.approx(dist[v]) or (
            math.isinf(labels[v][0]) and math.isinf(dist[v])
        )


def test_adjacency_matrix_shape():
    g = path_graph(4, seed=0)
    m = adjacency_matrix(g)
    assert m.shape == (4, 4)
    assert (np.diag(m) == 0).all()
    assert math.isinf(m[0, 2])
    assert m[0, 1] == m[1, 0]  # undirected symmetry


def test_min_plus_closure_is_apsp_on_weight_matrix():
    g = erdos_renyi(14, p=0.3, seed=8)
    closure = min_plus_closure(adjacency_matrix(g))
    assert np.array_equal(closure, all_pairs_shortest_paths(g))


def test_min_plus_closure_idempotent():
    g = erdos_renyi(10, p=0.4, seed=3)
    c1 = min_plus_closure(adjacency_matrix(g))
    assert np.array_equal(min_plus_closure(c1), c1)


#: Every (family, weight model) pair ``make_graph`` accepts; the zero-weight
#: models exist only for the Erdos-Renyi families.
FAMILY_WEIGHTS = [
    (family, weights)
    for family in GRAPH_FAMILIES
    for weights in WEIGHT_MODELS
    if "zero_frac" not in WEIGHT_MODELS[weights] or family.startswith("er")
]


@given(case=st.sampled_from(FAMILY_WEIGHTS), n=st.integers(4, 40),
       seed=st.integers(0, 1000))
@example(case=("er-directed", "zero"), n=24, seed=3)
@example(case=("er-directed", "pareto-zero"), n=24, seed=5)
@example(case=("er", "pareto-zero"), n=32, seed=7)
@example(case=("er", "near-tie"), n=32, seed=2)
@example(case=("layered", "pareto"), n=24, seed=1)
@settings(max_examples=60, deadline=None)
def test_floyd_warshall_is_bit_identical_to_dijkstra(case, n, seed):
    """The verification reference equals per-source Dijkstra bit for bit.

    Weights sit on the dyadic 2^-16 grid, so Floyd-Warshall's different
    summation order cannot change a single distance.
    """
    g = make_graph(case[0], n, seed, case[1])
    fw = min_plus_closure(adjacency_matrix(g))
    assert np.array_equal(fw, all_pairs_shortest_paths(g)), case


@given(
    n=st.integers(4, 14),
    seed=st.integers(0, 1000),
    p=st.floats(0.1, 0.6),
)
@settings(max_examples=20, deadline=None)
def test_triangle_inequality_property(n, seed, p):
    g = erdos_renyi(n, p=p, seed=seed)
    d = all_pairs_shortest_paths(g)
    for i, j, k in itertools.product(range(n), repeat=3):
        if math.isfinite(d[i, k]) and math.isfinite(d[k, j]):
            assert d[i, j] <= d[i, k] + d[k, j] + 1e-9
