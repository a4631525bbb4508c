"""End-to-end APSP: every algorithm, every graph family, exactness always."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import CongestNetwork
from repro.graphs import erdos_renyi
from repro.apsp import (
    baseline_n32_apsp,
    deterministic_apsp,
    five_thirds_apsp,
    naive_bf_apsp,
    randomized_apsp,
    three_phase_apsp,
)

from conftest import GRAPH_KINDS, graph_of

ALGORITHMS = [
    ("det-n43", deterministic_apsp),
    ("det-n32", baseline_n32_apsp),
    ("rand-n43", randomized_apsp),
    ("det-n53", five_thirds_apsp),
    ("naive-bf", naive_bf_apsp),
]


@pytest.mark.parametrize("kind", GRAPH_KINDS)
@pytest.mark.parametrize("name,algo", ALGORITHMS)
def test_exact_on_every_family(kind, name, algo):
    g = graph_of(kind)
    net = CongestNetwork(g)
    result = algo(net, g)
    result.verify(g)
    assert result.rounds > 0
    assert result.algorithm == name


@pytest.mark.parametrize("h", [1, 2, 4, 8])
def test_driver_exact_for_any_h(h):
    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    result = three_phase_apsp(net, g, h=h)
    result.verify(g)
    assert result.meta["h"] == h


def test_driver_rejects_unknown_strategies():
    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    with pytest.raises(ValueError):
        three_phase_apsp(net, g, h=2, blocker="magic")
    with pytest.raises(ValueError):
        three_phase_apsp(net, g, h=2, delivery="pigeon")


def test_deterministic_apsp_is_deterministic():
    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    a = deterministic_apsp(net, g)
    b = deterministic_apsp(net, g)
    assert np.array_equal(a.dist, b.dist, equal_nan=True)
    assert a.rounds == b.rounds
    assert a.step_rounds() == b.step_rounds()


def test_meta_and_ledger_structure():
    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    result = deterministic_apsp(net, g)
    assert result.meta["blocker"] == "derandomized"
    assert result.meta["delivery"] == "pipelined"
    assert result.meta["q"] >= 1
    labels = set(result.step_rounds())
    assert {"step1-csssp", "step2-blocker", "step7-extension"} <= labels
    assert any(l.startswith("step6/") for l in labels)
    assert result.rounds == sum(result.step_rounds().values())


def test_blocker_size_shape():
    """Lemma 3.10 shape: |Q| = O~(n/h) — check q <= n ln(n^2) / h + slack."""
    g = graph_of("er-dense")
    net = CongestNetwork(g)
    for h in (2, 3):
        result = three_phase_apsp(net, g, h=h)
        bound = g.n * 2 * math.log(max(g.n, 2)) / h + 4
        assert result.meta["q"] <= bound


def test_verify_catches_corruption():
    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    result = naive_bf_apsp(net, g)
    result.dist[0, 1] += 1.0
    with pytest.raises(AssertionError):
        result.verify(g)
    result.dist[0, 1] = math.inf
    with pytest.raises(AssertionError):
        result.verify(g)


def test_self_distances_zero():
    g = graph_of("er-zero")
    net = CongestNetwork(g)
    result = deterministic_apsp(net, g)
    assert np.allclose(np.diag(result.dist), 0.0)


def test_asymmetry_respected_on_digraphs():
    g = graph_of("layered")
    net = CongestNetwork(g)
    result = deterministic_apsp(net, g)
    # Layered digraph: strictly forward edges -> backward pairs unreachable.
    assert math.isinf(result.dist[g.n - 1, 0])
    assert math.isfinite(result.dist[0, g.n - 1])


@given(
    n=st.integers(8, 24),
    seed=st.integers(0, 1000),
    p=st.floats(0.12, 0.5),
    directed=st.booleans(),
    zero=st.floats(0.0, 0.4),
)
@settings(max_examples=12, deadline=None)
def test_deterministic_apsp_property(n, seed, p, directed, zero):
    g = erdos_renyi(n, p=p, seed=seed, directed=directed, zero_frac=zero)
    net = CongestNetwork(g)
    result = deterministic_apsp(net, g)
    result.verify(g)


@given(n=st.integers(8, 20), seed=st.integers(0, 500))
@settings(max_examples=8, deadline=None)
def test_all_algorithms_agree_property(n, seed):
    g = erdos_renyi(n, p=0.25, seed=seed)
    net = CongestNetwork(g)
    results = [algo(net, g).dist for _name, algo in ALGORITHMS[:3]]
    for other in results[1:]:
        assert np.array_equal(results[0], other)
