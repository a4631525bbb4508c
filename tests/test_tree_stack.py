"""Properties of :class:`repro.congest.compressed.TreeStack`.

The batched Step-2 kernels read a collection through one stacked view
that lives for a whole blocker run, so the view must stay equal to what
a fresh stack of the collection would read:

* its ``removed`` mask mirrors the :class:`TreeView` flags after every
  :func:`remove_subtrees_sequential` call, on every engine;
* its depth order lists each in-tree non-root coordinate exactly once,
  shallowest level first, with ``kid`` / ``par`` consistent with the
  parent rows;
* a row selection equals a freshly built view of that subset.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.congest.compressed import TreeStack
from repro.congest.network import CongestNetwork
from repro.csssp.builder import build_csssp
from repro.csssp.pruning import remove_subtrees_sequential
from repro.experiments.registry import make_graph

#: (compress, batch) engine modes: message level, per-phase, batched
ENGINES = [(False, True), (True, False), (True, True)]


def random_collection(seed: int):
    rng = random.Random(seed)
    family = rng.choice(["er", "er-directed", "grid", "path", "star", "ws"])
    graph = make_graph(family, rng.randint(5, 18), seed % 7 + 1)
    net = CongestNetwork(graph, strict=False)
    sources = sorted(rng.sample(range(graph.n),
                                rng.randint(1, graph.n)))
    orientation = rng.choice(["out", "in"])
    coll, _ = build_csssp(net, graph, sources, rng.randint(1, 4),
                          orientation=orientation)
    return graph, coll, rng


def assert_views_equal(a: TreeStack, b: TreeStack) -> None:
    assert a.xs == b.xs and a.row == b.row
    assert (a.n, a.h) == (b.n, b.h)
    for name in ("parent", "depth", "removed", "kid_rows",
                 "kid_cols", "kid_pcols", "kid", "par", "kid_depth",
                 "levels"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@given(seed=st.integers(0, 10_000), engine=st.sampled_from(ENGINES))
@settings(max_examples=40, deadline=None)
def test_mask_mirrors_treeview_flags_after_every_removal(seed, engine):
    compress, batch = engine
    graph, coll, rng = random_collection(seed)
    net = CongestNetwork(graph, strict=False, compress=compress, batch=batch)
    view = TreeStack(coll)
    for _ in range(rng.randint(1, 5)):
        roots = rng.sample(range(graph.n), rng.randint(1, 3))
        remove_subtrees_sequential(net, coll, roots, view=view)
        flags = np.array([coll.trees[x].removed for x in view.xs], dtype=bool)
        assert np.array_equal(view.removed, flags.reshape(view.removed.shape))
        assert_views_equal(view, TreeStack(coll))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_level_order_lists_each_non_root_once_by_depth(seed):
    _graph, coll, _rng = random_collection(seed)
    view = TreeStack(coll)
    n = view.n
    expected = sorted(
        (i, v) for i, x in enumerate(view.xs)
        for v in range(n) if coll.trees[x].depth[v] >= 1
    )
    listed = list(zip(view.kid_rows.tolist(), view.kid_cols.tolist()))
    assert sorted(listed) == expected and len(listed) == len(expected)
    assert np.all(np.diff(view.kid_depth) >= 0)
    assert np.array_equal(view.kid_depth, view.depth[view.kid_rows,
                                                     view.kid_cols])
    for d in range(1, view.h + 1):
        a, b = view.levels[d - 1], view.levels[d]
        assert np.all(view.kid_depth[a:b] == d)
    assert view.levels[-1] == len(listed)
    assert np.array_equal(view.kid, view.kid_rows * n + view.kid_cols)
    assert np.array_equal(
        view.par,
        view.kid_rows * n + view.parent[view.kid_rows, view.kid_cols])


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_row_selection_equals_fresh_view_of_subset(seed):
    graph, coll, rng = random_collection(seed)
    net = CongestNetwork(graph, strict=False, compress=True)
    view = TreeStack(coll)
    remove_subtrees_sequential(
        net, coll, rng.sample(range(graph.n), rng.randint(0, 2)), view=view)
    keep = np.array([rng.random() < 0.5 for _ in view.xs], dtype=bool)
    sub = view.select(keep)
    fresh = TreeStack(coll, [x for x, k in zip(view.xs, keep) if k])
    assert_views_equal(sub, fresh)
    live_pos, levels = sub.live_kids()
    fresh_pos, fresh_levels = fresh.live_kids()
    assert np.array_equal(live_pos, fresh_pos)
    assert np.array_equal(levels, fresh_levels)
