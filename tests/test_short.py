import random
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from incsssp import Graph, ShortDistanceTree, dijkstra
from tests.conftest import random_graph, streams
from tests.reference_lazy import ReferenceShortTree


def run_insertions(n, m, w_max, cap, seed):
    rng = random.Random(seed)
    g = Graph(n, w_max)
    tree = ShortDistanceTree(g, 0, cap)
    seen = set()
    inserted = 0
    while inserted < m:
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        if (u, v) in seen:
            continue
        seen.add((u, v))
        w = rng.randint(1, w_max)
        g.insert_edge(u, v, w)
        tree.insert(u, v, w)
        inserted += 1
        yield g, tree


@pytest.mark.parametrize("seed", range(10))
def test_exact_below_cap_after_every_insertion(seed):
    cap = 12
    for g, tree in run_insertions(18, 80, 5, cap, seed):
        truth = dijkstra(g, 0)
        for v in range(18):
            want = truth.d[v] if truth.d[v] < cap else inf
            assert tree.estimate(v) == want


def test_insert_beyond_cap_changes_nothing():
    g = Graph(3, 20)
    g.insert_edge(0, 1, 4)
    tree = ShortDistanceTree(g, 0, cap=10)
    g.insert_edge(1, 2, 8)
    tree.insert(1, 2, 8)   # 4 + 8 >= cap
    assert tree.estimate(2) == inf


def test_insert_into_unreachable_component_changes_nothing():
    g = Graph(4, 20)
    tree = ShortDistanceTree(g, 0, cap=10)
    g.insert_edge(2, 3, 1)
    tree.insert(2, 3, 1)
    assert tree.estimate(3) == inf


def test_improvement_propagates_downstream():
    g = Graph(5, 20)
    for (u, v, w) in [(0, 1, 7), (1, 2, 1), (2, 3, 1)]:
        g.insert_edge(u, v, w)
    tree = ShortDistanceTree(g, 0, cap=10)
    assert tree.estimate(3) == 9
    g.insert_edge(0, 2, 3)   # drops d(2) from 8 to 3
    tree.insert(0, 2, 3)
    assert tree.estimate(2) == 3
    assert tree.estimate(3) == 4


def test_relaxation_work_bound():
    n, m, cap, seed = 20, 100, 15, 7
    last_tree = None
    for g, tree in run_insertions(n, m, 4, cap, seed):
        last_tree = tree
    # each vertex's integer estimate decreases at most cap times
    assert last_tree.table.decreases <= n * cap + m


@settings(max_examples=150, deadline=None)
@given(stream=streams(), cap=st.one_of(st.just(inf), st.integers(1, 400)),
       preload=st.booleans())
def test_inlined_loop_matches_per_decrease_reference(stream, cap, preload):
    """The propagation that writes decreases in place leaves the same
    estimates, parents, work and decreases after every insertion as one
    writing each decrease through ``_set``."""
    g = Graph(stream.n, stream.max_weight, budget=stream.budget,
              initial_edges=stream.initial_edges if preload else ())
    tree = ShortDistanceTree(g, 0, cap)
    ref = ReferenceShortTree(tree)
    insertions = stream.insertions if preload else \
        [("a", *e) for e in stream.initial_edges] + stream.insertions
    t = tree.table
    for _, u, v, w in insertions:
        g.insert_edge(u, v, w)
        tree.insert(u, v, w)
        ref.insert(u, v, w)
        assert t.dhat == ref.dhat
        assert t.parent == ref.parent
        assert (t.work, t.decreases) == (ref.work, ref.decreases)
