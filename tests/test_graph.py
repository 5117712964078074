import pytest
from hypothesis import given, strategies as st

from incsssp import (BudgetExceeded, DuplicateEdge, Graph, InvalidParams,
                     VertexOutOfRange, WeightOutOfRange)


def test_duplicate_edge_rejected():
    g = Graph(3, 10)
    g.insert_edge(0, 1, 5)
    with pytest.raises(DuplicateEdge):
        g.insert_edge(0, 1, 5)
    with pytest.raises(DuplicateEdge):
        g.insert_edge(0, 1, 7)


def test_weight_bounds():
    g = Graph(3, 10)
    with pytest.raises(WeightOutOfRange):
        g.insert_edge(0, 1, 0)
    with pytest.raises(WeightOutOfRange):
        g.insert_edge(0, 1, 11)
    with pytest.raises(WeightOutOfRange):
        g.insert_edge(0, 1, 2.5)
    assert g.edge_count == 0


def test_vertex_bounds():
    g = Graph(3, 10)
    with pytest.raises(VertexOutOfRange):
        g.insert_edge(0, 3, 1)
    with pytest.raises(VertexOutOfRange):
        g.insert_edge(0.0, 1, 1)
    with pytest.raises(VertexOutOfRange):
        g.insert_edge(0, 1.0, 1)
    assert g.edge_count == 0


@pytest.mark.parametrize("n, max_weight, error", [
    (0, 5, VertexOutOfRange), (10.0, 5, VertexOutOfRange),
    ("3", 5, VertexOutOfRange), (3, 0, WeightOutOfRange),
    (3, 2.5, WeightOutOfRange), (3, 5.0, WeightOutOfRange)])
def test_constructor_rejects_bad_sizes(n, max_weight, error):
    with pytest.raises(error):
        Graph(n, max_weight)


@pytest.mark.parametrize("budget", ["2", 1.5, 2.0, -1])
def test_constructor_rejects_bad_budget(budget):
    with pytest.raises(BudgetExceeded):
        Graph(3, 5, budget=budget)


def test_zero_budget_admits_no_edge():
    g = Graph(3, 5, budget=0)
    with pytest.raises(BudgetExceeded):
        g.insert_edge(0, 1, 1)


def test_edges_kept_in_arrival_order():
    g = Graph(3, 10, initial_edges=[(2, 0, 4)])
    assert g.insert_edge(0, 1, 5) is None
    g.insert_edge(0, 2, 3)
    assert g._adj == [[(1, 5), (2, 3)], [], [(0, 4)]]
    assert (g.edge_tails, g.edge_heads, g.edge_weights) == \
        ([2, 0, 0], [0, 1, 2], [4, 5, 3])
    assert g.insertion_log == [(0, 1, 5), (0, 2, 3)]
    assert (g.weight_of(0, 2), g.weight_of(2, 0), g.weight_of(1, 0)) == \
        (3, 4, None)


def test_budget_enforced():
    g = Graph(4, 10, budget=2)
    g.insert_edge(0, 1, 1)
    g.insert_edge(1, 2, 1)
    with pytest.raises(BudgetExceeded):
        g.insert_edge(2, 3, 1)


def test_initial_edges_counted_against_budget():
    g = Graph(4, 10, budget=2, initial_edges=[(0, 1, 1), (1, 2, 1)])
    assert not g.insertion_log
    with pytest.raises(BudgetExceeded):
        g.insert_edge(2, 3, 1)


def test_initial_edges_must_precede_insertions():
    g = Graph(4, 10)
    g.insert_edge(0, 1, 1)
    with pytest.raises(BudgetExceeded):
        g.load_initial([(1, 2, 1)])


@pytest.mark.parametrize("bad, error", [
    ((1, 2, 4), DuplicateEdge), ((2, 3, 11), WeightOutOfRange),
    ((2, 9, 1), VertexOutOfRange), ((2, 3), InvalidParams),
    (5, InvalidParams)])
def test_rejected_initial_list_installs_none_of_it(bad, error):
    g = Graph(4, 10, initial_edges=[(3, 0, 5)])
    with pytest.raises(error):
        g.load_initial([(0, 1, 3), (1, 2, 3), (0, 2, 7), bad])
    assert (g.edge_tails, g.edge_heads, g.edge_weights) == ([3], [0], [5])
    assert g._adj == [[], [], [], [(0, 5)]]
    assert g.weight_of(0, 1) is None and g.weight_of(1, 2) is None
    g.load_initial([(0, 1, 3), (1, 2, 3)])
    g.insert_edge(2, 3, 1)
    assert g.insertion_log == [(2, 3, 1)]


def test_constructor_rejects_a_pair_as_an_initial_edge():
    with pytest.raises(InvalidParams):
        Graph(4, 5, initial_edges=[(0, 1)])


edge_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 9)),
    max_size=20)


@given(edge_lists)
def test_log_length_matches_adjacency(edges):
    g = Graph(6, 9)
    for (u, v, w) in edges:
        if u == v or g.weight_of(u, v) is not None:
            continue
        g.insert_edge(u, v, w)
    total = sum(len(g._adj[u]) for u in range(6))
    assert len(g.insertion_log) == total == g.edge_count
