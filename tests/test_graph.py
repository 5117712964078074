import pytest
from hypothesis import given, strategies as st

from incsssp import (BudgetExceeded, DuplicateEdge, Graph, VertexOutOfRange,
                     WeightOutOfRange)


def test_first_insertion_gets_index_one():
    g = Graph(3, 10)
    assert g.insert_edge(0, 1, 5) == 1
    assert g.out_edges(0) == [(1, 5)]


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
    with pytest.raises(VertexOutOfRange):
        g.out_edges(3)


def test_out_edges_in_insertion_order():
    g = Graph(3, 10)
    g.insert_edge(0, 1, 5)
    g.insert_edge(0, 2, 3)
    assert g.out_edges(0) == [(1, 5), (2, 3)]
    assert g.out_edges(1) == []


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


edge_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 9)),
    max_size=20)


@given(edge_lists)
def test_replay_reproduces_adjacency(edges):
    g = Graph(6, 9)
    for (u, v, w) in edges:
        if u == v or g.has_edge(u, v):
            continue
        g.insert_edge(u, v, w)
    clone = g.replay_clone()
    assert clone._adj == g._adj
    assert clone.insertion_log == g.insertion_log


@given(edge_lists)
def test_log_length_matches_adjacency(edges):
    g = Graph(6, 9)
    for (u, v, w) in edges:
        if u == v or g.has_edge(u, v):
            continue
        g.insert_edge(u, v, w)
    total = sum(len(g.out_edges(u)) for u in range(6))
    assert len(g.insertion_log) == total - len(g.initial_edges)
