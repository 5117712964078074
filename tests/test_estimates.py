import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from incsssp import CAP, EstimateTable, Graph, dijkstra
from incsssp.det import insert_step
from incsssp.intmath import ceil_div
from incsssp.lazy import relax_limit
from tests.conftest import NotAPath, plant, random_graph, slack
from tests.reference_lazy import ReferenceTable


def make_table(graph, source=0, cap=10 ** 9, gran=Fraction(1)):
    return EstimateTable(graph, source, cap, gran)


# -- bucket arithmetic -------------------------------------------------------


def bucket(d, num: int, den: int):
    """Bucket index ⌈d·den/num⌉ of an estimate for granularity εδ = num/den.

    CAP maps to a dedicated maximal bucket.
    """
    if d == inf:
        return inf
    return ceil_div(d * den, num)


def test_bucket_zero():
    assert bucket(0, 3, 2) == 0


def test_bucket_exact_integer_arithmetic():
    # gran 3/2: ⌈7·2/3⌉ = 5, ⌈6·2/3⌉ = 4
    assert bucket(7, 3, 2) == 5
    assert bucket(6, 3, 2) == 4
    assert bucket(6, 3, 2) < bucket(7, 3, 2)


def test_bucket_cap_is_maximal():
    assert bucket(inf, 3, 2) == inf
    assert bucket(10 ** 12, 3, 2) < bucket(inf, 3, 2)


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.integers(1, 100), st.integers(1, 100))
def test_bucket_monotone(d1, d2, num, den):
    lo, hi = sorted((d1, d2))
    assert bucket(lo, num, den) <= bucket(hi, num, den)


# -- relaxation limits -------------------------------------------------------

scales = st.sampled_from([2 ** 6, 2 ** 20, 2 ** 60])


@settings(max_examples=300)
@given(scale=scales, data=st.data())
def test_limit_is_the_bucket_test(scale, data):
    """cand ≤ lim iff cand < cap and (d̂ is CAP or bucket(d̂) > bucket(cand)),
    for every estimate a table can hold: CAP or an integer below the cap."""
    num = data.draw(st.integers(1, scale))
    den = data.draw(st.integers(1, scale))
    cap = data.draw(st.integers(1, scale))
    d = data.draw(st.one_of(st.just(CAP), st.integers(0, cap - 1)))
    gran = max(1, num // den)
    near = [c for c in (d, cap) if c != CAP]
    cand = data.draw(st.one_of(
        st.integers(0, 2 * scale),
        st.sampled_from(near).flatmap(
            lambda c: st.integers(max(0, c - 3 * gran), c + 3 * gran))))
    want = cand < cap and (d == CAP or bucket(d, num, den) > bucket(cand, num, den))
    assert (cand <= relax_limit(d, num, den, cap)) == want


@st.composite
def relaxation_cases(draw):
    """A random graph, granularity, cap and planted estimates, and a
    sequence of single relaxations and propagations to run on them."""
    scale = draw(scales)
    n = draw(st.integers(2, 10))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1),
                                    st.integers(1, scale)), max_size=4 * n))
    g = Graph(n, scale)
    for u, v, w in edges:
        if u != v and g.weight_of(u, v) is None:
            g.insert_edge(u, v, w)
    gran = Fraction(draw(st.integers(1, 4 * scale)), draw(st.integers(1, 97)))
    cap = draw(st.integers(1, n * scale))
    planted = {v: draw(st.one_of(st.just(CAP), st.integers(0, cap - 1)))
               for v in range(1, n)}
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("relax"), st.integers(0, max(0, g.edge_count - 1))),
        st.tuples(st.just("propagate"),
                  st.frozensets(st.integers(0, n - 1)))), max_size=8))
    return g, gran, cap, planted, ops


@settings(max_examples=200, deadline=None)
@given(relaxation_cases())
def test_limit_loop_matches_two_ceil_div_reference(case):
    """The one-comparison relaxation and propagation give the same
    estimates, parents, touched sets, work, decreases and decrease
    notifications as the reference that computes both bucket indices.  A
    relaxation is the step kernel's, without sync: the new edge's test,
    then a propagation from its head if it fired."""
    g, gran, cap, planted, ops = case
    logs = ([], [])
    new = EstimateTable(g, 0, cap, gran,
                        on_decrease=lambda *a: logs[0].append(a))
    ref = ReferenceTable(g, 0, cap, gran,
                         on_decrease=lambda *a: logs[1].append(a))
    plant(new, planted)
    for v, d in planted.items():
        ref.dhat[v] = d
    # what each propagation of ``new`` touched; the kernel returns nothing
    touched = []
    propagate = new.partial_dijkstra

    def recorded(batch):
        touched.append(propagate(batch))
        return touched[-1]
    new.partial_dijkstra = recorded
    edges = list(zip(g.edge_tails, g.edge_heads, g.edge_weights))
    for kind, arg in ops:
        touched.clear()
        if kind == "relax":
            if not edges:
                continue
            u, v, w = edges[arg]
            insert_step([new], u, v, w, 1, sync=False)
            got = touched[0] if touched else set()
            want = ref.partial_dijkstra({v} if ref.try_relax(u, v, w)
                                        else set())
        else:
            got, want = new.partial_dijkstra(arg), ref.partial_dijkstra(arg)
        assert got == want
        assert new.dhat == ref.dhat
        assert new.parent == ref.parent
        assert (new.work, new.decreases) == (ref.work, ref.decreases)
        assert logs[0] == logs[1]
        assert new.lim == [relax_limit(d, new.gran_num, new.gran_den, cap)
                           for d in new.dhat]


# -- the step kernel's relaxation test ---------------------------------------
# A fired relaxation logs the head at the step; the head has no out-edge,
# so the propagation of its odd step's batch touches nothing.


def test_try_relax_crossing_fires():
    g = Graph(3, 100)
    g.insert_edge(0, 1, 3)
    t = make_table(g, gran=Fraction(2))
    plant(t, {1: 10})
    insert_step([t], 0, 1, 3, 1)
    assert t._touch_log == {1: [1]}
    assert t.dhat[1] == 3
    assert t.parent[1] == 0


def test_try_relax_equal_bucket_is_no_relaxation():
    g = Graph(3, 100)
    g.insert_edge(0, 1, 3)
    t = make_table(g, gran=Fraction(2))
    plant(t, {1: 4})
    insert_step([t], 0, 1, 3, 1)
    assert t._touch_log == {}
    assert t.dhat[1] == 4


def test_try_relax_out_of_cap_uses_candidate():
    g = Graph(3, 100)
    g.insert_edge(0, 1, 1)
    t = make_table(g, gran=Fraction(2))
    assert t.dhat[1] == CAP
    insert_step([t], 0, 1, 1, 1)
    assert t._touch_log == {1: [1]}
    assert t.dhat[1] == 1


def test_try_relax_never_stores_at_or_above_cap():
    g = Graph(3, 100)
    g.insert_edge(0, 1, 60)
    t = make_table(g, cap=50, gran=Fraction(2))
    insert_step([t], 0, 1, 60, 1)
    assert t._touch_log == {}
    assert t.dhat[1] == CAP


def test_decrease_notifications():
    g = Graph(3, 100)
    g.insert_edge(0, 1, 3)
    seen = []
    t = EstimateTable(g, 0, 10 ** 9, Fraction(1),
                      on_decrease=lambda v, old, new: seen.append((v, old, new)))
    insert_step([t], 0, 1, 3, 1)
    assert seen == [(1, inf, 3)]


# -- partial_dijkstra --------------------------------------------------------


def test_partial_dijkstra_empty_input():
    g = Graph(3, 10)
    t = make_table(g)
    before = list(t.dhat), t.work, t.decreases
    assert t.partial_dijkstra(set()) == set()
    assert (t.dhat, t.work, t.decreases) == before


def test_partial_dijkstra_chain():
    g = Graph(3, 10)
    g.insert_edge(0, 1, 1)
    g.insert_edge(1, 2, 1)
    t = make_table(g, gran=Fraction(1))
    plant(t, [0, 1, 9])   # a pre-set to 1, b stale at 9
    touched = t.partial_dijkstra({1})
    assert t.dhat[2] == 2
    assert touched == {2}


def test_in_queue_decrease_not_touched():
    # u relaxes v across a bucket; a second tail then lowers v within the
    # same bucket while v is still queued: value updates, touch does not.
    g = Graph(4, 10)
    g.insert_edge(0, 1, 2)   # far tail
    g.insert_edge(0, 2, 1)
    g.insert_edge(2, 1, 2)   # cheaper route to 1 via 2
    t = make_table(g, gran=Fraction(4))
    plant(t, [0, 100, 100, inf])
    touched = t.partial_dijkstra({0})
    # 1 entered the queue at 2 (touched); 2 at 1 (touched); when 2 left the
    # queue it offered 1 the value 3 -- same bucket, no second touch
    assert touched == {1, 2}
    assert t.dhat[1] == 2


def fixed_set_holds(table, graph, members):
    num, den = table.gran_num, table.gran_den
    for u in members:
        du = table.dhat[u]
        for (v, w) in graph._adj[u]:
            if v in members:
                cand = inf if du == inf else du + w
                if table.dhat[v] > cand:
                    return False
    return True


@pytest.mark.parametrize("seed", range(20))
def test_fixed_set_property_random(seed):
    rng = random.Random(seed)
    g = random_graph(16, 60, 8, seed=seed)
    t = make_table(g, cap=10 ** 6, gran=Fraction(rng.randint(1, 5)))
    for v in range(1, 16):
        plant(t, {v: rng.choice([inf] + [rng.randint(0, 200)
                                         for _ in range(3)])})
    v_input = {v for v in range(16) if rng.random() < 0.4}
    touched = t.partial_dijkstra(v_input)
    assert fixed_set_holds(t, g, v_input | touched)


def test_lower_bound_safety():
    # estimates seeded exactly, then mutated only through relaxations:
    # they remain genuine path weights, never below the truth
    g = random_graph(14, 50, 6, seed=11)
    truth = dijkstra(g, 0)
    t = make_table(g, cap=10 ** 6, gran=Fraction(3))
    t.assign_exact(truth.d, truth.tree_parent, range(g.n))
    rng = random.Random(5)
    for _ in range(30):
        u = rng.randrange(14)
        edges = g._adj[u]
        if not edges or t.dhat[u] == inf:
            continue
        v, w = rng.choice(edges)
        insert_step([t], u, v, w, 1, sync=False)
        t.partial_dijkstra({u})
    for v in range(14):
        assert t.dhat[v] >= truth.d[v]


op_seeds = st.integers(0, 10 ** 6)


@settings(max_examples=40)
@given(op_seeds)
def test_monotonicity_and_parent_soundness(seed):
    rng = random.Random(seed)
    g = random_graph(12, 45, 5, seed=seed % 97)
    t = make_table(g, cap=10 ** 6, gran=Fraction(2))
    snapshots = [list(t.dhat)]
    for _ in range(25):
        u = rng.randrange(12)
        if t.dhat[u] == inf:
            continue
        if rng.random() < 0.5:
            edges = g._adj[u]
            if edges:
                v, w = rng.choice(edges)
                insert_step([t], u, v, w, 1, sync=False)
        else:
            t.partial_dijkstra({u})
        snapshots.append(list(t.dhat))
    for before, after in zip(snapshots, snapshots[1:]):
        assert all(b >= a for b, a in zip(before, after))
    # parent soundness: edge exists, estimate dominates, chain reaches source
    for v in range(12):
        p = t.parent[v]
        if p is None:
            continue
        w = g.weight_of(p, v)
        assert w is not None
        assert t.dhat[v] >= t.dhat[p] + w
    for v in range(12):
        if t.dhat[v] == inf or v == 0:
            continue
        x, steps = v, 0
        while x != 0:
            x = t.parent[x]
            steps += 1
            assert x is not None
            assert steps <= t.dhat[v]


# -- slack -------------------------------------------------------------------


def slack_fixture():
    # five-vertex unit-weight path with the estimates from the worked
    # illustration: witness at distance 4 holds 2 while the endpoint holds 9
    g = Graph(5, 10)
    for i in range(4):
        g.insert_edge(i, i + 1, 1)
    t = make_table(g, gran=Fraction(1))
    plant(t, [2, 7, 8, 8, 9])
    return g, t


def test_slack_witness_value():
    g, t = slack_fixture()
    assert slack(t, [0, 1, 2, 3, 4]) == 9 - 2 - 4


def test_slack_with_fixed_height():
    g, t = slack_fixture()
    assert slack(t, [0, 1, 2, 3, 4], height=8) == 8 - 2 - 4


def test_slack_nonpositive_on_exact_estimates():
    g = random_graph(10, 35, 4, seed=2)
    truth = dijkstra(g, 0)
    t = make_table(g, cap=10 ** 6)
    t.assign_exact(truth.d, truth.tree_parent, range(g.n))
    # walk any real tree path: exact estimates witness no positive error
    for v in range(10):
        if truth.d[v] == inf or v == 0:
            continue
        path = [v]
        while path[-1] != 0:
            path.append(truth.tree_parent[path[-1]])
        path.reverse()
        assert slack(t, path) <= 0


def test_slack_requires_a_path():
    g, t = slack_fixture()
    with pytest.raises(NotAPath):
        slack(t, [0, 2, 4])
