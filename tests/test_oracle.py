import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import inf, log2

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incsssp import (Config, EstimateTable, Graph, IncrementalSSSP,
                     InvalidConfig, InvalidParams, bounded_dijkstra,
                     brute_force_distances, dijkstra, exact_distances_fast,
                     phase_error_audit, phase_error_bound, verify)
from incsssp.oracle import VerifyReport, audit_edge_invariant
from incsssp.workloads import random_stream
from tests.conftest import plant, random_graph, streams


def test_single_edge():
    g = Graph(3, 5)
    g.insert_edge(0, 1, 3)
    truth = dijkstra(g, 0)
    assert truth.d == [0, 3, inf]
    assert truth.tree_parent[1] == 0


@pytest.mark.parametrize("seed", range(30))
def test_matches_brute_force_enumeration(seed):
    n = random.Random(seed).randint(2, 8)
    g = random_graph(n, 3 * n, 7, seed=seed)
    assert dijkstra(g, 0).d == brute_force_distances(g, 0)


@pytest.mark.parametrize("seed", range(15))
def test_scipy_path_agrees_with_reference(seed):
    g = random_graph(24, 120, 9, seed=seed)
    assert dijkstra(g, 0).d == exact_distances_fast(g, 0)
    empty, source = Graph(24, 9), seed + 1   # no edge, a source other than 0
    expected = [inf] * 24
    expected[source] = 0
    assert dijkstra(empty, source).d == exact_distances_fast(empty, source) \
        == expected


@pytest.mark.parametrize("source", [-1, 4, 1.5])
@pytest.mark.parametrize("solve", [
    lambda g, s: bounded_dijkstra(g, s, 100), dijkstra, exact_distances_fast,
], ids=["bounded_dijkstra", "dijkstra", "exact_distances_fast"])
def test_exact_solvers_reject_bad_sources(solve, source):
    """A source outside [0, n) or not an int raises the package's typed
    error; Python's indexing must not read −1 as vertex n − 1."""
    g = Graph(4, 8)
    g.insert_edge(3, 1, 2)
    with pytest.raises(InvalidConfig):
        solve(g, source)


@pytest.mark.parametrize("cap", [100, 2 ** 62], ids=["int64", "object"])
def test_audit_of_edgeless_graph_is_empty(cap):
    """With no edge there is nothing to breach, on either array type (the
    object path takes over once cap + W reaches 2^62)."""
    g = Graph(5, 9)
    table = EstimateTable(g, 2, cap, Fraction(1))
    assert audit_edge_invariant([("t", table)], g) == []


def replayed_engine(seed=0, n=24, m=120, w=8):
    stream = random_stream(n, m, w, seed=seed)
    eng = IncrementalSSSP(Config(n=n, m_budget=m, max_weight=w,
                                 eps=Fraction(1, 4), mode="det"))
    for (_, u, v, wt) in stream.events:
        eng.insert(u, v, wt)
    return eng


def test_verify_clean_on_fresh_engine():
    eng = replayed_engine()
    truth = dijkstra(eng.graph, 0)
    report = verify(eng, truth.d, eng.guarantee_epsilon)
    assert report.clean
    assert report.max_ratio >= 1


@pytest.mark.parametrize("cut", [lambda d: [], lambda d: d[:-1],
                                 lambda d: d + [0]],
                         ids=["empty", "short", "long"])
def test_verify_rejects_a_truth_list_of_the_wrong_length(cut):
    """A short list would check only a prefix, an empty one nothing."""
    eng = replayed_engine()
    truth = dijkstra(eng.graph, 0)
    with pytest.raises(InvalidParams):
        verify(eng, cut(truth.d), eng.guarantee_epsilon)


def planted_engine():
    """0→1→2→3 (3, 3, 1); answers planted below, above and at inf."""
    eng = IncrementalSSSP(Config(n=4, m_budget=10, max_weight=10))
    eng.preprocess([(0, 1, 3), (1, 2, 3), (2, 3, 1)])
    eng.min_value[1:] = [2, 9, inf]
    return eng


@pytest.mark.parametrize("truth", [
    [0, 3, 6.5, inf], [0, 3, 6.0, inf], np.array([0, 3, 6.5, inf]),
    np.array([0, 3, 6, 7]), [0, 3, Fraction(6), inf]],
    ids=["float", "integral_float", "numpy_float", "numpy_int", "fraction"])
def test_verify_rejects_truths_that_are_not_ints(truth):
    with pytest.raises(InvalidParams):
        verify(planted_engine(), truth, Fraction(1, 4))


def test_verify_report_on_int_truths():
    report = verify(planted_engine(), [0, 3, 6, 7], Fraction(1, 4), 5)
    assert report == VerifyReport(
        5, lower_violations=[(1, 2, 3)],
        upper_violations=[(2, 9, 6, Fraction(3, 2)), (3, inf, 7, inf)],
        invariant_breaches=[], max_ratio=Fraction(3, 2),
        max_additive_error=3)


def test_verify_is_pure():
    eng = replayed_engine(seed=3)
    truth = dijkstra(eng.graph, 0)
    a = verify(eng, truth.d, eng.guarantee_epsilon)
    b = verify(eng, truth.d, eng.guarantee_epsilon)
    assert (a.lower_violations, a.upper_violations, a.invariant_breaches,
            a.max_ratio) == \
           (b.lower_violations, b.upper_violations, b.invariant_breaches,
            b.max_ratio)


def test_fault_injection_caught_as_lower_violation():
    eng = replayed_engine(seed=5)
    truth = dijkstra(eng.graph, 0)
    victim = next(v for v in range(eng.graph.n)
                  if 0 < truth.d[v] < inf)
    eng.min_value[victim] = truth.d[victim] - 1
    report = verify(eng, truth.d, eng.guarantee_epsilon)
    assert [v for (v, _, _) in report.lower_violations] == [victim]


def test_upper_violation_detected():
    eng = replayed_engine(seed=6)
    truth = dijkstra(eng.graph, 0)
    victim = next(v for v in range(eng.graph.n) if 0 < truth.d[v] < inf)
    eng.min_value[victim] = truth.d[victim] * 10
    report = verify(eng, truth.d, eng.guarantee_epsilon)
    assert any(v == victim for (v, _, _, _) in report.upper_violations)


def test_phase_error_audit_zero_after_rebuild():
    from incsssp import DeterministicRange
    g = random_graph(16, 60, 6, seed=2)
    truth = dijkstra(g, 0)
    finite = sorted(d for d in truth.d if 0 < d < inf)
    tau = max(1, finite[len(finite) // 2]) if finite else 1
    r = DeterministicRange(g, 0, tau, Fraction(1), phase_length=4,
                           cap=10 ** 6)
    assert phase_error_audit(r, truth.d) == 0


# ------------------------------------------------- exact phase error bound


def reference_phase_bound(B, eps_delta) -> Decimal:
    """2·B·εδ·lg B + B·εδ to 60 digits; ``Decimal.ln`` is correctly rounded."""
    with localcontext() as ctx:
        ctx.prec = 60
        lg = Decimal(B).ln() / Decimal(2).ln()
        unit = Decimal(eps_delta.numerator) * B / eps_delta.denominator
        return unit * (2 * lg + 1)


def test_phase_error_bound_exact_at_three():
    # float lg 3 < below < lg 3 < above, each within 1.1e-16 of lg 3
    below = Fraction(85137581, 53715833)
    above = Fraction(187363077, 118212940)
    with localcontext() as ctx:
        ctx.prec = 60
        lg3 = Decimal(3).ln() / Decimal(2).ln()
    assert Fraction(log2(3)) < below < Fraction(lg3) < above
    bound = phase_error_bound(3, Fraction(1))    # 6·lg 3 + 3
    inside, outside = 6 * below + 3, 6 * above + 3
    assert inside <= bound and not inside > bound and inside < bound
    assert outside > bound and not outside <= bound and outside >= bound
    # a float lg 3 rejects the error that lies inside the bound
    assert inside > 6 * Fraction(log2(3)) + 3


def test_phase_error_bound_edges():
    bound = phase_error_bound(4, Fraction(1, 3))     # 2·4·(1/3)·2 + 4/3
    assert Fraction(20, 3) <= bound and Fraction(20, 3) >= bound
    assert not Fraction(20, 3) < bound and not Fraction(20, 3) > bound
    assert Fraction(20, 3) + Fraction(1, 10 ** 30) > bound
    one = phase_error_bound(1, Fraction(5, 2))       # lg 1 = 0: just εδ
    assert Fraction(5, 2) <= one and 3 > one and 2 < one
    assert -inf < bound < inf and inf > bound and not inf <= bound
    assert float(phase_error_bound(3, Fraction(1))) == pytest.approx(
        6 * log2(3) + 3)


@pytest.mark.parametrize("B, eps_delta", [
    (2, Fraction(-1)), (2, 0), (0, 1), (-3, 1), (1.5, 1), (2, 0.5),
    (2, "1/2"), (None, 1)])
def test_phase_error_bound_rejects_bad_parameters(B, eps_delta):
    """A negative εδ gave a wrong answer, zero ones ZeroDivisionError and
    a float phase length AttributeError."""
    with pytest.raises(InvalidParams):
        phase_error_bound(B, eps_delta)


@settings(max_examples=300, deadline=None)
@given(B=st.integers(1, 200), num=st.integers(1, 50), den=st.integers(1, 50),
       err=st.fractions(min_value=-10, max_value=10 ** 4, max_denominator=100))
def test_phase_error_bound_matches_decimal_reference(B, num, den, err):
    eps_delta = Fraction(num, den)
    bound = phase_error_bound(B, eps_delta)
    ref = reference_phase_bound(B, eps_delta)
    with localcontext() as ctx:
        ctx.prec = 60
        e = Decimal(err.numerator) / err.denominator
        clear = abs(e - ref) > Decimal(10) ** -40
    if clear:
        assert (err <= bound) == (e <= ref)
        assert (err > bound) == (e > ref)


# ------------------------------------------------- exactness past 2^53


@pytest.fixture(params=[2 ** 55, 2 ** 60], ids=["W=2^55", "W=2^60"])
def big(request):
    """0→1 (W−1), 1→2 (W), so d(2) = 2W − 1, which float64 rounds to 2W.
    The audit runs in int64 at W = 2^55 and in Python ints at W = 2^60."""
    w = request.param
    eng = IncrementalSSSP(Config(n=3, m_budget=2, max_weight=w))
    eng.insert(0, 1, w - 1)
    eng.insert(1, 2, w)
    return eng, dijkstra(eng.graph, 0).d, w


def test_big_weights_start_clean(big):
    eng, dist, w = big
    assert dist == [0, w - 1, 2 * w - 1]
    report = verify(eng, dist, eng.guarantee_epsilon)
    assert report.clean and report.max_ratio == 1


def test_scipy_path_exact_past_2_53(big):
    eng, dist, _ = big
    assert exact_distances_fast(eng.graph, 0) == dist


def test_lower_violation_one_below_caught_at_big_weights(big):
    eng, dist, _ = big
    eng.min_value[2] = dist[2] - 1
    report = verify(eng, dist, eng.guarantee_epsilon)
    assert report.lower_violations == [(2, dist[2] - 1, dist[2])]


def test_upper_violation_one_past_bound_caught_at_big_weights(big):
    eng, dist, _ = big
    one = 1 + eng.guarantee_epsilon
    bound = dist[2] * one.numerator // one.denominator   # ⌊(1+ε)·d⌋
    eng.min_value[2] = bound
    assert verify(eng, dist, eng.guarantee_epsilon).clean
    eng.min_value[2] = bound + 1
    report = verify(eng, dist, eng.guarantee_epsilon)
    assert report.upper_violations == [
        (2, bound + 1, dist[2], Fraction(bound + 1, dist[2]))]
    assert report.max_ratio == Fraction(bound + 1, dist[2])


def test_edge_breach_of_one_caught_at_big_weights(big):
    eng, dist, w = big
    label, table = next((label, t) for label, t in eng.audit_tables()
                        if t.dhat[1] == w - 1 and t.dhat[1] + 2 * w < t.cap)
    floor_gran = table.gran_num // table.gran_den
    plant(table, {2: table.dhat[1] + w + floor_gran})
    assert verify(eng, dist, eng.guarantee_epsilon).invariant_breaches == []
    plant(table, {2: table.dhat[2] + 1})
    report = verify(eng, dist, eng.guarantee_epsilon)
    assert report.invariant_breaches == [
        (label, (1, 2), floor_gran + 1 - table.gran)]


def reference_sandwich(q, d, eps):
    """Lower list, upper list and max ratio, one ``Fraction`` per vertex."""
    lower, upper, ratios = [], [], []
    for v, (qv, dv) in enumerate(zip(q, d)):
        if dv == inf:
            if qv != inf:
                lower.append((v, qv, dv))
            continue
        if qv == inf:
            upper.append((v, qv, dv, inf))
            continue
        if dv == 0:
            if qv < 0:
                lower.append((v, qv, dv))
            elif qv > 0:
                upper.append((v, qv, dv, inf))
            continue
        ratio = Fraction(qv) / Fraction(dv)
        ratios.append(ratio)
        if ratio < 1:
            lower.append((v, qv, dv))
        elif ratio > 1 + eps:
            upper.append((v, qv, dv, ratio))
    return lower, upper, max(ratios, default=Fraction(1))


@settings(max_examples=60, deadline=None)
@given(stream=streams(families=("random", "chain")),
       scale=st.sampled_from([1, 3 ** 40]),
       edits=st.lists(st.tuples(st.integers(0, 47), st.sampled_from(
           ["below", "at_bound", "past_bound", "inf"])), max_size=6))
def test_verify_matches_fraction_reference(stream, scale, edits):
    eng = IncrementalSSSP(Config(n=stream.n, m_budget=stream.budget,
                                 max_weight=stream.max_weight))
    eng.preprocess(stream.initial_edges)
    for (_, u, v, w) in stream.insertions:
        eng.insert(u, v, w)
    eps = eng.guarantee_epsilon
    dist = [d * scale for d in dijkstra(eng.graph, 0).d]
    q = [x * scale for x in eng.min_value]
    one = 1 + eps
    for v, kind in edits:
        v %= stream.n
        if dist[v] == inf:
            q[v] = 0 if kind == "below" else inf
        elif kind == "below":
            q[v] = dist[v] - 1
        elif kind == "inf":
            q[v] = inf
        else:
            bound = dist[v] * one.numerator // one.denominator
            q[v] = bound + (kind == "past_bound")
    eng.min_value[:] = q
    report = verify(eng, dist, eps)
    assert (report.lower_violations, report.upper_violations,
            report.max_ratio) == reference_sandwich(q, dist, eps)


@settings(max_examples=60, deadline=None)
@given(stream=streams(families=("random", "chain")),
       mode=st.sampled_from(["det", "rand"]),
       edits=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 47),
                                st.floats(0, 1.1)), max_size=8))
def test_audit_matches_fraction_reference(stream, mode, edits):
    # the raw ε keeps the ranges with εδ ≥ 1, which the rescaled one folds
    # into the short tree at these sizes
    eng = IncrementalSSSP(Config(n=stream.n, m_budget=stream.budget,
                                 max_weight=stream.max_weight, mode=mode,
                                 raw_epsilon=True,
                                 iter_mult=Fraction(1, 100)))
    eng.preprocess(stream.initial_edges)
    for (_, u, v, w) in stream.insertions:
        eng.insert(u, v, w)
    tables = eng.audit_tables()
    if tables:   # a tiny nW folds even the raw-ε ranges
        for t, v, frac in edits:
            table = tables[t % len(tables)][1]
            plant(table, {v % stream.n: inf if frac > 1
                          else int(frac * table.cap)})
    want = []
    for label, table in tables:
        for u, v, w in zip(eng.graph.edge_tails, eng.graph.edge_heads,
                           eng.graph.edge_weights):
            if table.dhat[u] != inf:
                excess = Fraction(min(table.dhat[v], table.cap)
                                  - table.dhat[u] - w)
                if excess > table.gran:
                    want.append((label, (u, v), excess - table.gran))
    assert verify(eng, dijkstra(eng.graph, 0).d,
                  eng.guarantee_epsilon).invariant_breaches == want
