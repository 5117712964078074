import gc
import weakref
from fractions import Fraction
from math import inf

import pytest

from incsssp import (AlreadyPreprocessed, BudgetExceeded, Config,
                     DuplicateEdge, IncrementalSSSP, InvalidConfig,
                     Unreachable, UNREACHABLE, VertexOutOfRange, dijkstra,
                     verify)
from incsssp.workloads import random_stream


def make(n=16, m=64, w=4, mode="det", eps=Fraction(1, 4), **kw):
    return IncrementalSSSP(Config(n=n, m_budget=m, max_weight=w, eps=eps,
                                  mode=mode, **kw))


def min_table_scan(eng) -> list:
    """Recompute the engine's minimum table by full scan."""
    out = []
    for v in range(eng.graph.n):
        best = eng.short.estimate(v)
        for r in eng.ranges:
            e = r.estimate(v)
            if e < best:
                best = e
        out.append(best)
    return out


def test_deterministic_parameter_derivation():
    eng = make(n=16, m=64, w=4)
    assert [r.tau for r in eng.ranges] == [8, 16, 32, 64]
    assert eng.short.cap == 16


def test_randomized_parameter_derivation():
    eng = make(n=16, m=64, w=4, mode="rand")
    assert eng.short.cap == 8                       # 2·⌈64^{1/3}⌉
    assert [r.tau for r in eng.ranges][0] == 4      # 2^⌈lg 64^{1/3}⌉
    assert eng.ranges[-1].tau == 64


@pytest.mark.parametrize("mode", ["det", "nosync", "rand"])
def test_audit_table_labels(mode):
    # the CLI's breach messages and the bench tracer's ".hidden" test read these
    eng = make(n=16, m=64, w=4, mode=mode)
    if mode == "rand":
        expected = [f"rand[{t}].{k}" for t in (4, 8, 16, 32, 64)
                    for k in ("visible", "hidden")]
        visible = [t for label, t in eng.audit_tables()
                   if label.endswith(".visible")]
    else:
        expected = [f"det[{t}]" for t in (8, 16, 32, 64)]
        visible = [t for _, t in eng.audit_tables()]
    assert [label for label, _ in eng.audit_tables()] == expected
    assert visible == [r.table for r in eng.ranges]


def test_eps_zero_rejected():
    with pytest.raises(InvalidConfig):
        make(eps=Fraction(0))
    with pytest.raises(InvalidConfig):
        make(eps=Fraction(1))


@pytest.mark.parametrize("field", ["eps", "iter_mult"])
def test_float_parameters_rejected(field):
    # a float such as 0.1 would silently become a 2^55-denominator rational
    with pytest.raises(InvalidConfig):
        make(**{field: 0.1})


@pytest.mark.parametrize("field, value", [
    ("n", 10.0), ("m_budget", 8.0), ("max_weight", 2.5), ("source", 0.0),
    ("seed", 1.0), ("c_b", 1.5)])
def test_non_integer_fields_rejected(field, value):
    fields = {"n": 16, "m_budget": 64, "max_weight": 4, field: value}
    with pytest.raises(InvalidConfig):
        IncrementalSSSP(Config(**fields))


def test_randomized_eps_scaling():
    eng = make(n=1024, m=64, w=4, mode="rand", eps=Fraction(1, 2))
    assert eng.eps_internal == Fraction(1, 2000)
    assert eng.guarantee_epsilon == Fraction(1, 2)


def test_raw_epsilon_skips_scaling():
    eng = make(n=1024, m=64, w=4, mode="rand", eps=Fraction(1, 2),
               raw_epsilon=True)
    assert eng.eps_internal == Fraction(1, 2)


def test_preprocess_empty_initial_graph():
    eng = make()
    eng.preprocess([])
    assert eng.query(0) == 0
    assert all(eng.query(v) == UNREACHABLE for v in range(1, 16))


def test_preprocess_path_graph_exact():
    eng = make(n=8, m=32, w=4)
    eng.preprocess([(i, i + 1, 2) for i in range(7)])
    truth = dijkstra(eng.graph, 0)
    for v in range(8):
        assert eng.query(v) == truth.d[v]


def test_preprocess_budget():
    eng = make(n=8, m=4, w=4)
    with pytest.raises(BudgetExceeded):
        eng.preprocess([(i, i + 1, 1) for i in range(5)])


def test_preprocess_only_once_and_first():
    eng = make()
    eng.preprocess([])
    with pytest.raises(AlreadyPreprocessed):
        eng.preprocess([])
    eng2 = make()
    eng2.insert(0, 1, 1)
    with pytest.raises(AlreadyPreprocessed):
        eng2.preprocess([])


def test_insert_budget_enforced():
    eng = make(n=8, m=2, w=4)
    eng.insert(0, 1, 1)
    eng.insert(1, 2, 1)
    with pytest.raises(BudgetExceeded):
        eng.insert(2, 3, 1)


def test_duplicate_insert_is_atomic():
    eng = make(n=8, m=32, w=4)
    eng.insert(0, 1, 2)
    snapshot = (list(eng.min_value), eng.insertions_used,
                [list(t.dhat) for _, t in eng.audit_tables()])
    with pytest.raises(DuplicateEdge):
        eng.insert(0, 1, 3)
    assert snapshot == (list(eng.min_value), eng.insertions_used,
                        [list(t.dhat) for _, t in eng.audit_tables()])


def test_query_source_and_bounds():
    eng = make()
    assert eng.query(0) == 0
    with pytest.raises(VertexOutOfRange):
        eng.query(16)


def test_phase_bookkeeping_rebuild_before_next_insert():
    eng = make(n=8, m=36, w=4, c_b=3)   # B = ⌊6/3⌋ = 2
    r = eng.ranges[0]
    assert r.B == 2
    eng.insert(0, 1, 1)
    eng.insert(1, 2, 1)
    assert r.b == 2 and r.phase_full()
    rebuilds = r.rebuilds
    eng.insert(2, 3, 1)
    assert r.rebuilds == rebuilds + 1
    assert r.b == 1


@pytest.mark.parametrize("mode,seed", [("det", 0), ("det", 1), ("rand", 0),
                                       ("rand", 1)])
def test_sandwich_and_min_table_on_random_run(mode, seed):
    n, m, w = 24, 120, 6
    stream = random_stream(n, m, w, seed=seed)
    eng = IncrementalSSSP(Config(
        n=n, m_budget=m, max_weight=w, eps=Fraction(1, 4), mode=mode,
        seed=seed, raw_epsilon=(mode == "rand"),
        iter_mult=Fraction(1, 10) if mode == "rand" else Fraction(1)))
    for i, (_, u, v, wt) in enumerate(stream.events, 1):
        eng.insert(u, v, wt)
        truth = dijkstra(eng.graph, 0)
        report = verify(eng, truth.d, eng.guarantee_epsilon, insertion_index=i)
        assert report.clean, report
    assert min_table_scan(eng) == eng.min_value


def test_range_coverage():
    # every representable distance is owned by the short tree or some range
    for mode in ("det", "rand"):
        eng = make(n=30, m=100, w=7, mode=mode)
        top = 30 * 7
        short_cap = eng.short.cap
        for d in range(1, top + 1):
            covered = d < short_cap or any(
                r.tau <= d < 2 * r.tau for r in eng.ranges)
            assert covered, (mode, d)


def test_report_path_source():
    eng = make()
    assert eng.report_path(0) == [0]


def test_report_path_valid_and_cheap():
    eng = make(n=24, m=120, w=6)
    stream = random_stream(24, 120, 6, seed=5)
    for (_, u, v, w) in stream.events:
        eng.insert(u, v, w)
    truth = dijkstra(eng.graph, 0)
    for v in range(24):
        if eng.query(v) == inf:
            with pytest.raises(Unreachable):
                eng.report_path(v)
            continue
        path = eng.report_path(v)
        assert path[0] == 0 and path[-1] == v
        weight = 0
        for a, b in zip(path, path[1:]):
            w = eng.graph.weight_of(a, b)
            assert w is not None
            weight += w
        assert truth.d[v] <= weight <= eng.query(v)


def test_report_path_exact_after_rebuild():
    eng = make(n=16, m=64, w=4, c_b=1)
    stream = random_stream(16, 60, 4, seed=8)
    for (_, u, v, w) in stream.events:
        eng.insert(u, v, w)
    for r in eng.ranges:
        r.rebuild()
    # rebuild leaves range estimates exact; a path owned by a range after
    # rebuild has exactly the true weight
    truth = dijkstra(eng.graph, 0)
    for v in range(16):
        if truth.d[v] == inf:
            continue
        path = eng.report_path(v)
        weight = sum(eng.graph.weight_of(a, b)
                     for a, b in zip(path, path[1:]))
        assert weight == truth.d[v]


@pytest.mark.parametrize("mode", ["det", "nosync", "rand"])
def test_discarded_engine_freed_without_cycle_collector(mode):
    # the decrease listeners must not tie an engine into a reference cycle,
    # or every discarded engine stays in memory until the collector runs
    gc.disable()
    try:
        eng = make(w=32, mode=mode)
        eng.preprocess([(0, 1, 2), (1, 2, 30)])
        eng.insert(2, 3, 1)
        assert eng._min_owner[1] is eng.short
        assert eng._min_owner[3] in eng.ranges
        refs = [weakref.ref(x) for x in (eng, eng.short, *eng.ranges)]
        del eng
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
