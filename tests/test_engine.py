import gc
import weakref
from fractions import Fraction
from math import inf, isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incsssp import (AlreadyPreprocessed, BudgetExceeded, Config,
                     DeterministicRange, DuplicateEdge, EngineBroken,
                     EstimateTable, Graph, IncrementalSSSP, InvalidConfig,
                     InvalidParams,
                     RandomizedRange, ShortDistanceTree, Unreachable,
                     UNREACHABLE, VertexOutOfRange, bounded_dijkstra,
                     dijkstra, verify)
from incsssp.engine import DEFAULT_C_B
from incsssp.intmath import (ceil_cbrt, ceil_frac, ceil_log2, ceil_sqrt,
                             floor_cbrt)
from incsssp.workloads import random_stream
from tests.conftest import capped_tree, streams


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


def assert_min_table(eng) -> None:
    """The minimum table equals a full scan of the structures, and each
    vertex's owner index names a structure holding that minimum."""
    assert eng.min_value == min_table_scan(eng)
    for v, (best, owner) in enumerate(zip(eng.min_value, eng._min_owner)):
        if best == inf:
            assert owner is None
        else:
            assert eng._structures[owner].estimate(v) == best


def test_every_exported_name_resolves():
    import incsssp
    assert [name for name in incsssp.__all__
            if not hasattr(incsssp, name)] == []
    assert len(set(incsssp.__all__)) == len(incsssp.__all__)
    # every error class is exported, and no error the package never raises
    errors = {name for name, obj in vars(incsssp.errors).items()
              if isinstance(obj, type) and issubclass(obj, Exception)}
    assert errors <= set(incsssp.__all__)
    assert "EngineBroken" in errors and "NotAPath" not in errors


def candidate_ranges(eng) -> list[tuple[int, Fraction, int]]:
    """(τ, εδ, cap) of every range [τ, 2τ) the paper's parameters give,
    derived here from the configuration, whether the engine builds it or
    not."""
    cfg = eng.config
    m, eps = cfg.m_budget, eng.eps_internal
    root = 3 if cfg.mode == "rand" else 2   # M = ⌈m^{1/3}⌉ or ⌈√m⌉
    M = next(k for k in range(1, m + 1) if k ** root >= m)
    e = next(e for e in range(m + 1) if (1 << e) ** root >= m)
    taus = []
    while (1 << e) <= cfg.n * cfg.max_weight:
        taus.append(1 << e)
        e += 1
    if cfg.mode == "rand":
        return [(tau, eps * Fraction(tau, M),
                 ceil_frac((2 + 200 * eng.lg_n * eps) * tau) + 1)
                for tau in taus]
    return [(tau, eps * Fraction(tau, M), ceil_frac((1 + eps) * 2 * tau))
            for tau in taus]


def expected_structures(eng) -> tuple[list[tuple], int]:
    """The plan the engine should make, one (spawn key, τ, εδ, cap) per
    range it builds, the key being τ's index among all τ, and the short
    tree's cap: a range with εδ < 1 is an exact tree below its cap, so it is
    not built and the short tree's cap, 2·M by default, covers it."""
    candidates = candidate_ranges(eng)
    default_cap = 2 * (ceil_cbrt if eng.config.mode == "rand" else ceil_sqrt)(
        eng.config.m_budget)
    return ([(key, tau, eps_delta, cap)
             for key, (tau, eps_delta, cap) in enumerate(candidates)
             if eps_delta >= 1],
            max([default_cap] + [cap for _, eps_delta, cap in candidates
                                 if eps_delta < 1]))


def assert_built_as_planned(eng) -> None:
    """Each built range matches its plan entry, in order: τ, bucket width
    and cap; the phase length ⌊√m / c_B⌋ of a deterministic range; the
    generator of a randomized one, fresh from the entry's spawn key."""
    cfg = eng.config
    assert len(eng.ranges) == len(eng.plan)
    for r, (key, tau, eps_delta, cap) in zip(eng.ranges, eng.plan):
        assert (r.tau, r.table.gran, r.cap) == (tau, eps_delta, cap)
        if cfg.mode == "rand":
            fresh = np.random.PCG64(np.random.SeedSequence(
                cfg.seed, spawn_key=(key,)))
            assert r.rng.bit_generator.state == fresh.state
        else:
            c_b = DEFAULT_C_B if cfg.c_b is None else cfg.c_b
            assert r.B == max(1, isqrt(cfg.m_budget) // c_b)


def test_deterministic_parameter_derivation():
    eng = make(n=16, m=64, w=4)
    # ε/blow-up = 1/10, so εδ = τ/80 < 1 for every τ in 8…64
    assert [tau for tau, _, _ in candidate_ranges(eng)] == [8, 16, 32, 64]
    assert expected_structures(eng) == ([], 141)    # ⌈(1 + 1/10)·128⌉
    assert eng.plan == []
    assert eng.short.cap == 141
    # the raw ε = 1/4 gives εδ = τ/32: τ = 8, 16 fold, 32 and 64 are
    # planned with caps ⌈(5/4)·2τ⌉, and the short tree's is ⌈(5/4)·32⌉
    eng = make(n=16, m=64, w=4, raw_epsilon=True)
    plan = [(2, 32, 1, 80), (3, 64, 2, 160)]
    assert expected_structures(eng) == (plan, 40)
    assert eng.plan == plan
    assert eng.short.cap == 40


def test_randomized_parameter_derivation():
    eng = make(n=16, m=64, w=4, mode="rand")
    assert [tau for tau, _, _ in candidate_ranges(eng)] == [4, 8, 16, 32, 64]
    assert expected_structures(eng) == ([], 161)
    assert eng.plan == []
    assert eng.short.cap == 161    # the τ = 64 cap ⌈(2 + 1/2)·64⌉ + 1
    # the raw ε = 1/4 gives εδ = τ/16: τ = 4, 8 fold, and the others keep
    # their spawn keys 2, 3, 4 and caps (2 + 200)·τ + 1
    eng = make(n=16, m=64, w=4, mode="rand", raw_epsilon=True)
    plan = [(2, 16, 1, 3233), (3, 32, 2, 6465), (4, 64, 4, 12929)]
    assert expected_structures(eng) == (plan, 1617)
    assert eng.plan == plan
    assert eng.short.cap == 1617   # the τ = 8 cap (2 + 200)·8 + 1


# every configuration the engine plans from, for the property tests below
planned_configs = dict(
    n=st.integers(1, 200), m=st.integers(1, 3000), w=st.integers(1, 80),
    eps=st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(3, 4),
                         Fraction(99, 100)]),
    mode=st.sampled_from(["det", "nosync", "rand"]),
    raw_epsilon=st.booleans(), seed=st.integers(0, 3),
    c_b=st.sampled_from([None, 1, 3]))


@settings(max_examples=80, deadline=None)
@given(**planned_configs)
def test_built_ranges_follow_the_fold_rule(n, m, w, eps, mode, raw_epsilon,
                                           seed, c_b):
    """The plan holds every range with εδ ≥ 1 and no other, with the τ, εδ,
    cap and spawn key (its index among all τ) the paper's parameters give,
    and the short tree's cap is the largest cap of the others (or 2·M)."""
    eng = make(n=n, m=m, w=w, eps=eps, mode=mode, raw_epsilon=raw_epsilon,
               seed=seed, c_b=c_b)
    plan, short_cap = expected_structures(eng)
    assert eng.plan == plan
    assert eng.short.cap == short_cap


@settings(max_examples=80, deadline=None)
@given(**planned_configs)
def test_ranges_are_built_as_planned(n, m, w, eps, mode, raw_epsilon, seed,
                                     c_b):
    eng = make(n=n, m=m, w=w, eps=eps, mode=mode, raw_epsilon=raw_epsilon,
               seed=seed, c_b=c_b)
    assert_built_as_planned(eng)
    assert all(r.table.gran >= 1 for r in eng.ranges)


sub_unit = st.fractions(min_value=Fraction(1, 1000),
                        max_value=Fraction(999, 1000), max_denominator=1000)


@settings(max_examples=60, deadline=None)
@given(stream=streams(), kind=st.sampled_from(["det", "nosync", "rand"]),
       eps_delta=sub_unit, tau=st.sampled_from([1, 2, 4, 8, 16]),
       cap=st.integers(1, 3000), phase_length=st.integers(1, 8),
       seed=st.integers(0, 3))
def test_range_with_sub_unit_granularity_is_the_exact_tree(
        stream, kind, eps_delta, tau, cap, phase_length, seed):
    """The premise of the fold: a range with εδ < 1, built on its own,
    holds the exact bounded tree below its cap after every insertion, in
    both deterministic modes and in both randomized tables."""
    g = Graph(stream.n, stream.max_weight, initial_edges=stream.initial_edges)
    if kind == "rand":
        m = stream.budget
        # ε with ε·τ/⌈m^{1/3}⌉ = εδ; the range derives its own cap
        r = RandomizedRange(
            g, 0, tau, eps_delta * ceil_cbrt(m) / tau, m, ceil_log2(g.n),
            np.random.Generator(np.random.PCG64(seed)),
            iter_mult=Fraction(1, 1000))
        assert r.table.gran == eps_delta
        tables = [r.table, r._hidden]
    else:
        r = DeterministicRange(g, 0, tau, eps_delta, phase_length, cap,
                               sync=kind == "det")
        tables = [r.table]
    for _, u, v, w in stream.insertions:
        g.insert_edge(u, v, w)
        # a randomized range runs its fixing phases inside insert
        if kind != "rand" and r.phase_full():
            r.rebuild(bounded_dijkstra(r.graph, 0, r.cap))
        r.insert(u, v, w)
        exact = capped_tree(g, 0, r.cap)[0]
        assert all(t.dhat == exact for t in tables)


@pytest.mark.parametrize("mode", ["det", "nosync", "rand"])
def test_audit_table_labels(mode):
    # the CLI's breach messages and the bench tracer's ".hidden" test read
    # these; the raw ε keeps some ranges
    eng = make(n=16, m=64, w=4, mode=mode, raw_epsilon=True)
    taus = [tau for _, tau, _, _ in expected_structures(eng)[0]]
    assert taus
    if mode == "rand":
        expected = [f"rand[{t}].{k}" for t in taus
                    for k in ("visible", "hidden")]
        visible = [t for label, t in eng.audit_tables()
                   if label.endswith(".visible")]
    else:
        expected = [f"det[{t}]" for t in taus]
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


def rand_range(g, source=0, tau=32, eps=Fraction(1, 4), m_budget=64, **kw):
    return RandomizedRange(g, source, tau, eps, m_budget, 2,
                           np.random.Generator(np.random.PCG64(0)), **kw)


@pytest.mark.parametrize("build", [
    lambda g: DeterministicRange(g, 0, 1, Fraction(1), phase_length=0,
                                 cap=100),
    lambda g: EstimateTable(g, 0, 100, Fraction(0)),
    lambda g: rand_range(g, eps=Fraction(0)),
    lambda g: DeterministicRange(g, 4, 1, Fraction(1), phase_length=2,
                                 cap=100),
    lambda g: EstimateTable(g, -1, 100, Fraction(1)),
    lambda g: ShortDistanceTree(g, -1, 100),
    lambda g: rand_range(g, source=4),
    lambda g: rand_range(g, m_budget=0),
    lambda g: rand_range(g, iter_mult=-1),
    lambda g: rand_range(g, eps=0.25),
    lambda g: EstimateTable(g, 0, 100, 0.5),
    lambda g: ShortDistanceTree(g, 1.5, 100),
    lambda g: ShortDistanceTree(g, 0, 0),
    lambda g: EstimateTable(g, 0, -1, Fraction(1)),
    lambda g: DeterministicRange(g, 0, 0, Fraction(1), phase_length=2,
                                 cap=100),
    lambda g: DeterministicRange(g, 0, 1, Fraction(1), phase_length=2,
                                 cap=0),
    lambda g: DeterministicRange(g, 0, 1, Fraction(1), phase_length=1.5,
                                 cap=100),
    lambda g: RandomizedRange(g, 0, 32, Fraction(1, 4), 64, 0,
                              np.random.Generator(np.random.PCG64(0))),
    lambda g: rand_range(g, tau=1.5),
    lambda g: RandomizedRange(g, 0, 4, Fraction(1, 4), 100, 3, None),
], ids=["phase_length", "gran", "rand_eps", "det_source", "table_source",
        "short_source", "rand_source", "rand_m_budget", "rand_iter_mult",
        "float_eps", "float_gran", "float_source", "short_cap", "table_cap",
        "det_tau", "det_cap", "float_phase_length", "rand_lg_n",
        "float_rand_tau", "rand_rng"])
def test_structures_reject_bad_arguments(build):
    """The exported structures raise the package's typed error on a bad
    argument; a source outside [0, n) or a cap that is not an int >= 1 or
    ``math.inf`` is caught once, by the table."""
    with pytest.raises(InvalidConfig):
        build(Graph(4, 8))


@settings(max_examples=300, deadline=None)
@given(m=st.one_of(st.integers(0, 10 ** 6), st.integers(0, 10 ** 400),
                   st.integers(1, 10 ** 130).map(lambda r: r ** 3 - 1),
                   st.integers(0, 10 ** 130).map(lambda r: r ** 3)))
def test_floor_cbrt_exact(m):
    r = floor_cbrt(m)
    assert r ** 3 <= m < (r + 1) ** 3
    assert ceil_cbrt(m) == (r if r ** 3 == m else r + 1)


def test_huge_budget_builds_and_answers():
    """An m budget far past float range derives ⌊m^{1/3}⌋ in integers;
    n·W = 4 leaves no range, so the short tree answers exactly."""
    eng = make(n=4, m=10 ** 100, w=1, mode="rand")
    eng.preprocess([(0, 1, 1)])
    eng.insert(1, 2, 1)
    assert [eng.query(v) for v in range(4)] == [0, 1, 2, UNREACHABLE]


@pytest.mark.parametrize("mode", ["det", "rand"])
@pytest.mark.parametrize("value", ["no", 1, None])
def test_raw_epsilon_must_be_a_bool(mode, value):
    # a truthy string would skip the rescaling: 8 raw-ε rand ranges and a
    # guarantee ε of 175, or 7 det ranges where the rescaled ε plans none
    with pytest.raises(InvalidConfig, match="raw_epsilon"):
        make(n=128, m=1000, w=64, mode=mode, raw_epsilon=value)


def test_rand_window_index_past_int64_rejected():
    # raw ε keeps ranges whose window index M·(2 + 200·ε·⌈lg n⌉) tops int64
    with pytest.raises(InvalidConfig):
        IncrementalSSSP(Config(n=4, m_budget=10 ** 100, max_weight=10 ** 200,
                               mode="rand", raw_epsilon=True))


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
    """A list one edge past the budget installs nothing and leaves the
    engine usable: the graph's own budget check and rollback reject it."""
    eng = make(n=8, m=4, w=4)
    with pytest.raises(BudgetExceeded):
        eng.preprocess([(i, i + 1, 1) for i in range(5)])
    assert eng.graph.edge_count == 0 and eng.graph._adj == [[]] * 8
    assert eng._broken is None
    eng.preprocess([(i, i + 1, 1) for i in range(4)])
    assert [eng.query(v) for v in range(6)] == [0, 1, 2, 3, 4, UNREACHABLE]
    with pytest.raises(BudgetExceeded):
        eng.insert(5, 6, 1)


@pytest.mark.parametrize("mode", ["det", "rand"])
def test_failed_preprocess_installs_nothing(mode):
    eng = make(n=4, m=10, w=10, mode=mode)
    with pytest.raises(DuplicateEdge):
        eng.preprocess([(0, 1, 3), (1, 2, 3), (1, 2, 4)])
    assert eng.graph.edge_count == 0
    eng.preprocess([(0, 1, 3), (1, 2, 3)])
    eng.insert(2, 3, 1)
    assert verify(eng, dijkstra(eng.graph, 0).d, eng.guarantee_epsilon).clean
    assert [eng.query(v) for v in range(4)] == [0, 3, 6, 7]


@pytest.mark.parametrize("mode", ["det", "rand"])
@pytest.mark.parametrize("bad", [[(0, 1)], [5], None, [(0, 1, 3), (1, 2)]],
                         ids=["pair", "int", "none", "pair_after_edge"])
def test_malformed_initial_edges_rejected(mode, bad):
    """A non-iterable argument or an item that is not (u, v, w) raises the
    typed error, installs nothing and leaves the engine usable."""
    eng = make(n=4, m=10, w=10, mode=mode)
    with pytest.raises(InvalidParams):
        eng.preprocess(bad)
    assert eng.graph.edge_count == 0 and eng.graph._adj == [[]] * 4
    assert eng._broken is None
    eng.preprocess([(0, 1, 3), (1, 2, 3)])
    eng.insert(2, 3, 1)
    assert verify(eng, dijkstra(eng.graph, 0).d, eng.guarantee_epsilon).clean
    assert [eng.query(v) for v in range(4)] == [0, 3, 6, 7]


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
    with pytest.raises(VertexOutOfRange):
        eng.query(1.0)
    with pytest.raises(VertexOutOfRange):
        eng.report_path(1.0)


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
        assert_min_table(eng)


@settings(max_examples=60, deadline=None)
@given(stream=streams(), mode=st.sampled_from(["det", "rand", "nosync"]),
       seed=st.integers(0, 3), raw_epsilon=st.booleans())
def test_every_mode_verifies_after_every_insertion(stream, mode, seed,
                                                   raw_epsilon):
    """Every mode keeps the sandwich and the edge invariant, as the exact
    oracle checks them, and a minimum table equal to a full scan, after
    preprocess and after every insertion, on all three stream families.
    ``rand`` also runs with the raw ε, whose coarse buckets make its hidden
    passes lower estimates."""
    eng = IncrementalSSSP(Config(
        n=stream.n, m_budget=stream.budget, max_weight=stream.max_weight,
        mode=mode, seed=seed, raw_epsilon=mode == "rand" and raw_epsilon,
        iter_mult=Fraction(1, 100)))

    def check(i):
        report = verify(eng, dijkstra(eng.graph, 0).d, eng.guarantee_epsilon,
                        insertion_index=i)
        assert report.clean, report
        assert_min_table(eng)

    eng.preprocess(stream.initial_edges)
    check(0)
    for i, (_, u, v, w) in enumerate(stream.insertions, 1):
        eng.insert(u, v, w)
        check(i)


@pytest.mark.parametrize("mode", ["det", "nosync", "rand"])
def test_min_table_with_ranges_owning_answers(mode):
    """The minimum table equals a full scan after every insertion of a run
    whose raw ε = 3/4 folds no range (short cap 10), so ranges own many of
    the minima."""
    n, m, w = 24, 90, 32
    stream = random_stream(n, m, w, seed=1)
    eng = make(n=n, m=m, w=w, mode=mode, eps=Fraction(3, 4),
               raw_epsilon=True, iter_mult=Fraction(1, 10))
    eng.preprocess(stream.initial_edges)
    owned = 0
    for _, u, v, wt in stream.insertions:
        eng.insert(u, v, wt)
        assert_min_table(eng)
        owned += sum(1 for o in eng._min_owner if o)   # index 0: short tree
    assert owned > 0


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
        r.rebuild(bounded_dijkstra(r.graph, 0, r.cap))
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
    # the tables writing the minimum must not tie an engine into a
    # reference cycle, or every discarded engine stays in memory until the
    # collector runs
    gc.disable()
    try:
        # the raw ε = 3/4 at m = 65 folds no range, so one owns vertex 3
        eng = make(m=65, w=32, eps=Fraction(3, 4), mode=mode,
                   raw_epsilon=True)
        eng.preprocess([(0, 1, 2), (1, 2, 30)])
        eng.insert(2, 3, 1)
        assert eng._structures[eng._min_owner[1]] is eng.short
        assert eng._structures[eng._min_owner[3]] in eng.ranges
        refs = [weakref.ref(x) for x in (eng, eng.short, *eng.ranges)]
        del eng
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def fail(*args):
    raise RuntimeError("structure failed")


@pytest.mark.parametrize("mode", ["det", "nosync", "rand"])
def test_structure_failure_poisons_the_engine(mode):
    """A structure raising after the graph took the edge leaves the engine
    inconsistent, so every later update, query and path report raises
    ``EngineBroken``; an edge the graph rejects leaves it usable."""
    eng = make(m=65, w=32, eps=Fraction(3, 4), mode=mode, raw_epsilon=True)
    eng.preprocess([(0, 1, 2)])
    with pytest.raises(DuplicateEdge):
        eng.insert(0, 1, 5)
    eng.insert(1, 2, 30)
    assert eng.query(2) == 32
    eng.ranges[-1].insert = fail
    with pytest.raises(RuntimeError, match="structure failed"):
        eng.insert(2, 3, 1)
    assert eng.graph.weight_of(2, 3) == 1
    with pytest.raises(EngineBroken, match=r"insert\(2, 3, 1\) failed"):
        eng.insert(3, 4, 1)
    assert eng.graph.weight_of(3, 4) is None
    with pytest.raises(EngineBroken):
        eng.preprocess([])
    with pytest.raises(EngineBroken):   # the minimum may hold part of it
        eng.query(2)
    with pytest.raises(EngineBroken):
        eng.report_path(2)


def test_failed_preprocess_poisons_the_engine():
    eng = make()
    eng.short.rebuild = fail
    with pytest.raises(RuntimeError):
        eng.preprocess([(0, 1, 2)])
    with pytest.raises(EngineBroken, match="preprocess failed"):
        eng.insert(1, 2, 1)
    with pytest.raises(EngineBroken, match="preprocess failed"):
        eng.query(0)
