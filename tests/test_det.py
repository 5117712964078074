import random
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from math import inf
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from incsssp import (Config, DeterministicRange, Graph, IncrementalSSSP,
                     Phase, PhaseFull, RandomizedRange, bounded_dijkstra,
                     dijkstra, random_stream)
from incsssp.det import advance_tree, insert_step
from incsssp.intmath import ceil_div, ceil_log2
from incsssp.lazy import EstimateTable
from tests.conftest import capped_tree, random_graph, slack, streams
from tests.reference_lazy import mark_touched, try_relax


def grow_range(n, m, w_max, seed, gran=Fraction(2), B=8, cap=10 ** 6,
               sync=True):
    """Random insertion run against one stand-alone range; yields each state."""
    rng = random.Random(seed)
    g = Graph(n, w_max)
    r = DeterministicRange(g, 0, 1, gran, Phase(B, sync), cap=cap)
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
        if r.phase_full():
            r.rebuild(bounded_dijkstra(r.graph, 0, r.cap))
        g.insert_edge(u, v, w)
        r.insert(u, v, w)
        inserted += 1
        yield g, r


def edge_invariant_holds(g, r):
    t = r.table
    eps_delta = t.gran
    for u in range(g.n):
        du = t.dhat[u]
        if du == inf:
            continue
        for (v, w) in g._adj[u]:
            if min(t.dhat[v], r.cap) > du + w + eps_delta:
                return False
    return True


@pytest.mark.parametrize("seed", range(8))
def test_edge_invariant_after_every_insertion(seed):
    for g, r in grow_range(14, 50, 6, seed):
        assert edge_invariant_holds(g, r)


def test_phase_full_raises():
    g = Graph(4, 5)
    r = DeterministicRange(g, 0, 1, Fraction(1), Phase(2), cap=100)
    g.insert_edge(0, 1, 1)
    r.insert(0, 1, 1)
    g.insert_edge(1, 2, 1)
    r.insert(1, 2, 1)
    g.insert_edge(2, 3, 1)
    with pytest.raises(PhaseFull):
        r.insert(2, 3, 1)
    r.rebuild(bounded_dijkstra(r.graph, 0, r.cap))
    r.insert(2, 3, 1)
    assert r.b == 1


@pytest.mark.parametrize("seed", range(10))
def test_rebuild_matches_oracle_clamped(seed):
    g = random_graph(16, 70, 8, seed=seed)
    cap = 20
    r = DeterministicRange(g, 0, 8, Fraction(1, 2), Phase(4), cap=cap)
    truth = dijkstra(g, 0)
    for v in range(16):
        want = truth.d[v] if truth.d[v] < cap else inf
        assert r.table.dhat[v] == want


def test_rebuild_on_empty_graph():
    g = Graph(5, 3)
    r = DeterministicRange(g, 0, 2, Fraction(1), Phase(2), cap=50)
    assert r.table.dhat[0] == 0
    assert all(r.table.dhat[v] == inf for v in range(1, 5))


def test_rebuild_restores_zero_slack():
    g = random_graph(12, 40, 4, seed=9)
    r = DeterministicRange(g, 0, 4, Fraction(2), Phase(4), cap=10 ** 6)
    truth = dijkstra(g, 0)
    for v in range(12):
        if truth.d[v] == inf or v == 0:
            continue
        path = [v]
        while path[-1] != 0:
            path.append(truth.tree_parent[path[-1]])
        path.reverse()
        assert slack(r.table, path) <= 0


def test_no_profit_insertion_touches_nothing():
    g = Graph(3, 2000)
    g.insert_edge(0, 1, 4)
    r = DeterministicRange(g, 0, 2, Fraction(4), Phase(4), cap=10 ** 6)
    # candidate 0+900 exceeds nothing useful: head was unreachable, gets the
    # new value, so pick an edge whose test fails instead: 1 -> 2 never
    # relaxes because dhat[1]=4 and 4+997 stays above any bucket of interest
    g.insert_edge(1, 2, 997)
    r.insert(1, 2, 997)
    assert r.table.dhat[2] == 4 + 997
    # second, parallel-free edge offering the same bucket: no change at all,
    # and nothing logged at its step
    g.insert_edge(0, 2, 1001)
    before = list(r.table.dhat)
    r.insert(0, 2, 1001)
    assert r.b == 2 and 2 not in r.table._touch_log
    assert r.table.dhat == before


# -- the synchronized batch, checked against the paper ------------------------

def paper_window_start(b: int) -> int:
    """(k−1)·2^j for b = k·2^j with j maximal: the window of step b is
    (start, b]."""
    j = max(j for j in range(b.bit_length()) if b % (1 << j) == 0)
    return ((b >> j) - 1) << j


def relaxes(table, u, v, w) -> bool:
    """Whether the new edge (u, v, w) crosses a bucket boundary of
    ``table``, by the two-``ceil_div`` test rather than the table's
    limits."""
    du, dv = table.dhat[u], table.dhat[v]
    if du == inf or du + w >= table.cap:
        return False
    num, den = table.gran_num, table.gran_den
    return dv == inf or ceil_div(dv * den, num) > ceil_div((du + w) * den,
                                                           num)


class ReadLog(dict):
    """A touch log that records the step of every entry read through
    ``get`` or ``[]``, the reads a window gathers."""

    def __init__(self, reads: list):
        super().__init__()
        self.reads = reads

    def get(self, step, default=None):
        self.reads.append(step)
        return super().get(step, default)

    def __getitem__(self, step):
        self.reads.append(step)
        return super().__getitem__(step)


class TableWatch:
    """What :func:`watch_steps` saw of one range table: per step, whether
    its batch reached back past the step's own head (``reaches_back``) or
    the step found its window empty and skipped it (``skipped``), the
    batch of the latest step (empty if it read none) and what its
    propagation touched (``out``, empty if it propagated nothing), and
    every window read or propagation made outside both a step and a fixing
    phase (``stray``), which no caller should make."""

    def __init__(self, owner, fixing: list):
        self.owner = owner
        self.fixing = fixing
        self.touched = defaultdict(set)   # step -> vertices logged at it
        self.reads: list = []
        self.batches: list = []
        self.out: set = set()
        self.in_step = False
        self.reaches_back: list[bool] = []
        self.skipped: list[int] = []
        self.batch: set = set()
        self.stray: list = []


def flag_fixing(owner, fixing: list) -> None:
    """Keep ``fixing`` non-empty while a ``RandomizedRange`` owner runs a
    fixing phase, whose window reads and propagation are no step's."""
    if not isinstance(owner, RandomizedRange):
        return
    run = owner.run_fixing_phase

    def flagged_run():
        fixing.append(True)
        try:
            run()
        finally:
            fixing.pop()
    owner.run_fixing_phase = flagged_run


@contextmanager
def watch_steps(owners):
    """Check every step of the range tables of ``owners`` against the
    paper, through the calls the step kernel makes: the module-level
    ``det.insert_step``, which the phase of either range kind calls,
    ``partial_dijkstra``, whose argument is the batch, and the touch log,
    replaced by a :class:`ReadLog`.  Yields ``{table: TableWatch}``.

    One kernel call steps a sequence of tables at the same b; each watched
    table of it is checked on its own.  Before a synchronized step
    b = k·2^j, the window is the set of vertices this check saw logged at
    steps ((k−1)·2^j, b) of the phase, plus the new edge's head if the
    two-``ceil_div`` test says it relaxes.  A step with a non-empty window
    must propagate exactly that batch, once; a step with an empty window
    must read no log entry and not propagate.  Without sync the window is
    the head alone, if it relaxes.  After the step, the log at b must hold
    the relaxed head and what the step's propagation touched.  A
    randomized fixing phase's read of its whole phase, steps (0, b], must
    return every touch of the phase; its reads and its hidden pass are no
    step's.  A window read or propagation outside both a step and a
    fixing phase is recorded in ``stray``."""
    watches = {}
    for owner in owners:
        fixing = []
        flag_fixing(owner, fixing)
        for _, table in owner.audit_tables():
            watches[table] = watch = TableWatch(owner, fixing)
            wrap_table(table, watch)

    def watched(tables, u, v, w, b, sync=True):
        windows = {}
        for table in tables:
            watch = watches.get(table)
            if watch is None:
                continue
            assert b == watch.owner.b
            head = {v} if relaxes(table, u, v, w) else set()
            window = set(head)
            if sync:
                for t in range(paper_window_start(b) + 1, b):
                    window |= watch.touched[t]
            windows[table] = head, window
            watch.reads.clear()
            watch.batches.clear()
            watch.out = set()
            watch.in_step = True
        try:
            insert_step(tables, u, v, w, b, sync)
        finally:
            for table in windows:
                watches[table].in_step = False
        for table, (head, window) in windows.items():
            watch = watches[table]
            if window:
                assert watch.batches == [window], f"step {b}"
                watch.reaches_back.append(bool(window - head))
            else:
                assert watch.batches == [] and watch.reads == [], f"step {b}"
                watch.skipped.append(b)
            watch.batch = window
            logged = set(dict.get(table._touch_log, b, ()))
            assert logged == ((head | watch.out) if sync else set())
            watch.touched[b] = logged

    with mock.patch("incsssp.det.insert_step", watched):
        yield watches


def wrap_table(table, watch: TableWatch) -> None:
    """Hook the calls of ``table`` that :func:`watch_steps` checks."""
    table._touch_log = ReadLog(watch.reads)
    propagate = table.partial_dijkstra
    window = table.touched_in_window
    reset = table.reset_phase

    def recorded_propagate(batch):
        if watch.in_step:
            watch.batches.append(set(batch))
        elif not watch.fixing:
            watch.stray.append(("partial_dijkstra", set(batch)))
        out = propagate(batch)
        if watch.in_step:
            watch.out = set(out)
        return out

    def checked_window(lo, hi):
        got = window(lo, hi)
        if watch.fixing:
            assert (lo, hi) == (0, watch.owner.b)
            assert got == set().union(*watch.touched.values())
        elif not watch.in_step:
            watch.stray.append(("touched_in_window", lo, hi))
        return got

    def recorded_reset():
        watch.touched.clear()
        reset()

    table.partial_dijkstra = recorded_propagate
    table.touched_in_window = checked_window
    table.reset_phase = recorded_reset


def test_entry_count_bound_per_decrease():
    # one bucket-crossing decrease puts a vertex into at most ⌈lg B⌉ + 1
    # batches before the next rebuild; the batches are the paper's windows.
    # The source is the first edge's tail, so that steps relax from the
    # start (vertex 0 is the tail of none of these edges)
    B = 16
    rng = random.Random(4)
    edges = []
    seen = set()
    while len(edges) < 60:
        u = rng.randrange(20)
        v = rng.randrange(19)
        if v >= u:
            v += 1
        if (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v, rng.randint(1, 6)))
    source = edges[0][0]
    g = Graph(20, 6)
    r = DeterministicRange(g, source, 1, Fraction(2), Phase(B), cap=10 ** 6)

    memberships = Counter()
    limit = ceil_log2(B) + 1
    with watch_steps([r]) as watches:
        watch = watches[r.table]
        for u, v, w in edges:
            if r.phase_full():
                r.rebuild(bounded_dijkstra(r.graph, source, r.cap))
                memberships.clear()
            g.insert_edge(u, v, w)
            r.insert(u, v, w)
            memberships.update(watch.batch)
            # every touch of the phase, read from the log itself
            touches = Counter(x for vs in dict.values(r.table._touch_log)
                              for x in vs)
            for x in range(20):
                assert memberships[x] <= limit * touches[x]
    assert r.rebuilds > 2 and r.table.decreases > 20
    assert any(watch.reaches_back)
    assert watch.stray == []


def test_batch_is_union_of_window_touch_lists():
    n = 24
    g = Graph(n, 16)
    det_r = DeterministicRange(g, 0, 1, Fraction(2), Phase(16), cap=10 ** 6)
    # τ = 32 puts the rand potential threshold ε·M·τ/4 at 8, so phases
    # often outlast one step and batches reach back
    rand_r = RandomizedRange(
        g, 0, 32, Fraction(1, 4), 64, ceil_log2(n),
        np.random.Generator(np.random.PCG64(5)), iter_mult=Fraction(1, 100))
    rng = random.Random(11)
    seen = set()
    with watch_steps([det_r, rand_r]) as watches:
        while len(seen) < 120:
            u = rng.randrange(n)
            v = rng.randrange(n - 1)
            if v >= u:
                v += 1
            if (u, v) in seen:
                continue
            seen.add((u, v))
            w = rng.randint(1, 16)
            if det_r.phase_full():
                det_r.rebuild(bounded_dijkstra(det_r.graph, 0, det_r.cap))
            g.insert_edge(u, v, w)
            det_r.insert(u, v, w)
            rand_r.insert(u, v, w)
    assert det_r.rebuilds > 1 and rand_r.fixing_phases > 1
    assert len(watches) == 3
    for watch in watches.values():
        # every step either read its window or skipped an empty one
        assert len(watch.reaches_back) + len(watch.skipped) == 120
        assert any(watch.reaches_back)
        assert watch.stray == []


def reference_step(tables, u, v, w, b, sync=True):
    """``det.insert_step`` unfused and without the idle return, one table
    after another: the relaxation and log writes are calls, and every
    step reads its window (lo, b] and propagates from it, however empty."""
    for table in tables:
        relaxed = try_relax(table, u, v, w)
        if not sync:
            table.partial_dijkstra((v,) if relaxed else ())
            continue
        if relaxed:
            mark_touched(table, (v,), b)
        touched = table.partial_dijkstra(
            table.touched_in_window(b & (b - 1), b))
        mark_touched(table, touched, b)


def table_state(table):
    """Everything a step may write, the touch log in insertion order and
    the minimum table the step lowers in place."""
    return (table.dhat[:], table.parent[:], table.lim[:],
            [(b, vs[:]) for b, vs in table._touch_log.items()],
            table.work, table.decreases, table.min_value[:],
            None if table.min_owner is None else table.min_owner[:])


def step_trace(config, stream, step):
    """Replay ``stream`` on an engine whose ranges run ``step`` in place of
    ``insert_step``; returns, per call, the number of tables it stepped
    and per table the set that table's propagation touched (empty if it
    propagated nothing) with the table's state right after the call; then
    every range table's final state."""
    trace = []
    touched = {}
    propagate = EstimateTable.partial_dijkstra

    def recorded_propagate(table, batch):
        out = touched[table] = propagate(table, batch)
        return out

    def traced(tables, u, v, w, b, sync=True):
        touched.clear()
        step(tables, u, v, w, b, sync)
        trace.append((len(tables), [(touched.get(t, set()), table_state(t))
                                    for t in tables]))

    eng = IncrementalSSSP(config)
    with mock.patch("incsssp.det.insert_step", traced), \
            mock.patch.object(EstimateTable, "partial_dijkstra",
                              recorded_propagate):
        eng.preprocess(stream.initial_edges)
        for _, u, v, w in stream.insertions:
            eng.insert(u, v, w)
    return trace + [table_state(t) for r in eng.ranges
                    for _, t in r.audit_tables()]


@settings(max_examples=60, deadline=None)
@given(stream=streams(),
       kind=st.sampled_from([("det", 1), ("det", None), ("nosync", None),
                             ("rand", None)]),
       seed=st.integers(0, 3))
def test_idle_return_matches_reading_every_window(stream, kind, seed):
    """The fused kernel and its idle return change nothing: after every
    call, for every range table it stepped (every table of the engine's
    phase, or both tables of a raw-ε ``RandomizedRange``), estimates,
    parents, limits, touch log, work, decreases, the engine's minimum
    table and the set the table's step touched equal those of unfused
    steps, one table after another, that read their window and propagate
    even when the window is empty."""
    mode, c_b = kind
    config = Config(n=stream.n, m_budget=stream.budget,
                    max_weight=stream.max_weight, mode=mode, c_b=c_b,
                    seed=seed, raw_epsilon=mode == "rand",
                    iter_mult=Fraction(1, 100))
    assume(IncrementalSSSP(config).ranges)
    got = step_trace(config, stream, insert_step)
    want = step_trace(config, stream, reference_step)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"entry {i} of {len(got)}"


@pytest.mark.parametrize("mode, c_b", [("det", None), ("det", 1),
                                       ("nosync", None), ("rand", None)])
def test_idle_steps_read_no_window_and_propagate_nothing(mode, c_b):
    """No edge leaves the source at first, so its reach stays {source},
    no step relaxes anything, and no range table reads a log entry or
    propagates during a step (a fixing phase's reads and pass are no
    step's).  Edges out of the source then make steps busy, and each step
    reads exactly the paper's window, or nothing when that is empty."""
    n = 64
    rng = random.Random(3)
    edges = {}
    while len(edges) < 200:
        u, v = rng.sample(range(1, n), 2)
        edges[u, v] = rng.randint(1, 64)
    busy = [(0, v, rng.randint(1, 64)) for v in rng.sample(range(1, n), 40)]
    eng = IncrementalSSSP(Config(n=n, m_budget=len(edges) + len(busy),
                                 max_weight=64, mode=mode, c_b=c_b,
                                 raw_epsilon=True,
                                 iter_mult=Fraction(1, 100)))
    assert eng.ranges
    with watch_steps(eng.ranges) as watches:
        for (u, v), w in edges.items():
            eng.insert(u, v, w)
        # every range crossed phase boundaries (a rebuild also counts the
        # construction) or ran fixing phases, and stayed idle throughout
        assert all(r.fixing_phases if mode == "rand" else r.rebuilds > 2
                   for r in eng.ranges)
        assert all(len(watch.skipped) == len(edges) and
                   not watch.reaches_back and watch.stray == []
                   for watch in watches.values())
        for u, v, w in busy:
            eng.insert(u, v, w)
    reads = [watch.reaches_back for watch in watches.values()]
    assert all(len(r) > 0 for r in reads)
    assert all(watch.stray == [] for watch in watches.values())
    # a synchronized batch reaches back past its step's head
    assert mode == "nosync" or any(any(r) for r in reads)


# -- one step call per insertion ---------------------------------------------

def phase_engine(mode, c_b, seed=5):
    """An engine of at least two deterministic ranges, and the raw-ε
    random stream it replays."""
    stream = random_stream(64, 400, 64, seed=seed)
    eng = IncrementalSSSP(Config(n=stream.n, m_budget=stream.budget,
                                 max_weight=stream.max_weight, mode=mode,
                                 c_b=c_b, raw_epsilon=True))
    assert len(eng.ranges) >= 2
    return eng, stream


def spy_calls(calls: list):
    """An ``insert_step`` that records each call's tables, edge, b and
    sync, then steps."""
    def spy(tables, u, v, w, b, sync=True):
        calls.append((list(tables), (u, v, w), b, sync))
        insert_step(tables, u, v, w, b, sync)
    return spy


@pytest.mark.parametrize("mode, c_b", [("det", None), ("det", 1),
                                       ("nosync", None)])
def test_one_step_call_steps_every_range_per_insertion(mode, c_b):
    """The deterministic ranges of an engine share one phase: every
    insertion makes exactly one ``insert_step`` call, which holds every
    range's table, in range order, at the b that every range then
    reads, across phase boundaries."""
    eng, stream = phase_engine(mode, c_b)
    calls = []
    with mock.patch("incsssp.det.insert_step", spy_calls(calls)):
        for _, u, v, w in stream.insertions:
            eng.insert(u, v, w)
            [(tables, edge, b, sync)] = calls
            calls.clear()
            assert tables == [r.table for r in eng.ranges]
            assert edge == (u, v, w) and sync == (mode == "det")
            assert all(r.b == b for r in eng.ranges)
    assert all(r.rebuilds > 2 for r in eng.ranges)


def test_randomized_range_steps_both_tables_in_one_call():
    """A randomized range steps its visible table, then its hidden one,
    in one ``insert_step`` call per insertion, at its own b."""
    n = 24
    g = Graph(n, 16)
    r = RandomizedRange(
        g, 0, 32, Fraction(1, 4), 64, ceil_log2(n),
        np.random.Generator(np.random.PCG64(5)), iter_mult=Fraction(1, 100))
    calls = []
    spy = spy_calls(calls)

    def step(tables, u, v, w, b, sync=True):
        assert b == r.b
        spy(tables, u, v, w, b, sync)

    rng = random.Random(11)
    with mock.patch("incsssp.det.insert_step", step):
        while g.edge_count < 120:
            u, v = rng.sample(range(n), 2)
            if g.weight_of(u, v) is not None:
                continue
            w = rng.randint(1, 16)
            g.insert_edge(u, v, w)
            r.insert(u, v, w)
            [(tables, edge, _, sync)] = calls
            calls.clear()
            assert tables == [r.table, r._hidden]
            assert edge == (u, v, w) and sync
    assert r.fixing_phases > 1 and r.table.decreases > 0


def rand_state(r):
    """What a randomized range keeps besides its tables: potential, its
    snapshot, the hidden listener's record, the phase counts and the draw
    generator's state."""
    return (r.phi, r.phi_snapshot, set(r._listener.changed),
            r._listener.slots.tolist(), r.insertions_seen, r.fixing_log[:],
            r.rng.bit_generator.state)


@pytest.mark.parametrize("mode", ["det", "nosync", "rand"])
def test_insert_into_a_full_phase_changes_nothing(mode):
    """An insertion into a full phase raises ``PhaseFull``, through the
    phase or any range stepping it, before any table, touch log, counter,
    potential or the phase's b changes, and before any step call.  An
    engine's shared phase fills at B = 1; a randomized range runs a fixing
    phase as soon as its phase fills, so its b is set to B by hand."""
    if mode == "rand":
        eng, stream = phase_engine("rand", None)
        for _, u, v, w in stream.insertions[:100]:
            eng.insert(u, v, w)
        r = eng.ranges[-1]
        phase = r.phase
        phase.b = phase.B
        steppers, ranges = (phase, r), [r]
    else:
        eng, stream = phase_engine(mode, 10 ** 6)   # B = 1
        phase = eng._phase
        for _, u, v, w in stream.insertions[:100]:
            eng.insert(u, v, w)
        steppers, ranges = (phase, *eng.ranges), eng.ranges
    assert phase.phase_full() and phase.b == phase.B
    full = phase.B
    # a new edge out of the source that every table would relax
    u, w = eng.source, 1
    v = next(v for v in range(eng.graph.n)
             if eng.graph.weight_of(u, v) is None and v != u and
             all(relaxes(t, u, v, w) for t in phase.tables))
    eng.graph.insert_edge(u, v, w)
    before = [table_state(t) for t in phase.tables]
    counters = [r.counters() for r in ranges]
    kept = [rand_state(r) for r in ranges if mode == "rand"]
    calls = []
    with mock.patch("incsssp.det.insert_step", spy_calls(calls)):
        for stepper in steppers:
            with pytest.raises(PhaseFull):
                stepper.insert(u, v, w)
    assert calls == []
    assert [table_state(t) for t in phase.tables] == before
    assert [r.counters() for r in ranges] == counters
    assert [rand_state(r) for r in ranges if mode == "rand"] == kept
    assert phase.b == full


def test_rebuilding_one_range_resets_the_whole_phase():
    """A phase is reset as a whole: rebuilding one range of a shared phase
    sets b to 0 and empties every table's touch log, so no later window
    reads a touch of the previous phase."""
    eng, stream = phase_engine("det", None)
    phase = eng._phase
    for _, u, v, w in stream.insertions:
        eng.insert(u, v, w)
        if sum(bool(t._touch_log) for t in phase.tables) > 1:
            break
    else:
        pytest.fail("no phase logged touches in two tables")
    eng.ranges[-1].rebuild(eng._next_tree())
    assert phase.b == 0
    assert all(t._touch_log == {} for t in phase.tables)


def test_baseline_mode_propagates_only_from_inserted_head():
    g = Graph(4, 10)
    g.insert_edge(1, 2, 1)
    g.insert_edge(2, 3, 1)
    r = DeterministicRange(g, 0, 1, Fraction(1), Phase(8, sync=False),
                           cap=1000)
    g.insert_edge(0, 1, 1)
    r.insert(0, 1, 1)
    # the head's propagation lowered 2 and 3 through it, and logged nothing
    assert r.table.dhat == [0, 1, 2, 3]
    assert r.table.parent == [None, 0, 1, 2]
    assert r.table._touch_log == {}


@pytest.mark.parametrize("seed", range(4))
def test_baseline_mode_logs_no_touch(seed):
    """A nosync range keeps an empty touch log, and its estimates follow
    the per-edge scheme: relax the new edge, propagate from its head."""
    rng = random.Random(seed)
    g = Graph(16, 9)
    r = DeterministicRange(g, 0, 1, Fraction(3, 2),
                           Phase(10 ** 6, sync=False), cap=60)
    ref = EstimateTable(g, 0, 60, Fraction(3, 2))
    rebuild_work = r.table.work   # the constructor's rebuild charge
    for _ in range(80):
        u, v = rng.sample(range(16), 2)
        if g.weight_of(u, v) is not None:
            continue
        w = rng.randint(1, 9)
        g.insert_edge(u, v, w)
        r.insert(u, v, w)
        ref.partial_dijkstra({v} if try_relax(ref, u, v, w) else set())
        assert r.table._touch_log == {}
        assert (r.table.dhat, r.table.parent, r.table.work - rebuild_work,
                r.table.decreases) == (ref.dhat, ref.parent, ref.work,
                                       ref.decreases)
    assert r.table.decreases > 10


def test_bounded_dijkstra_abandons_at_cap():
    g = Graph(4, 10)
    g.insert_edge(0, 1, 3)
    g.insert_edge(1, 2, 3)
    g.insert_edge(2, 3, 3)
    dist, parent, settled = bounded_dijkstra(g, 0, cap=7)
    assert dist == [0, 3, 6, inf]
    assert parent[2] == 1 and parent[3] is None
    assert settled == [0, 1, 2]


@st.composite
def rooted_graphs(draw):
    """A graph on at most 12 vertices with small weights, so that ties are
    common, and a source."""
    n = draw(st.integers(1, 12))
    w_max = draw(st.sampled_from([1, 2, 3, 64]))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1]),
        unique=True, max_size=n * (n - 1)))
    g = Graph(n, w_max)
    for u, v in pairs:
        g.insert_edge(u, v, draw(st.integers(1, w_max)))
    return g, draw(st.integers(0, n - 1))


@settings(max_examples=400, deadline=None)
@given(rooted=rooted_graphs(),
       cap=st.one_of(st.integers(1, 40), st.just(10 ** 9), st.just(inf)))
def test_bounded_dijkstra_matches_the_oracle(rooted, cap):
    """Distances and parents equal the oracle's capped tree, and the
    source is settled first, then every vertex below the cap in
    (distance, id) order."""
    g, source = rooted
    dist, parent, settled = bounded_dijkstra(g, source, cap)
    assert (dist, parent) == capped_tree(g, source, cap)
    below = sorted((d, v) for v, d in enumerate(dist)
                   if d < cap and v != source)
    assert settled == [source] + [v for _, v in below]


# -- one shared Dijkstra per phase boundary ----------------------------------

def reference_assign(table, dist, parents):
    """Full-scan exact assignment: every vertex below the cap, in id order."""
    for v, d in enumerate(dist):
        if d >= table.cap or d == inf:
            continue
        if d < table.dhat[v]:
            table._set(v, d, parents[v])
        elif d == table.dhat[v] and v != table.source:
            table.parent[v] = parents[v]


def reference_exact(graph, source, table):
    dist, parent = capped_tree(graph, source, table.cap)
    table.work += graph.edge_count + graph.n
    reference_assign(table, dist, parent)


def reference_rebuild(r):
    """One range rebuilt from a Dijkstra of its own, capped at its own cap."""
    reference_exact(r.graph, r.source, r.table)
    r.phase.reset()
    r.rebuilds += 1


def reference_preprocess(eng, edges):
    eng.graph.load_initial(edges)
    reference_exact(eng.graph, eng.source, eng.short.table)
    for r in eng.ranges:
        reference_rebuild(r)


def reference_insert(eng, u, v, w):
    eng.graph.insert_edge(u, v, w)
    eng.short.insert(u, v, w)
    if not eng.ranges:
        return
    # the ranges share one phase: they fill together, and one insert
    # steps them all
    if eng.ranges[0].phase_full():
        for r in eng.ranges:
            reference_rebuild(r)
    eng.ranges[0].insert(u, v, w)


def assert_same_state(eng, ref):
    for r, q in zip(eng.ranges, ref.ranges):
        assert r.table.dhat == q.table.dhat
        assert r.table.parent == q.table.parent
        assert r.table.lim == q.table.lim
        assert (r.table.work, r.table.decreases, r.rebuilds) == \
            (q.table.work, q.table.decreases, q.rebuilds)
    assert eng.short.table.dhat == ref.short.table.dhat
    assert eng.short.table.parent == ref.short.table.parent
    assert eng.min_value == ref.min_value
    assert eng._min_owner == ref._min_owner


shared_rebuild_draws = given(
    stream=streams(), mode=st.sampled_from(["det", "nosync"]),
    c_b=st.sampled_from([1, None, 10 ** 6]), preprocess=st.booleans())


def replay(eng, stream, preprocess):
    """The insertions ``eng`` gets after ``preprocess``, if drawn; without
    it the initial edges are inserted first."""
    if preprocess:
        eng.preprocess(stream.initial_edges)
        return stream.insertions
    return [("a", *e) for e in stream.initial_edges] + stream.insertions


@settings(max_examples=60, deadline=None)
@shared_rebuild_draws
def test_shared_rebuild_matches_per_range_dijkstra(stream, mode, c_b,
                                                   preprocess):
    """One Dijkstra to the largest cap, shared by every range and visited
    only where it differs from the previous one, leaves each range exactly
    as a Dijkstra capped at the range's own cap followed by the original
    full-scan assignment would.  c_b = 10^6 gives B = 1, a rebuild before
    every insertion.  Without ``preprocess`` the initial edges are
    inserted, and the first rebuild is diffed against the empty graph's
    tree."""
    def build():
        return IncrementalSSSP(Config(
            n=stream.n, m_budget=stream.budget, max_weight=stream.max_weight,
            mode=mode, c_b=c_b))
    eng, ref = build(), build()
    insertions = replay(eng, stream, preprocess)
    if preprocess:
        reference_preprocess(ref, stream.initial_edges)
    assert_same_state(eng, ref)
    for _, u, v, w in insertions:
        eng.insert(u, v, w)
        reference_insert(ref, u, v, w)
        assert_same_state(eng, ref)


def full_tree_diff(old, new) -> set[int]:
    """Vertices of the whole universe whose distance or parent differs
    between two ``(dist, parent)`` trees."""
    (old_dist, old_parent), (dist, parent) = old, new
    return {v for v in range(len(dist))
            if dist[v] != old_dist[v] or parent[v] != old_parent[v]}


@settings(max_examples=60, deadline=None)
@shared_rebuild_draws
def test_shared_rebuild_visits_only_the_reach(stream, mode, c_b, preprocess):
    """At every boundary the shared tree, advanced in place by the edges
    inserted since the previous one, equals the oracle's Dijkstra capped
    at the same cap, parents included; and its visit list is the
    full-universe diff between a copy of the tree taken before the
    boundary and the new one, each vertex once.  c_b = 10^6 gives
    boundaries of one new edge, c_b = 1 boundaries of ⌊√m⌋; with
    ``preprocess`` the first one carries every initial edge."""
    eng = IncrementalSSSP(Config(
        n=stream.n, m_budget=stream.budget, max_weight=stream.max_weight,
        mode=mode, c_b=c_b))
    boundaries = []
    next_tree = eng._next_tree

    def spy():
        old = tuple(column[:] for column in eng._tree)
        since = eng._since
        dist, parent, visit = next_tree()
        fresh = capped_tree(eng.graph, eng.source, eng._tree_cap)
        assert (dist, parent) == fresh
        assert len(visit) == len(set(visit))
        assert set(visit) == full_tree_diff(old, (dist, parent))
        boundaries.append(eng.graph.edge_count - since)
        return dist, parent, visit
    eng._next_tree = spy
    for _, u, v, w in replay(eng, stream, preprocess):
        eng.insert(u, v, w)
    assert boundaries or not preprocess
    if preprocess:
        assert boundaries[0] == len(stream.initial_edges)


def advanced(base, batch, cap=100):
    """The bounded tree of a graph on ``base`` edges, advanced in place
    after ``batch`` is inserted; checks it against the oracle's capped
    tree and returns (dist, parent, visit)."""
    g = Graph(8, 16)
    for e in base:
        g.insert_edge(*e)
    dist, parent, _ = bounded_dijkstra(g, 0, cap)
    since = g.edge_count
    for e in batch:
        g.insert_edge(*e)
    visit = advance_tree(g, dist, parent, since, cap)
    assert (dist, parent) == capped_tree(g, 0, cap)
    return dist, parent, visit


def test_advance_tree_switches_to_a_smaller_tight_tail():
    # 4 is at 2 through 3 (at 1); the new edge makes 1 (also at 1) tight
    dist, parent, visit = advanced([(0, 3, 1), (3, 4, 1), (0, 1, 1)],
                                   [(1, 4, 1)])
    assert dist[4] == 2 and parent[4] == 1
    assert visit == [4]


def test_advance_tree_keeps_a_smaller_parent_on_a_tie():
    # 4 is at 4 through 3 (at 2); 5 ties at (2, 5) and 1 at (3, 1), both
    # larger than (2, 3) in (distance, id) order
    dist, parent, visit = advanced(
        [(0, 3, 2), (3, 4, 2), (0, 5, 2), (0, 1, 3)], [(5, 4, 2), (1, 4, 1)])
    assert dist[4] == 4 and parent[4] == 3
    assert visit == []


def test_advance_tree_scans_a_new_edge_from_its_lowered_tail():
    # (2, 3) comes first, from 2 at 10; (0, 2) then lowers 2 to 1, which
    # makes (2, 3) tight for 3, at 2 through 6, and (1, 2) < (1, 6)
    dist, parent, visit = advanced(
        [(0, 1, 5), (1, 2, 5), (0, 6, 1), (6, 3, 1)], [(2, 3, 1), (0, 2, 1)])
    assert (dist[2], parent[2]) == (1, 0)
    assert (dist[3], parent[3]) == (2, 2)
    assert sorted(visit) == [2, 3]


def test_advance_tree_ignores_a_candidate_at_the_cap():
    # 1 + 4 reaches the cap 5, so 2 stays out; 1 ties for 4 at (2, 1),
    # larger than its parent 3 at (1, 3)
    dist, parent, visit = advanced([(0, 1, 2), (0, 3, 1), (3, 4, 2)],
                                   [(1, 2, 3), (1, 4, 1)], cap=5)
    assert (dist[2], parent[2]) == (inf, None)
    assert parent[4] == 3
    assert visit == []


def test_advance_tree_skips_a_new_edge_from_an_unreached_tail():
    # 2 is unreached, so (2, 3) and (2, 1) do nothing; (0, 1) ties for 1
    # at (0, 0), smaller than its parent 4 at (1, 4)
    dist, parent, visit = advanced([(0, 4, 1), (4, 1, 1)],
                                   [(2, 3, 1), (2, 1, 1), (0, 1, 2)])
    assert (dist[2], dist[3]) == (inf, inf)
    assert (dist[1], parent[1]) == (2, 0)
    assert visit == [1]


def test_advance_tree_with_an_empty_batch_changes_nothing():
    g = Graph(8, 16)
    for e in [(0, 3, 1), (3, 4, 1), (0, 1, 1)]:
        g.insert_edge(*e)
    dist, parent, _ = bounded_dijkstra(g, 0, 100)
    g.insert_edge(1, 4, 1)
    assert advance_tree(g, dist, parent, 3, 100) == [4]
    tree = (dist[:], parent[:])
    assert advance_tree(g, dist, parent, g.edge_count, 100) == []
    assert (dist, parent) == tree == capped_tree(g, 0, 100)
