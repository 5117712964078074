import random
from fractions import Fraction
from math import inf

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from incsssp import (Config, Graph, IncrementalSSSP, RandomizedRange,
                     dijkstra, random_stream, verify)
from incsssp.intmath import ceil_cbrt, ceil_frac, ceil_log2
from tests.conftest import random_graph, streams
from tests.reference_lazy import mark_touched
from tools.state_digest import c7_run


def make_range(graph, tau=8, eps=Fraction(1, 4), m_budget=64, seed=1,
               iter_mult=Fraction(1, 10), **kw):
    lg_n = ceil_log2(graph.n)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return RandomizedRange(graph, 0, tau, eps, m_budget, lg_n, rng,
                           iter_mult=iter_mult, **kw)


def drive(r, g, m, seed):
    rng = random.Random(seed)
    seen = set()
    inserted = 0
    while inserted < m:
        u = rng.randrange(g.n)
        v = rng.randrange(g.n - 1)
        if v >= u:
            v += 1
        if (u, v) in seen:
            continue
        seen.add((u, v))
        w = rng.randint(1, g.max_weight)
        g.insert_edge(u, v, w)
        r.insert(u, v, w)
        inserted += 1
        yield


def potential_scan(r) -> int:
    """Full-scan Σ d̂ over the hidden table, CAP counted as the cap."""
    return sum(r.cap if d == inf else d for d in r._hidden.dhat)


def test_cap_formula():
    g = Graph(16, 4)
    r = make_range(g, tau=8, eps=Fraction(1, 4), m_budget=64)
    lg_n = ceil_log2(16)
    assert r.cap == ceil_frac((2 + 200 * lg_n * Fraction(1, 4)) * 8) + 1
    assert r.B == 4 and r.m_cbrt == 4
    assert r.table.gran == Fraction(1, 4) * Fraction(8, 4)   # εδ, δ = τ/M


def test_trigger_boundaries():
    g = Graph(8, 4)
    r = make_range(g, m_budget=64)
    assert not r.needs_fixing()
    r.phi_snapshot = r.phi + r.threshold - 1
    assert not r.needs_fixing()
    r.phi_snapshot = r.phi + r.threshold
    assert r.needs_fixing()
    r.phi_snapshot = r.phi
    r.phase.b = r.B
    assert r.needs_fixing()
    # ε·M·τ/4 = (1/3)·4·8/4 = 8/3: a drop of 2 must not fire, 3 must
    r = make_range(Graph(8, 4), eps=Fraction(1, 3), m_budget=64)
    assert r.threshold == 3
    r.phi_snapshot = r.phi + 2
    assert not r.needs_fixing()
    r.phi_snapshot = r.phi + 3
    assert r.needs_fixing()


def test_counter_trigger_forces_phase():
    g = Graph(12, 4)
    r = make_range(g, m_budget=27)   # B = 3
    assert r.B == 3
    before = r.fixing_phases
    for _ in drive(r, g, 3, seed=2):
        pass
    assert r.fixing_phases > before
    assert not r.needs_fixing()


def test_hidden_pass_can_fire_a_second_fixing_phase():
    """The hidden pass runs after the potential snapshot, so it can lower
    the potential past the threshold again: ``insert`` then runs another
    fixing phase at once, logged at the same insertion count."""
    n, m = 16, 60
    stream = random_stream(n, m, 64, seed=17)
    eng = IncrementalSSSP(Config(n=n, m_budget=m, max_weight=64, seed=17,
                                 mode="rand", raw_epsilon=True,
                                 iter_mult=Fraction(1, 100)))
    for (_, u, v, w) in stream.insertions:
        eng.insert(u, v, w)
        assert not any(r.needs_fixing() for r in eng.ranges)
    assert any(len(set(r.fixing_log)) < len(r.fixing_log)
               for r in eng.ranges)


@pytest.mark.parametrize("seed", range(6))
def test_potential_equals_full_scan(seed):
    g = Graph(14, 5)
    r = make_range(g, m_budget=60, seed=seed)
    for _ in drive(r, g, 45, seed=seed):
        assert r.phi == potential_scan(r)


def test_no_estimate_change_means_no_potential_drop():
    g = Graph(6, 9)
    g.insert_edge(0, 1, 5)
    r = make_range(g, tau=8, m_budget=30)
    phi = r.phi
    fixes = r.fixing_phases
    # candidate 0+9 lands above the current estimate of 1: nothing changes
    g.insert_edge(0, 2, 9)
    r.insert(0, 2, 9)
    # vertex 2 went from unreachable to 9 in both tables, so phi did drop;
    # repeat with a genuinely profitless edge
    phi = r.phi
    g.insert_edge(1, 2, 9)   # 5+9 = 14 > 9
    r.insert(1, 2, 9)
    assert r.phi == phi or r.fixing_phases > fixes


def visible_decrease(r, v, value, parent):
    """Lower d̂(v) in the visible table alone (test-only surgery) and log it
    in the touch log at a step of the phase, as ``insert_step`` would."""
    r.table._set(v, value, parent)
    r.phase.b += 1
    mark_touched(r.table, (v,), r.b)


def test_sync_takes_pointwise_minimum_and_drops_phi():
    g = Graph(4, 20)
    g.insert_edge(0, 1, 12)
    r = make_range(g, tau=8, m_budget=30)
    assert r.table.dhat[1] == r._hidden.dhat[1] == 12
    # diverge by a logged decrease of the visible table alone, as an
    # insertion step writes one: hidden holds 12, visible 10, and no hidden
    # edge is tense, so only the sync can lower the hidden estimate
    visible_decrease(r, 1, 10, 0)
    assert r.phi == potential_scan(r)
    phi_before = r.phi
    r.run_fixing_phase()
    assert r.table.dhat[1] == 10
    assert r._hidden.dhat[1] == 10
    assert r._hidden.parent[1] == 0
    assert r.phi <= phi_before - 2


def test_hidden_pass_runs_from_a_vertex_only_the_sync_lowered():
    """A hidden vertex lowered by the sync alone can make an out-edge tense;
    the pass must then run, in the hidden table only."""
    g = Graph(4, 20)
    g.insert_edge(0, 1, 12)
    g.insert_edge(1, 2, 5)
    # iter_mult 1 draws every window, so every finite vertex is a seed
    r = make_range(g, tau=8, m_budget=30, iter_mult=Fraction(1))
    assert r._hidden.dhat[:3] == [0, 12, 17]
    visible_decrease(r, 1, 10, 0)
    r.run_fixing_phase()
    assert r._hidden.dhat[1] == 10 and r._hidden.dhat[2] == 15
    assert r._hidden.parent[2] == 1
    assert r.table.dhat[2] == 17   # the pass never touches the visible table


class RecordingRng:
    """Stands in for a range's generator and records the window indices of
    each fixing phase, which ``integers`` draws once per phase.  (A numpy
    Generator's methods cannot be reassigned, so the wrapper replaces the
    attribute ``r.rng`` rather than ``r.rng.integers``.)"""

    def __init__(self, rng):
        self.rng = rng
        self.draws = []

    def integers(self, *args, **kwargs):
        got = self.rng.integers(*args, **kwargs)
        self.draws.append(tuple(int(i) for i in got))
        return got


def record_draws(r):
    r.rng = RecordingRng(r.rng)
    return r.rng.draws


def test_sampled_indices_reproducible():
    def collect(seed):
        g = Graph(16, 5)
        r = make_range(g, m_budget=27, seed=seed)
        draws = record_draws(r)
        for _ in drive(r, g, 20, seed=99):
            pass
        assert len(draws) == r.fixing_phases > 0
        return draws

    assert collect(7) == collect(7)
    assert collect(7) != collect(8)


def test_sample_range_invariant():
    g = Graph(16, 5)
    r = make_range(g, m_budget=27, seed=3)
    draws = record_draws(r)
    for _ in drive(r, g, 20, seed=5):
        pass
    assert len(draws) == r.fixing_phases > 0
    for indices in draws:
        assert len(indices) == r.iterations
        assert all(0 <= i <= r.max_window_index for i in indices)


def test_visible_estimate_ignores_hidden_mutations():
    g = Graph(6, 9)
    g.insert_edge(0, 1, 6)
    r = make_range(g, tau=8, m_budget=30)
    # hidden improves privately (as a fixing-phase propagation would)
    r._hidden._set(1, 3, 0)
    assert r.estimate(1) == 6
    r.run_fixing_phase()
    assert r.estimate(1) == 3


def edge_invariant_holds(g, table, cap):
    eps_delta = table.gran
    for u in range(g.n):
        du = table.dhat[u]
        if du == inf:
            continue
        for (v, w) in g._adj[u]:
            if min(table.dhat[v], cap) > du + w + eps_delta:
                return False
    return True


@pytest.mark.parametrize("seed", range(5))
def test_invariant_in_both_tables_after_each_op(seed):
    g = Graph(14, 5)
    r = make_range(g, m_budget=60, seed=seed)
    for _ in drive(r, g, 45, seed=seed + 100):
        assert edge_invariant_holds(g, r.table, r.cap)
        assert edge_invariant_holds(g, r._hidden, r.cap)


@pytest.mark.parametrize("seed", range(5))
def test_estimates_never_below_truth(seed):
    g = Graph(14, 5)
    r = make_range(g, m_budget=60, seed=seed)
    for _ in drive(r, g, 45, seed=seed + 7):
        truth = dijkstra(g, 0)
        for v in range(g.n):
            assert r.table.dhat[v] >= truth.d[v]
            assert r._hidden.dhat[v] >= truth.d[v]


def test_phi_nonincreasing():
    g = Graph(14, 5)
    r = make_range(g, m_budget=60, seed=2)
    prev = r.phi
    for _ in drive(r, g, 45, seed=13):
        assert r.phi <= prev
        prev = r.phi


def window_union_reference(r, draws):
    """Window membership iτ ≤ d̂·M < (i+8)τ by brute force over Python ints."""
    out = set()
    for v, d in enumerate(r._hidden.dhat):
        if d != inf and any(i * r.tau <= d * r.m_cbrt < (i + 8) * r.tau
                            for i in set(draws)):
            out.add(v)
    return out


def window_union(r, draws):
    """The range's window union as a set; it comes as an increasing array."""
    got = r._window_union(draws)
    assert np.all(np.diff(got) > 0)
    return set(got.tolist())


@pytest.mark.parametrize("max_weight,tau", [(6, 8), (2 ** 62, 2 ** 62)],
                         ids=["int64", "past_int64"])
def test_window_union_exact_at_any_weight(max_weight, tau):
    g = Graph(12, max_weight)
    r = make_range(g, tau=tau, m_budget=64)
    if max_weight > 2 ** 32:
        # the keys d̂·M reach past int64, where numpy would overflow
        assert r.cap * r.m_cbrt >= 2 ** 63
    for _ in drive(r, g, 40, seed=3):
        draws = list(range(r.max_window_index + 1))
        want = window_union_reference(r, draws)
        assert window_union(r, draws) == want
        assert window_union(r, draws[::3]) == window_union_reference(
            r, draws[::3])
    assert r.fixing_phases > 0 and len(want) > 1


def window_draws(top_index):
    """Draw multisets as ``rng.integers`` could give them: repeats, one
    index, the last index, every index."""
    index = st.integers(0, top_index)
    return st.one_of(
        st.lists(index, min_size=1, max_size=2 * top_index + 2),
        st.lists(index, min_size=1, max_size=4).map(lambda xs: xs * 3),
        index.map(lambda i: [i]),
        st.just([top_index]),
        st.just(list(range(top_index + 1))))


@settings(max_examples=40, deadline=None)
@given(stream=streams(families=("random", "chain")),
       width=st.sampled_from(["int64", "past_int64"]), data=st.data())
def test_window_union_matches_reference(stream, width, data):
    """The slot mask gives the brute-force window union after every
    insertion, also where the keys d̂·M pass int64."""
    scale = 1 if width == "int64" else 2 ** 59   # τ = 8·scale = 2^62
    g = Graph(stream.n, stream.max_weight * scale,
              initial_edges=[(u, v, w * scale)
                             for u, v, w in stream.initial_edges])
    r = make_range(g, tau=8 * scale, m_budget=stream.budget)
    if width == "past_int64":
        assert r.cap * r.m_cbrt >= 2 ** 63
    for _, u, v, w in stream.insertions:
        g.insert_edge(u, v, w * scale)
        r.insert(u, v, w * scale)
        draws = data.draw(window_draws(r.max_window_index))
        assert window_union(r, np.asarray(draws, dtype=np.int64)) == \
            window_union_reference(r, draws)


def assert_mirror_current(r):
    top = r.max_window_index + 8
    want = [top if d == inf else min(d * r.m_cbrt // r.tau, top)
            for d in r._hidden.dhat]
    assert r._listener.slots.tolist() == want
    assert r.phi == potential_scan(r)


@settings(max_examples=40, deadline=None)
@given(stream=streams(), seed=st.integers(0, 3))
def test_hidden_mirror_tracks_table(stream, seed):
    """The window-slot mirror and the potential follow every hidden
    decrease: after preprocess, each insertion and each fixing phase.
    The raw ε keeps the ranges with εδ ≥ 1 (the rescaled one keeps none
    at these sizes), whose buckets are coarse enough that decrease-keys
    inside a bucket and visible-to-hidden synchronization both occur."""
    eng = IncrementalSSSP(Config(
        n=stream.n, m_budget=stream.budget, max_weight=stream.max_weight,
        mode="rand", seed=seed, raw_epsilon=True,
        iter_mult=Fraction(1, 2000)))
    assume(eng.ranges)   # a tiny nW folds even the raw-ε ranges

    def checked(r):
        run = r.run_fixing_phase

        def run_and_check():
            run()
            assert_mirror_current(r)
        return run_and_check

    for r in eng.ranges:
        r.run_fixing_phase = checked(r)
    eng.preprocess(stream.initial_edges)
    for r in eng.ranges:
        assert_mirror_current(r)
    for _, u, v, w in stream.insertions:
        eng.insert(u, v, w)
        for r in eng.ranges:
            assert_mirror_current(r)
    assert sum(r.fixing_phases for r in eng.ranges) > 0


@settings(max_examples=40, deadline=None)
@given(stream=streams(), seed=st.integers(0, 3))
def test_visible_touch_log_holds_every_visible_decrease(stream, seed):
    """The sync reads the visible table's decreases since the last fixing
    phase from its touch log of steps (0, b].  At every fixing phase that
    log equals the set a recording ``on_decrease`` on the visible table
    collected since the last phase or rebuild.  The sync's own decreases
    leave the two tables equal, so the record restarts after each phase."""
    eng = IncrementalSSSP(Config(
        n=stream.n, m_budget=stream.budget, max_weight=stream.max_weight,
        mode="rand", seed=seed, raw_epsilon=True,
        iter_mult=Fraction(1, 2000)))
    assume(eng.ranges)   # a tiny nW folds even the raw-ε ranges

    def recorded(r):
        assert r.table.on_decrease is None
        lowered = set()
        r.table.on_decrease = lambda v, old, new: lowered.add(v)
        run, rebuild = r.run_fixing_phase, r.rebuild

        def run_fixing_phase():
            assert r.table.touched_in_window(0, r.b) == lowered
            run()
            lowered.clear()

        def rebuild_and_restart(*args):
            rebuild(*args)
            lowered.clear()
        r.run_fixing_phase = run_fixing_phase
        r.rebuild = rebuild_and_restart

    for r in eng.ranges:
        recorded(r)
    eng.preprocess(stream.initial_edges)
    for _, u, v, w in stream.insertions:
        eng.insert(u, v, w)
    assert sum(r.fixing_phases for r in eng.ranges) > 0


def test_every_fixing_phase_runs_the_hidden_pass():
    """Every fixing phase calls the hidden ``partial_dijkstra`` exactly
    once, on the sampled vertices, whatever they hold.  The raw ε makes
    εδ ≥ 1, so some passes lower hidden estimates: the pass is not
    vacuous on these streams."""
    seen = dict.fromkeys(("phases", "lowered"), 0)

    def counted(r):
        hid = r._hidden
        run, propagate = r.run_fixing_phase, hid.partial_dijkstra
        passes = []

        def partial_dijkstra(seeds):
            before = hid.decreases
            propagate(seeds)
            passes.append(hid.decreases > before)

        def run_fixing_phase():
            passes.clear()   # insertion steps call it too
            run()
            assert len(passes) == 1
            seen["phases"] += 1
            seen["lowered"] += passes[0]
        hid.partial_dijkstra = partial_dijkstra
        r.run_fixing_phase = run_fixing_phase

    @settings(max_examples=60, deadline=None)
    @given(stream=streams(families=("random", "chain")),
           seed=st.integers(0, 3))
    def replay(stream, seed):
        eng = IncrementalSSSP(Config(
            n=stream.n, m_budget=stream.budget, max_weight=stream.max_weight,
            mode="rand", seed=seed, raw_epsilon=True,
            iter_mult=Fraction(1, 1000)))
        for r in eng.ranges:
            counted(r)
        eng.preprocess(stream.initial_edges)
        for _, u, v, w in stream.insertions:
            eng.insert(u, v, w)

    replay()
    assert seen["phases"] and seen["lowered"], seen


def test_randomized_ranges_answer_and_verify():
    """Raw-ε rand replays in which randomized ranges own answers and
    fixing phases lower estimates: the sync in both tables, the hidden
    pass in the hidden one.  At ε = 3/4 and m = 150 every range has
    εδ ≥ 1, so the short tree stops at 2⌈m^{1/3}⌉ = 12.  ``verify`` is
    clean after every insertion.  The sync must reach every vertex either
    table lowered since the last phase: the hidden listener records the
    hidden table's, and the visible touch log of the phase the visible
    table's.  Some vertices here were lowered by the visible table alone
    (stream 3), and after each fixing phase the hidden table lies at or
    below the visible one everywhere."""
    n, m, w = 32, 150, 64
    seen = dict.fromkeys(("owned", "visible_only", "synced", "passed"), 0)

    def checked(r):
        vis, hid = r.table, r._hidden
        run, propagate = r.run_fixing_phase, hid.partial_dijkstra

        def run_fixing_phase():
            seen["visible_only"] += sum(
                1 for v, (a, h) in enumerate(zip(vis.dhat, hid.dhat))
                if a < h and v not in r._listener.changed)
            before = vis.decreases
            run()
            seen["synced"] += vis.decreases - before
            assert all(h <= a for h, a in zip(hid.dhat, vis.dhat))

        def partial_dijkstra(seeds):
            before = hid.decreases
            touched = propagate(seeds)
            seen["passed"] += hid.decreases - before
            return touched
        r.run_fixing_phase = run_fixing_phase
        hid.partial_dijkstra = partial_dijkstra

    for seed in range(4):
        stream = random_stream(n, m, w, seed=seed)
        eng = IncrementalSSSP(Config(
            n=n, m_budget=m, max_weight=w, eps=Fraction(3, 4), mode="rand",
            seed=seed, raw_epsilon=True, iter_mult=Fraction(1, 10)))
        assert eng.short.cap == 12
        for r in eng.ranges:
            checked(r)
        eng.preprocess(stream.initial_edges)
        for i, (_, u, v, wt) in enumerate(stream.insertions, 1):
            eng.insert(u, v, wt)
            report = verify(eng, dijkstra(eng.graph, 0).d,
                            eng.guarantee_epsilon, insertion_index=i)
            assert report.clean, report
            seen["owned"] += sum(1 for o in eng._min_owner if o)
    assert all(seen.values()), seen


@pytest.mark.parametrize("W", [64, 2 ** 14])
def test_fixing_phase_counts_stay_within_their_bounds(W):
    """The count of fixing phases the paper's bound rests on, per range
    over C7 runs 0–7.  A phase fires either on a full phase (b ≥ B just
    before it runs) or on a potential drop.  A full firing needs B
    insertions since the previous phase, so there are at most
    ⌊insertions / B⌋.  The potential only falls, and each drop firing
    needs a drop of at least the threshold since the previous snapshot,
    so there are at most ⌊(Φ after preprocess − Φ at the end) /
    threshold⌋.  Both bounds are loose: the worst ratios over both
    weights were 0.89 and 0.004, since Φ counts CAP as the cap."""
    checked = 0
    for i in range(8):
        _, config, stream = c7_run(i, W)
        eng = IncrementalSSSP(config)
        fired = {}
        for r in eng.ranges:
            kinds = fired[r] = {"full": 0, "drop": 0}
            run = r.run_fixing_phase

            def counted(r=r, run=run, kinds=kinds):
                kinds["full" if r.phase.phase_full() else "drop"] += 1
                run()
            r.run_fixing_phase = counted
        eng.preprocess(stream.initial_edges)
        phi = {r: r.phi for r in eng.ranges}
        for _, u, v, w in stream.insertions:
            eng.insert(u, v, w)
        for r, kinds in fired.items():
            assert kinds["full"] + kinds["drop"] == r.fixing_phases > 0
            assert kinds["full"] <= len(stream.insertions) // r.B
            assert kinds["drop"] <= (phi[r] - r.phi) // r.threshold
            checked += 1
    assert checked == {64: 64, 2 ** 14: 128}[W]   # ranges built
