import random
from fractions import Fraction
from math import inf

import pytest

from incsssp import (Config, Graph, IncrementalSSSP,
                     InvalidParams, TooDense, adaptive_run, dijkstra,
                     quadratic_error_stream, phase_error_bound, random_stream, verify)
from incsssp.workloads import quadratic_error_replay


# -- random_stream ------------------------------------------------------------


def test_exhaustive_two_vertices():
    s = random_stream(2, 2, 5, seed=0)
    edges = {(u, v) for (_, u, v, _) in s.insertions}
    assert edges == {(0, 1), (1, 0)}


def test_seed_determinism():
    a = random_stream(20, 80, 9, seed=4, query_rate=0.3)
    b = random_stream(20, 80, 9, seed=4, query_rate=0.3)
    assert a.events == b.events


def test_replay_without_errors():
    s = random_stream(50, 500, 10, seed=6)
    g = s.build_graph()
    assert g.edge_count == 500


def test_too_dense():
    with pytest.raises(TooDense):
        random_stream(3, 7, 5, seed=0)


@pytest.mark.parametrize("n, m, w", [
    (3, 2, 0), (0, 0, 1), (3, -1, 2), (3.0, 2, 2), (3, 2.0, 2), (3, 2, 2.5),
    (3, 2, None)])
def test_random_stream_rejects_bad_parameters(n, m, w):
    """A zero weight bound raised ValueError from ``randint``."""
    with pytest.raises(InvalidParams):
        random_stream(n, m, w, seed=0)


def test_random_stream_of_one_vertex_and_no_edges():
    assert random_stream(1, 0, 1, seed=0).events == []


# -- quadratic_error_stream ------------------------------------------------------------


def test_caption_weight_formula_b4():
    s = quadratic_error_stream(4)
    shortcut_weights = sorted(w for (u, v, w) in s.initial_edges if u == 0)
    assert shortcut_weights[0] == 6                      # i=1: 1·(1+1)·2+2
    assert shortcut_weights[1] == 11                     # i=2: 2·(1+1)·2+3
    assert s.meta["initial_sink_distance"] == 11


def test_initial_sink_distance_matches_oracle():
    for B in (4, 8, 16):
        s = quadratic_error_stream(B)
        g0 = Graph(s.n, s.max_weight, initial_edges=s.initial_edges)
        truth = dijkstra(g0, 0)
        assert truth.d[s.meta["sink"]] == s.meta["initial_sink_distance"]


def test_final_sink_distance_matches_oracle():
    for B in (4, 8, 16):
        s = quadratic_error_stream(B)
        truth = dijkstra(s.build_graph(), 0)
        assert truth.d[s.meta["sink"]] == s.meta["final_sink_distance"]
        assert s.meta["final_sink_distance"] == (B * B) // 4 + B // 2 + 1


def test_invalid_params():
    with pytest.raises(InvalidParams):
        quadratic_error_stream(3)
    with pytest.raises(InvalidParams):
        quadratic_error_stream(2)


def test_baseline_freezes_while_truth_drops():
    s = quadratic_error_stream(16)
    out = quadratic_error_replay(s, sync=False)
    frozen = s.meta["initial_sink_distance"]
    assert all(e == frozen for e in out["sink_estimates"])
    assert out["sink_truths"][-1] == s.meta["final_sink_distance"]
    eps_delta = s.meta["eps_delta_scaled"]
    B = s.meta["phase_edges"]
    assert out["sink_errors"][-1] >= (B * B // 8) * eps_delta


def test_sync_mode_stays_within_phase_bound():
    s = quadratic_error_stream(16)
    out = quadratic_error_replay(s, sync=True)
    bound = phase_error_bound(s.meta["phase_edges"],
                              Fraction(s.meta["eps_delta_scaled"]))
    assert all(a <= bound for a in out["audits"])
    # the deterministic estimate of the sink also respects the bound
    assert all(e - t <= bound for e, t in
               zip(out["sink_estimates"], out["sink_truths"]))


# -- adaptive_run ---------------------------------------------------------------


class ScriptedAdversary:
    """Replays a fixed event list; ignores the answers entirely."""

    def __init__(self, events):
        self.events = list(events)
        self.pos = 0

    def __call__(self, answers):
        ev = self.events[self.pos]
        self.pos += 1
        return ev


class GreedyAdversary:
    """Inserts toward the vertex with the largest observed estimate."""

    def __init__(self, n, w_max, seed):
        self.n = n
        self.w_max = w_max
        self.rng = random.Random(seed)
        self.pending = None
        self.used = set()

    def __call__(self, answers):
        if self.pending is None:
            self.pending = self.rng.randrange(self.n)
            return ("q", self.pending)
        target = self.pending
        self.pending = None
        for _ in range(30):
            u = self.rng.randrange(self.n)
            if u != target and (u, target) not in self.used:
                self.used.add((u, target))
                return ("a", u, target, self.rng.randint(1, self.w_max))
        u = self.rng.randrange(self.n)
        v = (u + 1) % self.n
        while (u, v) in self.used:
            u = self.rng.randrange(self.n)
            v = (u + 1) % self.n
        self.used.add((u, v))
        return ("a", u, v, self.rng.randint(1, self.w_max))


def make_engine(mode, seed, n=16, m=80, w=5):
    return IncrementalSSSP(Config(
        n=n, m_budget=m, max_weight=w, eps=Fraction(1, 4), mode=mode,
        seed=seed, raw_epsilon=(mode == "rand"),
        iter_mult=Fraction(1, 10) if mode == "rand" else Fraction(1)))


def test_constant_adversary_equals_plain_replay():
    stream = random_stream(16, 40, 5, seed=3)
    events = stream.events

    eng_a = make_engine("det", 0)
    reports = adaptive_run(ScriptedAdversary(events), eng_a, budget=40)
    assert len(reports) == 40 and all(r.clean for r in reports)

    eng_b = make_engine("det", 0)
    for (_, u, v, w) in events:
        eng_b.insert(u, v, w)

    assert eng_a.min_value == eng_b.min_value


def test_greedy_adversary_never_breaks_det_guarantee():
    eng = make_engine("det", 0)
    reports = adaptive_run(GreedyAdversary(16, 5, seed=1), eng, budget=60)
    assert all(r.clean for r in reports)


def test_paired_runs_agree_before_second_fixing_phase():
    budget = 50
    runs = []
    for seed in (101, 202):
        eng = make_engine("rand", seed)
        log = []
        adversary = GreedyAdversary(16, 5, seed=42)

        def recording(ans, _adv=adversary, _eng=eng, _log=log):
            ev = _adv(ans)
            if ev[0] == "q":
                _log.append((_eng.insertions_used, _eng.query(ev[1])))
            return ev

        adaptive_run(recording, eng, budget=budget)
        second_phase = [r.fixing_log[1] for r in eng.ranges
                        if len(r.fixing_log) >= 2]
        divergence_floor = min(second_phase) if second_phase else budget + 1
        runs.append((log, divergence_floor))

    (log_a, floor_a), (log_b, floor_b) = runs
    floor = min(floor_a, floor_b)
    pre_a = [x for x in log_a if x[0] < floor]
    pre_b = [x for x in log_b if x[0] < floor]
    assert pre_a == pre_b
