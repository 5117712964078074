"""Self-tests of the benchmark: run with ``python -m pytest bench -q``."""

import json
from fractions import Fraction
from math import inf
from pathlib import Path

import pytest

import engines
import streams
import tracing
from check import Checker, Truth, checkpoints
from incsssp import oracle

SPEC = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("builder", [streams.sparse_uniform, streams.connected,
                                     streams.chain])
def test_streams_are_deterministic_in_the_seed(builder):
    a, b, c = builder(64, 5), builder(64, 5), builder(64, 6)
    assert (a.initial_edges, a.events) == (b.initial_edges, b.events)
    assert (a.initial_edges, a.events) != (c.initial_edges, c.events)
    a.build_graph()   # a valid stream within its budget


def test_workloads_have_enough_insertions():
    for name in streams.WORKLOADS:
        assert sum(len(s.events) for s in streams.build(name, 0)) >= 1000, name


def test_connected_graphs_are_distinct_per_seed():
    runs = [streams.build("connected", seed) for seed in (0, 1)]
    edges = [s.initial_edges for run in runs for s in run]
    assert len(runs[0]) == streams.CONNECTED_GRAPHS
    assert all(edges[i] != edges[j] for i in range(len(edges))
               for j in range(i))


def _exact_decreases(n):
    stream = streams.chain(n, 1)
    adapter = engines.make("exact", stream, 1)
    engines.replay(adapter, stream.events)
    return adapter.counters()["decreases"]


def test_chain_drives_quadratic_exact_decreases():
    counts = {n: _exact_decreases(n) for n in (64, 128, 256)}
    for n, count in counts.items():
        assert count >= n * n // 5
    assert counts[128] > 3.5 * counts[64]
    assert counts[256] > 3.5 * counts[128]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_connected_reaches_most_vertices_after_preprocess(seed):
    n = streams.WORKLOADS["connected"][1]
    stream = streams.connected(n, seed)
    adapter = engines.make("det", stream, seed)
    reached = sum(q != inf for q in adapter.answers())
    assert reached >= 0.9 * n
    degree = [0] * n
    for u, _, _ in stream.initial_edges:
        degree[u] += 1
    assert degree[0] == max(degree)


def _small_run():
    stream = streams.connected(32, 3)
    points = checkpoints(len(stream.events))
    return stream, Truth(stream, points), max(points)


def test_checker_passes_correct_answers():
    stream, truth, last = _small_run()
    adapter = engines.make("det", stream, 3)
    engines.replay(adapter, stream.events)
    checker = Checker()
    checker.oracle_agrees(truth)
    checker.sandwich("det", adapter.answers(), truth.at[last], adapter.eps)
    for v in range(stream.n):
        checker.path("det", adapter.engine, v)
    assert checker.failed == 0 and checker.attempted > stream.n


def test_checker_catches_an_estimate_below_the_truth():
    stream, truth, last = _small_run()
    answers = list(truth.at[last])
    v = next(v for v, d in enumerate(answers) if d not in (0, inf))
    answers[v] -= 1
    checker = Checker()
    checker.sandwich("fake", answers, truth.at[last], 0)
    assert checker.failed == 1
    checker.exact("fake", answers, truth.at[last])
    assert checker.failed == 2


def test_checker_catches_an_estimate_above_the_bound():
    stream, truth, last = _small_run()
    answers = list(truth.at[last])
    v = next(v for v, d in enumerate(answers) if d not in (0, inf))
    answers[v] = answers[v] * 2
    checker = Checker()
    checker.sandwich("fake", answers, truth.at[last], Fraction(1, 4))
    assert checker.failed == 1


class _BrokenPaths:
    """An engine whose reported paths skip their second vertex."""

    def __init__(self, engine):
        self.engine = engine
        self.graph = engine.graph
        self.source = engine.source
        self.query = engine.query

    def report_path(self, v):
        path = self.engine.report_path(v)
        return path[:1] + path[2:] if len(path) > 2 else path


def test_checker_catches_a_broken_path():
    stream, truth, last = _small_run()
    adapter = engines.make("det", stream, 3)
    engines.replay(adapter, stream.events)
    eng = adapter.engine
    far = [v for v, d in enumerate(truth.at[last])
           if d != inf and len(eng.report_path(v)) > 2 and eng.graph.weight_of(
               eng.source, eng.report_path(v)[2]) is None]
    checker = Checker()
    for v in far:
        checker.path("broken", _BrokenPaths(eng), v)
    assert far and checker.failed == len(far)


def test_oracle_cross_check_catches_a_wrong_truth():
    stream, truth, last = _small_run()
    truth.final[0] += 1
    checker = Checker()
    checker.oracle_agrees(truth)
    assert checker.failed == 1


@pytest.mark.parametrize("name", engines.ENGINES)
def test_untraced_replay_after_traced_gives_identical_counters(name):
    stream = streams.chain(96, 2) if name == "rand" else streams.connected(48, 2)
    traced = engines.make(name, stream, 2)
    tracer = tracing.Tracer()
    tracer.attach(name, traced)
    engines.replay(traced, stream.events)
    tracer.restore()
    assert tracer.insertion == len(stream.events)
    plain = engines.make(name, stream, 2)
    engines.replay(plain, stream.events)
    assert traced.counters() == plain.counters()


def test_restore_puts_every_attribute_back():
    import incsssp.det
    stream = streams.connected(48, 4)
    originals = (incsssp.det.bounded_dijkstra, oracle.exact_distances_fast)
    for name in engines.ENGINES:
        adapter = engines.make(name, stream, 4)
        if adapter.approximate:
            eng = adapter.engine
            objects = [adapter, eng, eng.graph, eng.short, *eng.ranges]
            objects += [t for _, t in eng.audit_tables()]
        else:
            objects = [adapter, adapter.graph]
        before = [dict(vars(o)) for o in objects]
        tracer = tracing.Tracer()
        tracer.attach(name, adapter)
        tracer.restore()
        assert [dict(vars(o)) for o in objects] == before
    assert (incsssp.det.bounded_dijkstra,
            oracle.exact_distances_fast) == originals


def test_self_time_never_exceeds_span_time():
    stream = streams.connected(48, 5)
    adapter = engines.make("det_c1", stream, 5)
    tracer = tracing.Tracer()
    tracer.attach("det_c1", adapter)
    engines.replay(adapter, stream.events)
    tracer.restore()
    agg = tracer.aggregate()
    for total, own, calls in agg.values():
        assert 0 <= own <= total and calls > 0
    roots = agg["engine.insert"]
    assert sum(v[1] for k, v in agg.items() if "/" not in k) == roots[0]


def test_metric_names_match_the_benchmark_spec():
    import run
    parts = [streams.connected(32, 6), streams.connected(32, 7)]
    bench = run.Run(parts, 6)
    metrics, _, _ = run.measure(bench, 0.5)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: u for k, (_, u) in metrics.items()}
    assert all(value > 0 for value, _ in metrics.values())
    assert bench.checker.failed == 0
    bench = run.Run(parts, 6)
    metrics, _, spans = run.traced(bench)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {k: u for k, (_, u) in metrics.items()}
    assert set(spans) == set(engines.ENGINES)
    assert bench.checker.failed == 0


def test_reference_child_matches_in_process_and_is_reaped():
    import os
    import run
    stream = streams.connected(32, 7)
    got = run.reference_in_child([stream], 7, "det_c1")
    assert got["counters"] == \
        engines.reference([stream], 7, "det_c1")["counters"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_samples_are_scaled_by_the_speed_of_their_slice():
    import run
    st = run.EngineStats()
    st.samples.extend([10, 12, 40])
    st.slices = [(2, 100), (3, 200)]   # the last insert ran at half speed
    assert list(st.scaled_samples(100)) == [10, 12, 20]
