"""The five engines the benchmark replays, behind one small adapter each.

Every adapter is built from a stream (construct + preprocess is the set-up
the benchmark times) and exposes ``insert``, the call the benchmark times,
plus ``answers()`` for the checks.  The three approximate adapters also
hand out the engine itself for queries and paths.
"""

import gc
import resource
from fractions import Fraction
from math import inf
from time import perf_counter_ns, thread_time_ns

from incsssp import Config, Graph, IncrementalSSSP, ShortDistanceTree, oracle

APPROXIMATE = ("det", "det_c1", "rand")
BASELINES = ("exact", "scipy")
ENGINES = APPROXIMATE + BASELINES

# The default iter_mult=1 draws tens of millions of windows per fixing
# phase at these sizes and does not finish; 1/2000 is the value the C6
# scaling test uses.
RAND_ITER_MULT = Fraction(1, 2000)


def config(name: str, stream, seed: int) -> Config:
    size = dict(n=stream.n, m_budget=stream.budget,
                max_weight=stream.max_weight)
    if name == "det":
        return Config(mode="det", **size)
    if name == "det_c1":
        return Config(mode="det", c_b=1, **size)
    if name == "rand":
        return Config(mode="rand", iter_mult=RAND_ITER_MULT, seed=seed, **size)
    raise ValueError(f"{name} is not an approximate engine")


class Approximate:
    """``IncrementalSSSP`` in one of the det / det_c1 / rand configurations."""

    approximate = True

    def __init__(self, name: str, stream, seed: int):
        self.engine = IncrementalSSSP(config(name, stream, seed))
        self.engine.preprocess(stream.initial_edges)
        self.eps = self.engine.guarantee_epsilon

    @property
    def insert(self):
        return self.engine.insert

    def answers(self) -> list:
        query = self.engine.query
        return [query(v) for v in range(self.engine.graph.n)]

    def counters(self) -> dict:
        return self.engine.counters()


class Exact:
    """Exact incremental propagation: ``ShortDistanceTree`` with no cap."""

    approximate = False

    def __init__(self, name: str, stream, seed: int):
        self.graph = Graph(stream.n, stream.max_weight, budget=stream.budget,
                           initial_edges=stream.initial_edges)
        self.short = ShortDistanceTree(self.graph, 0, inf)

    def insert(self, u: int, v: int, w: int) -> None:
        self.graph.insert_edge(u, v, w)
        self.short.insert(u, v, w)

    def answers(self) -> list:
        return [self.short.estimate(v) for v in range(self.graph.n)]

    def counters(self) -> dict:
        t = self.short.table
        return {"relaxations": t.work, "decreases": t.decreases}


class Recompute:
    """Full scipy Dijkstra after every insertion."""

    approximate = False

    def __init__(self, name: str, stream, seed: int):
        self.graph = Graph(stream.n, stream.max_weight, budget=stream.budget,
                           initial_edges=stream.initial_edges)
        self.dist = oracle.exact_distances_fast(self.graph, 0)

    def insert(self, u: int, v: int, w: int) -> None:
        self.graph.insert_edge(u, v, w)
        self.dist = oracle.exact_distances_fast(self.graph, 0)

    def answers(self) -> list:
        return list(self.dist)

    def counters(self) -> dict:
        return {"recomputes": len(self.graph.insertion_log) + 1}


def describe(name: str, stream, seed: int) -> dict:
    """The configuration of one engine, for the result files."""
    if name in APPROXIMATE:
        cfg = config(name, stream, seed)
        return {k: str(v) if isinstance(v, Fraction) else v
                for k, v in vars(cfg).items()}
    if name == "exact":
        return {"engine": "ShortDistanceTree", "cap": "inf"}
    return {"engine": "oracle.exact_distances_fast after every insertion"}


def make(name: str, stream, seed: int):
    """Construct and preprocess one engine on ``stream``."""
    if name in APPROXIMATE:
        return Approximate(name, stream, seed)
    if name == "exact":
        return Exact(name, stream, seed)
    if name == "scipy":
        return Recompute(name, stream, seed)
    raise ValueError(f"unknown engine {name}")


class Replay:
    """A resumable replay of the stream through one engine.

    Each insert call is timed on its own in the calling thread's CPU time
    (``thread_time_ns``), so checkpoint work and the loop stay outside
    ``total_ns``.  ``samples`` (an ``array('q')``), when given, receives
    each call's time.  The program is single-threaded and does no I/O, so
    its CPU time is its wall time minus the time the machine ran something
    else: on a shared virtual machine other tenants take the CPU away for
    milliseconds at a time, and in wall time those pauses, not the
    program, would set both the throughput and the latency tail.
    """

    def __init__(self, adapter, events, points=(), on_checkpoint=None,
                 samples=None):
        self.adapter = adapter
        self.events = events
        self.points = points
        self.on_checkpoint = on_checkpoint
        self.samples = samples
        self.total_ns = 0
        self.done = 0          # insertions applied so far

    def step(self, budget_ns: float = inf) -> bool:
        """Insert until ``budget_ns`` of wall time has passed or the stream
        ends; returns True once the whole stream is in."""
        insert = self.adapter.insert
        events, points, samples = self.events, self.points, self.samples
        clock, cpu = perf_counter_ns, thread_time_ns
        end = len(events)
        i = self.done
        total = 0
        start = clock()
        try:
            while i < end:
                _, u, v, w = events[i]
                c0 = cpu()
                insert(u, v, w)
                spent = cpu() - c0
                if samples is not None:
                    samples.append(spent)
                i += 1
                total += spent
                if i in points:
                    self.on_checkpoint(i)
                if clock() - start >= budget_ns:
                    break
        finally:
            self.done = i
            self.total_ns += total
        return i == end


def replay(adapter, events, points=(), on_checkpoint=None, samples=None) -> int:
    """Insert the whole stream; returns the summed CPU ns of the insert calls."""
    run = Replay(adapter, events, points, on_checkpoint, samples)
    run.step()
    return run.total_ns


def resident_bytes() -> int:
    """Current resident set size of this process (Linux)."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize()


def reference(streams, seed: int, name: str) -> dict:
    """One untraced replay of each stream in turn, run in a fresh process:
    insert time, counters and the growth of resident memory over set-up
    and replay.

    The structures only grow under insertions and the allocator keeps
    freed arenas, so the growth at the end of a stream is the engine's
    peak; the largest over the streams is reported.
    """
    total = 0
    counters = []
    grown = 0
    for stream in streams:
        gc.collect()
        base = resident_bytes()
        adapter = make(name, stream, seed)
        total += replay(adapter, stream.events)
        grown = max(grown, resident_bytes() - base)
        counters.append(adapter.counters())
        del adapter
    return {"insert_s": total / 1e9, "counters": counters,
            "mem_peak_mb": grown / 2 ** 20}
