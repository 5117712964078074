#!/usr/bin/env python3
"""Replay one seeded workload through five engines and report insert speed.

    python3 bench/run.py --workload chain --seed 1 --seconds 20 --trace 0

The untraced run (``--trace 0``) builds each engine several times to time
set-up, then replays the workload's streams through fresh engines, taking
turns in short slices, until each engine has used its share of
``--seconds``.  Every insert call is timed on its own in the calling
thread's CPU time, scaled to a fixed machine speed (see ``Speed``);
answers are checked at fixed checkpoints outside the timed
calls.  It prints the end-to-end metrics and writes
``bench/out/BENCH_<workload>.json``.

The traced run (``--trace 1``) replays the streams once per engine with
spans around each layer, and once more per engine untraced in a fresh
interpreter (``--reference``, which reads the streams from standard input
and is waited for before the next starts) for the reference time and
peak memory.  It prints the per-layer metrics and writes the spans to
``bench/out/TRACE_<workload>.json``.  Its work is fixed by the streams,
so ``--seconds`` does not apply to it.

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every check passed.
"""

import argparse
import gc
import heapq
import json
import os
import pickle
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from math import ceil
from pathlib import Path
from time import perf_counter_ns, thread_time_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_REPS = 7        # set-ups per engine; setup_s sums the medians
PATH_SAMPLE = 32      # vertices whose reported paths are validated
SLICE_NS = 20e6       # wall time an engine runs before the next one's turn
BATCH_NS = 2e6        # least time a timed query or path batch is repeated
SPEED_REPS = 3        # speed jobs per measurement; the fastest counts
GC_EVERY_NS = 1e9     # least wall time between collections while timing

# end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "det.ins_per_s": "1/s",
    "det.ins_p50_us": "us",
    "det_c1.ins_per_s": "1/s",
    "det_c1.ins_p50_us": "us",
    "det_c1.ins_p99_us": "us",
    "rand.ins_per_s": "1/s",
    "rand.ins_p50_us": "us",
    "rand.ins_p99_us": "us",
    "exact.ins_per_s": "1/s",
    "scipy.ins_per_s": "1/s",
    "query_ns": "ns",
    "path_us": "us",
    "max_stretch": "ratio",
}


def import_program():
    """Put the repository's ``src`` first on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "incsssp" / "__init__.py").is_file():
        sys.exit(f"error: no incsssp sources under {src}")
    sys.path.insert(0, str(src))
    import incsssp
    if Path(incsssp.__file__).resolve().parent != src / "incsssp":
        sys.exit(f"error: incsssp imported from {incsssp.__file__}, not {src}")


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def percentile(ordered, q: float):
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def all_paths(report_path, n: int) -> None:
    """``report_path(v)`` for every v, an unreachable v counting as answered."""
    from incsssp import Unreachable
    for v in range(n):
        try:
            report_path(v)
        except Unreachable:
            pass


def batch_ns(batch) -> float:
    """Mean CPU ns of ``batch()``, repeated until BATCH_NS of it has run."""
    reps = 0
    start = thread_time_ns()
    while True:
        batch()
        reps += 1
        spent = thread_time_ns() - start
        if spent >= BATCH_NS:
            return spent / reps


# A fixed graph for the speed job: 128 vertices, 4 out-edges each.
SPEED_GRAPH = [[((7 * v + 31 * k + 1) % 128, 1 + (13 * v + 5 * k) % 64)
                for k in range(4)] for v in range(128)]


def speed_job_ns() -> int:
    """CPU ns of a heap-based Dijkstra over SPEED_GRAPH: fixed pure-Python
    work of the same kind as the engines', about 0.1 ms."""
    t0 = thread_time_ns()
    dist = [None] * len(SPEED_GRAPH)
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in SPEED_GRAPH[u]:
            if dist[v] is None or d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return thread_time_ns() - t0


# The speed job's usual time on the machine the benchmark was built on
# (2 vCPUs of an Intel Xeon, Python 3.11); timings are reported at it.
REFERENCE_JOB_NS = 170_000


class Speed:
    """How fast the machine runs, measured before every slice of work.

    On the shared virtual machine the benchmark was built on, the same
    code runs up to 40% faster for seconds at a time, and some whole runs
    ran 1.6 times as fast as the rest.  Every timing of the untraced run is
    therefore scaled by ``REFERENCE_JOB_NS / job``, where ``job`` is the
    speed job's time just before the work was timed, which gives each time
    at one fixed machine speed.
    """

    def __init__(self):
        self.jobs: list[int] = []

    def measure(self) -> int:
        job = min(speed_job_ns() for _ in range(SPEED_REPS))
        self.jobs.append(job)
        return job

    def summary(self) -> dict:
        jobs = sorted(self.jobs)
        return {"reference_job_ns": REFERENCE_JOB_NS, "jobs": len(jobs),
                "job_ns_p10": percentile(jobs, 0.1),
                "job_ns_p50": percentile(jobs, 0.5),
                "job_ns_p90": percentile(jobs, 0.9)}


class EngineStats:
    def __init__(self):
        self.setup: list[tuple[int, int]] = []   # (CPU ns, speed job ns)
        self.samples = array("q")     # CPU ns of every insert, in order
        self.slices: list[tuple[int, int]] = []  # (samples so far, job ns)
        self.passes: list[tuple[int, int]] = []  # sample range of each pass
        self.job = 0                  # speed job ns of the current slice
        self.wall_ns = 0
        self.query: list[tuple[float, int]] = []  # (ns per query, job ns)
        self.path: list[tuple[float, int]] = []   # (us per path, job ns)
        self.counters = None

    def scaled_samples(self, reference: float) -> array:
        """Every insert's time at the reference speed."""
        out = array("d")
        start = 0
        for end, job in self.slices:
            factor = reference / job
            out.extend(t * factor for t in self.samples[start:end])
            start = end
        return out


class Part:
    """One stream of a run, with its checkpoints and ground truth."""

    def __init__(self, stream, seed: int, checker):
        from check import Truth, checkpoints
        self.stream = stream
        self.points = frozenset(checkpoints(len(stream.events)))
        self.truth = Truth(stream, self.points)
        checker.oracle_agrees(self.truth)
        self.path_vertices = random.Random(seed).sample(
            range(stream.n), min(stream.n, PATH_SAMPLE))


class Run:
    """The streams of one workload run, with their ground truth and checker."""

    def __init__(self, streams, seed: int):
        from check import Checker
        self.seed = seed
        self.checker = Checker()
        self.parts = [Part(stream, seed, self.checker) for stream in streams]
        self.n = streams[0].n     # the streams of a workload share n
        self.insertions = sum(len(stream.events) for stream in streams)

    def check(self, name: str, adapter, part: Part, i: int,
              st: EngineStats) -> None:
        """Checks after insertion ``i``; times the query and path batches."""
        truth = part.truth.at[i]
        if not adapter.approximate:
            self.checker.exact(name, adapter.answers(), truth)
            return
        answers = adapter.answers()
        self.checker.sandwich(name, answers, truth, adapter.eps)
        st.query.append((batch_ns(adapter.answers) / self.n, st.job))
        report = adapter.engine.report_path
        st.path.append((batch_ns(lambda: all_paths(report, self.n))
                        / self.n / 1e3, st.job))
        for v in part.path_vertices:
            self.checker.path(name, adapter.engine, v)

    def start(self, name: str, st: EngineStats, part: Part, adapter=None,
              on_checkpoint=None):
        """A replay of one stream through one engine, fresh unless given."""
        from engines import Replay, make
        if adapter is None:
            adapter = make(name, part.stream, self.seed)

        def at_checkpoint(i):
            self.check(name, adapter, part, i, st)
            if on_checkpoint is not None:
                on_checkpoint(adapter, part, i)
        return Replay(adapter, part.stream.events, part.points, at_checkpoint,
                      st.samples)

    def step(self, name: str, replay, budget_ns: float = float("inf")):
        """Step a replay: True once it has ended, False when the budget ran
        out first, None when an insert raised, which is a failed check."""
        try:
            return replay.step(budget_ns)
        except Exception:
            self.checker.attempted += 1
            self.checker.fail(f"{name}: insert raised\n{traceback.format_exc()}")
            return None


class Pass:
    """One engine's replay of every stream of a run in turn, each through a
    fresh engine; :meth:`step` resumes where the last slice stopped."""

    def __init__(self, run: Run, name: str, st: EngineStats):
        self.run = run
        self.name = name
        self.st = st
        self.index = 0          # the part being replayed
        self.replay = None
        self.first = len(st.samples)
        self.counters = []      # per part
        self.failed = False

    def step(self, budget_ns: float) -> bool:
        """Insert until ``budget_ns`` of wall time has passed or the pass
        ends; True once it has ended, also when an insert raised."""
        parts = self.run.parts
        start = perf_counter_ns()
        while True:
            if self.replay is None:
                self.replay = self.run.start(self.name, self.st,
                                             parts[self.index])
            done = self.run.step(self.name, self.replay,
                                 budget_ns - (perf_counter_ns() - start))
            if done is None:
                self.failed = True
                return True
            if not done:
                return False
            self.counters.append(self.replay.adapter.counters())
            self.replay = None
            self.index += 1
            if self.index == len(parts):
                return True
            if perf_counter_ns() - start >= budget_ns:
                return False


def measure(run: Run, seconds: float):
    """Untraced run: returns (metrics, per-engine report, speed summary)."""
    from engines import APPROXIMATE, ENGINES, describe, make
    stats = {name: EngineStats() for name in ENGINES}
    speed = Speed()
    # The collector is off while anything is timed and runs between
    # slices instead.  With five engines alive in one process, a full
    # collection walks all of their objects, and which engine's insert
    # happens to trigger one depends on how the slices fall; with the
    # collector on, a sparse_uniform run spent 0.6 s of 26.9 s of CPU
    # time in collections.
    gc.disable()
    for _ in range(SETUP_REPS):
        for name in ENGINES:
            job = speed.measure()
            spent = 0
            for part in run.parts:
                gc.collect()
                t0 = thread_time_ns()
                make(name, part.stream, run.seed)
                spent += thread_time_ns() - t0
            stats[name].setup.append((spent, job))
    gc.collect()
    gc.freeze()     # the streams and ground truth are never garbage

    # Engines take turns in slices, the one with the least wall time
    # first, so each is measured across the whole run rather than in one
    # window of it; an engine leaves once it has had its share and its
    # current pass has ended.
    share = seconds * 1e9 / len(ENGINES)
    live = {}
    pending = list(ENGINES)
    last_gc = perf_counter_ns()
    while pending:
        name = min(pending, key=lambda e: stats[e].wall_ns)
        st = stats[name]
        t0 = perf_counter_ns()
        st.job = speed.measure()
        if name not in live:
            live[name] = Pass(run, name, st)
        ended = live[name].step(SLICE_NS)
        st.slices.append((len(st.samples), st.job))
        st.wall_ns += perf_counter_ns() - t0
        if ended:
            done = live.pop(name)
            if not done.failed:
                st.passes.append((done.first, len(st.samples)))
                if st.counters is None:
                    st.counters = done.counters
            if st.wall_ns >= share:
                pending.remove(name)
        if perf_counter_ns() - last_gc >= GC_EVERY_NS:
            gc.collect()
            last_gc = perf_counter_ns()
    gc.unfreeze()
    gc.enable()

    ref = REFERENCE_JOB_NS

    def at_ref(timings):
        return statistics.median(t * ref / job for t, job in timings)

    values = {
        "setup_s": sum(at_ref(s.setup) for s in stats.values()) / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {}
    for name, st in stats.items():
        scaled = st.scaled_samples(ref)
        pass_ns = [sum(scaled[a:b]) for a, b in st.passes]
        # each pass is the same work, so the median pass is robust to
        # bursts of load from outside the process
        per_s = (run.insertions / (statistics.median(pass_ns) / 1e9)
                 if pass_ns else 0.0)
        values[f"{name}.ins_per_s"] = per_s
        entry = {"config": describe(name, run.parts[0].stream, run.seed),
                 "replays": len(pass_ns),
                 "replay_s": [t / 1e9 for t in pass_ns],
                 "replay_cpu_s": [sum(st.samples[a:b]) / 1e9
                                  for a, b in st.passes],
                 "wall_s": st.wall_ns / 1e9, "ins_per_s": per_s,
                 "setup_s": at_ref(st.setup) / 1e9,
                 "counters": st.counters}
        if name in APPROXIMATE and scaled:
            ordered = sorted(scaled)
            for label, q in (("p50", 0.50), ("p99", 0.99)):
                values[f"{name}.ins_{label}_us"] = percentile(ordered, q) / 1e3
                entry[f"ins_{label}_us"] = percentile(ordered, q) / 1e3
            entry["latency_samples"] = len(ordered)
            entry["query_ns"] = at_ref(st.query)
            entry["path_us"] = at_ref(st.path)
        report[name] = entry
    approx = [report[name] for name in APPROXIMATE if "query_ns" in report[name]]
    values["query_ns"] = max((e["query_ns"] for e in approx), default=0.0)
    values["path_us"] = max((e["path_us"] for e in approx), default=0.0)
    values["max_stretch"] = float(run.checker.max_stretch)
    metrics = {k: (values.get(k, 0.0), unit) for k, unit in END_TO_END.items()}
    return metrics, report, speed.summary()


REFERENCE_TIMEOUT_S = 120


def reference_in_child(streams, seed: int, name: str) -> dict:
    """``engines.reference`` for one engine in a fresh interpreter.

    ``subprocess.run`` waits for the child to end, and kills and reaps it
    if it overruns, so no process outlives the call.
    """
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--reference"],
        input=pickle.dumps((streams, seed, name)), capture_output=True,
        timeout=REFERENCE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"reference run of {name} failed:\n"
                           f"{done.stderr.decode(errors='replace')}")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def traced(run: Run):
    """Traced run: returns (metrics, report, spans by engine)."""
    import tracing
    from engines import APPROXIMATE, ENGINES, make
    from incsssp import oracle

    streams = [part.stream for part in run.parts]
    refs = {name: reference_in_child(streams, run.seed, name)
            for name in ENGINES}

    metrics: dict[str, tuple] = {}
    report = {}
    spans = {}
    verify_ns: list[int] = []

    def time_verify(adapter, part, i):
        if adapter.approximate:
            truth = oracle.ExactDistances(part.truth.at[i], None)
            t0 = perf_counter_ns()
            oracle.verify(adapter.engine, truth, adapter.eps, i)
            verify_ns.append(perf_counter_ns() - t0)

    for name in ENGINES:
        tracer = tracing.Tracer()
        st = EngineStats()
        total = 0
        counters = []
        delta = [0, 0]      # work and decreases the short tree added
        for part in run.parts:
            gc.collect()
            adapter = make(name, part.stream, run.seed)
            short = (adapter.engine.short if name in APPROXIMATE
                     else getattr(adapter, "short", None))
            before = (short.table.work, short.table.decreases) if short else None
            tracer.attach(name, adapter)
            replay = run.start(name, st, part, adapter, time_verify)
            try:
                done = run.step(name, replay)
            finally:
                tracer.restore()
            if not done:
                break
            total += replay.total_ns
            counters.append(adapter.counters())
            if short:
                delta[0] += short.table.work - before[0]
                delta[1] += short.table.decreases - before[1]
        run.checker.attempted += 1
        if counters != refs[name]["counters"]:
            run.checker.fail(f"{name}: traced counters {counters} differ "
                             f"from untraced {refs[name]['counters']}")
        metrics.update(tracing.layer_metrics(name, tracer, delta if short else
                                             None, run.n))
        ref_s = refs[name]["insert_s"]
        metrics[f"{name}.mem_peak_mb"] = (refs[name]["mem_peak_mb"], "MB")
        metrics[f"{name}.trace.overhead_ratio"] = (
            total / 1e9 / ref_s if ref_s else 0.0, "ratio")
        report[name] = {
            "counters": counters, "untraced_insert_s": ref_s,
            "traced_insert_s": total / 1e9,
            "fixing_by_cause": {k: tracer.counts[k] for k in
                                ("fixing_full", "fixing_potential")},
            "self_time_split": tracing.self_time_split(tracer)}
        spans[name] = tracer.dump()
    metrics["oracle.verify_ms"] = (
        statistics.mean(verify_ns) / 1e6 if verify_ns else 0.0, "ms")
    return metrics, report, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true",
                        help="read pickled (streams, seed, engine) from "
                             "standard input and print one untraced replay "
                             "as JSON (the traced run starts this itself)")
    args = parser.parse_args(argv)
    import_program()
    if args.reference:
        from engines import reference
        print(json.dumps(reference(*pickle.load(sys.stdin.buffer))))
        return 0
    from streams import WORKLOADS, build
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    seed = args.seed % 2 ** 64   # the rand engine takes a 64-bit seed
    run = Run(build(args.workload, seed), seed)
    if args.trace:
        metrics, engines, spans = traced(run)
    else:
        metrics, engines, speed = measure(run, args.seconds)
    checker = run.checker
    fail_share = checker.failed / checker.attempted

    streams = [part.stream for part in run.parts]
    print(f"workload {args.workload} seed {args.seed}: {len(streams)} "
          f"stream(s) of n={run.n}, "
          f"{sum(len(s.initial_edges) for s in streams)} preloaded edges, "
          f"{run.insertions} insertions, "
          f"{'traced' if args.trace else f'{args.seconds:g}s'}")
    for name, entry in engines.items():
        if args.trace:
            top = ", ".join(f"{k} {share:.0%}"
                            for k, share in entry["self_time_split"][:4])
            print(f"  {name:7s} self time: {top}")
        else:
            line = (f"  {name:7s} {entry['replays']:4d} replays "
                    f"{entry['ins_per_s']:12.1f} ins/s")
            if "latency_samples" in entry:
                line += (f"  p50 {entry['ins_p50_us']:.1f}us "
                         f"p99 {entry['ins_p99_us']:.1f}us "
                         f"of {entry['latency_samples']} samples")
            print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_share = {fail_share:.6g} ratio "
          f"({checker.failed} of {checker.attempted} checks)")

    OUT.mkdir(exist_ok=True)
    kind = "TRACE" if args.trace else "BENCH"
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(),
        "stream": {"streams": len(streams), "n": run.n,
                   "budget": streams[0].budget,
                   "preloaded": sum(len(s.initial_edges) for s in streams),
                   "insertions": run.insertions,
                   "checkpoints": [sorted(p.points) for p in run.parts]},
        "engines": engines,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "checks": {"attempted": checker.attempted, "failed": checker.failed,
                   "fail_share": fail_share, "failures": checker.failures,
                   "max_stretch": str(checker.max_stretch)},
    }
    if args.trace:
        result["spans"] = spans
    else:
        result["speed"] = speed
    with open(OUT / f"{kind}_{args.workload}.json", "w") as f:
        json.dump(result, f)

    print(json.dumps({
        "correct": checker.failed == 0, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
