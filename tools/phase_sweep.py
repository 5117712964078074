#!/usr/bin/env python3
"""Insert time of the ``det`` engine per phase length on the bench workloads.

    python3 tools/phase_sweep.py
    python3 tools/phase_sweep.py --seeds 1 2 3 --reps 5 --src ../other-checkout/src

Regenerates README's "Phase length" table.  For each workload of
``bench/streams.py`` it replays the streams of seeds ``--seeds`` through a
``det`` engine at c_B ∈ {1, 2, 3, 4, 6, 8, 6·⌈lg n⌉} and through ``exact``
(``ShortDistanceTree`` with no cap, as in ``bench/engines.py``).  Each
replay builds fresh engines, untimed, and times the insert loop in thread
CPU time, scaled by ``REFERENCE_JOB_NS / job`` as ``bench/run.py`` scales
its times, where ``job`` is that script's speed job measured just before
the stream's loop.  A cell is the fastest of ``--reps`` replays of a seed,
then the median over the seeds, in seconds.  The configurations take turns
within each replay round, so a change of machine speed falls on all of
them alike.  It prints a Markdown table on stdout.
"""

import argparse
import gc
import statistics
import sys
from pathlib import Path
from time import thread_time_ns

ROOT = Path(__file__).resolve().parents[1]
C_BS = (1, 2, 3, 4, 6, 8, "6·⌈lg n⌉")
WORKLOADS = ("chain", "connected", "sparse_uniform")


def make(c_b, stream):
    """A fresh engine for ``stream`` at phase constant ``c_b``, or the
    ``exact`` baseline for ``c_b = "exact"``, set up and ready to insert."""
    from bench.engines import Exact
    from incsssp import Config, IncrementalSSSP
    from incsssp.intmath import ceil_log2
    if c_b == "exact":
        return Exact("exact", stream, 0)
    if not isinstance(c_b, int):
        c_b = 6 * ceil_log2(stream.n)
    engine = IncrementalSSSP(Config(
        n=stream.n, m_budget=stream.budget, max_weight=stream.max_weight,
        mode="det", c_b=c_b))
    engine.preprocess(stream.initial_edges)
    return engine


def replay_s(c_b, streams) -> float:
    """Insert time of one replay of ``streams``, at the reference speed."""
    from bench.run import REFERENCE_JOB_NS, SPEED_REPS, speed_job_ns
    total = 0.0
    for stream in streams:
        insert = make(c_b, stream).insert
        gc.collect()
        job = min(speed_job_ns() for _ in range(SPEED_REPS))
        gc.disable()
        t0 = thread_time_ns()
        for _, u, v, w in stream.insertions:
            insert(u, v, w)
        spent = thread_time_ns() - t0
        gc.enable()
        total += spent * REFERENCE_JOB_NS / job
    return total / 1e9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the incsssp package")
    args = parser.parse_args(argv)
    for path in (ROOT, args.src.resolve()):
        sys.path.insert(0, str(path))
    from bench import streams as bench_streams
    import incsssp
    print("# incsssp from", Path(incsssp.__file__).parent, file=sys.stderr)

    columns = C_BS + ("exact",)
    print("| workload | " + " | ".join(
        f"`c_B={c}`" if c == 1 else f"`{c}`" if isinstance(c, str) else str(c)
        for c in columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    for workload in args.workloads:
        per_seed = {c: [] for c in columns}
        for seed in args.seeds:
            built = bench_streams.build(workload, seed)
            size = f"n={built[0].n}" if len(built) == 1 else \
                f"{len(built)} × n={built[0].n}"
            best = {c: float("inf") for c in columns}
            for _ in range(args.reps):
                for c in columns:
                    best[c] = min(best[c], replay_s(c, built))
            for c in columns:
                per_seed[c].append(best[c])
        cells = {c: statistics.median(per_seed[c]) for c in columns}
        fastest = min(cells[c] for c in C_BS)
        print(f"| `{workload}`, {size} | " + " | ".join(
            f"**{cells[c]:.4f}**" if c in C_BS and cells[c] == fastest
            else f"{cells[c]:.4f}" for c in columns) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
