#!/usr/bin/env python3
"""Digest of every structure's state along seeded replays.

    python3 tools/state_digest.py --seed 1
    python3 tools/state_digest.py --seed 1 --src ../other-checkout/src

Replays the streams of the bench workloads (``bench/streams.py``) through
the ``det``, ``det_c1`` and ``rand`` configurations of ``bench/engines.py``,
the C1 acceptance configurations (``random_stream(128, 1500, 64)``, det
mode, ε ∈ {1/4, 1/10} × c_B ∈ {1, default}) and the C7 ones
(``random_stream(128, 1000, 64)``, rand mode, ε = 1/4 raw, iter_mult =
1/100), through the package in ``--src``.  Every bench ``rand`` range has
εδ < 1, where a fixing phase's hidden pass never lowers anything; the raw
ε of C7 gives εδ ≥ 1, where it does.

After ``preprocess``, after every 16th insertion and at the end of each
stream it hashes, with sha256, every table's estimates, parents, work,
decreases and touch log (``None`` for the short tree, which keeps none),
every structure's ``counters()``, phase counter ``b``, potential ``phi``
and fixing-phase log where it has them, the global minimum values and
which structure owns each minimum.  It prints one digest per workload and
engine.  Two checkouts whose digests match left every structure
bit-identical along the way; timing never enters the digest.
"""

import argparse
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sparse_uniform", "connected", "chain", "c1", "c7")
ENGINES = ("det", "det_c1", "rand")
EVERY = 16
C7_STREAMS = 4   # C7 streams replayed for the c7 workload


def snapshot(engine) -> bytes:
    """The state of one engine as bytes; equal bytes, equal state."""
    structures = engine._structures
    index = {id(s): i for i, s in enumerate(structures)}
    parts = []
    for s in structures:
        tables = [s.table] if s is engine.short else \
            [t for _, t in s.audit_tables()]
        parts.append([(t.dhat, t.parent, t.work, t.decreases,
                       getattr(t, "_touch_log", None)) for t in tables])
        parts.append(sorted(s.counters().items()))
        parts.append([getattr(s, name, None)
                      for name in ("b", "phi", "fixing_log")])
    parts.append(engine.min_value)
    parts.append([None if o is None else index[id(o)]
                  for o in engine._min_owner])
    return repr(parts).encode()


def replay_digest(make_engine, streams) -> str:
    """sha256 over the snapshots of one replay of each stream in turn;
    ``make_engine(stream)`` builds a fresh engine for a stream."""
    h = hashlib.sha256()
    for stream in streams:
        engine = make_engine(stream)
        engine.preprocess(stream.initial_edges)
        h.update(snapshot(engine))
        for i, (_, u, v, w) in enumerate(stream.insertions, 1):
            engine.insert(u, v, w)
            if i % EVERY == 0:
                h.update(snapshot(engine))
        h.update(snapshot(engine))
    return h.hexdigest()


def c1_runs(count: int):
    """(label, make_engine, streams) for the first ``count`` C1 streams,
    each with its acceptance configuration."""
    from incsssp import Config, IncrementalSSSP, random_stream
    configs = [(Fraction(1, 4), 1), (Fraction(1, 4), None),
               (Fraction(1, 10), 1), (Fraction(1, 10), None)]
    n, m, W = 128, 1500, 64
    for i in range(count):
        eps, c_b = configs[i % 4]

        def make(stream, eps=eps, c_b=c_b):
            return IncrementalSSSP(Config(n=n, m_budget=m, max_weight=W,
                                          eps=eps, mode="det", c_b=c_b))
        yield (f"det[eps={eps},c_b={c_b}]#{i}", make,
               [random_stream(n, m, W, seed=1000 + i)])


def c7_runs(count: int):
    """(label, make_engine, streams) for the first ``count`` C7 streams,
    each with its acceptance configuration."""
    from incsssp import Config, IncrementalSSSP, random_stream
    n, m, W = 128, 1000, 64
    for i in range(count):
        def make(stream, seed=i):
            return IncrementalSSSP(Config(
                n=n, m_budget=m, max_weight=W, eps=Fraction(1, 4),
                mode="rand", seed=seed, raw_epsilon=True,
                iter_mult=Fraction(1, 100)))
        yield (f"rand[eps=1/4,raw]#{i}", make,
               [random_stream(n, m, W, seed=5000 + i)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--engines", nargs="+", choices=ENGINES,
                        default=list(ENGINES))
    parser.add_argument("--c1-streams", type=int, default=4,
                        help="C1 streams replayed for the c1 workload")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the incsssp package")
    args = parser.parse_args(argv)
    for path in (ROOT, args.src.resolve()):
        sys.path.insert(0, str(path))
    from bench import engines, streams
    import incsssp
    print("# incsssp from", Path(incsssp.__file__).parent, file=sys.stderr)

    for workload in args.workloads:
        if workload == "c1":
            runs = c1_runs(args.c1_streams)
        elif workload == "c7":
            runs = c7_runs(C7_STREAMS)
        else:
            built = streams.build(workload, args.seed)
            runs = [(name, lambda s, name=name: incsssp.IncrementalSSSP(
                        engines.config(name, s, args.seed)), built)
                    for name in args.engines]
        for label, make, built in runs:
            print(workload, label, replay_digest(make, built), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
