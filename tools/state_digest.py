#!/usr/bin/env python3
"""Digest of every structure's state along seeded replays.

    python3 tools/state_digest.py --seed 1
    python3 tools/state_digest.py --seed 1 --src ../other-checkout/src

Replays the streams of the bench workloads (``bench/streams.py``) through
the ``det``, ``det_c1`` and ``rand`` configurations of ``bench/engines.py``,
the first runs of the C1 acceptance corpus (``random_stream(128, 1500,
64)``, det mode, ε ∈ {1/4, 1/10} × c_B ∈ {1, default}), the same at W =
2^14 (``c1w14``, where deterministic ranges own answers) and the first
runs of the C7 one (``random_stream(128, 1000, 64)``, rand mode, ε = 1/4
raw, iter_mult = 1/100), through the package in ``--src``.  The corpora
are defined here, run by run (:func:`c1_run`, :func:`c7_run`), and
``tests/test_acceptance.py`` replays the same runs.  The engine builds no
range whose εδ is below 1 (the short tree covers it), so the bench
``rand`` engine, whose rescaled ε puts every εδ below 1, holds the short
tree alone; the raw ε of C7 keeps the ranges with εδ ≥ 1, where a fixing
phase's hidden pass can lower estimates.

It prints four kinds of digest per workload and engine, each a sha256:

- ``state``: after ``preprocess``, after every 16th insertion and at the
  end of each stream, every table's estimates, parents, work, decreases
  and touch log (``None`` for the short tree, which keeps none), every
  structure's ``counters()``, phase counter ``b``, potential ``phi`` and
  fixing-phase log where it has them, the global minimum values and which
  structure owns each minimum (its index in ``engine._structures``);
- ``answers``: the global minimum values after ``preprocess`` and after
  every insertion, which is every answer ``query`` gave;
- one per structure label (``short[cap]``, ``det[τ]``, ``rand[τ]``): that
  structure's part of the ``state`` snapshots.  The short tree's label
  carries its cap, which decides its state;
- ``plan``, printed last: the short tree's cap and ``engine.plan`` (the
  spawn key, τ, εδ and cap of every range) of every engine the replay
  builds.

Two checkouts whose ``state`` digests match left every structure
bit-identical along the way; where they build different structures, equal
``answers`` digests show the same answers, and a label printed by both
shows that structure unchanged.  Equal ``plan`` digests show the same
parameters, whatever the other digests say.  Timing never enters a
digest.
"""

import argparse
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sparse_uniform", "connected", "chain", "c1", "c1w14", "c7")
ENGINES = ("det", "det_c1", "rand")
EVERY = 16
C1_STREAMS = 4   # C1 streams replayed for the c1 and c1w14 workloads
C7_STREAMS = 4   # C7 streams replayed for the c7 workload
# the C1 acceptance configurations (ε, c_B), run i taking entry i % 4
C1_CONFIGS = ((Fraction(1, 4), 1), (Fraction(1, 4), None),
              (Fraction(1, 10), 1), (Fraction(1, 10), None))


def label(engine, s) -> str:
    """A structure's label: ``short[cap]``, ``det[τ]`` or ``rand[τ]``."""
    if s is engine.short:
        return f"short[{s.cap}]"
    return s.audit_tables()[0][0].split(".")[0]


def structure_states(engine) -> dict[str, bytes]:
    """The state of each structure as bytes, by label."""
    states = {}
    for s in engine._structures:
        tables = [s.table] if s is engine.short else \
            [t for _, t in s.audit_tables()]
        states[label(engine, s)] = repr((
            [(t.dhat, t.parent, t.work, t.decreases,
              getattr(t, "_touch_log", None)) for t in tables],
            sorted(s.counters().items()),
            [getattr(s, name, None) for name in ("b", "phi", "fixing_log")],
        )).encode()
    return states


def snapshot(engine) -> bytes:
    """The state of one engine as bytes; equal bytes, equal state."""
    return repr((list(structure_states(engine).items()), engine.min_value,
                 engine._min_owner)).encode()


def replay_digest(make_engine, streams) -> dict[str, str]:
    """The ``state`` and ``answers`` digests, one per structure label and
    the ``plan`` digest (see the module docstring) of one replay of each
    stream in turn; ``make_engine(stream)`` builds a fresh engine for a
    stream."""
    state, answers, plan = hashlib.sha256(), hashlib.sha256(), \
        hashlib.sha256()
    structures = {}

    def checkpoint(engine):
        state.update(snapshot(engine))
        for name, data in structure_states(engine).items():
            structures.setdefault(name, hashlib.sha256()).update(data)

    for stream in streams:
        engine = make_engine(stream)
        plan.update(repr((engine.short.cap, engine.plan)).encode())
        engine.preprocess(stream.initial_edges)
        checkpoint(engine)
        answers.update(repr(engine.min_value).encode())
        for i, (_, u, v, w) in enumerate(stream.insertions, 1):
            engine.insert(u, v, w)
            answers.update(repr(engine.min_value).encode())
            if i % EVERY == 0:
                checkpoint(engine)
        checkpoint(engine)
    return {"state": state.hexdigest(), "answers": answers.hexdigest(),
            **{name: h.hexdigest() for name, h in structures.items()},
            "plan": plan.hexdigest()}


def c1_run(i: int, W: int = 64):
    """(label, config, stream) of C1 run ``i``: ``random_stream(128, 1500,
    W)`` #1000+i through a det engine at ``C1_CONFIGS[i % 4]``."""
    from incsssp import Config, random_stream
    n, m = 128, 1500
    eps, c_b = C1_CONFIGS[i % 4]
    return (f"det[eps={eps},c_b={c_b}]#{i}",
            Config(n=n, m_budget=m, max_weight=W, eps=eps, mode="det",
                   c_b=c_b),
            random_stream(n, m, W, seed=1000 + i))


def c7_run(i: int, W: int = 64):
    """(label, config, stream) of C7 run ``i``: ``random_stream(128, 1000,
    W)`` #5000+i through a rand engine seeded ``i``, at raw ε = 1/4 and
    iter_mult = 1/100."""
    from incsssp import Config, random_stream
    n, m = 128, 1000
    return (f"rand[eps=1/4,raw]#{i}",
            Config(n=n, m_budget=m, max_weight=W, eps=Fraction(1, 4),
                   mode="rand", seed=i, raw_epsilon=True,
                   iter_mult=Fraction(1, 100)),
            random_stream(n, m, W, seed=5000 + i))


def corpus_runs(run, count: int, W: int = 64):
    """(label, make_engine, streams) for runs 0 to ``count`` − 1 of ``run``
    (:func:`c1_run` or :func:`c7_run`) at maximum weight ``W``."""
    from incsssp import IncrementalSSSP
    for i in range(count):
        label, config, stream = run(i, W)
        yield label, lambda _, config=config: IncrementalSSSP(config), [stream]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--engines", nargs="+", choices=ENGINES,
                        default=list(ENGINES))
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
            runs = corpus_runs(c1_run, C1_STREAMS)
        elif workload == "c1w14":
            runs = corpus_runs(c1_run, C1_STREAMS, W=2 ** 14)
        elif workload == "c7":
            runs = corpus_runs(c7_run, C7_STREAMS)
        else:
            built = streams.build(workload, args.seed)
            runs = [(name, lambda s, name=name: incsssp.IncrementalSSSP(
                        engines.config(name, s, args.seed)), built)
                    for name in args.engines]
        for name, make, built in runs:
            for kind, digest in replay_digest(make, built).items():
                print(workload, name, kind, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
