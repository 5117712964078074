#!/usr/bin/env python3
"""Digest of the command line's output over a fixed matrix of runs.

    python3 tools/cli_digest.py
    python3 tools/cli_digest.py --src ../other-checkout/src

Builds ``random_stream(64, 400, 32, seed, query_rate=0.2)`` for seeds 0–5
and makes its first 100 edges initial (the queries drawn among them are
dropped).  Each stream is replayed through ``incsssp.cli.main`` of the
package in ``--src``, run in this process, in modes ``det``, ``rand`` and
``nosync``; at the default ε and with ``--eps 3/4 --raw-epsilon``; each
with and without ``--verify``, ``--json`` and ``--metrics``: 288 runs.

One line per run names its seed and arguments and gives a sha256 of its
stdout, stderr, exit code and metrics CSV (``None`` without
``--metrics``).  Two checkouts that print the same lines gave
byte-identical command-line output on every run.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(6)
INITIAL = 100   # edges of each stream loaded by preprocess
MODES = ("det", "rand", "nosync")
EPS = ((), ("--eps", "3/4", "--raw-epsilon"))
FLAGS = ("--verify", "--json", "--metrics")


def matrix_stream(seed: int):
    """The stream of one seed, its first ``INITIAL`` edges initial."""
    from incsssp import random_stream
    stream = random_stream(64, 400, 32, seed=seed, query_rate=0.2)
    cut = [i for i, e in enumerate(stream.events) if e[0] == "a"][INITIAL - 1]
    stream.initial_edges = [e[1:] for e in stream.events[:cut + 1]
                            if e[0] == "a"]
    del stream.events[:cut + 1]
    return stream


def run_digest(argv: list[str], metrics: Path) -> str:
    """sha256 of one in-process CLI run's stdout, stderr, exit code and
    metrics CSV; ``argv`` writes the CSV to ``metrics`` if it asks for
    one."""
    from incsssp.cli import main
    metrics.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    csv = metrics.read_bytes() if metrics.exists() else None
    return hashlib.sha256(repr(
        (out.getvalue(), err.getvalue(), code, csv)).encode()).hexdigest()


def digest_lines(seeds=SEEDS):
    """One ``seed=<s> <arguments> <sha256>`` line per run of the matrix."""
    from incsssp.cli import serialize_stream
    with tempfile.TemporaryDirectory() as tmp:
        stream_path, metrics = Path(tmp, "stream.txt"), Path(tmp, "m.csv")
        for seed in seeds:
            stream_path.write_text(serialize_stream(matrix_stream(seed)))
            for mode, eps, *on in itertools.product(
                    MODES, EPS, *[(False, True)] * len(FLAGS)):
                args = ["--mode", mode, *eps,
                        *(flag for flag, use in zip(FLAGS, on) if use)]
                # --metrics, if given, comes last and takes the path
                path = [str(metrics)] if on[-1] else []
                digest = run_digest([str(stream_path), *args, *path], metrics)
                yield f"seed={seed} {' '.join(args)} {digest}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the incsssp package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import incsssp
    print("# incsssp from", Path(incsssp.__file__).parent, file=sys.stderr)
    for line in digest_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
