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
``--metrics``).  Then one line per run of :data:`ERROR_RUNS`, fixed
runs that fail with exit code 1, 3 or 64, named ``error=<name>`` and
digested the same way.  Two checkouts that print the same lines gave
byte-identical command-line output, error messages and exit codes on
every run.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(6)
INITIAL = 100   # edges of each stream loaded by preprocess
MODES = ("det", "rand", "nosync")
EPS = ((), ("--eps", "3/4", "--raw-epsilon"))
FLAGS = ("--verify", "--json", "--metrics")
VALID = "n=4 W=5 budget=4\na 0 1 1\nq 1\n"
# (name, stream text, arguments) of runs that fail
ERROR_RUNS = (
    ("over_budget", "n=4 W=5 budget=2\ni 0 1 1\ni 1 2 1\ni 2 3 1\n", ()),
    ("bad_header", "n=4 W=5 budget=x\n", ()),
    ("vertex_out_of_range", "n=4 W=5 budget=4\na 0 4 1\n", ()),
    ("duplicate_edge", "n=4 W=5 budget=4\na 0 1 1\na 0 1 2\n", ()),
    ("cb_mult_0", VALID, ("--cb-mult", "0")),
    ("unknown_flag", VALID, ("--no-such-flag",)),
)


def matrix_stream(seed: int):
    """The stream of one seed, its first ``INITIAL`` edges initial."""
    from incsssp import random_stream
    stream = random_stream(64, 400, 32, seed=seed, query_rate=0.2)
    cut = [i for i, e in enumerate(stream.events) if e[0] == "a"][INITIAL - 1]
    stream.initial_edges = [e[1:] for e in stream.events[:cut + 1]
                            if e[0] == "a"]
    del stream.events[:cut + 1]
    return stream


def run_outputs(argv: list[str], metrics: Path) -> tuple:
    """``(stdout, stderr, exit code, metrics CSV)`` of one in-process CLI
    run; ``argv`` writes the CSV to ``metrics`` if it asks for one.  The
    usage text is wrapped at 80 columns, whatever the terminal."""
    from incsssp.cli import main
    metrics.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
    csv = metrics.read_bytes() if metrics.exists() else None
    return out.getvalue(), err.getvalue(), code, csv


def run_digest(argv: list[str], metrics: Path) -> str:
    """sha256 of one run's :func:`run_outputs`."""
    return hashlib.sha256(
        repr(run_outputs(argv, metrics)).encode()).hexdigest()


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


def error_lines():
    """One ``error=<name> <arguments> <sha256>`` line per failing run."""
    with tempfile.TemporaryDirectory() as tmp:
        stream_path, metrics = Path(tmp, "stream.txt"), Path(tmp, "m.csv")
        for name, text, args in ERROR_RUNS:
            stream_path.write_text(text)
            digest = run_digest([str(stream_path), *args], metrics)
            yield " ".join([f"error={name}", *args, digest])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the incsssp package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import incsssp
    print("# incsssp from", Path(incsssp.__file__).parent, file=sys.stderr)
    for line in itertools.chain(digest_lines(), error_lines()):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
