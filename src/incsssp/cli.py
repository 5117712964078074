"""Stream-replay batch tool.

Stream text format (line oriented, ``#`` starts a comment):

    n=<int> W=<int> budget=<int> [eps=<p>/<q>]     header, first; no other
                                                   key, none twice
    i <u> <v> <w>                                  initial edge
    a <u> <v> <w>                                  insertion event
    q <v>                                          distance query (echoed)
    p <v>                                          path query (echoed)

Metrics CSV columns, in order:
``index,relaxation_count,touched_count,fixing_phases_run,rebuilds_run,max_additive_error,wall_time_ns``.
``max_additive_error`` is filled only under --verify; ``wall_time_ns`` is
always 0 so identical invocations stay byte-identical.

Exit codes: 0 success, 1 unreadable file or rejected configuration,
2 verification failure, 3 stream parse error, 64 command-line usage error.
"""

import argparse
import json
import sys
from fractions import Fraction
from math import inf

from .engine import DEFAULT_C_B, MODES, Config, IncrementalSSSP
from .errors import IncSSSPError, ParseError, Unreachable
from .oracle import exact_distances_fast, verify
from .workloads import InsertionStream

CSV_COLUMNS = ("index", "relaxation_count", "touched_count",
               "fixing_phases_run", "rebuilds_run", "max_additive_error",
               "wall_time_ns")
HEADER_KEYS = ("n", "W", "budget", "eps")   # each at most once


# argparse types: a ValueError exits 64 as "invalid <name> value"
def rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(text) from exc


def _parse_fraction(text: str, line: int) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line, f"bad rational {text!r}")


def parse_stream(text: str) -> InsertionStream:
    """Parse the stream format; raises ParseError with a line number."""
    stream = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if stream is None:
            fields = {}
            for tok in line.split():
                if "=" not in tok:
                    raise ParseError(lineno, f"bad header token {tok!r}")
                key, val = tok.split("=", 1)
                if key not in HEADER_KEYS:
                    raise ParseError(lineno, f"unknown header key {key!r}")
                if key in fields:
                    raise ParseError(lineno, f"header repeats {key}=")
                fields[key] = val
            for req in ("n", "W", "budget"):
                if req not in fields:
                    raise ParseError(lineno, f"header missing {req}=")
            try:
                n = int(fields["n"])
                w_max = int(fields["W"])
                budget = int(fields["budget"])
            except ValueError:
                raise ParseError(lineno, "header values must be integers")
            eps = _parse_fraction(fields["eps"], lineno) if "eps" in fields else None
            if n < 1 or w_max < 1 or budget < 1:
                raise ParseError(lineno, "header values must be positive")
            stream = InsertionStream(n=n, max_weight=w_max, budget=budget,
                                     eps=eps)
            continue
        parts = line.split()
        kind = parts[0]
        if kind in ("i", "a"):
            if len(parts) != 4:
                raise ParseError(lineno, f"{kind!r} needs: {kind} u v w")
            try:
                u, v, w = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(lineno, "vertex/weight must be integers")
            if not (0 <= u < stream.n and 0 <= v < stream.n):
                raise ParseError(lineno, f"vertex outside [0,{stream.n})")
            if not (1 <= w <= stream.max_weight):
                raise ParseError(lineno,
                                 f"weight {w} outside [1,{stream.max_weight}]")
            if kind == "i":
                if stream.events:
                    raise ParseError(lineno, "initial edges must precede events")
                stream.initial_edges.append((u, v, w))
            else:
                stream.events.append(("a", u, v, w))
        elif kind in ("q", "p"):
            if len(parts) != 2:
                raise ParseError(lineno, f"{kind!r} needs: {kind} v")
            try:
                v = int(parts[1])
            except ValueError:
                raise ParseError(lineno, "vertex must be an integer")
            if not (0 <= v < stream.n):
                raise ParseError(lineno, f"vertex outside [0,{stream.n})")
            stream.events.append((kind, v))
        else:
            raise ParseError(lineno, f"unknown event kind {kind!r}")
    if stream is None:
        raise ParseError(1, "empty stream: header line required")
    return stream


def serialize_stream(stream: InsertionStream) -> str:
    """Normalized textual form; parse ∘ serialize is the identity."""
    out = [f"n={stream.n} W={stream.max_weight} budget={stream.budget}"
           + (f" eps={stream.eps}" if stream.eps is not None else "")]
    for (u, v, w) in stream.initial_edges:
        out.append(f"i {u} {v} {w}")
    for e in stream.events:
        out.append(" ".join(str(x) for x in e))
    return "\n".join(out) + "\n"


def run(stream: InsertionStream, mode: str = "det", *,
        eps: Fraction | None = None, seed: int = 0, verify_each: bool = False,
        c_b: int | None = None, iter_mult: Fraction = Fraction(1),
        raw_epsilon: bool = False):
    """Replay a stream; returns (exit_code, metrics_rows, summary dict)."""
    if eps is None:
        eps = Fraction(1, 4) if stream.eps is None else stream.eps
    cfg = Config(n=stream.n, m_budget=stream.budget,
                 max_weight=stream.max_weight, eps=eps, mode=mode, seed=seed,
                 c_b=c_b, iter_mult=iter_mult, raw_epsilon=raw_epsilon)
    engine = IncrementalSSSP(cfg)
    engine.preprocess(stream.initial_edges)

    rows = []
    answers = []
    failure = None
    index = 0
    prev = engine.counters()
    for event in stream.events:
        if event[0] == "a":
            _, u, v, w = event
            engine.insert(u, v, w)
            index += 1
            cur = engine.counters()
            max_err = ""
            if verify_each:
                dist = exact_distances_fast(engine.graph, engine.source)
                report = verify(engine, dist, engine.guarantee_epsilon,
                                insertion_index=index)
                max_err = report.max_additive_error
                if not report.clean:
                    failure = report
            rows.append((index, cur["relaxations"] - prev["relaxations"],
                         cur["decreases"] - prev["decreases"],
                         cur["fixing_phases"] - prev["fixing_phases"],
                         cur["rebuilds"] - prev["rebuilds"], max_err, 0))
            prev = cur
            if failure is not None:
                break
        elif event[0] == "q":
            d = engine.query(event[1])
            answers.append(["q", event[1], "inf" if d == inf else d])
        elif event[0] == "p":
            try:
                path = engine.report_path(event[1])
                answers.append(["p", event[1], "->".join(map(str, path))])
            except Unreachable:
                answers.append(["p", event[1], "unreachable"])

    summary = {
        "mode": mode,
        "eps": str(eps),
        "seed": seed,
        "insertions": index,
        "answers": answers,
        "totals": engine.counters(),
        "verified": bool(verify_each),
        "violations": 0 if failure is None else
            len(failure.lower_violations) + len(failure.upper_violations)
            + len(failure.invariant_breaches),
    }
    if failure is not None:
        summary["first_violation"] = _describe_failure(failure)
    return (2 if failure is not None else 0), rows, summary


def _describe_failure(report) -> str:
    if report.lower_violations:
        v, est, truth = report.lower_violations[0]
        return (f"insertion {report.insertion_index}: vertex {v} "
                f"estimate {est} below true distance {truth}")
    if report.upper_violations:
        v, est, truth, ratio = report.upper_violations[0]
        return (f"insertion {report.insertion_index}: vertex {v} "
                f"estimate {est} above bound for true distance {truth}")
    label, (u, v), amount = report.invariant_breaches[0]
    return (f"insertion {report.insertion_index}: edge ({u},{v}) in {label} "
            f"breaches the slack invariant by {amount}")


def write_metrics(rows, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(64)


def main(argv=None) -> int:
    parser = _Parser(
        prog="incsssp",
        description="Replay an insertion stream through the incremental "
                    "SSSP engine, optionally verifying every step against "
                    "an exact oracle.",
        epilog=f"metrics columns: {','.join(CSV_COLUMNS)}")
    parser.add_argument("stream", help="stream file path, or - for stdin")
    parser.add_argument("--mode", choices=MODES, default="det")
    parser.add_argument("--verify", action="store_true",
                        help="run the exact oracle after every insertion; "
                             "exit 2 on any violation")
    parser.add_argument("--metrics", metavar="PATH",
                        help="write per-insertion metrics CSV")
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed")
    parser.add_argument("--eps", type=rational, metavar="P/Q",
                        help="approximation slack (overrides stream header)")
    parser.add_argument("--cb-mult", type=int, metavar="C",
                        help="override the phase-length constant c_B "
                             "(phases of floor(sqrt(m)/C) insertions; "
                             f"default {DEFAULT_C_B})")
    parser.add_argument("--iter-mult", type=rational, metavar="P/Q",
                        default=Fraction(1),
                        help="fixing-phase iteration multiplier")
    parser.add_argument("--raw-epsilon", action="store_true",
                        help="skip internal epsilon rescaling")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON summary on stdout")
    args = parser.parse_args(argv)

    try:
        text = sys.stdin.read() if args.stream == "-" else \
            open(args.stream).read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        stream = parse_stream(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3

    try:
        code, rows, summary = run(
            stream, args.mode, eps=args.eps, seed=args.seed,
            verify_each=args.verify, c_b=args.cb_mult,
            iter_mult=args.iter_mult, raw_epsilon=args.raw_epsilon)
    except IncSSSPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.metrics:
        write_metrics(rows, args.metrics)
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        for kind, v, ans in summary["answers"]:
            print(f"{kind} {v} = {ans}")
        if code != 0:
            print(summary["first_violation"], file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
