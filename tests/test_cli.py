import gc
import io
import json
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from incsssp import ParseError, exact_distances_fast, parse_stream, \
    random_stream, run, serialize_stream
from incsssp.cli import main
from incsssp.workloads import InsertionStream
from tests.conftest import cli_env


def test_parse_minimal():
    s = parse_stream("n=4 W=10 budget=6\na 0 1 3\n")
    assert s.n == 4 and s.max_weight == 10 and s.budget == 6
    assert s.events == [("a", 0, 1, 3)]


def test_parse_full():
    text = """
    # stream with everything
    n=5 W=9 budget=8 eps=1/10
    i 0 1 2
    a 1 2 3   # trailing comment
    q 2
    p 2
    """
    s = parse_stream(text)
    assert s.eps == Fraction(1, 10)
    assert s.initial_edges == [(0, 1, 2)]
    assert s.events == [("a", 1, 2, 3), ("q", 2), ("p", 2)]


def test_parse_rejects_zero_weight():
    with pytest.raises(ParseError):
        parse_stream("n=4 W=10 budget=6\na 0 1 0\n")


def test_parse_rejects_out_of_range_vertex():
    with pytest.raises(ParseError):
        parse_stream("n=4 W=10 budget=6\nq 4\n")


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_stream("n=4 W=10 budget=6\na 0 1 1\nbogus 1 2\n")
    assert exc.value.line == 3


def test_parse_rejects_late_initial_edge():
    with pytest.raises(ParseError):
        parse_stream("n=4 W=10 budget=6\na 0 1 1\ni 1 2 1\n")


@pytest.mark.parametrize("header, message", [
    ("n=4 W=10 budget=6 esp=1/10", "unknown header key 'esp'"),
    ("n=4 W=10 budget=6 n=9", "header repeats n="),
    ("n=4 W=10 budget=6 eps=1/4 eps=1/10", "header repeats eps=")],
    ids=["unknown", "repeated", "repeated_eps"])
def test_header_rejects_unknown_and_repeated_keys(tmp_path, capsys, header,
                                                  message):
    """A misspelt key would leave its default in force, and a repeated one
    would take the last value, both silently."""
    with pytest.raises(ParseError) as exc:
        parse_stream(f"{header}\na 0 1 3\n")
    assert exc.value.line == 1 and exc.value.message == message
    p = tmp_path / "stream.txt"
    p.write_text(f"{header}\na 0 1 3\n")
    assert main([str(p)]) == 3
    assert message in capsys.readouterr().err


streams = st.builds(
    lambda n, edges, qs: _build_stream(n, edges, qs),
    st.integers(3, 8),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                       st.integers(1, 9)), max_size=12),
    st.lists(st.integers(0, 7), max_size=4))


def _build_stream(n, edges, qs):
    s = InsertionStream(n=n, max_weight=9, budget=max(1, len(edges)))
    seen = set()
    for (u, v, w) in edges:
        u, v = u % n, v % n
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        s.events.append(("a", u, v, w))
    for q in qs:
        s.events.append(("q", q % n))
    return s


@settings(max_examples=60)
@given(streams)
def test_round_trip(stream):
    text = serialize_stream(stream)
    again = serialize_stream(parse_stream(text))
    assert text == again


def test_run_verify_clean():
    stream = random_stream(16, 60, 5, seed=2, query_rate=0.2)
    code, rows, summary = run(stream, "det", verify_each=True)
    assert code == 0
    assert len(rows) == 60
    assert summary["violations"] == 0


@pytest.fixture
def vertex_3_farther(monkeypatch):
    """The CLI's oracle reports vertex 3 one step farther than it is, so
    an exact estimate of it reads as one below its true distance."""
    exact = exact_distances_fast

    def farther(graph, source):
        dist = exact(graph, source)
        dist[3] += 1
        return dist

    monkeypatch.setattr("incsssp.cli.exact_distances_fast", farther)


def test_run_corruption_detected(vertex_3_farther):
    stream = random_stream(16, 60, 5, seed=2)
    code, rows, summary = run(stream, "det", verify_each=True)
    assert code == 2
    assert "vertex 3 " in summary["first_violation"]
    assert len(rows) == summary["insertions"] < 60


def cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "incsssp", *args],
        capture_output=True, text=True, input=stdin, env=cli_env())


@pytest.fixture
def stream_file(tmp_path):
    stream = random_stream(16, 60, 5, seed=9, query_rate=0.2)
    p = tmp_path / "stream.txt"
    p.write_text(serialize_stream(stream))
    return p


def test_cli_verify_exit_zero(stream_file, tmp_path):
    out = cli(str(stream_file), "--mode", "det", "--verify")
    assert out.returncode == 0, out.stderr


def test_cli_parse_error_exit_three(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("n=4 W=10 budget=6\na 0 1 0\n")
    out = cli(str(p))
    assert out.returncode == 3


def test_cli_corrupt_exit_two_lists_vertex(stream_file, vertex_3_farther,
                                           capsys):
    assert main([str(stream_file), "--verify"]) == 2
    assert "vertex 3 " in capsys.readouterr().err


def test_cli_usage_error_exit_64(stream_file):
    out = cli(str(stream_file), "--mode", "bogus")
    assert out.returncode == 64


@pytest.mark.parametrize("args", [
    ("--eps", "abc"), ("--eps", "1/0"), ("--iter-mult", "x")])
def test_cli_malformed_option_exit_64(stream_file, args):
    out = cli(str(stream_file), *args)
    assert out.returncode == 64, out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("header, args", [(" eps=0", ()),
                                          ("", ("--eps", "0"))],
                         ids=["header", "flag"])
def test_cli_zero_eps_exit_one(tmp_path, capsys, header, args):
    p = tmp_path / "stream.txt"
    p.write_text(f"n=4 W=10 budget=6{header}\na 0 1 3\n")
    assert main([str(p), *args]) == 1
    assert "eps must lie in (0, 1)" in capsys.readouterr().err


def test_cli_cb_mult_sets_the_phase_length(stream_file, capsys):
    """``--cb-mult 1`` gives ``run``'s totals at c_B = 1, which differ
    from the default's on this stream."""
    stream = parse_stream(stream_file.read_text())
    totals = {c_b: run(stream, c_b=c_b)[2]["totals"] for c_b in (None, 1)}
    assert totals[1] != totals[None]
    for c_b, args in ((1, ["--cb-mult", "1"]), (None, [])):
        assert main([str(stream_file), *args, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["totals"] == totals[c_b]


def test_cli_cb_mult_zero_exit_one(stream_file, capsys):
    assert main([str(stream_file), "--cb-mult", "0"]) == 1
    assert capsys.readouterr().err == \
        "error: c_b override must be >= 1\n"


NOT_UTF8 = b"n=4 W=10 budget=6\na 0 1 3\nq 1 \xff\n"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_cli_stream_not_utf8_exit_one(tmp_path, monkeypatch, capsys, source):
    p = tmp_path / "stream.txt"
    p.write_bytes(NOT_UTF8)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(NOT_UTF8), encoding="utf-8"))
    assert main([str(p) if source == "file" else "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "can't decode byte 0xff" in err
    assert (str(p) if source == "file" else "<stdin>") in err


@pytest.mark.parametrize("locale_env", [{"PYTHONUTF8": "1"},
                                        {"LC_ALL": "C"}])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_cli_stdin_and_file_agree_whatever_the_locale(tmp_path, locale_env,
                                                      source):
    """The same bytes give the same exit code and output from a file and on
    stdin, in UTF-8 mode and under the C locale (which Python runs in UTF-8
    mode unless told otherwise): a stream that is not UTF-8 exits 1 with a
    message naming its source, and a UTF-8 comment is read as text."""
    env = {k: v for k, v in cli_env().items()
           if k not in ("PYTHONUTF8", "LC_ALL", "LC_CTYPE", "LANG")}
    env.update(locale_env)
    valid = "n=4 W=10 budget=6\n# é\na 0 1 3\nq 1\n".encode("utf-8")
    for data, code in ((NOT_UTF8, 1), (valid, 0)):
        p = tmp_path / "stream.txt"
        p.write_bytes(data)
        out = subprocess.run(
            [sys.executable, "-m", "incsssp",
             str(p) if source == "file" else "-"],
            input=data, capture_output=True, env=env)
        err = out.stderr.decode("utf-8", "replace")
        assert out.returncode == code, err
        if code:
            name = str(p) if source == "file" else "<stdin>"
            assert err.startswith(f"error: {name}: ")
            assert "can't decode byte 0xff" in err and out.stdout == b""
        else:
            assert out.stdout == b"q 1 = 3\n" and err == ""


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_cli_unwritable_metrics_exit_one(stream_file, tmp_path, capsys,
                                         where):
    path = tmp_path / "missing" / "m.csv" if where == "missing_dir" \
        else tmp_path
    assert main([str(stream_file), "--metrics", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_cli_closes_its_stream_file(tmp_path, capsys):
    p = tmp_path / "stream.txt"
    p.write_text("n=4 W=10 budget=6\na 0 1 3\nq 1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([str(p)]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_readme_usage_names_every_cli_flag():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    usage = readme.read_text().split("## CLI", 1)[1].split("```")[1]
    help_text = cli("--help").stdout

    def flags(text):
        return set(re.findall(r"--[a-z][a-z-]*", text))

    assert flags(usage) == flags(help_text) - {"--help"}


def test_cli_byte_identical_metrics(stream_file, tmp_path):
    outputs = []
    for name in ("m1.csv", "m2.csv"):
        path = tmp_path / name
        out = cli(str(stream_file), "--mode", "rand", "--seed", "7",
                  "--raw-epsilon", "--iter-mult", "1/10",
                  "--metrics", str(path), "--json")
        assert out.returncode == 0, out.stderr
        outputs.append((path.read_bytes(), out.stdout))
    assert outputs[0] == outputs[1]


def test_cli_initial_edges_round_trip_and_verify(tmp_path):
    # a stream with a pre-existing graph (initial edges) replays verified
    from incsssp import quadratic_error_stream
    stream = quadratic_error_stream(8)
    p = tmp_path / "fig1.txt"
    p.write_text(serialize_stream(stream))
    reparsed = parse_stream(p.read_text())
    assert reparsed.initial_edges == stream.initial_edges
    assert reparsed.events == stream.events
    out = cli(str(p), "--mode", "det", "--verify")
    assert out.returncode == 0, out.stderr


def test_cli_json_deterministic(stream_file):
    a = cli(str(stream_file), "--json", "--seed", "3")
    b = cli(str(stream_file), "--json", "--seed", "3")
    assert a.stdout == b.stdout
    assert a.stdout.startswith("{")
