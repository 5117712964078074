import pytest

from tools.cli_digest import (ERROR_RUNS, INITIAL, digest_lines, error_lines,
                              matrix_stream, run_outputs)


def test_matrix_stream_starts_from_initial_edges():
    stream = matrix_stream(0)
    assert len(stream.initial_edges) == INITIAL
    assert len(stream.insertions) == 400 - INITIAL


def test_one_seed_of_the_matrix_is_reproducible():
    """48 runs of one seed print the same lines twice; the digest covers
    the flags' output, so --json and --metrics each change it."""
    lines = list(digest_lines([0]))
    assert lines == list(digest_lines([0]))
    assert len(lines) == len(set(lines)) == 48
    digest = {line.rsplit(" ", 1)[0]: line.rsplit(" ", 1)[1]
              for line in lines}
    plain = digest["seed=0 --mode det"]
    assert digest["seed=0 --mode det --json"] != plain
    assert digest["seed=0 --mode det --metrics"] != plain


def test_error_lines_are_reproducible_and_distinct():
    lines = list(error_lines())
    assert lines == list(error_lines())
    assert len(lines) == len(set(lines)) == len(ERROR_RUNS) == 6
    assert [line.split()[0] for line in lines] == [
        f"error={name}" for name, _, _ in ERROR_RUNS]


EXPECTED = {"over_budget": (1, "error: edge budget 2 exhausted\n"),
            "bad_header": (3, "header values must be integers"),
            "vertex_out_of_range": (3, "vertex outside [0,4)"),
            "duplicate_edge": (1, "error: edge (0,1) already present\n"),
            "cb_mult_0": (1, "error: c_b override must be >= 1\n"),
            "unknown_flag": (64, "unrecognized arguments: --no-such-flag")}


@pytest.mark.parametrize("name, text, args", ERROR_RUNS,
                         ids=[run[0] for run in ERROR_RUNS])
def test_each_error_run_fails_as_named(tmp_path, name, text, args):
    path = tmp_path / "stream.txt"
    path.write_text(text)
    out, err, code, csv = run_outputs([str(path), *args], tmp_path / "m.csv")
    want_code, message = EXPECTED[name]
    assert (out, code, csv) == ("", want_code, None)
    assert message in err
