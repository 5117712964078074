from tools.cli_digest import INITIAL, digest_lines, matrix_stream


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
