"""The state digests and the command-line digest against committed files.

``tests/golden/`` holds the stdout of

    python3 tools/state_digest.py --seed 1 > tests/golden/state_digest_seed1.txt
    python3 tools/state_digest.py --seed 2 > tests/golden/state_digest_seed2.txt
    python3 tools/cli_digest.py > tests/golden/cli_digest.txt

Each test recomputes one file in this process and compares it line for
line, so a change that moves any structure's state, any answer, any plan
or any byte of command-line output fails here.  A change that moves them
by design regenerates the files with the commands above and names the
lines that moved.
"""

from pathlib import Path

import pytest

from tools import cli_digest, state_digest

GOLDEN = Path(__file__).resolve().parent / "golden"


def golden(name: str) -> list[str]:
    return (GOLDEN / name).read_text().splitlines()


@pytest.mark.parametrize("seed", [1, 2])
def test_state_digests_match_the_golden_file(seed):
    assert list(state_digest.digest_lines(seed)) == \
        golden(f"state_digest_seed{seed}.txt")


def test_cli_digest_matches_the_golden_file():
    lines = [*cli_digest.digest_lines(), *cli_digest.error_lines()]
    assert lines == golden("cli_digest.txt")
