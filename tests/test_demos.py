"""Every script under ``demos/`` runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import cli_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    out = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, env=cli_env(), timeout=300)
    assert out.returncode == 0, out.stderr
