"""Every narrative script under demos/ runs to completion."""
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, subprocess_env):
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                       env=subprocess_env, timeout=120)
    assert r.returncode == 0, r.stderr
