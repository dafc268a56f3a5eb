"""Fixtures shared by the test modules."""
import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def subprocess_env():
    """The environment for a child interpreter: this checkout's ``src`` first
    on ``PYTHONPATH``, so the children import the package under test from a
    plain checkout as the test process does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env
