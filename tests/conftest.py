"""Fixtures shared by the test modules."""
import os
from pathlib import Path

import numpy as np
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


def _adjacency(graph) -> np.ndarray:
    a = np.zeros((graph.order, graph.order), dtype=np.int64)
    np.add.at(a, (np.tile(np.arange(graph.order), graph.degree), graph.step_table.ravel()), 1)
    return a


@pytest.fixture
def adjacency():
    """The dense adjacency matrix of a graph's step table: entry (i, t)
    counts the slots that step from vertex i to vertex t.  The package
    holds no such matrix; it is an oracle of the tests."""
    return _adjacency


@pytest.fixture
def numeric_spectrum():
    """The eigenvalues of the dense adjacency matrix by LAPACK's symmetric
    eigensolver, descending: the independent oracle for the character
    spectrum, which the package computes without BLAS or LAPACK."""
    return lambda graph: np.linalg.eigvalsh(_adjacency(graph).astype(np.float64))[::-1].tolist()
