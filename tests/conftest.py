"""Fixtures shared by the test modules."""

import os
import sys

import pytest

import infrared
import infrared.paths
from infrared.geometry import AlgebraicTime
from infrared.linalg import MatQ


@pytest.fixture
def inverse_calls(monkeypatch):
    """Every matrix passed to MatQ.inverse while the test runs, in order."""
    calls = []
    inverse = MatQ.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(MatQ, "inverse", counting)
    return calls


@pytest.fixture
def path_enumerations(monkeypatch):
    """The (A, i, j, zeta) of every enumerate_zeta_convex_paths call while
    the test runs, wherever an infrared module bound the function."""
    calls = []
    enumerate_paths = infrared.paths.enumerate_zeta_convex_paths

    def counting(A, i, j, zeta):
        calls.append((A, i, j, zeta))
        return enumerate_paths(A, i, j, zeta)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "infrared":
            for key, val in list(vars(mod).items()):
                if val is enumerate_paths:
                    monkeypatch.setattr(mod, key, counting)
    return calls


@pytest.fixture
def refine_calls(monkeypatch):
    """Every AlgebraicTime whose isolating interval is halved while the test
    runs, in order."""
    calls = []
    refine = AlgebraicTime.refine

    def counting(self):
        calls.append(self)
        return refine(self)

    monkeypatch.setattr(AlgebraicTime, "refine", counting)
    return calls


@pytest.fixture
def child_env():
    """Environment for a child Python that imports infrared from wherever
    this process found it."""
    src = os.path.dirname(os.path.dirname(infrared.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
