"""Checks on the benchmark tooling and on the source tree as a whole."""

import pathlib
import re

import pytest

from infrared import secondary

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    return tracing


def test_tracer_resolves_every_traced_name(tracing, monkeypatch):
    """Building a Tracer looks up every function it wraps, so a renamed
    target fails here instead of in a traced benchmark run."""
    tracing.Tracer()
    monkeypatch.delattr(secondary, "refines")
    with pytest.raises(KeyError):
        tracing.Tracer()


def test_src_has_no_catch_all_handler():
    """No `except Exception` (or bare `except:`) can hide a failure."""
    pattern = re.compile(r"except\s*(:|\(?\s*(Base)?Exception\b)")
    hits = [
        f"{path.name}:{n}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []


def test_src_has_no_float_outside_the_plotter():
    """No `float(` in `src/infrared` except in the SVG plotter."""
    hits = [
        (path.name, n)
        for path in sorted((ROOT / "src" / "infrared").glob("*.py"))
        if path.name != "plotting.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "float(" in line
    ]
    assert hits == []
