"""The registry of identities: its tier-1 runs and their coverage, the order
of the `infrared check` output and one planted fault per entry.

Every identity is written once, in `infrared.checksuite`.  Tier-1 runs each
entry through `run_tier1`, from its own seed and with more draws than
`infrared check` makes; the acceptance criteria and the secondary tests are
thin calls of it.
"""

import ast
import functools
import json
import pathlib

import pytest

from infrared import checksuite, perverse
from infrared.cli import Instance, main
from infrared.geometry import Config, _integer_leg, segment_wall_events
from infrared.linalg import MatQ
from infrared.perverse import Quiver, TransportData
from infrared.randomgen import rng
from infrared.wallcross import CrossingSpec, apply_crossings
from test_geometry import _cross, _leg_quadratic

IDENTITIES = checksuite.IDENTITIES

# name: (seed, floor, calls), each call (n, dim, draws): the tier-1 draws of
# every entry, over the ranges of the largest copy it replaced, and the
# fewest draws that copy made (for the legs, 50 collinearity-only legs and
# 6 round trips through horizontality walls)
TIER1 = {
    "jacobson": (101, 200, [(2, 3, 200)]),  # blocks of 1..4 rows and columns
    "duality_round_trip": (102, 100, [(2, 3, 100)]),
    "braid_relations_naturality": (104, 9, [(n, 2, 3) for n in (2, 3, 4, 5)]),
    "wallcross_involutive": (105, 25, [(3, 2, 9), (4, 2, 8), (5, 2, 8)]),
    "fourier_monodromy": (106, 20, [(n, 3, 4) for n in (1, 2, 3, 4, 5)]),
    "stokes_factorization": (107, 62, [(n, 2, 33) for n in (2, 3, 4, 5)]),
    "isomonodromy_legs": (108, 56, [(n, 2, 40) for n in (3, 4, 5)]),
    "secondary_gkz": (110, 12, [(5, 1, 12)]),
    "secondary_fan_lp": (111, 40, [(5, 1, 40)]),
}


def run_tier1(name):
    """Run the registry entry `name` on its tier-1 draws, asserting that it
    holds on each one; returns the parts of every draw, in order."""
    entry = IDENTITIES[name]
    seed, _, calls = TIER1[name]
    r = rng(seed)
    drawn = [entry.draw(r, n, dim) for n, dim, draws in calls for _ in range(draws)]
    for parts in drawn:
        assert entry.holds(**parts), (name, parts)
    return drawn


def leg_coverage(drawn):
    """The number of drawn legs that meet collinearity walls only, of those
    that meet a horizontality wall, and the set of (rational time?, sign of
    the leading coefficient) of their collinearity events."""
    coll_only, events = 0, set()
    for parts in drawn:
        a0, a1 = parts["config"], parts["target"]
        fwd = segment_wall_events(a0, a1)
        coll_only += all(e.kind == "coll" for e in fwd)
        for e in fwd:
            if e.kind == "coll":
                a = _leg_quadratic(_integer_leg(a0, a1), _cross, *sorted((e.i, e.j, e.k)))[0]
                events.add((e.time.rational is not None, (a > 0) - (a < 0)))
    return coll_only, len(drawn) - coll_only, events


@functools.cache
def _tier1_runs():
    """The entry names that test functions of `tests/` pass to `run_tier1`."""
    return {
        node.args[0].value
        for path in pathlib.Path(__file__).parent.glob("test_*.py")
        for fn in ast.parse(path.read_text()).body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("test_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_tier1"
    }


@pytest.fixture(scope="module")
def check_keys():
    return list(checksuite.run(seed=0))


@pytest.mark.parametrize("name", list(IDENTITIES))
def test_every_identity_is_run_by_tier1_at_its_floor(name, check_keys):
    """A tier-1 test runs each entry, at or above its floor, and a passing
    `infrared check` reports the entries in registry order, then `all_ok`
    and `seed`, with no counterexamples."""
    _, floor, calls = TIER1[name]
    assert sum(draws for _, _, draws in calls) >= floor
    assert name in _tier1_runs()
    assert check_keys == [*IDENTITIES, "all_ok", "seed"]


def read_instance(name, doc):
    """The parts of a counterexample, read back by the package's readers:
    `cli.Instance` for instance files, else each part by its own reader."""
    if name == "isomonodromy_legs":
        start, target = (Instance(d) for d in doc)
        return {"config": start.config, "transport": start.transport, "target": target.config}
    if name in ("fourier_monodromy", "stokes_factorization"):
        inst = Instance(doc)
        return {"config": inst.config, "transport": inst.transport}
    readers = {
        "u": MatQ, "v": MatQ, "a": MatQ, "b": MatQ, "config": Config.from_json,
        "quiver": Quiver.from_json, "transport": TransportData.from_json,
        "events": lambda events: [CrossingSpec.from_json(e) for e in events],
    }
    return {key: readers[key](part) for key, part in doc.items()}


def _inexact_delta_0(real):
    """factorization_check with Delta_0 = T_0^{-1} + Id, which does not
    invert Id - m_00, so the verdict sees it (a wrong C- block above the
    diagonal it would not)."""
    exact = TransportData.local_monodromy_inverse

    def check(m, A, zeta0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TransportData, "local_monodromy_inverse", lambda self, i: exact(
                self, i) + MatQ.identity(self.dims[i]) if i == 0 else exact(self, i))
            return real(m, A, zeta0)

    return check


def _last_wall_twice(real):
    def walk(m, a0, a1):
        out, log = real(m, a0, a1)
        return apply_crossings(out, log[-1:]), log
    return walk


def _an_irregular_subdivision_called_regular(real):
    """The fan with its first irregular subdivision given the witness of the
    first regular one: a fault only a family with an irregular subdivision
    shows, so `secondary_gkz`, which reads the same fan, does not see it."""
    def fan(A):
        out = real(A)
        k = next((k for k, (_, _, wit) in enumerate(out) if wit is None), None)
        if k is not None:
            out[k] = (*out[k][:2], next(wit for _, _, wit in out if wit is not None))
        return out
    return fan


# name: (module, attribute, fault): the library call each entry checks, and
# a wrong version of it built from the real one
FAULTS = {
    "jacobson": (checksuite, "jacobson",
                 lambda real: lambda u, v: (real(u, v)[0], real(u, v)[1].scale(2))),
    "duality_round_trip": (perverse, "dual_pair",
                           lambda real: lambda a, b: (real(a, b)[0], -real(a, b)[1])),
    "braid_relations_naturality": (perverse, "braid_act_transport",
                                   lambda real: lambda m, g: real(m, -g)),
    "wallcross_involutive": (checksuite, "apply_crossings",
                             lambda real: lambda m, specs: real(m, specs[:1])),
    "fourier_monodromy": (checksuite, "monodromy_product",
                          lambda real: lambda m, kind: real(m, "ascending")),
    "stokes_factorization": (checksuite, "factorization_check", _inexact_delta_0),
    "isomonodromy_legs": (checksuite, "transport_along_path", _last_wall_twice),
    "secondary_gkz": (checksuite, "gkz_vector", lambda real: lambda A, T: real(A, T)[::-1]),
    "secondary_fan_lp": (checksuite, "secondary_fan", _an_irregular_subdivision_called_regular),
}


@pytest.mark.parametrize("name", list(IDENTITIES))
def test_a_planted_fault_is_named_with_its_counterexample(name, monkeypatch, capsys):
    """With one library call made wrong, `infrared check` fails that entry
    alone and gives a counterexample, which fails the entry again when read
    back, and holds once the fault is gone."""
    module, attr, fault = FAULTS[name]
    monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    assert main(["check"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {key: out[key] for key in IDENTITIES} == {key: key != name for key in IDENTITIES}
    assert out["all_ok"] is False and list(out) == [*IDENTITIES, "all_ok", "seed", "counterexamples"]
    (found,) = out["counterexamples"].values()
    assert 0 <= found["iteration"] < IDENTITIES[name].draws
    parts = read_instance(name, found["instance"])
    assert not IDENTITIES[name].holds(**parts)
    monkeypatch.undo()
    assert IDENTITIES[name].holds(**parts)
