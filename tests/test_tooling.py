"""Checks on the benchmark tooling and on the source tree as a whole."""

import ast
import json
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


def test_tracer_counts_the_crossings_of_a_walk(tracing, capsys):
    """The tracer's hook on segment_wall_events reads each crossing's kind
    and time: over one `infrared walk`, its event counts add up to the
    logged crossings and to the apply_crossing calls."""
    from infrared.cli import main

    data = ROOT / "tests" / "data"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = main(["walk", str(data / "walk_leg8.json"),
                     "--to", str(data / "walk_leg8_target.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    logged = len(json.loads(capsys.readouterr().out)["events"])
    counts = tracer.summarize(0)
    events = sum(counts.get(f"geometry.events.{kind}", 0)
                 for kind in ("horiz", "coll_rational", "coll_irrational"))
    assert logged > 0
    assert events == logged == counts["wallcross.apply_crossing.calls"]


def test_a_traced_walk_folds_its_crossings_on_one_grid(tracing, capsys):
    """Over one traced `infrared walk` on `walk_leg8.json`, the crossings
    fold on one block grid: no `TransportData.replace`, one `TransportData`
    constructed (the loaded input; the result is assembled from checked
    parts), and no inversion but the 8 local monodromies of the input."""
    from infrared.cli import main

    data = ROOT / "tests" / "data"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = main(["walk", str(data / "walk_leg8.json"),
                     "--to", str(data / "walk_leg8_target.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["events"]
    counts = tracer.summarize(0)
    assert counts.get("perverse.TransportData.replace.calls", 0) == 0
    assert counts["perverse.TransportData.new.calls"] == 1
    assert counts["linalg.MatQ.inverse.calls"] == 8


def test_tracer_sees_the_layers_of_a_stokes_run(tracing, capsys):
    """Over one traced `infrared stokes` on the 8-point arc, the tracer
    records one `stokes_pair` and one `factorization_check` span, the only
    inversions are the 8 local monodromies of the transport data, and no
    `MatQ` product runs: the chain matrices multiply integer rows, and
    neither the monodromy product nor the check runs `@`."""
    from infrared.cli import main

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = main(["stokes", str(ROOT / "tests" / "data" / "stokes_arc.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["factorization_ok"] is True
    counts = tracer.summarize(0)
    assert counts["fourier.stokes_pair.calls"] == 1
    assert counts["fourier.factorization_check.calls"] == 1
    assert counts["linalg.MatQ.inverse.calls"] == 8
    assert counts.get("linalg.MatQ.matmul.calls", 0) == 0
    assert counts["fourier.stokes_pair.s"] > 0
    assert counts["fourier.factorization_check.s"] > 0


def test_traced_secondary_runs_no_lp(tracing, capsys, tmp_path):
    """Over a traced `infrared secondary`, neither `is_regular` nor an LP
    runs, `deformation_complex` runs once per subdivision, and the
    refinement poset is not built.  The irregular subdivisions, read off
    the output as `subdivisions - regular`, are the ones `is_regular`
    rejects: none on the pentagon, four plus one and `seven.json`, 14 each
    on the pinwheel points and the concentric triangles."""
    from infrared.cli import main
    from infrared.geometry import Config

    data = ROOT / "tests" / "data"
    pinwheel = tmp_path / "pinwheel.json"
    pinwheel.write_text(json.dumps({"config": {"points": [
        [str(x), str(y)] for x, y in ((0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2))]}}))
    paths = {name: data / (name + ".json")
             for name in ("pentagon", "four_plus_one", "seven", "concentric")}
    paths["pinwheel"] = pinwheel
    irregular = {}
    for name, path in paths.items():
        A = Config.from_json(json.loads(path.read_text())["config"])
        subs = secondary.enumerate_subdivisions(A)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            code = main(["secondary", str(path)])
        finally:
            tracer.uninstall()
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        irregular[name] = out["subdivisions"] - out["regular"]
        assert irregular[name] == sum(secondary.is_regular(A, s) is None for s in subs), name
        counts = tracer.summarize(0)
        assert counts.get("lp.maximize.calls", 0) == 0, name
        assert counts.get("secondary.is_regular.calls", 0) == 0, name
        assert counts.get("secondary.refinement_poset.calls", 0) == 0, name
        assert counts["secondary.deformation_complex.calls"] == counts[
            "secondary.subdivisions"] == len(subs), name
    assert irregular == {"pentagon": 0, "four_plus_one": 0, "seven": 0, "concentric": 14,
                         "pinwheel": 14}


def test_output_digest_hashes_every_call_on_a_pool(monkeypatch, capsys):
    """`tools/output_digest.py` on the one-item `secondary-nested` pool: one
    sha256 and the count of its eight calls (matroid, antistokes in both
    rotations, paths, secondary and three plots on a configuration file),
    the same on a second run and with `--src` naming this checkout's `src/`,
    and changed when one output changes."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import output_digest

    first = output_digest.digest(["secondary-nested"], [1])
    assert list(first) == ["secondary-nested"]
    assert re.fullmatch(r"[0-9a-f]{64}", first["secondary-nested"]["sha256"])
    assert first["secondary-nested"]["outputs"] == 8
    assert output_digest.digest(["secondary-nested"], [1]) == first
    assert output_digest.main(["--seeds", "1", "--workloads", "secondary-nested",
                               "--src", str(ROOT / "src")]) == 0
    assert json.loads(capsys.readouterr().out) == first
    import infrared.cli

    monkeypatch.setattr(infrared.cli, "convex_hull", lambda A: [])
    changed = output_digest.digest(["secondary-nested"], [1])["secondary-nested"]
    assert changed["sha256"] != first["secondary-nested"]["sha256"]
    assert changed["outputs"] == 8


def test_src_has_no_catch_all_handler():
    """No handler of Exception or BaseException, and no bare one, can hide
    a failure, in `src/` or in `tests/`."""
    pattern = re.compile(r"except\s*(:|\(?\s*(Base)?Exception\b)")
    hits = [
        f"{path.relative_to(ROOT)}:{n}"
        for tree in ("src", "tests")
        for path in sorted((ROOT / tree).rglob("*.py"))
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


def test_only_linalg_reads_the_fraction_grid_of_a_matrix():
    """`MatQ.entries` is a boundary view for tests and `repr`: no module of
    `src/infrared` but `linalg.py` reads it, so integer rows stay the one
    storage path."""
    hits = [
        (path.name, n)
        for path in sorted((ROOT / "src" / "infrared").glob("*.py"))
        if path.name != "linalg.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\.entries\b", line)
    ]
    assert hits == []


def test_secondary_reads_no_point_coordinate():
    """`secondary.py`, `paths.py` and `fourier.py` read no `.x` or `.y`:
    their geometry comes from the integer frame that `geometry` keeps
    (`Config.sign_table()`, `geometry.area2`, `Config.int_points()` and
    `geometry.infinity_keys`), so that frame stays the one path.  And no
    module of `src/` but `geometry.py` calls `infinity_form`, so every order
    along a direction is read from `infinity_keys`."""
    src = ROOT / "src" / "infrared"
    hits = [
        (name, node.lineno)
        for name in ("secondary.py", "paths.py", "fourier.py")
        for node in ast.walk(ast.parse((src / name).read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("x", "y")
    ]
    hits += [
        (path.name, node.lineno)
        for path in sorted((ROOT / "src").rglob("*.py"))
        if path != src / "geometry.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "infinity_form"
    ]
    assert hits == []


# a fragment of the message of each check of `Subdivision.__init__`
SUBDIVISION_CHECKS = (
    "which is not a point index", "fewer than three corners", "empty subdivision",
    "not counterclockwise", "outside cell", "cells overlap", "do not tile the hull",
)


def _functions(node, prefix=""):
    """(qualified name, node) of every function under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if isinstance(child, ast.FunctionDef):
                yield name, child
            yield from _functions(child, name + ".")
        else:
            yield from _functions(child, prefix)


def test_only_the_monodromy_helper_and_the_form_layer_invert():
    """`MatQ.inverse` is called from `perverse._monodromy_inverse`, through
    which both models keep their inverse local monodromies, and from the
    bilinear-form layer of `perverse`; no other function of `src/infrared`
    inverts a matrix, so no T_{i,Psi} or Id - L is formed to be inverted."""
    callers = {
        (path.name, name)
        for path in sorted((ROOT / "src" / "infrared").glob("*.py"))
        for name, fn in _functions(ast.parse(path.read_text()))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "inverse"
    }
    assert callers == {("perverse.py", name) for name in (
        "_monodromy_inverse", "jacobson", "dual_pair", "double_dual_check",
        "serre_operator", "right_adjoint", "spherical_report")}


def test_only_the_subdivision_constructor_checks_a_subdivision():
    """The subdivision checks raise in `Subdivision.__init__` and in no
    other function of `src/infrared`, so a subdivision is checked once,
    when it is built, and nothing downstream checks it again; and no flag
    remembers a check: `_valid` appears nowhere in `src/`."""
    raising, seen = set(), set()
    for path in sorted((ROOT / "src" / "infrared").glob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text())):
            found = {
                check
                for node in ast.walk(fn) if isinstance(node, ast.Raise)
                for text in ast.walk(node)
                if isinstance(text, ast.Constant) and isinstance(text.value, str)
                for check in SUBDIVISION_CHECKS if check in text.value
            }
            if found:
                raising.add((path.name, name))
                seen |= found
    assert raising == {("secondary.py", "Subdivision.__init__")}
    assert seen == set(SUBDIVISION_CHECKS)
    hits = [
        f"{path.name}:{n}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\b_valid\b", line)
    ]
    assert hits == []


def test_a_subdivision_keeps_no_per_edge_state():
    """After enumeration, `deformation_complex` and the secondary fan on
    `seven.json`, every `Subdivision` holds only its configuration, its
    cells, its edge mask and the kept `bits`: no edge map, key copy, omitted
    set or other per-subdivision cache, whose memory grows with the
    family."""
    from infrared.geometry import Config

    data = json.loads((ROOT / "tests" / "data" / "seven.json").read_text())
    A = Config.from_json(data["config"])
    subs = [sub for sub, _, _ in secondary.secondary_fan(A)]
    kept = {"config", "cells", "edge_mask", "bits"}
    assert subs and all(set(vars(s)) <= kept for s in subs), [
        sorted(set(vars(s)) - kept) for s in subs if set(vars(s)) - kept][:1]


_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether the call opens a file for writing: `open`, `io.open` or
    `os.fdopen` with a mode holding w, a, x or +, `os.open` with a write
    flag (on a path other than `os.devnull`), or a pathlib `write_text` or
    `write_bytes`."""
    f = call.func
    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name == "open" and isinstance(f, ast.Attribute) and ast.unparse(f.value) == "os":
        if ast.unparse(call.args[0]) == "os.devnull":
            return False
        flags = call.args[1] if len(call.args) > 1 else None
        return flags is not None and any(
            getattr(node, "attr", getattr(node, "id", None)) in _WRITE_FLAGS
            for node in ast.walk(flags))
    if name not in ("open", "fdopen"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    return isinstance(mode, ast.Constant) and bool(set(str(mode.value)) & set("wax+"))


def test_only_the_cli_writer_opens_a_file_for_writing():
    """`cli._write` is the one function of `src/infrared` that opens a file
    for writing, so that every output file is rewritten in place by it.
    (`cli._emit` opens `os.devnull` to silence stdout, which writes no
    file.)"""
    owner = {}
    for path in sorted((ROOT / "src" / "infrared").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            owner[node] = (path.name, "<module>")
        for name, fn in _functions(tree):  # a nested function comes after its parent
            for node in ast.walk(fn):
                owner[node] = (path.name, name)
    writers = {owner[node] for node in owner
               if isinstance(node, ast.Call) and _opens_for_writing(node)}
    assert writers == {("cli.py", "_write")}


def test_every_private_function_is_used_in_src():
    """Each top-level `_private` function of `src/infrared` is read somewhere
    in `src/` outside its own body, so that a helper only the tests use
    lives in the tests."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "infrared").glob("*.py"))}
    unused = []
    for name, tree in trees.items():
        for fn in tree.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                    and not fn.name.startswith("__")):
                continue
            own = set(map(id, ast.walk(fn)))
            if not any(
                id(node) not in own
                and fn.name == (node.id if isinstance(node, ast.Name)
                                else getattr(node, "attr", None))
                for other in trees.values() for node in ast.walk(other)
            ):
                unused.append(f"{name}:{fn.name}")
    assert unused == []


def test_committed_bench_files_cover_every_workload():
    """Every committed `BENCH_<n>.json` names its command and its parent
    commit, and holds, for the parent and for the change, every workload of
    `BENCHMARK.json`, each correct, with no failed instance and with every
    end-to-end metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"] for m in spec["end_to_end"]}
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        assert re.fullmatch(r"BENCH_[0-9]+\.json", path.name), path.name
        bench = json.loads(path.read_text())
        assert bench["command"], path.name
        assert re.fullmatch(r"[0-9a-f]{40}", bench["parent_commit"]), path.name
        for side in ("parent", "change"):
            for name in workloads:
                run = bench[side][name]
                where = (path.name, side, name)
                assert run["correct"] is True and run["failed"] == 0, where
                assert metrics <= set(run["metrics"]), where
