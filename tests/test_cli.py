import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from infrared.cli import Instance, main
from infrared.geometry import Config, config
from infrared.errors import ShapeMismatch
from infrared.perverse import Quiver, TransportData, mu
from infrared.randomgen import rand_config, rand_quiver, rng
from infrared.linalg import MatQ
from infrared.secondary import Subdivision, induced_subdivision


@pytest.fixture
def circuit_file(tmp_path):
    inst = {
        "config": {
            "points": [["0", "0"], ["4", "0"], ["1", "3"], ["3/2", "1"]]
        }
    }
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(inst))
    return str(path)


@pytest.fixture
def n2_file(tmp_path):
    inst = {
        "config": {"points": [["0", "0"], ["1", "2"]]},
        "transport": {
            "dims": [1, 1],
            "m": [[[["0"]], [["5"]]], [[["7"]], [["0"]]]],
        },
    }
    path = tmp_path / "n2.json"
    path.write_text(json.dumps(inst))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_matroid(circuit_file, capsys):
    code, data = run_cli(["matroid", circuit_file], capsys)
    assert code == 0
    assert data["lin_general"] is True
    assert "exchange_axiom" not in data
    assert data["hull"] == [0, 1, 2]


def test_antistokes(circuit_file, capsys):
    code, data = run_cli(
        ["antistokes", circuit_file, "--zeta", "1/0"], capsys
    )
    assert code == 0
    assert data["length"] == 6
    assert len(data["word"]) == 6


def test_paths(circuit_file, capsys):
    code, data = run_cli(["paths", circuit_file, "--zeta", "5/1"], capsys)
    assert code == 0
    assert all(p["height"] >= 0 for p in data["paths"])
    segs = [p for p in data["paths"] if len(p["vertices"]) == 2]
    assert segs


def test_stokes_n2(n2_file, capsys):
    code, data = run_cli(["stokes", n2_file], capsys)
    assert code == 0
    assert data["factorization_ok"] is True
    assert data["Cplus"][1][0] == "5"
    assert data["Cminus"][0][1] == "7"


def test_fourier(n2_file, capsys):
    code, data = run_cli(["fourier", n2_file, "--zeta", "1/0"], capsys)
    assert code == 0
    # spider ordering: increasing Im(-zeta w) = -y here
    assert data["order"] == [1, 0]
    assert len(data["aCheck"]) == 2


def test_walk_events(tmp_path, n2_file, capsys):
    ev = tmp_path / "events.json"
    ev.write_text(
        json.dumps(
            {
                "events": [
                    {
                        "kind": "horiz",
                        "i": 0,
                        "j": 1,
                        "motion": "above",
                        "re_cmp": "left",
                    }
                ]
            }
        )
    )
    code, data = run_cli(["walk", n2_file, "--events", str(ev)], capsys)
    assert code == 0
    out = TransportData.from_json(data["transport"])
    assert out.m[0][1] == MatQ([["5"]])  # T_0 = Id here


def test_walk_geometry(tmp_path, capsys):
    inst = {
        "config": {"points": [["-4", "-2"], ["-1", "2"], ["4", "5/2"]]},
        "transport": {
            "dims": [1, 1, 1],
            "m": [
                [[["0"]], [["1"]], [["2"]]],
                [[["3"]], [["0"]], [["4"]]],
                [[["5"]], [["6"]], [["0"]]],
            ],
        },
    }
    src = tmp_path / "src.json"
    src.write_text(json.dumps(inst))
    tgt = tmp_path / "tgt.json"
    tgt.write_text(
        json.dumps({"config": {"points": [["-4", "-2"], ["0", "-1"], ["4", "5/2"]]}})
    )
    code, data = run_cli(["walk", str(src), "--to", str(tgt)], capsys)
    assert code == 0
    assert [e["kind"] for e in data["events"]] == ["coll"]


def test_secondary(circuit_file, capsys):
    code, data = run_cli(["secondary", circuit_file], capsys)
    assert code == 0
    assert data["triangulations"] == 2
    assert data["regular"] == data["subdivisions"] == 3
    assert data["coarse"] == 2


def test_check(capsys):
    code, data = run_cli(["check", "--seed", "7", "--n", "4", "--dim", "2"], capsys)
    assert code == 0
    assert data["all_ok"] is True


def test_plot_svg(tmp_path, circuit_file, capsys):
    out = tmp_path / "plot.svg"
    code, data = run_cli(
        ["plot", circuit_file, "--format", "svg", "--out", str(out), "--zeta", "1/0"],
        capsys,
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("<svg") and "</svg>" in text


def test_plot_svg_draws_no_path_for_a_non_generic_direction(circuit_file, capsys):
    # the infinity form of 1/0 is the height, and points 0 and 1 share y = 0
    code, data = run_cli(["plot", circuit_file, "--format", "svg", "--zeta", "1/0"], capsys)
    assert code == 0
    assert "<svg" in data["content"] and "<polyline" not in data["content"]
    code, data = run_cli(["plot", circuit_file, "--format", "svg", "--zeta", "5/1"], capsys)
    assert code == 0
    assert "<polyline" in data["content"]


def test_plot_dot(circuit_file, capsys):
    code, data = run_cli(["plot", circuit_file, "--format", "dot"], capsys)
    assert code == 0
    assert data["content"].startswith("digraph")


@pytest.mark.parametrize("argv", [
    ["matroid", "--out", "{missing}/x.json"],
    ["matroid", "--out", "{tmp}"],
    ["plot", "--format", "csv", "--out", "{missing}/x.csv"],
], ids=["matroid-missing-dir", "matroid-directory", "plot-missing-dir"])
def test_an_unwritable_out_path_is_invalid_input(argv, circuit_file, tmp_path, capsys):
    """--out to a path that cannot be written reports invalid input as JSON
    with exit code 2, from `main` and from `plot` alike; a writable path
    gets the bytes that stdout would."""
    args = [argv[0], circuit_file] + [
        a.format(missing=tmp_path / "missing", tmp=tmp_path) for a in argv[1:]]
    code, data = run_cli(args, capsys)
    assert code == 2
    assert data["error"]["code"] == "invalid_input"
    assert data["error"]["message"].startswith(f"cannot write {args[-1]}: ")
    out = tmp_path / "out.txt"
    assert main(args[:-1] + [str(out)]) == 0
    written = capsys.readouterr().out
    assert main(args[:-2]) == 0
    printed = capsys.readouterr().out
    if argv[0] == "plot":
        assert json.loads(written)["bytes"] == len(out.read_text())
        printed = json.loads(printed)["content"]
    assert out.read_text() == printed


@pytest.mark.parametrize("command", ["matroid", "secondary"])
@pytest.mark.parametrize("extra", [100, -20], ids=["longer", "shorter"])
def test_out_overwrites_an_existing_file_in_place(command, extra, circuit_file,
                                                  tmp_path, capsys):
    """--out over an existing file, longer or shorter than the output,
    leaves exactly the bytes that stdout would print."""
    assert main([command, circuit_file]) == 0
    printed = capsys.readouterr().out.encode()
    out = tmp_path / "out.json"
    out.write_bytes(b"x" * (len(printed) + extra))
    assert main([command, circuit_file, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed


def test_out_writes_through_a_symlink_and_to_a_device(circuit_file, tmp_path, capsys):
    """--out to a symlink rewrites the file it points to and keeps the link;
    --out /dev/null, which cannot be truncated, exits 0 and prints nothing."""
    assert main(["matroid", circuit_file]) == 0
    printed = capsys.readouterr().out.encode()
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"x" * (2 * len(printed)))
    link.symlink_to(target)
    assert main(["matroid", circuit_file, "--out", str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == printed
    assert main(["matroid", circuit_file, "--out", os.devnull]) == 0
    assert capsys.readouterr().out == ""


def test_poset_labels_name_the_omitted_points(capsys):
    """A poset node's label lists its cell polygons and then its omitted
    points, so that no two subdivisions of a configuration in tests/data
    share one; on the circuit the whole triangle with 3 omitted is
    `012-3`, with 3 marked `012`."""
    from infrared.plotting import _label
    from infrared.secondary import enumerate_subdivisions

    for name in sorted(n for n in os.listdir(DATA) if n.endswith(".json")):
        with open(os.path.join(DATA, name)) as fh:
            doc = json.load(fh)
        if "config" in doc:
            subs = enumerate_subdivisions(Config.from_json(doc["config"]))
            labels = [_label(s) for s in subs]
            assert len(set(labels)) == len(labels), name
    circuit = config((0, 0), (4, 0), (1, 3), ("3/2", 1))
    assert {_label(s) for s in enumerate_subdivisions(circuit)} >= {"012", "012-3"}


def test_error_reporting(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"config": {"points": [["0", "0"], ["1", "1"], ["2", "2"]]}})
    )
    code = main(["antistokes", str(bad), "--zeta", "1/0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["error"]["code"] == "degenerate_position"

    # malformed input of every kind is reported, never a traceback
    points = [["0", "0"], ["1", "2"]]
    transport = {"dims": [1, 1], "m": [[[["0"]], [["5"]]], [[["7"]], [["0"]]]]}
    quiver = {"dims": [1, 1], "dPsi": 1, "a": [[["1"]], [["2"]]], "b": [[["0"]], [["3"]]]}
    cases = {
        "malformed_json": ("stokes", '{"config": {"points": [["0", "0"]'),
        "not_an_object": ("matroid", json.dumps([points])),
        "missing_points": ("matroid", json.dumps({"config": {"pts": points}})),
        "missing_m": ("stokes", json.dumps(
            {"config": {"points": points}, "transport": {"dims": [1, 1]}})),
        "point_not_a_pair": ("matroid", json.dumps({"config": {"points": [["0"]]}})),
        "zero_denominator": ("matroid", json.dumps(
            {"config": {"points": [["1/0", "0"], ["1", "2"]]}})),
        "not_a_rational": ("matroid", json.dumps(
            {"config": {"points": [["x", "0"], ["1", "2"]]}})),
        "bad_matrix_entry": ("stokes", json.dumps({
            "config": {"points": points},
            "transport": {"dims": [1, 1],
                          "m": [[[["0"]], [["1/0"]]], [[["7"]], [["0"]]]]}})),
        "bad_zeta_in_file": ("matroid", json.dumps(
            {"config": {"points": points}, "zeta": "1/x"})),
        # JSON booleans are no numbers, and a dim is a nonnegative integer
        "bool_coordinate": ("matroid", json.dumps(
            {"config": {"points": [[False, "0"], ["1", "2"]]}})),
        "bool_matrix_entry": ("stokes", json.dumps({
            "config": {"points": points},
            "transport": {"dims": [1, 1],
                          "m": [[[["0"]], [[False]]], [[["7"]], [["0"]]]]}})),
    }
    edits = [("dims", [True, 1]), ("dims", [1.0, 1]), ("dims", ["1", 1]),
             ("dims", [-1, 1]), ("dPsi", True), ("dPsi", 1.0), ("dPsi", -1)]
    for model, base in (("transport", transport), ("quiver", quiver)):
        for key, bad in edits:
            if key in base:
                cases[f"{model}_{key}_{bad!r}"] = ("stokes", json.dumps(
                    {"config": {"points": points}, model: {**base, key: bad}}))
    for name, (command, text) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        code = main([command, str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 2, name
        assert out["error"]["code"] == "invalid_input", name
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"config": {"points": points}, "quiver": quiver}))
    assert main(["stokes", str(good)]) == 0
    capsys.readouterr()
    good.write_text(json.dumps({"config": {"points": points}, "transport": transport}))
    assert main(["stokes", str(good)]) == 0
    capsys.readouterr()
    for zeta in ("1/x", "1", "x/1", "1.5/2"):
        code = main(["stokes", str(good), "--zeta", zeta])
        out = json.loads(capsys.readouterr().out)
        assert code == 2, zeta
        assert out["error"]["code"] == "invalid_input", zeta
    code = main(["matroid", str(tmp_path / "absent.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["error"]["code"] == "invalid_input"


def test_a_point_written_twice_in_two_forms_is_invalid_input(tmp_path, capsys):
    """Distinctness is decided on the integer frame, so "1/2" and "2/4" are
    one coordinate: the configuration repeats a point, invalid_input and
    exit 2."""
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(
        {"config": {"points": [["1/2", "1"], ["0", "0"], ["2/4", "1"]]}}))
    code, out = run_cli(["matroid", str(path)], capsys)
    assert code == 2
    assert out["error"] == {"code": "invalid_input",
                            "message": "configuration points must be pairwise distinct"}


def test_json_round_trips():
    A = config((0, 0), ("1/2", "-3/7"))
    assert Config.from_json(A.to_json()) == A
    m = TransportData(
        [1, 2],
        [
            [MatQ([["1/2"]]), MatQ([["1"], ["0"]])],
            [MatQ([["2", "3"]]), MatQ([["0", "1"], ["-1", "0"]])],
        ],
    )
    assert TransportData.from_json(m.to_json()) == m


def _empty_middle_slot(entries):
    """Transport data on slots of dims 1, 0, 1: the 1 x 1 blocks between the
    outer slots from `entries`, every block at the middle slot empty."""
    dims = [1, 0, 1]
    return TransportData(dims, [
        [MatQ([[entries[i][j]]]) if dims[i] and dims[j] else MatQ.zeros(dims[j], dims[i])
         for j in range(3)]
        for i in range(3)
    ])


def test_json_round_trips_keep_empty_slots():
    """`MatQ.to_json` writes a block with no rows as [] whatever its width;
    reading transport data and quivers back gives every such block the width
    its slot, or dPsi, prescribes."""
    for entries in ([[0] * 3] * 3, [["1/2", 0, 3], [0, 0, 0], [-2, 0, "5/3"]]):
        m = _empty_middle_slot(entries)
        assert m.to_json()["m"][0][1] == []
        assert TransportData.from_json(m.to_json()) == m
    quivers = [
        Quiver([1, 0], 2, [MatQ([[1], [2]]), MatQ.zeros(2, 0)],
               [MatQ([["1/3", 0]]), MatQ.zeros(0, 2)]),
        Quiver([1, 2], 0, [MatQ.zeros(0, 1), MatQ.zeros(0, 2)],
               [MatQ.zeros(1, 0), MatQ.zeros(2, 0)]),
    ]
    for q in quivers:
        assert Quiver.from_json(q.to_json()) == q
    # a grid with more rows than slots is still a shape error
    data = _empty_middle_slot([[0] * 3] * 3).to_json()
    data["m"].append(data["m"][0])
    with pytest.raises(ShapeMismatch):
        TransportData.from_json(data)


def test_stokes_and_walk_on_an_empty_slot(tmp_path, capsys):
    """`stokes` and `walk --events` run on transport data with a slot of
    dimension 0, through blocks with no rows or no columns."""
    m = _empty_middle_slot([[0, 0, 3], [0, 0, 0], ["-1/2", 0, 2]])
    inst = tmp_path / "empty_slot.json"
    inst.write_text(json.dumps({
        "config": {"points": [["0", "0"], ["3", "1"], ["1", "2"]]},
        "transport": m.to_json(),
    }))
    code, data = run_cli(["stokes", str(inst)], capsys)
    assert code == 0 and data["factorization_ok"] is True
    assert data["order"] == [0, 1, 2]
    assert data["Cplus"] == [["1", "0"], ["3", "1"]]
    assert data["Cminus"] == [["1", "-1/2"], ["0", "1"]]
    events = tmp_path / "events.json"
    events.write_text(json.dumps({"events": [
        {"kind": "horiz", "i": 0, "j": 1, "motion": "above", "re_cmp": "right"},
        {"kind": "coll", "i": 0, "j": 1, "k": 2, "eps_before": 1},
    ]}))
    code, data = run_cli(["walk", str(inst), "--events", str(events)], capsys)
    assert code == 0 and len(data["events"]) == 2
    assert TransportData.from_json(data["transport"]).dims == (1, 0, 1)


def test_console_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "infrared.cli", "check", "--seed", "1", "--n", "3"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_ok"] is True


DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("name", ["pentagon", "four_plus_one", "seven", "concentric"])
def test_secondary_output_is_pinned(name, capsys):
    """`infrared secondary` prints exactly the committed output, secondary
    fan witnesses included, for a convex pentagon, four hull corners plus one point,
    `rand_config(rng(5), 7)` (five hull corners, two interior points, 221
    subdivisions) and two concentric triangles (65 subdivisions, one of
    them exceptional: exc 1)."""
    assert main(["secondary", os.path.join(DATA, name + ".json")]) == 0
    with open(os.path.join(DATA, name + ".secondary.json"), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()


@pytest.mark.parametrize("name", ["pentagon", "four_plus_one", "seven", "concentric"])
def test_pinned_witnesses_induce_their_subdivisions(name):
    """Each witness in the pinned `secondary` output lifts the configuration
    to its subdivision, and exactly the irregular reports have none."""
    with open(os.path.join(DATA, name + ".json")) as fh:
        A = Config.from_json(json.load(fh)["config"])
    with open(os.path.join(DATA, name + ".secondary.json")) as fh:
        reports = json.load(fh)["reports"]
    for rep in reports:
        assert (rep["witness"] is None) == (not rep["regular"])
        if rep["witness"] is not None:
            sub = Subdivision.from_json(A, rep["subdivision"])
            assert induced_subdivision(A, rep["witness"]) == sub


# sha256 of json.dumps(output, sort_keys=True) with every non-null witness
# replaced by "W", as the one-LP-per-subdivision route printed it
WITNESS_FREE_DIGESTS = {
    "pentagon": "a85e2ba9cccd43fc853762d5c9773e8015643c0f535fec77d5b74d14820de35a",
    "four_plus_one": "da9f0fc8df8753526724725b4e0c84daf476a8d3b12f817d6a6c75d832bc1d81",
    "seven": "1f1f510c09d80e3539a334127a05fa6aa315892da7daad1b1183b6389c214b49",
}


@pytest.mark.parametrize("name", sorted(WITNESS_FREE_DIGESTS))
def test_secondary_output_is_unchanged_but_for_the_witnesses(name, capsys):
    """The secondary fan route changed only the witness heights: with each
    witness masked, the output hashes as the LP route's did."""
    assert main(["secondary", os.path.join(DATA, name + ".json")]) == 0
    out = json.loads(capsys.readouterr().out)
    for rep in out["reports"]:
        if rep["witness"] is not None:
            rep["witness"] = "W"
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == WITNESS_FREE_DIGESTS[name]


def test_secondary_at_nine_points_is_pinned(tmp_path, monkeypatch):
    """With INFRARED_MAX_N=9, `infrared secondary --out` on
    `rand_config(rng(5), 9)` (6,903 subdivisions, 48 coarse) writes exactly
    the bytes it wrote before the corner test moved into the search."""
    monkeypatch.setenv("INFRARED_MAX_N", "9")
    path = tmp_path / "nine.json"
    path.write_text(json.dumps({"config": rand_config(rng(5), 9).to_json()}))
    out = tmp_path / "nine.secondary.json"
    assert main(["secondary", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "1c5c1ae69f81885da491d2ec6f364d68f1cb7d5a3e288c40472756d15eada40c")


@pytest.mark.parametrize(
    "argv, zeta",
    [
        (["matroid", "stokes_arc.json"], "-1/3"),
        (["antistokes", "stokes_arc.json"], "-1/3"),
        (["paths", "stokes_arc.json"], "-1/3"),
        (["stokes", "stokes_arc.json"], "-1/0"),  # the default of stokes
        (["stokes", "stokes_arc.json"], "-1/3"),
        (["fourier", "stokes_arc.json"], "-1/3"),
        (["plot", "pentagon.json", "--format", "svg"], "-1/3"),
    ],
)
def test_a_negative_zeta_may_follow_as_its_own_word(argv, zeta, capsys):
    """`--zeta -1/3` reads as `--zeta=-1/3` on every subcommand with
    `--zeta`, byte for byte; a malformed `--zeta -x` is invalid input."""
    argv = [os.path.join(DATA, a) if a.endswith(".json") else a for a in argv]
    outputs = []
    for tail in (["--zeta", zeta], ["--zeta=" + zeta]):
        assert main(argv + tail) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    code, data = run_cli(argv + ["--zeta", "-x"], capsys)
    assert code == 2
    assert data["error"]["code"] == "invalid_input"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["stokes", "stokes_random.json"], "stokes_random.stokes.json"),
        (["stokes", "stokes_arc.json"], "stokes_arc.stokes.json"),
        (["walk", "walk_leg.json", "--to", "walk_leg_target.json"], "walk_leg.walk.json"),
        (["plot", "pentagon.json", "--format", "dot"], "pentagon.dot.json"),
        (["plot", "pentagon.json", "--format", "csv", "--poset"], "pentagon.poset_csv.json"),
        (["walk", "walk_leg8.json", "--to", "walk_leg8_target.json"], "walk_leg8.walk.json"),
        (["walk", "walk_leg8_back.json", "--to", "walk_leg8.json"], "walk_leg8_back.walk.json"),
        (["plot", "seven.json", "--format", "csv", "--poset"], "seven.poset_csv.json"),
        (["fourier", "stokes_random.json"], "stokes_random.fourier.json"),
        (["fourier", "stokes_random.json", "--zeta", "1/1"], "stokes_random.fourier_1_1.json"),
        (["fourier", "stokes_arc.json"], "stokes_arc.fourier.json"),
        (["fourier", "stokes_arc.json", "--zeta", "1/1"], "stokes_arc.fourier_1_1.json"),
        (["matroid", "seven.json", "--zeta", "1/0"], "seven.matroid_1_0.json"),
        (["antistokes", "seven.json", "--zeta", "1/0"], "seven.antistokes_1_0.json"),
        (["antistokes", "seven.json", "--rotation", "cw", "--zeta", "1/0"],
         "seven.antistokes_cw_1_0.json"),
        (["paths", "seven.json", "--zeta", "1/0"], "seven.paths_1_0.json"),
        (["paths", "seven.json", "--format", "jsonl", "--zeta", "1/0"],
         "seven.paths_jsonl_1_0.jsonl"),
        (["plot", "seven.json", "--format", "svg", "--zeta", "1/0"], "seven.svg_1_0.json"),
        (["matroid", "seven.json", "--zeta", "-1/2"], "seven.matroid_m1_2.json"),
        (["antistokes", "seven.json", "--zeta", "-1/2"], "seven.antistokes_m1_2.json"),
        (["antistokes", "seven.json", "--rotation", "cw", "--zeta", "-1/2"],
         "seven.antistokes_cw_m1_2.json"),
        (["paths", "seven.json", "--zeta", "-1/2"], "seven.paths_m1_2.json"),
        (["paths", "seven.json", "--format", "jsonl", "--zeta", "-1/2"],
         "seven.paths_jsonl_m1_2.jsonl"),
        (["plot", "seven.json", "--format", "svg", "--zeta", "-1/2"], "seven.svg_m1_2.json"),
        (["matroid", "walk_leg.json", "--zeta", "0/1"], "walk_leg.matroid_0_1.json"),
        (["antistokes", "walk_leg.json", "--zeta", "0/1"], "walk_leg.antistokes_0_1.json"),
        (["antistokes", "walk_leg.json", "--rotation", "cw", "--zeta", "0/1"],
         "walk_leg.antistokes_cw_0_1.json"),
        (["paths", "walk_leg.json", "--zeta", "0/1"], "walk_leg.paths_0_1.json"),
        (["paths", "walk_leg.json", "--format", "jsonl", "--zeta", "0/1"],
         "walk_leg.paths_jsonl_0_1.jsonl"),
        (["plot", "walk_leg.json", "--format", "svg", "--zeta", "0/1"], "walk_leg.svg_0_1.json"),
        (["matroid", "walk_leg.json", "--zeta", "-1/2"], "walk_leg.matroid_m1_2.json"),
        (["antistokes", "walk_leg.json", "--zeta", "-1/2"], "walk_leg.antistokes_m1_2.json"),
        (["antistokes", "walk_leg.json", "--rotation", "cw", "--zeta", "-1/2"],
         "walk_leg.antistokes_cw_m1_2.json"),
        (["paths", "walk_leg.json", "--zeta", "-1/2"], "walk_leg.paths_m1_2.json"),
        (["paths", "walk_leg.json", "--format", "jsonl", "--zeta", "-1/2"],
         "walk_leg.paths_jsonl_m1_2.jsonl"),
        (["plot", "walk_leg.json", "--format", "svg", "--zeta", "-1/2"], "walk_leg.svg_m1_2.json"),
    ],
)
def test_cli_output_is_pinned(argv, expected, capsys):
    """`stokes` on a random and a convex-arc 8-point instance, `walk --to`
    on a 5-point leg and on an 8-point leg there and back, the poset plots
    of the pentagon, the poset CSV of the 7-point `seven` and `fourier` on
    both 8-point instances at the default zeta and at 1/1 print exactly the
    committed output.  So do `matroid`, `antistokes` in both rotations,
    `paths` as json and jsonl and the SVG plot of `seven` and of the 5-point
    `walk_leg`, each at two directions; a committed output that is an error
    is printed with exit code 2: `antistokes` of `seven` at -1/2 (a start
    direction that is anti-Stokes) and `paths` of `walk_leg` at 0/1 (a tie
    of the infinity form)."""
    argv = [os.path.join(DATA, a) if a.endswith(".json") else a for a in argv]
    code = main(argv)
    with open(os.path.join(DATA, expected), "rb") as fh:
        golden = fh.read()
    assert capsys.readouterr().out.encode() == golden
    assert code == (2 if golden.startswith(b'{"error": ') else 0)


_ZETA_COMMANDS = [
    (["matroid"], "seven.matroid_m1_2.json"),
    (["antistokes"], "seven.antistokes_m1_2.json"),
    (["antistokes", "--rotation", "cw"], "seven.antistokes_cw_m1_2.json"),
    (["paths"], "seven.paths_m1_2.json"),
    (["paths", "--format", "jsonl"], "seven.paths_jsonl_m1_2.jsonl"),
    (["plot", "--format", "svg"], "seven.svg_m1_2.json"),
]


def with_file_zeta(tmp_path, name):
    """The instance file `name` of the test data with `"zeta": "1/0"` added."""
    with open(os.path.join(DATA, name)) as fh:
        data = json.load(fh)
    path = tmp_path / name
    path.write_text(json.dumps({**data, "zeta": "1/0"}))
    return str(path)


@pytest.mark.parametrize("command, expected", _ZETA_COMMANDS)
def test_a_given_zeta_wins_over_the_file(command, expected, tmp_path, capsys):
    """On `seven.json` with `"zeta": "1/0"` added, `--zeta -1/2` is the
    direction read: the output is the committed one at -1/2."""
    path = with_file_zeta(tmp_path, "seven.json")
    code = main([command[0], path, *command[1:], "--zeta", "-1/2"])
    with open(os.path.join(DATA, expected), "rb") as fh:
        golden = fh.read()
    assert capsys.readouterr().out.encode() == golden
    assert code == (2 if golden.startswith(b'{"error": ') else 0)


@pytest.mark.parametrize("command", [c for c, _ in _ZETA_COMMANDS] + [
    ["stokes"], ["fourier"], ["plot", "--format", "csv"]])
def test_a_malformed_zeta_is_invalid_even_when_the_file_has_one(command, tmp_path, capsys):
    """A malformed `--zeta` is invalid input, exit 2, though the instance
    file holds a valid `"zeta"`."""
    path = with_file_zeta(tmp_path, "stokes_arc.json")
    code, data = run_cli([command[0], path, *command[1:], "--zeta", "garbage"], capsys)
    assert code == 2
    assert data["error"]["code"] == "invalid_input"
    assert "garbage" in data["error"]["message"]


def _pinned_leg(name, target):
    with open(os.path.join(DATA, name)) as fh:
        a0 = Config.from_json(json.load(fh)["config"])
    with open(os.path.join(DATA, target)) as fh:
        a1 = Config.from_json(json.load(fh)["config"])
    return a0, a1


PINNED_LEGS = [
    ("walk_leg.json", "walk_leg_target.json"),
    ("walk_leg8.json", "walk_leg8_target.json"),
]


WALK_LEGS = PINNED_LEGS + [("walk_leg8_back.json", "walk_leg8.json")]


@pytest.mark.parametrize("name, target", WALK_LEGS)
def test_walk_log_replays_through_events(name, target, tmp_path, capsys):
    """The events log of `walk --to`, fed back through `walk --events` on
    the same instance, gives a byte-identical transport."""
    inst = os.path.join(DATA, name)
    log = tmp_path / "log.json"
    assert main(["walk", inst, "--to", os.path.join(DATA, target), "--out", str(log)]) == 0
    code, replay = run_cli(["walk", inst, "--events", str(log)], capsys)
    assert code == 0
    walked = json.loads(log.read_text())
    assert walked["events"] and replay["events"] == walked["events"]
    assert json.dumps(replay["transport"]) == json.dumps(walked["transport"])


@pytest.mark.parametrize("name, target", WALK_LEGS)
def test_wall_events_are_crossing_records(name, target):
    """The wall-event engine returns the crossing record that wallcross
    applies, with its time filled in; the time is kept out of the JSON, of
    equality and of the hash."""
    import infrared
    from infrared import wallcross
    from infrared.geometry import AlgebraicTime, CrossingSpec, segment_wall_events

    assert infrared.CrossingSpec is wallcross.CrossingSpec is CrossingSpec
    events = segment_wall_events(*_pinned_leg(name, target))
    assert events
    for e in events:
        assert isinstance(e, CrossingSpec) and isinstance(e.time, AlgebraicTime)
        data = e.to_json()
        assert "time" not in data
        copy = CrossingSpec.from_json(data)
        assert copy.time is None
        assert copy == e and hash(copy) == hash(e)


@pytest.mark.parametrize("key, value", [("seed", "x"), ("zetta", "5/1")])
def test_unknown_instance_keys_are_invalid_input(key, value, tmp_path, capsys):
    """An instance holds only config, transport, quiver and zeta: a stray or
    misspelt key is named in the error instead of being ignored."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"config": {"points": [["0", "0"], ["1", "2"]]}, key: value}))
    code, data = run_cli(["matroid", str(path)], capsys)
    assert code == 2
    assert data["error"]["code"] == "invalid_input"
    assert repr(key) in data["error"]["message"]


@pytest.mark.parametrize("value", ["1e999999", "1e-999999", "1E+1_001", "-5e99999999999999"])
@pytest.mark.parametrize("where", ["transport", "config"])
def test_huge_decimal_exponents_are_invalid_input(where, value, tmp_path, capsys):
    """A decimal exponent beyond +-1000, in a transport entry or in a point
    coordinate, is refused before 10**e is formed: invalid_input and exit 2,
    within a second, where it used to crash the JSON writer or hang."""
    point, entry = ([value, "0"], "2") if where == "config" else (["0", "0"], value)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "config": {"points": [point]},
        "transport": {"dims": [1], "m": [[[[entry]]]]},
    }))
    start = time.perf_counter()
    code, data = run_cli(["stokes", str(path)], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert data["error"]["code"] == "invalid_input"
    assert "decimal exponent" in data["error"]["message"]


@pytest.mark.parametrize("command", ["stokes", "fourier"])
def test_result_entries_past_the_digit_limit_are_invalid_input(command, tmp_path, capsys):
    """A result entry whose integers pass Python's int-to-str digit limit is
    refused by the writer with invalid_input and exit 2, not a traceback:
    here m01 = m10 = 1/77...7 (2,500 sevens) squares past 4,300 digits."""
    entry = "1/" + "7" * 2500
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "config": {"points": [["0", "0"], ["1", "2"]]},
        "transport": {"dims": [1, 1], "m": [[[["2"]], [[entry]]], [[[entry]], [["2"]]]]},
    }))
    code, data = run_cli([command, str(path)], capsys)
    assert code == 2
    assert data["error"]["code"] == "invalid_input"
    assert "digit" in data["error"]["message"]


@pytest.mark.parametrize(
    "where", ["stokes-block", "walk-block", "quiver-arm", "matroid-point", "walk-target"])
def test_a_string_in_place_of_a_list_is_invalid_input(where, tmp_path, capsys):
    """A JSON string where a matrix row or a point belongs is refused with
    invalid_input and exit 2, not read one character at a time: ["12"] is
    not the row [1, 2], nor "12" the point (1, 2).  Each instance has the
    right shapes when so misread."""
    points = [["0", "0"], ["1", "2"]]
    m = [[[["0", "0"], ["0", "0"]], [["1", "2"]]], [[["0"], ["0"]], [["0"]]]]
    inst = {"config": {"points": points}, "transport": {"dims": [2, 1], "m": m}}
    path, other = tmp_path / "inst.json", tmp_path / "other.json"
    argv = ["stokes", str(path)]
    if where.endswith("block"):
        m[0][1] = ["12"]
    if where == "quiver-arm":
        inst["quiver"] = {"dims": [1, 1], "dPsi": 2, "a": [[["0"], ["1"]], [["0"], ["1"]]],
                          "b": [["12"], [["0", "0"]]]}
        del inst["transport"]
    if where == "matroid-point":
        points[1] = "12"
        argv[0] = "matroid"
    if where == "walk-block":
        other.write_text(json.dumps({"events": []}))
        argv = ["walk", str(path), "--events", str(other)]
    if where == "walk-target":
        other.write_text(json.dumps({"config": {"points": [["0", "0"], "34"]}}))
        argv = ["walk", str(path), "--to", str(other)]
    path.write_text(json.dumps(inst))
    code, data = run_cli(argv, capsys)
    assert code == 2
    assert data["error"]["code"] == "invalid_input"
    assert "not the string" in data["error"]["message"]


def test_a_handler_result_that_is_not_json_raises(circuit_file, monkeypatch, capsys):
    """Results are written by json.dumps with no fallback: a value that no
    handler should return, here a Fraction, raises TypeError instead of
    being printed as the string "1/2"."""
    import infrared.cli

    monkeypatch.setattr(infrared.cli, "convex_hull", lambda A: [Fraction(1, 2)])
    with pytest.raises(TypeError):
        main(["matroid", circuit_file])
    assert capsys.readouterr().out == ""


def test_decimal_exponents_up_to_the_bound_are_read():
    """The bound is inclusive, and exponents in range still read exactly."""
    assert MatQ([["1e1000", "1e-1000", "-1.5e3", " 2E+1_0 "]]) == MatQ(
        [[10 ** 1000, Fraction(1, 10 ** 1000), -1500, 2 * 10 ** 10]])


def test_pinned_walk_leg_meets_irrational_events_of_both_leading_signs():
    from infrared.geometry import _integer_leg, segment_wall_events
    from test_geometry import _cross, _leg_quadratic

    for name, target in PINNED_LEGS:
        a0, a1 = _pinned_leg(name, target)
        leg = _integer_leg(a0, a1)
        irrational = [
            e for e in segment_wall_events(a0, a1)
            if e.kind == "coll" and e.time.rational is None
        ]
        leading = {
            _leg_quadratic(leg, _cross, *sorted((e.i, e.j, e.k)))[0] > 0
            for e in irrational
        }
        assert leading == {True, False}, name


def test_pinned_walks_never_refine_an_event_time(refine_calls, capsys):
    """Ordering the events of the pinned legs, both ways, bisects nothing."""
    from infrared.geometry import segment_wall_events

    irrational = 0
    for name, target in PINNED_LEGS:
        a0, a1 = _pinned_leg(name, target)
        for events in (segment_wall_events(a0, a1), segment_wall_events(a1, a0)):
            irrational += sum(e.time.rational is None for e in events)
        assert main(["walk", os.path.join(DATA, name), "--to", os.path.join(DATA, target)]) == 0
    capsys.readouterr()
    assert irrational > 0
    assert refine_calls == []


def test_repeated_calls_leave_no_argparse_garbage(circuit_file, capsys):
    """The parser is built once per process, so a second call leaves no
    argparse object in a reference cycle."""
    assert main(["secondary", circuit_file]) == 0
    flags = gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        assert main(["secondary", circuit_file]) == 0
        gc.collect()
        leaked = [o for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    capsys.readouterr()
    assert leaked == []


def test_closed_stdout_ends_without_a_traceback(circuit_file, child_env):
    """A reader that has closed the pipe gets exit code 1 and no traceback."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "infrared.cli", "secondary", circuit_file],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env,
        )
    finally:
        os.close(write)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1


def test_check_rejects_a_dimension_below_one(capsys):
    code, data = run_cli(["check", "--dim", "0"], capsys)
    assert code == 2
    assert data["error"]["code"] == "invalid_input"


def test_check_rejects_a_dimension_above_the_bound(capsys, monkeypatch):
    """A `--dim` above `checksuite.MAX_DIM` is invalid input before any
    draw: a value of 10**100 would allocate nothing, and `run` is not
    called."""
    from infrared import checksuite

    def no_run(**kwargs):
        raise AssertionError("checksuite.run was called")

    monkeypatch.setattr(checksuite, "run", no_run)
    for dim in (checksuite.MAX_DIM + 1, 10**100):
        code, data = run_cli(["check", "--dim", str(dim)], capsys)
        assert code == 2
        assert data["error"]["code"] == "invalid_input"
        assert "--dim" in data["error"]["message"]


@pytest.mark.parametrize("n", [1, 0, -3])
def test_check_rejects_fewer_than_two_points(n, capsys):
    code, data = run_cli(["check", "--n", str(n)], capsys)
    assert code == 2
    assert data["error"]["code"] == "invalid_input"
    assert "--n" in data["error"]["message"]


@pytest.mark.parametrize(
    "args, flag",
    [
        (["matroid", "{circuit}", "--format", "svg"], "--format"),
        (["walk", "{circuit}", "--zeta", "1/0"], "--zeta"),
        (["secondary", "{circuit}", "--zeta", "1/0"], "--zeta"),
        (["stokes", "{circuit}", "--no-such-option"], "--no-such-option"),
        (["paths", "{circuit}", "--format", "svg"], "--format"),
        (["antistokes", "{circuit}", "--rotation", "up"], "--rotation"),
        (["check", "--n"], "--n"),
        (["no-such-command"], "no-such-command"),
    ],
)
def test_usage_errors_are_invalid_input(args, flag, circuit_file, capsys):
    """An option the subcommand does not read, an unknown option, a bad
    choice or a missing value is reported as JSON, exit code 2, naming the
    offending argument, instead of as usage text."""
    code, data = run_cli([a.format(circuit=circuit_file) for a in args], capsys)
    assert code == 2
    assert data["error"]["code"] == "invalid_input"
    assert flag in data["error"]["message"]


def test_non_integer_enumeration_bound_is_invalid_input(
    circuit_file, monkeypatch, capsys
):
    monkeypatch.setenv("INFRARED_MAX_N", "abc")
    code, data = run_cli(["secondary", circuit_file], capsys)
    assert code == 2
    assert data["error"]["code"] == "invalid_input"


@pytest.mark.parametrize("fmt", [None, "json", "jsonl"])
def test_plot_rejects_a_non_plot_format(circuit_file, capsys, fmt):
    # the default --format is json, which is no plot format
    args = ["plot", circuit_file] + ([] if fmt is None else ["--format", fmt])
    code, data = run_cli(args, capsys)
    assert code == 2
    assert data["error"]["code"] == "invalid_input"
    assert "--format" in data["error"]["message"]


def test_plot_svg_rejects_poset(circuit_file, capsys):
    # an SVG sketch draws the points only, so --poset would be dropped
    code, data = run_cli(["plot", circuit_file, "--format", "svg", "--poset"], capsys)
    assert code == 2
    assert data["error"]["code"] == "invalid_input"


@pytest.mark.parametrize("fmt", ["csv", "dot"])
def test_plot_rejects_zeta_without_svg(fmt, capsys):
    # only the SVG sketch is drawn along a direction; csv and dot ignore it
    pentagon = os.path.join(DATA, "pentagon.json")
    code, data = run_cli(["plot", pentagon, "--format", fmt, "--zeta", "5/1"], capsys)
    assert code == 2
    assert data["error"]["code"] == "invalid_input"
    assert "--zeta" in data["error"]["message"]
    code, data = run_cli(["plot", pentagon, "--format", "svg", "--zeta", "5/1"], capsys)
    assert code == 0 and data["content"].startswith("<svg")


@pytest.mark.parametrize(
    "flags, flag",
    [
        (["--source", "99", "--target", "0"], "--source"),
        (["--source", "0", "--target", "5"], "--target"),
        (["--source", "-5", "--target", "4"], "--source"),
        (["--source", "0", "--target", "-1"], "--target"),
        (["--source", "0"], "--target"),
        (["--target", "4"], "--source"),
    ],
)
def test_paths_endpoints_are_checked(flags, flag, capsys):
    """Endpoints are point indices 0..N-1, given together."""
    code, data = run_cli(["paths", os.path.join(DATA, "pentagon.json"), *flags], capsys)
    assert code == 2
    assert data["error"]["code"] == "invalid_input"
    assert flag in data["error"]["message"]


def test_paths_between_given_endpoints(capsys):
    code, data = run_cli(
        ["paths", os.path.join(DATA, "pentagon.json"), "--source", "0", "--target", "4"],
        capsys,
    )
    assert code == 0 and data["paths"]
    assert {(p["from"], p["to"]) for p in data["paths"]} == {(0, 4)}


@pytest.mark.parametrize(
    "event",
    [
        {"kind": "coll", "i": 0, "j": 1, "k": 99, "eps_before": 1},
        {"kind": "coll", "i": 0, "j": 1, "k": 5, "eps_before": 1},
        {"kind": "horiz", "i": -1, "j": 0, "motion": "above", "re_cmp": "left"},
        {"kind": "horiz", "i": 0, "j": 7, "motion": "above", "re_cmp": "left"},
        {"kind": "horiz", "i": "0", "j": 1, "motion": "above", "re_cmp": "left"},
        {"kind": "coll", "i": 0, "j": 1.0, "k": 2, "eps_before": 1},
        {"kind": "coll", "i": 0, "j": 1, "k": 2, "eps_before": True},
        {"kind": "coll", "i": 0, "j": 1, "k": 2, "eps_before": 1.0},
        {"kind": "coll", "i": 0, "j": 1, "k": 2, "eps_before": 2},
    ],
)
def test_walk_events_are_checked(event, tmp_path, capsys):
    """Crossing indices lie in 0..N-1 and eps_before is the integer 1 or -1."""
    ev = tmp_path / "events.json"
    ev.write_text(json.dumps({"events": [event]}))
    code, data = run_cli(["walk", os.path.join(DATA, "walk_leg.json"), "--events", str(ev)], capsys)
    assert code == 2
    assert data["error"]["code"] == "invalid_input"


def test_walk_events_at_the_last_index(tmp_path, capsys):
    ev = tmp_path / "events.json"
    ev.write_text(json.dumps({"events": [
        {"kind": "coll", "i": 4, "j": 0, "k": 2, "eps_before": -1},
        {"kind": "horiz", "i": 3, "j": 4, "motion": "below", "re_cmp": "right"},
    ]}))
    code, data = run_cli(["walk", os.path.join(DATA, "walk_leg.json"), "--events", str(ev)], capsys)
    assert code == 0
    assert [e["kind"] for e in data["events"]] == ["coll", "horiz"]


@pytest.mark.parametrize("order", [("--to", "--events"), ("--events", "--to")])
def test_walk_rejects_a_leg_and_events_together(order, tmp_path, capsys):
    """`walk` takes a target configuration or a crossing list, not both: the
    pair is invalid input, exit 2, in either order, and nothing is walked."""
    ev = tmp_path / "events.json"
    ev.write_text(json.dumps({"events": []}))
    files = {"--to": os.path.join(DATA, "walk_leg_target.json"), "--events": str(ev)}
    argv = ["walk", os.path.join(DATA, "walk_leg.json")]
    for flag in order:
        argv += [flag, files[flag]]
    code, data = run_cli(argv, capsys)
    assert code == 2
    assert data["error"]["code"] == "invalid_input"
    assert "not allowed with" in data["error"]["message"]
    assert all(flag in data["error"]["message"] for flag in order)


@pytest.mark.parametrize("zeta, expected", [
    ("1/0", "seven.paths_jsonl_1_0.jsonl"), ("-1/2", "seven.paths_jsonl_m1_2.jsonl")])
def test_paths_jsonl_writes_the_golden_to_out(zeta, expected, tmp_path, capsys):
    """`paths --format jsonl --out` writes exactly the bytes that it prints
    without --out, the committed output, and prints nothing."""
    out = tmp_path / "paths.jsonl"
    argv = ["paths", os.path.join(DATA, "seven.json"), "--format", "jsonl", "--zeta", zeta]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    with open(os.path.join(DATA, expected), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_a_quiver_instance_reads_as_its_collapse(tmp_path, capsys, inverse_calls):
    """Loading a `"quiver"` instance inverts one Id - b_i a_i per slot and
    nothing more, as the collapse mu(q) keeps those inverses; `stokes` and
    `fourier` then print exactly what they print for the instance that
    holds mu(q) as transport data.  A singular slot is named, in either
    model."""
    with open(os.path.join(DATA, "stokes_random.json")) as fh:
        points = json.load(fh)["config"]
    r = rng(37)
    q = rand_quiver(r, len(points["points"]), max_dim=2)
    quiver_file, transport_file = tmp_path / "quiver.json", tmp_path / "transport.json"
    quiver_file.write_text(json.dumps({"config": points, "quiver": q.to_json()}))
    transport_file.write_text(json.dumps({"config": points, "transport": mu(q).to_json()}))
    inverse_calls.clear()
    Instance.load(str(quiver_file))
    assert len(inverse_calls) == q.n
    for command in (["stokes"], ["fourier"], ["fourier", "--zeta", "1/1"]):
        outputs = []
        for path in (quiver_file, transport_file):
            assert main([command[0], str(path), *command[1:]]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
    singular = {
        "quiver": {"dims": [1, 1], "dPsi": 1, "a": [[["0"]], [["1"]]], "b": [[["0"]], [["1"]]]},
        "transport": {"dims": [1, 1], "m": [[[["0"]], [["0"]]], [[["0"]], [["1"]]]]},
    }
    for model, text in (("quiver", "Id - b[1] a[1] is singular"),
                        ("transport", "Id - m[1][1] is singular")):
        path = tmp_path / f"singular_{model}.json"
        path.write_text(json.dumps({model: singular[model]}))
        code, data = run_cli(["walk", str(path), "--events", str(path)], capsys)
        assert code == 2
        assert data["error"] == {"code": "not_invertible", "message": text}
