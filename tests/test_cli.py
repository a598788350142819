"""Command-line interface: subcommands, JSON schemas, exit codes."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from logfiber.analysis import Analysis
from logfiber.cli import FILE_COMMANDS, SCHEMAS, link_report, main
from logfiber.complexes import MAX_LOT_K, SquareComplex
from logfiber.links import format_end, poison_corners
from logfiber.morse import MAX_FIBER_CELLS
from logfiber.words import Word


@pytest.fixture()
def g1_file(tmp_path, capsys):
    assert main(["build", "named", "g1"]) == 0
    path = tmp_path / "g1.log"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    return str(path)


@pytest.fixture()
def g2_file(tmp_path, capsys):
    assert main(["build", "named", "g2"]) == 0
    path = tmp_path / "g2.log"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    return str(path)


@pytest.fixture()
def torus_file(tmp_path, capsys):
    assert main(["build", "named", "torus"]) == 0
    path = tmp_path / "torus.log"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    assert main(argv + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_build_lot(capsys):
    assert main(["build", "lot", "--k", "5", "--stem", "c"]) == 0
    out = capsys.readouterr().out
    assert "generators c0 c1 c2 c3 c4 c5" in out
    assert out.count("square ") == 5


def test_build_lot_bad_k(capsys):
    assert main(["build", "lot", "--k", "3"]) == 1
    assert "k >= 4" in capsys.readouterr().err


def test_build_lot_huge_k_is_refused(capsys):
    # only just above the limit: the check comes before any allocation
    assert main(["build", "lot", "--k", str(MAX_LOT_K + 1)]) == 1
    err = capsys.readouterr().err
    assert f"k = {MAX_LOT_K + 1}" in err and f"MAX_LOT_K = {MAX_LOT_K}" in err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_file(capsys):
    assert main(["link", "/nonexistent/file.log"]) == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["link", "{bad}"], ["analyze", "{bad}"],
                                  ["add-square", "{bad}", "--relator", "a b a^-1 b^-1"],
                                  ["combine", "{bad}", "{bad}", "--relator", "a b a^-1 b^-1"]])
def test_undecodable_file_is_an_input_error(tmp_path, capsys, argv):
    bad = tmp_path / "bad.log"
    bad.write_bytes(b"generators a b\nsquare a b a^-1 b^-1 # \xff\n")
    assert main([arg.format(bad=bad) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert f"cannot read {bad}" in err and "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ("generators a b\nsquare a b\n", "line 2: square boundary must have length 4, got 2: a b"),
    ("generators a b\n\nsquare a b a^-1 c^-1\n",
     "line 3: boundary letter 'c' is not a declared generator"),
    ("# comment\nsquare a b b^-1 a^-1\ngenerators a b\n",
     "line 2: square boundary cyclically cancels: a b b^-1 a^-1"),
    ("generators a b\nedge label=a from=b to=a\n",
     "line 2: square boundary cyclically cancels: a a a^-1 b^-1"),
], ids=["length", "undeclared", "cancels", "edge-cancels"])
def test_square_errors_name_their_line(tmp_path, capsys, text, message):
    path = tmp_path / "bad.log"
    path.write_text(text, encoding="utf-8")
    assert main(["link", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_squares_may_come_before_their_generators(tmp_path, capsys):
    reports = []
    for text in ("square a b a^-1 b^-1\ngenerators a b\n", "generators a b\nsquare a b a^-1 b^-1\n"):
        path = tmp_path / "torus.log"
        path.write_text(text, encoding="utf-8")
        assert main(["link", str(path), "--json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_combine_and_add_square_roundtrip(tmp_path, capsys):
    assert main(["build", "lot", "--k", "4", "--stem", "a"]) == 0
    a = tmp_path / "a.log"
    a.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["build", "lot", "--k", "4", "--stem", "b"]) == 0
    b = tmp_path / "b.log"
    b.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["combine", str(a), str(b), "--relator", "a0 b2 a1^-1 b0^-1"]) == 0
    combined = capsys.readouterr().out
    assert combined.count("square ") == 9
    assert "# added" in combined
    c = tmp_path / "c.log"
    c.write_text(combined, encoding="utf-8")
    assert main(["add-square", str(c), "--relator", "a0 b2 a1^-1 b0^-1"]) == 0
    assert capsys.readouterr().out.count("square ") == 10


def test_link_json_schema(capsys, g1_file):
    data = run_json(capsys, ["link", g1_file])
    assert set(data) == SCHEMAS["link"]
    for p in data["poison"]:
        assert set(p) == SCHEMAS["poison_corner"]
    assert data["girth"] == 4 and data["is_large"]


def test_poison_rows_match_the_corner_pairs():
    # generator order differs from string order (a2 before a10, b0 before a1),
    # so a row's ends are often in the opposite order to their vertex numbers
    rng = random.Random(22)
    gens = ["a2", "a10", "b0", "a1"]
    ends, flipped = set(), 0
    for _ in range(200):
        c = SquareComplex(list(gens))
        while len(c.squares) < rng.randint(1, 4):
            letters = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(4)]
            if all(letters[i - 1] != (g, -s) for i, (g, s) in enumerate(letters)):
                c.append_square(Word(letters))
        a = Analysis(c)
        poison = poison_corners(c, a.link)  # the public view of `Analysis.poison`'s numbers
        assert a.poison == [4 * e.square + e.corner for e in poison]
        expected = [{"square": e.square, "corner": e.corner,
                     "endpoints": [format_end(v) for v in e.pair]} for e in poison]
        assert link_report(a)["poison"] == expected
        for e in poison:
            ends.update(e.ends)
            flipped += list(e.pair) != sorted(e.ends, key=a.link.vertices.index)
    assert len(ends) == 8 and flipped >= 100


def test_check_large_and_poison(capsys, g2_file):
    data = run_json(capsys, ["check", "large", g2_file])
    assert set(data) <= SCHEMAS["link"]
    assert data["is_large"]
    data = run_json(capsys, ["check", "poison", g2_file])
    assert set(data) <= SCHEMAS["link"]
    assert len(data["poison"]) == 4


def test_check_flat_json(capsys, g2_file):
    data = run_json(capsys, ["check", "flat", g2_file])
    assert set(data) == SCHEMAS["flat"]
    assert data["verdict"] == "HyperbolicCertB" and data["radius"] == 2


def test_check_flat_witness_schema(capsys, torus_file):
    data = run_json(capsys, ["check", "flat", torus_file, "--radius", "2"])
    assert data["verdict"] == "Inconclusive"
    for cell in data["witness"]:
        assert set(cell) == SCHEMAS["witness_cell"]


def test_morse_json(capsys, g1_file):
    data = run_json(capsys, ["morse", g1_file, "--weights", "a=2,b=3"])
    assert set(data) == SCHEMAS["morse"]
    assert set(data["asc"]) == SCHEMAS["directional"]
    assert set(data["fiber"]) == SCHEMAS["fiber"]
    assert data["rank"] == 21


def test_morse_requires_weights(capsys, g1_file):
    assert main(["morse", g1_file]) == 1


@pytest.mark.parametrize("weights, problem", [
    ("a=2,b=1,c=1,d=1", "square 0: boundary weight sum 1 != 0"),
    ("a=2,b=1,c=1,d=2", "square 0: opposite letters carry weights 2 and -1 (no affine extension)"),
])
def test_morse_and_kernel_rank_name_each_square_problem(tmp_path, capsys, weights, problem):
    from logfiber import InputError, kernel_rank, parse_spec, parse_weight_spec

    text = "generators a b c d\nsquare a b c^-1 d^-1\n"
    path = tmp_path / "square.log"
    path.write_text(text, encoding="utf-8")
    data = run_json(capsys, ["morse", str(path), "--weights", weights])
    assert (data["admissible"], data["problems"]) == (False, [problem])
    c = parse_spec(text)
    with pytest.raises(InputError) as raised:
        kernel_rank(c, parse_weight_spec(weights, c))
    assert str(raised.value) == f"inadmissible weight system: {problem}"


def test_fiberings_json(capsys, g2_file):
    data = run_json(capsys, ["fiberings", g2_file, "--bound", "2"])
    assert set(data) == SCHEMAS["fiberings"]
    for row in data["table"]:
        assert set(row) <= SCHEMAS["fibering_row"]


def test_verdict_reason_in_text(tmp_path, capsys):
    assert main(["build", "named", "lot-a"]) == 0
    path = tmp_path / "lot.log"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["verdict", str(path)]) == 0
    out = capsys.readouterr().out
    assert "infinite fibering: NO" in out and "rank < 2" in out


def test_verdict_json(capsys, g1_file, torus_file):
    data = run_json(capsys, ["verdict", g1_file])
    assert set(data) <= SCHEMAS["verdict"]
    assert data["infinite_fibering"] == "YES"
    # the torus control: lattice rank 2, kernel rank 1 at unit weights
    data = run_json(capsys, ["verdict", torus_file])
    assert data["lattice_rank"] == 2 and data["infinite_fibering"] == "YES"


def test_monodromy_json(capsys, g1_file):
    data = run_json(capsys, ["monodromy", g1_file, "--weights", "a=1,b=1",
                             "--conjugator", "a0"])
    assert set(data) == SCHEMAS["monodromy"]
    for loop in data["basis"]:
        assert set(loop) == SCHEMAS["basis_loop"]
    assert data["images"]["α1"] == "α1 α0"


def test_monodromy_text_names_an_empty_conjugator(capsys, g1_file):
    # "a0 a0^-1" reduces to the empty word: the text says so, the JSON keeps ""
    assert main(["monodromy", g1_file, "--conjugator", "a0 a0^-1"]) == 0
    assert "conjugation by (empty) (inner):" in capsys.readouterr().out
    data = run_json(capsys, ["monodromy", g1_file, "--conjugator", "a0 a0^-1"])
    assert data["conjugator"] == ""


def test_transition_json(capsys, g2_file):
    data = run_json(capsys, ["transition", g2_file, "--conjugator", "a3"])
    assert set(data) == SCHEMAS["transition"]
    assert data["irreducible"] and data["primitive"] and data["witness_power"] <= 3


def test_reducible_witness_json(capsys, g1_file):
    data = run_json(capsys, ["reducible-witness", g1_file, "--conjugator", "a0"])
    assert set(data) == SCHEMAS["reducible"]
    assert len(data["witnesses"]) == 2
    assert set(data["witness"]) == SCHEMAS["witness"]


def test_analyze_json_sections(capsys, g1_file):
    data = run_json(capsys, ["analyze", g1_file, "--weights", "a=1,b=1"])
    assert set(data) == SCHEMAS["analyze"]
    assert data["link"]["is_large"]
    assert data["flat"]["verdict"] == "HyperbolicCertA"
    assert data["morse"]["rank"] == 9
    assert data["fibering"]["infinite_fibering"] == "YES"
    assert "basis" in data["monodromy"]


def test_analyze_matches_subcommand_sections(capsys, g2_file):
    whole = run_json(capsys, ["analyze", g2_file, "--weights", "a=1,b=1"])
    assert whole["link"] == run_json(capsys, ["link", g2_file])
    assert whole["flat"] == run_json(capsys, ["check", "flat", g2_file])
    assert whole["morse"] == run_json(capsys, ["morse", g2_file, "--weights", "a=1,b=1"])
    assert whole["fibering"] == run_json(capsys, ["verdict", g2_file])


def test_analyze_text_contains_subcommand_texts(capsys, g2_file):
    assert main(["analyze", g2_file, "--weights", "a=1,b=1"]) == 0
    whole = capsys.readouterr().out
    for argv in (["link", g2_file], ["check", "flat", g2_file],
                 ["morse", g2_file, "--weights", "a=1,b=1"], ["verdict", g2_file]):
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() in whole


def test_analyze_skips_monodromy_for_nonunit_weights(capsys, g1_file):
    data = run_json(capsys, ["analyze", g1_file, "--weights", "a=2,b=3"])
    assert set(data["monodromy"]) == SCHEMAS["skipped"]
    assert data["morse"]["rank"] == 21


def test_analyze_g2_at_2_3(capsys, g2_file):
    data = run_json(capsys, ["analyze", g2_file, "--weights", "a=2,b=3"])
    assert data["morse"]["rank"] == 16


def test_analyze_torus_example(capsys, torus_file):
    data = run_json(capsys, ["analyze", torus_file, "--weights", "a=1,b=1"])
    assert data["flat"]["verdict"] == "Inconclusive"
    assert data["morse"]["lattice_rank"] == 2
    assert data["morse"]["rank"] == 1  # chi = 0: the fiber is one loop
    assert data["fibering"]["infinite_fibering"] == "YES"


def test_analyze_deterministic(capsys, g2_file):
    assert main(["analyze", g2_file, "--weights", "a=1,b=1", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", g2_file, "--weights", "a=1,b=1", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_dot_output(tmp_path, capsys, g2_file):
    dot = tmp_path / "link.dot"
    assert main(["link", g2_file, "--dot", str(dot), "--highlight", "poison"]) == 0
    capsys.readouterr()
    text = dot.read_text(encoding="utf-8")
    assert text.startswith("graph link {")
    assert "style=bold" in text  # highlighted poison edges
    assert "style=dashed" in text  # the added square's edges


def test_dot_highlight_desc(tmp_path, capsys, g2_file):
    dot = tmp_path / "desc.dot"
    assert main(["analyze", g2_file, "--weights", "a=1,b=1", "--dot", str(dot),
                 "--highlight", "desc"]) == 0
    capsys.readouterr()
    assert "style=bold" in dot.read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["link", "analyze"])
def test_highlight_without_dot_is_refused(capsys, g2_file, command):
    for mode in ([], ["--json"]):
        assert main([command, g2_file, "--highlight", "asc"] + mode) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--highlight needs --dot" in captured.err


def test_exit_code_two_on_internal_violation(monkeypatch, capsys, g1_file):
    import logfiber.cli as cli

    def boom(c):
        raise AssertionError("synthetic failure")

    monkeypatch.setattr(cli.links, "build_link", boom)
    assert main(["link", g1_file]) == 2
    assert "internal invariant violation" in capsys.readouterr().err


def test_fiberings_refuses_huge_scans(capsys, g1_file):
    # (2 * 100000 + 1)^2 coordinate vectors on g1's rank-2 lattice
    assert main(["fiberings", g1_file, "--bound", "100000"]) == 1
    err = capsys.readouterr().err
    assert "40000400001 vectors" in err and "internal" not in err


@pytest.mark.parametrize("command", ["morse", "analyze"])
def test_huge_weights_are_refused(capsys, torus_file, command):
    # 1 + 2 * (10^6 - 1) fiber vertices and 2 * 10^6 - 1 arcs
    start = time.perf_counter()
    assert main([command, torus_file, "--weights", "a=1000000,b=1000000"]) == 1
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert "3999998 vertices and arcs" in err and "internal" not in err
    # 2 * (10^20 - 1) vertices and arcs: a range that long has no len()
    assert main([command, torus_file, "--weights", "a=99999999999999999999,b=1"]) == 1
    err = capsys.readouterr().err
    assert f"199999999999999999998 vertices and arcs exceeds the limit of {MAX_FIBER_CELLS}" in err
    assert "Traceback" not in err and "internal" not in err


def test_check_flat_large_radius_on_torus(capsys, torus_file):
    from logfiber import build_named, validate_witness
    from logfiber.flatness import DiskWitness

    data = run_json(capsys, ["check", "flat", torus_file, "--radius", "25"])
    assert data["verdict"] == "Inconclusive" and data["radius"] == 25
    placement = {(cell["x"], cell["y"]): (cell["square"], cell["rot"], cell["refl"])
                 for cell in data["witness"]}
    assert validate_witness(build_named("torus"), DiskWitness(25, placement)) == []


def count_calls(monkeypatch, module_name, name):
    """Wrap a function in every logfiber module that holds it; returns the
    list its calls are appended to."""
    import importlib
    import sys

    target = getattr(importlib.import_module(f"logfiber.{module_name}"), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return target(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key == "logfiber" or key.startswith("logfiber."):
            for attr, value in list(vars(module).items()):
                if value is target:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("complex_argv", [["named", "g2"], ["lot", "--k", "32"]])
def test_analyze_builds_each_piece_once(tmp_path, capsys, monkeypatch, complex_argv):
    assert main(["build", *complex_argv]) == 0
    path = tmp_path / "c.log"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    counted = {
        name: count_calls(monkeypatch, module, name)
        for module, name in (("links", "build_link"), ("links", "largeness"),
                             ("links", "poison_corners"), ("links", "poison_edges"),
                             ("morse", "weight_lattice"))
    }
    assert main(["analyze", str(path), "--json"]) == 0
    capsys.readouterr()
    # the poison corners are `Analysis.poison`'s numbers, never the CornerEdge view
    expected = {**dict.fromkeys(counted, 1), "poison_corners": 0}
    assert {name: len(calls) for name, calls in counted.items()} == expected


def test_analyze_builds_no_corner_edges(tmp_path, capsys, monkeypatch):
    # analyze reads the link's end numbers only: `LinkGraph.edges` stays unbuilt
    import logfiber.cli as cli

    assert main(["build", "lot", "--k", "32"]) == 0
    path = tmp_path / "lot32.log"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    made = []
    monkeypatch.setattr(cli, "Analysis", lambda c: made.append(Analysis(c)) or made[-1])
    for argv in (["analyze", str(path), "--json"], ["analyze", str(path)]):
        assert main(argv) == 0
        assert capsys.readouterr().out
        assert "edges" not in made.pop().link.__dict__


# (subcommand words, options on g2, options on the bigon LOG, its exit status there)
COMMAND_RUNS = [
    (["link"], [], [], 0), (["check", "large"], [], [], 0), (["check", "poison"], [], [], 0),
    (["check", "flat"], [], [], 0), (["morse"], ["--weights", "a=1,b=1"], ["--weights", "a=1"], 0),
    (["fiberings"], ["--bound", "2"], ["--bound", "2"], 0), (["verdict"], [], [], 0),
    (["monodromy"], ["--conjugator", "a3"], ["--conjugator", "a3"], 1),
    (["transition"], ["--conjugator", "a3"], ["--conjugator", "a3"], 1),
    (["reducible-witness"], ["--conjugator", "a3"], ["--conjugator", "a3"], 1),
    (["analyze"], [], [], 0),
]


def test_command_runs_cover_every_file_subcommand():
    ran = {" ".join(words) for words, _, _, _ in COMMAND_RUNS}
    assert ran == {command for command, _, _, view in FILE_COMMANDS if view is not None}


@pytest.mark.parametrize("name", ["g2", "bigons"])
def test_no_command_builds_corner_edges(tmp_path, capsys, monkeypatch, name):
    # every report and DOT file reads the link's end numbers and its names:
    # no command path builds `LinkGraph.edges`, the CornerEdge view
    import logfiber.cli as cli
    from test_text_reports import INPUTS

    path = tmp_path / f"{name}.log"
    path.write_text(INPUTS[name](), encoding="utf-8")
    made = []
    monkeypatch.setattr(cli, "Analysis", lambda c: made.append(Analysis(c)) or made[-1])
    runs = [(words, g2_options if name == "g2" else options, 0 if name == "g2" else status)
            for words, g2_options, options, status in COMMAND_RUNS]
    runs = [(words, options + json, status) for words, options, status in runs
            for json in ([], ["--json"])]
    runs += [(["link"], ["--dot", str(tmp_path / "link.dot"), "--highlight", side], 0)
             for side in ("poison", "asc")]
    named = []
    for words, options, status in runs:
        assert main([*words, str(path), *options]) == status, words
        out, err = capsys.readouterr()
        assert out if status == 0 else err, words
        a = made.pop()  # `verdict` on a LOG that is not large reads no link
        if "link" in a.__dict__ and "edges" in a.link.__dict__:
            named.append(" ".join(words + options))
    assert named == [], named


@pytest.mark.parametrize("name", ["g1", "g2"])
def test_analyze_builds_directional_links_once(tmp_path, capsys, monkeypatch, name):
    # the morse view and the monodromy basis read the one sign vector's links
    assert main(["build", "named", name]) == 0
    path = tmp_path / f"{name}.log"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    calls = count_calls(monkeypatch, "morse", "directional_links")
    assert run_json(capsys, ["analyze", str(path)])["monodromy"]["basis"]
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["analyze"], ["analyze", "--weights", "a=-1,b=1"], ["analyze", "--weights", "a=1,b=2"],
    ["morse", "--weights", "a=1,b=1"], ["morse", "--weights", "a=-3,b=2"],
])
def test_min_corners_once_per_sign_vector(capsys, monkeypatch, g2_file, argv):
    # the morse view, its fiber counts, the monodromy basis and the verdict read
    # each sign vector's min corners from the one `Analysis`
    calls = count_calls(monkeypatch, "morse", "min_corners")
    run_json(capsys, [argv[0], g2_file, *argv[1:]])
    signs = [tuple(w > 0 for w in ws.values()) for _, ws in calls]
    assert signs and len(signs) == len(set(signs))


def test_analyze_parses_the_weight_spec_once(tmp_path, capsys, monkeypatch, g2_file):
    # the bad-spec check, the morse view, the monodromy basis and the DOT highlight
    calls = count_calls(monkeypatch, "morse", "parse_weight_spec")
    dot = tmp_path / "g2.dot"
    assert main(["analyze", g2_file, "--weights", "a=1,b=1", "--dot", str(dot),
                 "--highlight", "asc"]) == 0
    assert capsys.readouterr().out and "style=bold" in dot.read_text(encoding="utf-8")
    assert len(calls) == 1


def test_analyze_checks_admissibility_once(capsys, monkeypatch, g2_file):
    # the morse view and the monodromy basis read one check of the one weight system
    calls = count_calls(monkeypatch, "morse", "check_admissible")
    assert run_json(capsys, ["analyze", g2_file])["monodromy"]["basis"]
    assert len(calls) == 1


def test_analyze_dot_highlight_checks_admissibility_once(tmp_path, capsys, monkeypatch, g2_file):
    # the DOT highlight reads the check the morse view and the monodromy basis made
    calls = count_calls(monkeypatch, "morse", "check_admissible")
    dot = tmp_path / "g2.dot"
    assert main(["analyze", g2_file, "--dot", str(dot), "--highlight", "asc"]) == 0
    capsys.readouterr()
    assert "style=bold" in dot.read_text(encoding="utf-8")
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["g1", "g2"])
def test_analyze_builds_no_fiber_graph(tmp_path, capsys, monkeypatch, name):
    # the morse view reads the fiber's vertex, arc and component counts in closed form
    assert main(["build", "named", name]) == 0
    path = tmp_path / f"{name}.log"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    calls = count_calls(monkeypatch, "morse", "fiber_graph")
    assert run_json(capsys, ["analyze", str(path)])["morse"]["fiber"]["connected"]
    assert calls == []


@pytest.mark.parametrize("name, weights", [
    ("g1", "a=2,b=2"), ("g1", "a=3,b=-4"), ("torus", "a=2,b=4"),  # gcd(weights) components
    ("g2", "a=-3,b=2"), ("gf", "a=1,b=1"), ("gf", "a=2,b=-2"),  # split links: union-find
])
def test_morse_fiber_counts_equal_the_fiber_graph(tmp_path, capsys, name, weights):
    from logfiber import build_named, fiber_graph, parse_weight_spec

    c = build_named(name)
    path = tmp_path / f"{name}.log"
    path.write_text(c.render(), encoding="utf-8")
    data = run_json(capsys, ["morse", str(path), "--weights", weights])
    fiber = fiber_graph(c, parse_weight_spec(weights, c))
    assert data["fiber"] == {"vertices": len(fiber.vertices), "edges": len(fiber.edges),
                             "connected": fiber.connected, "components": fiber.components}
    assert data["chi"] == fiber.chi


def test_morse_refuses_fibers_over_the_cell_limit_from_the_counts(capsys, monkeypatch, torus_file):
    # the torus fiber at a=3, b=4 has 6 vertices and 6 arcs
    from logfiber import morse

    argv = ["morse", torus_file, "--weights", "a=3,b=4"]
    monkeypatch.setattr(morse, "MAX_FIBER_CELLS", 11)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "fiber graph of 12 vertices and arcs exceeds the limit of 11" in err
    monkeypatch.setattr(morse, "MAX_FIBER_CELLS", 12)
    data = run_json(capsys, argv)
    assert (data["fiber"]["vertices"], data["fiber"]["edges"], data["chi"]) == (6, 6, 0)


@pytest.mark.parametrize("argv", [
    ["analyze", "{lot}", "--json"],
    ["transition", "{g2}", "--conjugator", "a1", "--json"],
    ["reducible-witness", "{g2}", "--conjugator", "a1", "--json"],
])
def test_a_second_run_leaves_no_cyclic_garbage(tmp_path, capsys, g2_file, argv):
    # the JSON writer builds no encoder for empty containers, and a dropped
    # `Analysis` is freed by reference counting alone
    import gc

    assert main(["build", "lot", "--k", "32"]) == 0
    lot = tmp_path / "lot.log"
    lot.write_text(capsys.readouterr().out, encoding="utf-8")
    argv = [arg.format(lot=lot, g2=g2_file) for arg in argv]
    assert main(argv) == 0  # fills the module caches
    capsys.readouterr()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert garbage == 0


def test_kernel_rank_reads_the_link_of_its_analysis(monkeypatch):
    from logfiber import Analysis, build_named, kernel_rank, unit_weights

    a = Analysis(build_named("g2"))
    ws = unit_weights(a.complex)
    assert a.link
    calls = count_calls(monkeypatch, "links", "build_link")
    assert kernel_rank(a, ws) == 7
    assert calls == []
    assert kernel_rank(a.complex, ws) == 7  # a complex gets a fresh analysis
    assert len(calls) == 1


def test_monodromy_builds_no_fiber_graph(capsys, monkeypatch, g2_file):
    # at unit weights the fiber is a one-vertex bouquet, so only the links are checked
    calls = count_calls(monkeypatch, "morse", "fiber_graph")
    assert run_json(capsys, ["monodromy", g2_file, "--conjugator", "a3"])
    assert calls == []


@pytest.mark.parametrize("check, unused", [("large", ("poison_rows", "poison_edges")),
                                           ("poison", ("largeness",))])
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_check_computes_only_what_it_prints(capsys, monkeypatch, g2_file, check, unused, flags):
    calls = [count_calls(monkeypatch, "links", name) for name in unused]
    assert main(["check", check, g2_file, *flags]) == 0
    assert capsys.readouterr().out
    assert calls == [[] for _ in unused]


@pytest.mark.parametrize("argv, reports", [
    (["link", "{g1}"], ["link_report"]),
    (["check", "large", "{g1}"], ["large_report"]),
    (["check", "poison", "{g1}"], ["poison_report"]),
    (["check", "flat", "{g1}", "--radius", "2"], ["flat_report"]),
    (["morse", "{g1}", "--weights", "a=1,b=1"], ["morse_report"]),
    (["fiberings", "{g1}", "--bound", "1"], ["fiberings_report"]),
    (["verdict", "{g1}"], ["verdict_report"]),
    (["monodromy", "{g1}", "--conjugator", "a0"], ["monodromy_report"]),
    (["transition", "{g1}", "--conjugator", "a0"], ["transition_report"]),
    (["reducible-witness", "{g1}", "--conjugator", "a0"], ["reducible_report"]),
    (["analyze", "{g1}", "--radius", "2"],
     ["complex_report", "link_report", "flat_report", "morse_report", "verdict_report"]),
])
def test_views_look_reports_up_when_they_run(capsys, monkeypatch, g1_file, argv, reports):
    # the benchmark's tracer times each report by rebinding `cli.<name>`
    import logfiber.cli as cli

    called = []
    for name in reports:
        def patched(*args, _name=name, _report=getattr(cli, name)):
            called.append(_name)
            return _report(*args)

        monkeypatch.setattr(cli, name, patched)
    assert main([arg.format(g1=g1_file) for arg in argv]) == 0
    capsys.readouterr()
    assert sorted(set(called)) == sorted(reports)


@pytest.mark.parametrize("argv", [["check", "flat", "{torus}", "--radius", "0"],
                                  ["check", "flat", "{torus}", "--radius", "-1"],
                                  ["analyze", "{torus}", "--radius", "0"]])
def test_nonpositive_radius_is_an_input_error(capsys, torus_file, argv):
    assert main([arg.format(torus=torus_file) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "disk radius must be >= 1" in captured.err


def test_flat_radius_limit(capsys, monkeypatch, torus_file):
    from logfiber import flatness

    def refuse(radius):
        raise AssertionError("the disk was built")

    monkeypatch.setattr(flatness, "disk_cells", refuse)
    radius = flatness.MAX_DISK_RADIUS + 1
    cells = 2 * radius * radius + 2 * radius + 1
    for argv in (["check", "flat", torus_file], ["analyze", torus_file]):
        assert main(argv + ["--radius", str(radius)]) == 1
        err = capsys.readouterr().err
        assert f"({cells} cells)" in err and "internal" not in err


def test_verdict_refuses_wide_lattices(tmp_path, capsys):
    path = tmp_path / "wide.log"
    path.write_text("generators " + " ".join(f"g{i}" for i in range(20)) + "\n",
                    encoding="utf-8")
    start = time.perf_counter()
    assert main(["verdict", str(path)]) == 1
    assert time.perf_counter() - start < 5.0  # trying every orthant takes minutes
    err = capsys.readouterr().err
    assert "1048576 orthants (lattice rank 20)" in err and "internal" not in err


def test_one_process_runs_many_commands_like_separate_processes(capsys, g2_file, torus_file):
    commands = [
        ["check", "flat", torus_file, "--radius", "2"],
        ["link", g2_file, "--json"],
        ["check", "flat", g2_file, "--json"],
        ["build", "named", "torus"],
        ["check", "flat", torus_file, "--radius", "0"],
        ["verdict", g2_file],
        ["analyze", g2_file, "--weights", "a1=1,a2=1,a3=1,a4=1,b1=1,b2=1,b3=1,b4=1"],
        ["check", "flat", torus_file, "--radius", "2"],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for argv in commands:
        status = main(argv)
        out = capsys.readouterr().out
        alone = subprocess.run([sys.executable, "-m", "logfiber", *argv], env=env,
                               capture_output=True, text=True, check=False)
        assert (status, out) == (alone.returncode, alone.stdout), argv


def test_import_cli_leaves_numpy_unloaded(g2_file):
    # numpy is a test-only dependency: neither a CLI start nor `transition` loads it
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = "import sys, logfiber.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
    argv = ["transition", g2_file, "--conjugator", "a3", "--json"]
    probe = ("import sys; from logfiber.cli import main;"
             f" status = main({argv!r}); print(status, 'numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("argv, lines", [
    (["fiberings", "--bound", "40", "--json"], 2),
    (["fiberings", "--bound", "40"], 2),
    (["analyze"], 0),
], ids=["json", "text", "buffered"])
def test_reader_leaving_early_ends_quietly(g2_file, argv, lines):
    # `logfiber fiberings g2.log --bound 40 --json | head -2`: both fiberings
    # reports far outgrow a pipe buffer, so a write meets the closed pipe; the
    # small analyze report is still buffered when the pipe closes
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen([sys.executable, "-m", "logfiber", argv[0], g2_file, *argv[1:]],
                            env={**os.environ, "PYTHONPATH": src},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines):
        assert proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr


def _triple5_text():
    from logfiber import build_lot_family, combine

    wedge = combine(build_lot_family(5, "a"), build_lot_family(5, "b"), "a0 b2 a1^-1 b0^-1")
    return combine(wedge, build_lot_family(5, "c"), "b0 c2 b1^-1 c0^-1").render()


@pytest.mark.parametrize("text, bound", [
    (_triple5_text(), "4"),
    ("generators β1 β2 a\nsquare β1 β2 β1^-1 β2^-1\nsquare a β2 a^-1 β2^-1\n", "2"),
])
def test_json_output_is_byte_identical_to_dumps(tmp_path, text, bound):
    from logfiber import cli, parse_spec
    from logfiber.analysis import Analysis

    path = tmp_path / "c.log"
    path.write_text(text, encoding="utf-8")
    stdout = CountingStdout()
    with contextlib.redirect_stdout(stdout):
        assert main(["fiberings", str(path), "--bound", bound, "--json"]) == 0
    out = stdout.getvalue()
    data = cli.fiberings_report(Analysis(parse_spec(text)), int(bound))
    assert out == json.dumps(data, indent=2, ensure_ascii=False) + "\n"
    if "β" in text:
        assert "β1" in out
    else:  # written one block of rows per write, never as one string
        rows, block, separator = data["table"], cli._TABLE_BLOCK, ",\n    "
        assert stdout.writes >= -(-len(rows) // block)
        texts = [json.dumps(row, indent=2, ensure_ascii=False).replace("\n", "\n    ")
                 for row in rows]
        longest = max(len(separator.join(texts[i:i + block])) for i in range(0, len(rows), block))
        # a block's write adds its separator, the first block's the table's key and bracket
        assert stdout.longest <= longest + len(',\n  "table": [\n    ')


class CountingStdout(io.StringIO):
    """A stdout that counts its `write` calls and keeps the longest one's length."""

    writes = longest = 0

    def write(self, text):
        self.writes += 1
        self.longest = max(self.longest, len(text))
        return super().write(text)


def view_argvs(path, c):
    """One argv per subcommand with a view in `cli.FILE_COMMANDS`, on the
    file ``path`` holding ``c``, with every required option filled in."""
    from logfiber import cli

    values = {"--weights": ",".join(f"{g}=1" for g in c.generators), "--bound": "2",
              "--conjugator": c.generators[0]}
    argvs = []
    for command, _, options, view in cli.FILE_COMMANDS:
        if view is not None:
            argvs.append([*command.split(), path])
            for flag, kwargs in options:
                if kwargs.get("required"):
                    argvs[-1] += [flag, values[flag]]
    return argvs


def test_json_renders_no_text(capsys, monkeypatch, g1_file):
    from logfiber import build_named, cli

    def refuse(*args):
        raise AssertionError("a text report was rendered")

    for name in dir(cli):
        if name.endswith("_text") and not name.startswith("_"):
            monkeypatch.setattr(cli, name, refuse)
    argvs = view_argvs(g1_file, build_named("g1"))
    assert len(argvs) == len(cli.VIEWS)
    for argv in argvs:
        assert main(argv + ["--json"]) == 0, argv
        json.loads(capsys.readouterr().out)
    assert main(argvs[0]) == 2  # without --json the patched renderer runs
    capsys.readouterr()


@pytest.mark.parametrize("name", ["g1", "g2", "gf", "torus", "triple5"])
def test_json_stdout_is_dumps_of_view_data(tmp_path, capsys, name):
    from logfiber import build_named, cli, parse_spec
    from logfiber.analysis import Analysis
    from logfiber.errors import InputError

    text = _triple5_text() if name == "triple5" else build_named(name).render()
    path = tmp_path / f"{name}.log"
    path.write_text(text, encoding="utf-8")
    parser = cli.build_parser()
    written = 0
    for argv in view_argvs(str(path), parse_spec(text)):
        status = main(argv + ["--json"])
        out = capsys.readouterr().out
        args = parser.parse_args(argv + ["--json"])
        try:
            data, _ = args.view(Analysis(parse_spec(text)), args)
        except InputError:
            assert (status, out) == (1, ""), argv
            continue
        assert status == 0 and out == json.dumps(data, indent=2, ensure_ascii=False) + "\n"
        written += 1
    assert written >= 8  # gf has no fiber-loop basis at unit weights


def test_link_rejects_a_bad_weight_spec(capsys, g2_file):
    for mode in ([], ["--json"]):
        assert main(["link", g2_file, "--weights", "zz=1"] + mode) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'zz' is neither a generator nor a stem of the complex" in captured.err


def test_link_highlight_refuses_inadmissible_weights(tmp_path, capsys, torus_file):
    dot = tmp_path / "x.dot"
    assert main(["link", torus_file, "--dot", str(dot), "--highlight", "asc",
                 "--weights", "a=1,b=0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: inadmissible weight system: zero weight on generator b\n"


def test_link_output_does_not_depend_on_a_valid_weight_spec(capsys, g2_file):
    for mode in ([], ["--json"]):
        assert main(["link", g2_file] + mode) == 0
        plain = capsys.readouterr().out
        assert main(["link", g2_file, "--weights", "a=2,b=-3"] + mode) == 0
        assert capsys.readouterr().out == plain


def test_transition_refuses_an_empty_basis(tmp_path, capsys):
    path = tmp_path / "free.log"
    path.write_text("generators a\n", encoding="utf-8")
    for mode in ([], ["--json"]):
        assert main(["transition", str(path), "--conjugator", "a"] + mode) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("the fiber-loop basis is empty; there is no transition matrix to classify"
                in captured.err)
    assert main(["reducible-witness", str(path), "--conjugator", "a"]) == 0
    assert capsys.readouterr().out.startswith("no invariant free-factor witness")


@pytest.fixture()
def lot17_and_gf_files(tmp_path):
    """LOT k=17, whose 17 basis loops exceed the witness search, and gf,
    whose unit weights give no fibration."""
    from logfiber import build_lot_family, build_named

    paths = {"lot17": tmp_path / "lot17.log", "gf": tmp_path / "gf.log"}
    paths["lot17"].write_text(build_lot_family(17).render(), encoding="utf-8")
    paths["gf"].write_text(build_named("gf").render(), encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


def test_reducible_witness_refuses_a_large_basis_before_rewriting(
        capsys, monkeypatch, lot17_and_gf_files):
    from logfiber import monodromy

    def refuse(*args):
        raise AssertionError("a basis image was rewritten")

    monkeypatch.setattr(monodromy.MonodromyContext, "rewrite", refuse)
    for mode in ([], ["--json"]):
        argv = ["reducible-witness", lot17_and_gf_files["lot17"], "--conjugator", "a0"]
        assert main(argv + mode) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "basis of size 17 is too large for exhaustive search" in captured.err


def test_peak_reduction_over_budget_is_an_input_error(tmp_path, capsys, monkeypatch):
    from logfiber import build_lot_family, monodromy

    path = tmp_path / "lot16.log"
    path.write_text(build_lot_family(16).render(), encoding="utf-8")
    argv = ["monodromy", str(path), "--conjugator", "a3 a9 a1 a14^-1 a7^-1", "--json"]
    assert main(argv) == 0  # at most 285 peak steps per image
    capsys.readouterr()
    monkeypatch.setattr(monodromy, "MAX_PEAK_STEPS", 50)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "peak reduction exceeds the budget of 50 steps" in captured.err
    assert "Traceback" not in captured.err and "internal invariant" not in captured.err


@pytest.mark.parametrize("command", ["monodromy", "transition", "reducible-witness"])
def test_monodromy_commands_report_errors_in_order(capsys, lot17_and_gf_files, command):
    # an unusable complex, then a malformed conjugator, then its weight,
    # then (for the witness search) the basis size
    cases = [("gf", "a0%", "ascending link is not a tree"),
             ("lot17", "a0%", "cannot parse letter 'a0%'"),
             ("lot17", "a0 a0", "weight 2 not in -1..1")]
    if command == "reducible-witness":
        cases.append(("lot17", "a0", "basis of size 17 is too large"))
    for name, conjugator, message in cases:
        assert main([command, lot17_and_gf_files[name], "--conjugator", conjugator]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, (name, conjugator)


def test_analyze_roots_no_link_tree(capsys, monkeypatch, g2_file):
    # analyze builds a MonodromyContext for its basis only; routes are never asked for
    from logfiber import monodromy

    def refuse(*args):
        raise AssertionError("a link tree was rooted")

    monkeypatch.setattr(monodromy.MonodromyContext, "_tree", refuse)
    assert run_json(capsys, ["analyze", g2_file])["monodromy"]["basis"]


def test_analyze_builds_no_crossing_table(capsys, monkeypatch, g2_file):
    # the crossing table is built on the first rewrite, and analyze rewrites nothing
    from logfiber import monodromy

    contexts = []
    init = monodromy.MonodromyContext.__init__

    def keep(self, *args):
        init(self, *args)
        contexts.append(self)

    monkeypatch.setattr(monodromy.MonodromyContext, "__init__", keep)
    assert run_json(capsys, ["analyze", g2_file])["monodromy"]["basis"]
    assert len(contexts) == 1 and "_crossings" not in vars(contexts[0])
