"""Command-line interface: subcommands, JSON schemas, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from logfiber.cli import SCHEMAS, main


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
                             ("links", "poison_corners"), ("morse", "weight_lattice"))
    }
    assert main(["analyze", str(path), "--json"]) == 0
    capsys.readouterr()
    assert {name: len(calls) for name, calls in counted.items()} == dict.fromkeys(counted, 1)


@pytest.mark.parametrize("argv, reports", [
    (["link", "{g1}"], ["link_report"]),
    (["check", "large", "{g1}"], ["link_report"]),
    (["check", "poison", "{g1}"], ["link_report"]),
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
    else:  # written row by row, never as one string
        assert stdout.writes > len(data["table"])


class CountingStdout(io.StringIO):
    """A stdout that counts its `write` calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
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
