"""Text reports pinned by sha256.

The benchmark and the CI smoke runs pin ``--json`` reports and DOT files;
these pins hold the text stdout of every file subcommand on g2, of
`analyze` on LOT k=64 and of `check flat` on the torus, which prints a
witness disk.  Each command runs through `cli.main` in this process.
"""

import contextlib
import hashlib
import io

import pytest

from logfiber import build_lot_family, build_named, cli

INPUTS = {"g2": lambda: build_named("g2"), "torus": lambda: build_named("torus"),
          "lot64": lambda: build_lot_family(64)}

# (subcommand words, input, options, sha256 of stdout)
PINS = [
    (["link"], "g2", [], "9f072ae5587f77bd2719c52b8413661d62dcd2484d251bfca1ae9e2de20e2833"),
    (["check", "large"], "g2", [],
     "68c2b275eb3aabf6bfb442890a0003612892513586ad6899668f21add6979c11"),
    (["check", "poison"], "g2", [],
     "09bd80ad75d9070a03c9b922114dfa25d06523f1189d1730fdf743c83d4d6ce3"),
    (["check", "flat"], "g2", [],
     "8e408bed3d592dd0dce6763d6f9ab8660487614d178e38ec399b29c2a977aea1"),
    (["morse"], "g2", ["--weights", "a=-3,b=2"],
     "bf8b7e307a4a570845425b045891ad500e5f00a4be92b63227c073e267cc5629"),
    (["fiberings"], "g2", ["--bound", "2"],
     "3ecc19a89444323fed66c9304e1f06acebc31a2da1ba39a20230ab4f36e2c0d7"),
    (["verdict"], "g2", [], "7c488b6cd0576bd4c0c33042e0c476452f465ff693ea5def3f810a15783f74fb"),
    (["monodromy"], "g2", ["--conjugator", "a3"],
     "b68a1fe43afd02e5afa8119b967739d2bf0539a0da37f645e8a21122cebd15d4"),
    (["transition"], "g2", ["--conjugator", "a3"],
     "95dc5f7c412baed1327d481c33f94896ba8c0c06edc92ce4f7e99ff3d3e13e7a"),
    (["reducible-witness"], "g2", ["--conjugator", "a3"],
     "4b54531d758856591b4ccb445b4e871752d4a4ebc3a4b33671cc62fb9df582d8"),
    (["analyze"], "g2", [], "d9bb03f0b61f74c46d9894c6f28ba0947fa78ba571fc6e274701ab2aa369be57"),
    (["analyze"], "lot64", [], "98cf321f87e9859dddba98e80d0835a92774bd8a7c337be9665839b92f16cea4"),
    (["check", "flat"], "torus", [],
     "dac1e6ec95df80a41630bb0c66ac4bda3695d8b2e1d8e351fd1bbb12b59c7c4c"),
]


def test_every_file_subcommand_is_pinned_on_g2():
    pinned = {" ".join(words) for words, name, _, _ in PINS if name == "g2"}
    assert pinned == {command for command, _, _, view in cli.FILE_COMMANDS if view is not None}


@pytest.mark.parametrize("words, name, options, digest", PINS,
                         ids=[" ".join(words) + " " + name for words, name, _, _ in PINS])
def test_text_report_matches_pinned_hash(tmp_path, words, name, options, digest):
    path = tmp_path / f"{name}.log"
    path.write_text(INPUTS[name]().render(), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*words, str(path), *options]) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest
