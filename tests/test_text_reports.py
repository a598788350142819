"""Text reports pinned by sha256.

The benchmark and the CI smoke runs pin ``--json`` reports and DOT files;
these pins hold the text stdout of every file subcommand on g2, of
`analyze` on LOT k=64 and of `check flat` on the torus, which prints a
witness disk.  Every bench link is large, so the link reports of two LOGs
that are not are pinned here too, text and ``--json``, with their DOT
files: "bigons" has bigons and triangles (girth 2), "triangle" one
triangle (girth 3).  Each command runs through `cli.main` in this process.
"""

import contextlib
import hashlib
import io

import pytest

from logfiber import build_lot_family, build_named, cli

BIGONS_LOG = """generators a0 a1 a2 a3 a4 a5
edge label=a3 from=a5 to=a1
edge label=a4 from=a3 to=a2
edge label=a2 from=a5 to=a1
edge label=a3 from=a4 to=a1
edge label=a2 from=a3 to=a4
edge label=a3 from=a5 to=a0
"""
TRIANGLE_LOG = """generators a0 a1 a2 a3 a4 a5
edge label=a4 from=a0 to=a2
edge label=a1 from=a3 to=a2
edge label=a1 from=a0 to=a3
edge label=a5 from=a2 to=a3
edge label=a4 from=a2 to=a5
"""

# input name -> the text of its file
INPUTS = {"g2": lambda: build_named("g2").render(), "torus": lambda: build_named("torus").render(),
          "lot64": lambda: build_lot_family(64).render(), "bigons": lambda: BIGONS_LOG,
          "triangle": lambda: TRIANGLE_LOG}

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
    (["link"], "bigons", [], "133cafefa39ddc9f366456bde93c8877c1ff8bd26554c4d84372c367dd2ffb12"),
    (["link"], "bigons", ["--json"],
     "35ef4f22d0a4be2d8c4fe49c3bd70b4869fde6f7754f15042e60264f15b87f56"),
    (["check", "large"], "bigons", [],
     "94a7237320d0c5b3bc3641a85f71ca4dccd60a9298f2136dd6b13a2475af6ed3"),
    (["check", "large"], "bigons", ["--json"],
     "a8e157437bc63a905192ed80bc58b2889aa577e739eae71bb9727f2d57214a47"),
    (["check", "poison"], "bigons", [],
     "73fa9eb6495c9bec2ab9f02488fa90a40c5ecdb0fd9c5a6eb7d73e030dfc157f"),
    (["check", "poison"], "bigons", ["--json"],
     "3facb73060bc628ef4c1463ea29c908adbbe63109d4bf23f3ef2fb6939025387"),
    (["check", "flat"], "bigons", [],
     "9bfb0d1a1b58d0d5c8c221c8425e7298ba6f9d44df3ed2c58334ab66d76434ae"),
    (["check", "flat"], "bigons", ["--json"],
     "c6f19e236ca3d93508d1ad0801b3278fa02fe9e0030ceadc82f73cf510fbe98d"),
    (["link"], "triangle", [], "a038c2c18ad754c2fda3ee029f6d4af2d00c3cfab4f8fc4ff3af6b3ca289ff29"),
    (["link"], "triangle", ["--json"],
     "4b563558bbe86bb41173c285d90931ae7bca6ad6b265bc90679f9b5135991545"),
    (["check", "large"], "triangle", [],
     "b24cc88b7806c3cc24e89486f94df198b1148d4469100e8798bf201d0c1c4324"),
    (["check", "large"], "triangle", ["--json"],
     "6788f3c651b134963fed53c9dc31c93a3db969300adea5169e7a869239b7ce06"),
    (["check", "poison"], "triangle", [],
     "51b476cce6cc9360784a2b65f2245ec3277190b3839dcafd513597b05b63679e"),
    (["check", "poison"], "triangle", ["--json"],
     "f81ef6988156405635926c3913cd04c1ae1d60a7d8fa79fc7256121c454a7833"),
    (["check", "flat"], "triangle", [],
     "5231652e14a3f55dbff7c1bcbe209ef1f8d015c5663617575b5fb30f59ab5166"),
    (["check", "flat"], "triangle", ["--json"],
     "1f3ee428fe0074dc02f459ae63d7e9c8018f48fd629008930f87498dd08dede3"),
]

# (input, `link --dot` options, sha256 of the DOT file); the g2 pins are CI's
DOT_PINS = [
    ("g2", ["--highlight", "desc", "--weights", "a=1,b=-1"],
     "433e7788f96a9cdf3e7c8f3d3f529f3ce70c1284ebe763c60ef9aaf7b317de2c"),
    ("g2", ["--highlight", "poison"],
     "c6074d817c763dece9dfd0cf9265806995b9afa29a0e5cbc2e0848b530e7c41f"),
    ("g2", ["--highlight", "asc"],
     "1b0d9c7fdef950093e536c60e11cad3962fe909b234d320eeb274ef653c7757f"),
    ("bigons", ["--highlight", "poison"],
     "c0e89dc849d9cf6d2abfcb713d770b04d7bbc26e365ffb28c52e3225c845b138"),
    ("triangle", ["--highlight", "poison"],
     "ce8361334fb09bfe6c07e514e1d3a2bae29eb5ba5226f8c55c1eb2ff4ee6a3eb"),
]


def test_every_file_subcommand_is_pinned_on_g2():
    pinned = {" ".join(words) for words, name, _, _ in PINS if name == "g2"}
    assert pinned == {command for command, _, _, view in cli.FILE_COMMANDS if view is not None}


@pytest.mark.parametrize("words, name, options, digest", PINS,
                         ids=[" ".join(words) + " " + name + " --json" * ("--json" in options)
                              for words, name, options, _ in PINS])
def test_text_report_matches_pinned_hash(tmp_path, words, name, options, digest):
    path = tmp_path / f"{name}.log"
    path.write_text(INPUTS[name](), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*words, str(path), *options]) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("name, options, digest", DOT_PINS,
                         ids=[f"{name} {options[1]}" for name, options, _ in DOT_PINS])
def test_dot_file_matches_pinned_hash(tmp_path, name, options, digest):
    path, dot = tmp_path / f"{name}.log", tmp_path / f"{name}.dot"
    path.write_text(INPUTS[name](), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["link", str(path), "--dot", str(dot), *options]) == 0
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == digest
