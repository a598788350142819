"""Start-up cost guards: the records are `collections.namedtuple`s.

`dataclasses` costs more to import and to apply than everything else in a
CLI start, and `typing.NamedTuple` pays a metaclass per record, so no
logfiber module may load either.  The records hash as their field tuples,
exactly as the frozen dataclasses did, so the iteration order of every set
and dict keyed by them is unchanged.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from logfiber import (
    AdmissibilityReport,
    Automorphism,
    BasisLoop,
    CornerEdge,
    DirectionalLink,
    DiskWitness,
    FiberGraph,
    Square,
    TransitionMatrix,
    Verdict,
    Word,
    square_corners,
    square_tiles,
)
from logfiber.flatness import Tile
from logfiber.links import LargenessReport

SRC = Path(__file__).resolve().parent.parent / "src"
W = Word.parse("a b a^-1 b^-1")

# (instance, _fields, _field_defaults, repr) of every record; fields that hold
# lists or dicts in use hold tuples here, so that every instance hashes
RECORDS = [
    (Square(3, W, "added"), ("index", "boundary", "origin"), {"origin": ""},
     "Square(index=3, boundary=Word('a b a^-1 b^-1'), origin='added')"),
    (CornerEdge(3, 1, (("a", "+"), ("b", "-"))), ("square", "corner", "ends"), {},
     "CornerEdge(square=3, corner=1, ends=(('a', '+'), ('b', '-')))"),
    (LargenessReport(True, None, ()), ("is_large", "girth", "violations"), {},
     "LargenessReport(is_large=True, girth=None, violations=())"),
    (Tile(2, 1, True, W.letters, (1, 2, 3, 0)), ("square", "rot", "refl", "sides", "corner_at"),
     {}, "Tile(square=2, rot=1, refl=True, sides=(('a', 1), ('b', 1), ('a', -1), ('b', -1)),"
         " corner_at=(1, 2, 3, 0))"),
    (DiskWitness(1, (((0, 0), (2, 1, True)),)), ("radius", "placement"), {},
     "DiskWitness(radius=1, placement=(((0, 0), (2, 1, True)),))"),
    (Verdict("HyperbolicCertA", eligible=()), ("tag", "radius", "witness", "eligible", "details"),
     {"radius": None, "witness": None, "eligible": None, "details": ""},
     "Verdict(tag='HyperbolicCertA', radius=None, witness=None, eligible=(), details='')"),
    (AdmissibilityReport(False, ("zero weight on generator a",)), ("admissible", "problems"), {},
     "AdmissibilityReport(admissible=False, problems=('zero weight on generator a',))"),
    (DirectionalLink("ascending", (("a", "-"), ("b", "-")), (0, 5), True, 1),
     ("side", "vertices", "edges", "is_tree", "components"), {},
     "DirectionalLink(side='ascending', vertices=(('a', '-'), ('b', '-')), edges=(0, 5),"
     " is_tree=True, components=1)"),
    (FiberGraph((("*", 0),), ((("*", 0), ("*", 0), 0, 0),), -1, True, 1),
     ("vertices", "edges", "chi", "connected", "components"), {},
     "FiberGraph(vertices=(('*', 0),), edges=((('*', 0), ('*', 0), 0, 0),), chi=-1,"
     " connected=True, components=1)"),
    (BasisLoop(0, "α0", W, W.letters), ("square", "name", "rep", "rotated"), {},
     "BasisLoop(square=0, name='α0', rep=Word('a b a^-1 b^-1'),"
     " rotated=(('a', 1), ('b', 1), ('a', -1), ('b', -1)))"),
    (Automorphism((("α0", W),), W, "inner", None), ("images", "conjugator", "tag", "context"), {},
     "Automorphism(images=(('α0', Word('a b a^-1 b^-1')),), conjugator=Word('a b a^-1 b^-1'),"
     " tag='inner', context=None)"),
    (TransitionMatrix(("α0",), ((1,),), True, True, 1),
     ("order", "matrix", "irreducible", "primitive", "witness_power"), {},
     "TransitionMatrix(order=('α0',), matrix=((1,),), irreducible=True, primitive=True,"
     " witness_power=1)"),
]


def _fresh_import_loads(module):
    """Whether a fresh ``python -S`` that imports `logfiber.cli` loads ``module``.

    -S skips `site`, whose .pth files may import `typing` into every
    interpreter; pytest itself imports `dataclasses` and `typing`."""
    probe = f"import sys, logfiber.cli; print({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    return done.stdout.strip() == "True"


def test_import_cli_leaves_dataclasses_unloaded():
    assert not _fresh_import_loads("dataclasses")


def test_import_cli_leaves_typing_unloaded():
    assert not _fresh_import_loads("typing")


def test_no_module_imports_typing():
    # the static twin of the probe above: it also sees imports inside functions
    pattern = re.compile(r"^\s*(import typing\b|from typing import)", re.MULTILINE)
    sources = sorted((SRC / "logfiber").glob("*.py"))
    assert len(sources) > 5
    assert [path.name for path in sources if pattern.search(path.read_text(encoding="utf-8"))] == []


@pytest.mark.parametrize("record, fields, defaults, text", RECORDS,
                         ids=[type(row[0]).__name__ for row in RECORDS])
def test_record_shape(record, fields, defaults, text):
    kind = type(record)
    assert (kind._fields, kind._field_defaults, repr(record)) == (fields, defaults, text)
    assert hash(record) == hash(tuple(record))
    assert type(record._replace()) is kind
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, fields[0], 0)


def test_records_hash_as_their_field_tuples():
    sq = Square(3, Word.parse("a b a^-1 b^-1"), "added")
    assert hash(sq) == hash((3, sq.boundary, "added"))
    edge = CornerEdge(3, 1, (("a", "+"), ("b", "-")))
    assert hash(edge) == hash((3, 1, (("a", "+"), ("b", "-"))))
    assert square_corners(sq)[1] == edge
    for tile in square_tiles(sq):
        assert hash(tile) == hash((tile.square, tile.rot, tile.refl, tile.sides, tile.corner_at))


def test_records_are_immutable_and_replace_by_copy():
    sq = Square(0, Word.parse("a b a^-1 b^-1"))
    moved = sq._replace(index=5)
    assert (sq.index, moved.index, moved.boundary, moved.origin) == (0, 5, sq.boundary, "")
    with pytest.raises(AttributeError):
        sq.index = 1
