"""Start-up cost guards: the records are named tuples, not dataclasses.

`dataclasses` costs more to import and to apply than everything else in a
CLI start, so no logfiber module may load it.  The records hash as their
field tuples, exactly as the frozen dataclasses did, so the iteration order
of every set and dict keyed by them is unchanged.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from logfiber import CornerEdge, Square, Word, square_corners, square_tiles


def test_import_cli_leaves_dataclasses_unloaded():
    # a fresh interpreter: pytest itself imports dataclasses
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = "import sys, logfiber.cli; print('dataclasses' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


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
