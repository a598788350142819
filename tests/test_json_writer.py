"""The CLI's JSON writer against ``json.dumps(indent=2, ensure_ascii=False)``.

`cli._write_json` lays out flat containers with the C encoder, joins the
rest itself and hands anything unusual to the stdlib, so its bytes are
checked on generated values that reach every branch: awkward strings, big
ints, subclasses, floats, non-str keys, tuples and empty containers.  Tables
(lists of dicts), which it lays out by column in blocks of rows, get their
own generator: one or two interleaved key tuples, list and dict columns of
one shape, and an odd cell that sends its key tuple's rows in that block
back to the row-by-row path.
"""

import contextlib
import io
import json
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from logfiber import cli


class Text(str):
    pass


class Number(int):
    pass


class Loud(int):
    def __str__(self):  # what ``%s`` would print; JSON prints int.__repr__
        return "loud"


strings = st.text(st.sampled_from('"\\\x00\x07\n\x1f\x7f[]{},: aβ \U0001F600')
                  | st.characters(), max_size=6)
scalars = st.one_of(
    strings,
    st.integers(),
    st.integers(min_value=2**64, max_value=2**80),
    st.integers(max_value=-(2**64)),
    st.booleans(),
    st.none(),
    st.floats(),
    st.builds(Text, strings),
    st.builds(Number, st.integers()),
)
keys = strings | st.integers() | st.floats(allow_nan=False) | st.booleans() | st.none()
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=24,
)


def written(value) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_json(value)
    return out.getvalue()


FLAT_AT_EVERY_DEPTH = {
    "table": [{"coords": [1, -2], "weights": {"a": 3, "b": None}, "note": "x\ny", "empty": []},
              [[1, 2], (True, "β")], {}],
    "n": 2**70,
}


@settings(max_examples=250, deadline=None)
@given(values)
@example(FLAT_AT_EVERY_DEPTH)
# dicts of ints with a bool or an int subclass among them, big and negative
# ints, and all-int dicts two levels deep in a list
@example({"a": True, "b": 2})
@example({"a": Number(3), "b": 2})
@example({"a": 2**80, "b": -(2**80), "c": -1, "d": 0})
@example([[{"a0": 1, "a1": -2}, {"b": 3}], {"w": {"x": -4}}])
def test_writer_matches_dumps(value):
    assert written(value) == json.dumps(value, indent=2, ensure_ascii=False) + "\n"


def test_writer_matches_dumps_without_the_c_encoder(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    test_writer_matches_dumps()


cells = st.one_of(st.text(st.sampled_from('\n"\\%aβ') | st.characters(), max_size=5),
                  st.integers(), st.integers(min_value=2**64, max_value=2**80),
                  st.booleans(), st.none())
table_keys = st.lists(st.text(st.sampled_from('%"\\β\n aé'), max_size=4), max_size=5,
                      unique=True)
# per column: None for a scalar column, n for lists of n scalars, a key tuple for dicts
shapes = st.none() | st.integers(0, 3) | table_keys.map(tuple)
# an odd cell sends its rows of a block row by row: ragged lists, other dict keys, deeper nesting
odd_cells = st.one_of(st.floats(), st.builds(Text, strings), st.builds(Number, st.integers()),
                      st.lists(st.integers(), min_size=4, max_size=5),
                      st.dictionaries(strings, cells, min_size=1, max_size=2),
                      st.lists(st.lists(st.integers(), max_size=2), max_size=3))


@st.composite
def tables(draw):
    """0-300 rows of one or two key tuples, each column's cells drawn from a
    small pool of its shape; with at most one odd cell, nested 0-3 dicts deep."""
    kinds = []
    for _ in range(draw(st.integers(1, 2))):
        keys = draw(table_keys)
        kinds.append([(key, draw(st.lists(shape_cells(draw(shapes)), min_size=1, max_size=6)))
                      for key in keys])
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [{key: rng.choice(pool) for key, pool in rng.choice(kinds)}
            for _ in range(draw(st.integers(0, 300)))]
    odd = draw(st.none() | odd_cells)
    if odd is not None and rows and (row := rng.choice(rows)):
        alike = [key for key, cell in row.items() if type(cell) is type(odd)]
        row[rng.choice(alike or list(row))] = odd
    for _ in range(draw(st.integers(0, 3))):
        rows = {"n": 1, "table": rows}
    return rows


def shape_cells(shape):
    if shape is None:
        return cells
    if isinstance(shape, int):
        return st.lists(cells, min_size=shape, max_size=shape)
    return st.fixed_dictionaries({key: cells for key in shape})


@settings(max_examples=150, deadline=None)
@given(tables())
@example([{"coords": [1, -2], "weights": {"%a": 3, "b": None}, "ok": True},
          {"coords": [0, 5], "weights": {"%a": -1, "b": 2**70}, "ok": None, "note": "x\ny"}])
@example([{"k": [], "d": {}}] * 70 + [{}] * 3)
# each odd cell alone, after rows that lay out by column
@example([{"a": [1, 2], "b": {"x": 1}}] * 3 + [{"a": [1, 2, 3], "b": {"x": 1}}])
@example([{"a": [1, 2], "b": {"x": 1}}] * 3 + [{"a": [1, 2], "b": {"y": 1}}])
@example([{"a": [1], "c": 1}] * 2 + [{"a": [[1]], "c": 1}] + [{"a": [1], "c": [[]]}])
@example([{"c": 1}, {"c": [[1]]}, {"c": 1.5}, {"c": Text("t")}, {"c": Number(2)}])
# exact-int columns skip the encoder: all of them, next to bool columns and
# a column of ints and bools, an int subclass with its own str, negative
# and big ints, and ints in a fixed-key dict column shaped like `weights`
@example([{"coords": [k, -k], "weights": {"a": 3, "b": -k}, "chi": k} for k in range(5)])
@example([{"c": [1, True], "n": 2, "ok": False}, {"c": [0, 2], "n": -1, "ok": True}])
@example([{"c": [1], "n": Loud(3)}, {"c": [2], "n": 4}])
@example([{"c": [Loud(1), 2], "n": 5}] * 2)
@example([{"c": [-(2**70), 2**64 + 1], "n": -5}, {"c": [2**64, -1], "n": -(2**64)}])
@example([{"coords": [1, 0], "weights": {"a0": 1, "a1": -1, "b": 2**65}, "admissible": True,
           "chi": None},
          {"coords": [0, -1], "weights": {"a0": -2, "a1": 7, "b": -(2**65)}, "admissible": False,
           "chi": -3}])
def test_tables_match_dumps(value):
    assert written(value) == json.dumps(value, indent=2, ensure_ascii=False) + "\n"


def test_tables_match_dumps_without_the_c_encoder(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    test_tables_match_dumps()
