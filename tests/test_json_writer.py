"""The CLI's JSON writer against ``json.dumps(indent=2, ensure_ascii=False)``.

`cli._write_json` lays out values one column (the values at one depth) at
a time: exact ints as they are, strings encoded, ``true``, ``false`` and
``null`` looked up, and containers filled from the column of their items or
values, in parts by kind, list length and dict key tuple; it hands anything
unusual to the stdlib.  Its bytes are checked on generated values that
reach every branch: awkward strings, big ints, subclasses, floats, non-str
keys, tuples and empty containers.  Tables (lists of dicts), which it writes in blocks of
rows, get their own generator: one or two interleaved key tuples, list and
dict columns of one shape, and an odd cell that puts a second kind, length
or key tuple into its column.
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


def assert_writes_as_dumps(value):
    """Assert that the writer writes ``value`` as ``json.dumps`` does, and
    name the first line that differs.  This is no bare ``assert ==``: pytest
    explains a failed one by diffing the two texts, which takes seconds on a
    long table, and shrinking a failure meets hundreds of them."""
    text, expected = written(value), json.dumps(value, indent=2, ensure_ascii=False) + "\n"
    if text != expected:
        pairs = enumerate(zip(text.split("\n") + ["<end>"], expected.split("\n") + ["<end>"]), 1)
        line, (got, want) = next((line, pair) for line, pair in pairs if pair[0] != pair[1])
        raise AssertionError(f"line {line}: wrote {got!r}, json.dumps wrote {want!r}")


def without_the_c_encoder(monkeypatch):
    """Make the writer encode strings, keys included, with the stdlib's
    pure-Python encoder, as on an interpreter built without ``_json``."""
    monkeypatch.setattr(cli, "_JSON_STRING", json.encoder.py_encode_basestring)
    cli._json_template.cache_clear()  # its templates encode their keys alike either way
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)


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
# lists of exact ints, joined from the small-int texts: negative ints, ints of
# 256 and above, big ints, and a bool or an int subclass among them
@example({"matrix": [[0, 1, 255, 256, 1023, 1024], [-1, -256, -257, 300, 16, 0]]})
@example([2**70, -(2**70), 2**64, 7, -7])
@example([[1, True, 2], (0, False), [1, Number(2), 3], [Loud(1), 2]])
# columns a column layout can get wrong: lists of lists mixing empty and
# non-empty lengths, a column of empty dicts, a lone dict of scalars beside a
# lone dict holding a list, ints mixed with None, bare top-level scalars,
# and a % in a key and in a value
@example([[], [1], []])
@example([[], []])
@example([[[], [1], []], [[]], []])
@example([{}, {}, {}])
@example({"a": [{}, {}], "b": {}})
@example([{"a": 1, "b": "x", "c": None}, {"d": [1, "y"], "e": True}])
@example({"s": {"a": 1, "b": "x", "c": None}, "l": {"d": [1, "y"], "e": True}})
@example([1, None, 2, None, -3])
@example({"n": [1, None, 2], "m": [None, None]})
@example(7)
@example("β%s")
@example({"%s": "%d", "100%": ["%", {"%%": "%(x)s"}]})
# interleaved key tuples, lengths and kinds, merged back in row order, and
# a table (a list whose first item is a dict) with rows that are not dicts
@example([{"a": 1}, {"b": "x"}, {"a": 2}, {"b": "y"}, {"a": 3}])
@example([{"a": 1}, 5, [2], None, "x"])
@example([[1], [1, 2], [3], [4, 5], []])
@example([1, "a", [2], 3, "b", [4], None])
def test_writer_matches_dumps(value):
    assert_writes_as_dumps(value)


def test_writer_matches_dumps_without_the_c_encoder(monkeypatch):
    without_the_c_encoder(monkeypatch)
    test_writer_matches_dumps()


cells = st.one_of(st.text(st.sampled_from('\n"\\%aβ') | st.characters(), max_size=5),
                  st.integers(), st.integers(min_value=2**64, max_value=2**80),
                  st.booleans(), st.none())
table_keys = st.lists(st.text(st.sampled_from('%"\\β\n aé'), max_size=4), max_size=5,
                      unique=True)
# per column: None for a scalar column, n for lists of n scalars, a key tuple for dicts
shapes = st.none() | st.integers(0, 3) | table_keys.map(tuple)
# an odd cell puts a second kind, length or key tuple into its column:
# ragged lists, other dict keys, deeper nesting
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
# each odd cell alone, after rows of one shape
@example([{"a": [1, 2], "b": {"x": 1}}] * 3 + [{"a": [1, 2, 3], "b": {"x": 1}}])
@example([{"a": [1, 2], "b": {"x": 1}}] * 3 + [{"a": [1, 2], "b": {"y": 1}}])
@example([{"a": [1], "c": 1}] * 2 + [{"a": [[1]], "c": 1}] + [{"a": [1], "c": [[]]}])
@example([{"c": 1}, {"c": [[1]]}, {"c": 1.5}, {"c": Text("t")}, {"c": Number(2)}])
# lists of several lengths next to a string column, as `reducible-witness`
# writes them
@example([{"subset": ["α1", "β2"][:i % 3], "conjugator": "α1 γ8^-1"[:i]} for i in range(20)])
# exact ints fill their templates as they are: all of them, next to bool
# columns and a column of ints and bools, an int subclass with its own str,
# negative and big ints, and ints in a fixed-key dict column shaped like
# `weights`
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
    assert_writes_as_dumps(value)


def test_tables_match_dumps_without_the_c_encoder(monkeypatch):
    without_the_c_encoder(monkeypatch)
    test_tables_match_dumps()
