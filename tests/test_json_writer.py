"""The CLI's JSON writer against ``json.dumps(indent=2, ensure_ascii=False)``.

`cli._write_json` lays out flat containers with the C encoder, joins the
rest itself and hands anything unusual to the stdlib, so its bytes are
checked on generated values that reach every branch: awkward strings, big
ints, subclasses, floats, non-str keys, tuples and empty containers.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from logfiber import cli


class Text(str):
    pass


class Number(int):
    pass


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
# the edge of the all-int dict path: a bool or an int subclass among ints, big and
# negative ints, and all-int dicts two levels deep in a list
@example({"a": True, "b": 2})
@example({"a": Number(3), "b": 2})
@example({"a": 2**80, "b": -(2**80), "c": -1, "d": 0})
@example([[{"a0": 1, "a1": -2}, {"b": 3}], {"w": {"x": -4}}])
def test_writer_matches_dumps(value):
    assert written(value) == json.dumps(value, indent=2, ensure_ascii=False) + "\n"


def test_writer_matches_dumps_without_the_c_encoder(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    test_writer_matches_dumps()

