"""The file parser on generated input.

Every valid complex survives `render` then `parse_spec`, and any text at
all gives either a complex or an `InputError`, never another exception.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from logfiber import InputError, SquareComplex, Word, parse_spec

# valid generator names: letters of any script, then ASCII digits only
names = st.from_regex(r"[^\W\d_]{1,3}[0-9]{0,2}", fullmatch=True)


@st.composite
def complexes(draw) -> SquareComplex:
    gens = draw(st.lists(names, min_size=1, max_size=6, unique=True))
    title = draw(st.none() | st.from_regex(r"[\w ,.=^-]{0,12}", fullmatch=True).map(str.strip))
    c = SquareComplex(gens, provenance=[] if title is None else [f"name: {title}"])
    letters = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    for boundary in draw(st.lists(st.lists(letters, min_size=4, max_size=4), max_size=6)):
        word = Word(boundary)
        if word.is_cyclically_reduced():
            c.append_square(word, draw(st.sampled_from(("added", "square-line"))))
    return c


@settings(max_examples=200, deadline=None)
@given(complexes())
def test_render_then_parse_round_trips(c):
    again = parse_spec(c.render())
    assert again == c
    assert [sq.origin == "added" for sq in again.squares] == [
        sq.origin == "added" for sq in c.squares]
    assert again.render() == c.render()


# statement-shaped lines over a few shared names, so that most lines reach
# the statement parsers and many squares and edges name declared generators
pool = st.sampled_from(["a", "b", "c", "a0"])
letters = pool | pool.map(lambda g: g + "^-1") | pool.map(lambda g: g + "-")
junk = (names | st.text(max_size=4)
        | st.sampled_from(["label=a", "from=b", "to=c", "label=", "=a", "a=b=c", "^-1", "-",
                           "a^-1^-1", "1a", "a_b", "a٢", "#", "# added"]))
heads = st.sampled_from(["generators", "square", "edge", "name", "Square", ""])
lines = (st.builds(lambda head, words: " ".join([head, *words]), heads,
                   st.lists(letters | letters | junk, max_size=6))
         | st.builds("edge label={} from={} to={}".format, pool, pool, pool))


@settings(max_examples=300, deadline=None)
@given(st.builds(lambda head, body: "\n".join(head + body),
                 st.sampled_from([[], ["generators a b c a0"], ["generators a b"]]),
                 st.lists(lines, max_size=8))
       | st.text())
@example("generators a b\nsquare a b\n")
@example("square a b a^-1 b^-1\ngenerators a b\n")
@example("generators a b\nedge label=a from=b to=a\n")
@example("generators a a\n")
@example("generators a 1x\n")
def test_any_text_parses_or_is_an_input_error(text):
    try:
        c = parse_spec(text)
    except InputError:
        return
    assert isinstance(c, SquareComplex)
    assert parse_spec(c.render()) == c
