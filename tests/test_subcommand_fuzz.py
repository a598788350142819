"""Every subcommand that reads a complex, on generated small complexes.

Each `cli.FILE_COMMANDS` view runs with cheap options (radius 1, bound 1,
weights ±1 or ±2, a one-letter conjugator), in text or JSON mode.  A run
may refuse its input (exit 1) but must never end in an internal invariant
violation (exit 2), an exception or a traceback on stderr.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logfiber import SquareComplex, Word, build_lot_family, cli

GENERATORS = ("a0", "a1", "b", "c", "d")


@st.composite
def cases(draw) -> tuple[SquareComplex, list[int], str]:
    """The squares of a LOT family complex (k = 4 or 5, which fibers at unit
    weights) or of 1-4 random generators, plus 0-2 random squares; weights
    all 1, ±1 or ±1/±2; and a one-letter conjugator."""
    if draw(st.booleans()):
        lot = build_lot_family(draw(st.integers(4, 5)))
        gens, squares = lot.generators, [sq.boundary.letters for sq in lot.squares]
    else:
        gens = draw(st.lists(st.sampled_from(GENERATORS), min_size=1, max_size=4, unique=True))
        squares = []
    gen, sign = st.sampled_from(gens), st.sampled_from((1, -1))
    squares += draw(st.lists(st.lists(st.tuples(gen, sign), min_size=4, max_size=4), max_size=2))
    c = SquareComplex(gens)
    for letters in squares:
        word = Word(letters)
        if word.is_cyclically_reduced():
            c.append_square(word)
    choices = draw(st.sampled_from(((1,), (1, -1), (1, -1, 2, -2))))
    weights = draw(st.lists(st.sampled_from(choices), min_size=len(gens), max_size=len(gens)))
    g, s = draw(gen), draw(sign)
    return c, weights, g + "^-1" * (s < 0)


def argvs(path: str, c: SquareComplex, weights: list[int], conjugator: str, json: bool):
    """One argv per `FILE_COMMANDS` view, with every option it takes filled
    in cheaply."""
    values = {"--weights": ",".join(f"{g}={w}" for g, w in zip(c.generators, weights)),
              "--radius": "1", "--bound": "1", "--conjugator": conjugator}
    for command, _, options, view in cli.FILE_COMMANDS:
        if view is not None:
            argv = [*command.split(), path]
            for flag, _ in options:
                if flag in values:
                    argv += [flag, values[flag]]
            yield argv + ["--json"] * json


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases(), json=st.booleans())
def test_subcommands_exit_0_or_1_without_traceback(tmp_path_factory, case, json):
    c, weights, conjugator = case
    path = tmp_path_factory.mktemp("fuzz") / "c.log"
    path.write_text(c.render(), encoding="utf-8")
    for argv in argvs(str(path), c, weights, conjugator, json):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
        assert status in (0, 1), (argv, c.render(), err.getvalue())
        assert "Traceback" not in err.getvalue(), (argv, c.render(), err.getvalue())
