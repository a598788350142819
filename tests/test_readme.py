"""README's Library example, run as written against the values in its comments."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The first ``python`` block under "## Library"."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_block_prints_the_values_in_its_comments():
    code = library_block()
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    printed = out.getvalue().splitlines()
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert len(printed) == len(comments) == 9
    # girth, poison corners, verdict, kernel rank, transition matrix, verdict
    # of the shared Analysis, infinite fibering and fibering rows
    values = ["4", "4", "HyperbolicCertB", "7", "True True 3", None, "HyperbolicCertB", "True",
              "16"]
    for value, line, comment in zip(values, printed, comments):
        if value is None:  # row 0 of the transition matrix
            assert comment.startswith("a tuple of ints") and line == str(namespace["tm"].matrix[0])
            assert all(type(n) is int for n in namespace["tm"].matrix[0])
        else:
            assert line == value and comment.startswith(value), (line, comment)
    lf, g2 = namespace["lf"], namespace["g2"]
    assert "(radius 2)" in comments[2] and lf.hyperbolicity_verdict(g2).radius == 2
    assert comments[8].startswith("16 rows")
