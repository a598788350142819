"""Single-vertex square complexes.

A complex is an ordered generator alphabet plus a list of square 2-cells,
each given by a length-4 boundary word read around the cell.  Complexes come
from three sources: labeled-oriented-graph (LOG) descriptions, where an edge
labeled ``a`` from ``u`` to ``v`` expands to the conjugation square
``a v a^-1 u^-1``; explicit square lists; and the named presets below.

Corner indexing convention: corner 0 sits between boundary letter 4 and
letter 1 (the start of the written word); corners 1..3 follow between
consecutive letters.  Boundary words are stored exactly as written so corner
ids stay stable.

File format (UTF-8, one statement per line, ``#`` starts a comment):

    name <free text>
    generators <name> <name> ...
    edge label=<g> from=<g> to=<g>
    square <letter> <letter> <letter> <letter>

A trailing ``# added`` comment on a square line restores the "added square"
tag that `combine` and `add_square` attach; the tag is cosmetic provenance
and never affects the mathematics.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import cached_property

from .errors import InputError
from .words import LetterTable, Word, check_generator_name, check_generator_names, generator_stem

NAMED_COMPLEXES = ("lot-a", "lot-b", "g1", "gf", "g2", "torus")
MAX_LOT_K = 100_000  # a larger LOT family is refused before anything is allocated


Square = namedtuple("Square", ("index", "boundary", "origin"), defaults=("",))


class SquareComplex:
    # ``checked``: the names were checked by the caller (`parse_spec`)
    def __init__(self, generators: list[str], squares: list[Square] | None = None,
                 provenance: list[str] | None = None, *, checked: bool = False):
        self.generators = generators
        self.squares = [] if squares is None else squares
        self.provenance = [] if provenance is None else provenance
        if not checked:
            check_generator_names(generators, set())
        self._boundaries = dict.fromkeys(sq.boundary for sq in self.squares)

    def __repr__(self) -> str:
        return (f"SquareComplex(generators={self.generators!r}, squares={self.squares!r},"
                f" provenance={self.provenance!r})")

    def __eq__(self, other) -> bool:
        # provenance is a build trail, not part of the presentation
        return (
            isinstance(other, SquareComplex)
            and self.generators == other.generators
            and [sq.boundary for sq in self.squares] == [sq.boundary for sq in other.squares]
        )

    def stems(self) -> list[str]:
        return list(dict.fromkeys(map(generator_stem, self.generators)))

    @cached_property
    def generator_index(self) -> dict[str, int]:
        """Generator -> its number i, its place in ``generators``."""
        return {g: i for i, g in enumerate(self.generators)}

    @cached_property
    def letter_ends(self) -> dict[tuple[str, int], tuple[int, int]]:
        """Letter -> (number of its arrival end, of its departure end), the one
        numbering of direction-ends that every module reads: end 2i is ``g_i+``,
        the arrival direction of the i-th generator, and 2i + 1 is ``g_i-``, so
        key k, ``g_i`` then ``g_i^-1``, is the letter arriving at end k."""
        table = {}
        for i, g in enumerate(self.generators):
            table[g, 1], table[g, -1] = (2 * i, 2 * i + 1), (2 * i + 1, 2 * i)
        return table

    def append_square(self, boundary: Word, origin: str = "") -> Square:
        check_boundary(boundary, self.generator_index)
        n = len(self.squares)
        if self._boundaries.setdefault(boundary, n) != n:  # one hash; a repeat keeps its old value
            self.provenance.append(f"duplicate square: {boundary}")
        sq = tuple.__new__(Square, (n, boundary, origin))  # skips a Python-level __new__
        self.squares.append(sq)
        return sq

    def render(self) -> str:
        """Emit the file format; `parse_spec` round-trips the presentation."""
        lines = []
        for line in self.provenance:
            if line.startswith("name: "):
                lines.append(f"name {line[len('name: '):]}")
        lines.append("generators " + " ".join(self.generators))
        for sq in self.squares:
            suffix = "  # added" if sq.origin == "added" else ""
            lines.append(f"square {sq.boundary}{suffix}")
        return "\n".join(lines) + "\n"


def check_boundary(boundary: Word, generators: dict[str, int]) -> None:
    letters = boundary.letters
    if len(letters) != 4:
        raise InputError(f"square boundary must have length 4, got {len(letters)}: {boundary}")
    for g, _ in letters:
        if g not in generators:
            raise InputError(f"boundary letter {g!r} is not a declared generator")
    if not boundary.is_cyclically_reduced():
        raise InputError(f"square boundary cyclically cancels: {boundary}")


def log_square(label: str, src: str, dst: str) -> Word:
    """Boundary of the square for a LOG edge labeled ``label`` from ``src``
    to ``dst``: the conjugation relation label*dst*label^-1 = src."""
    return Word._of(((label, 1), (dst, 1), (label, -1), (src, -1)))


def union(parent: list[int], pairs: Iterable[tuple[int, int]]) -> int:
    """Join the two ends of every pair in the forest ``parent`` over the
    integers 0 .. n - 1 (``parent[i] == i`` at a root), halving paths, and
    return how many pairs joined two trees: on n singletons the pairs leave
    n - joins components, and they form a forest iff every one joined.  A
    root is the least number in its tree, so ``parent[i] <= i`` throughout."""
    joins = 0
    for u, v in pairs:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            if u < v:
                u, v = v, u
            parent[u] = v
            joins += 1
    return joins


def _log_shape(c: SquareComplex, edges: list[tuple[str, str, str]]) -> str:
    index = c.generator_index
    joins = union(list(range(len(index))), ((index[u], index[v]) for _, u, v in edges))
    if joins < len(edges):
        return "graph with cycles"
    components = len(index) - joins
    if components == 1:
        return "tree"
    return f"forest ({components} components)"


def parse_spec(text: str) -> SquareComplex:
    generators: list[str] = []
    seen: set[str] = set()
    pending: list[tuple[int, Word, str]] = []  # (line number, boundary, origin)
    log_edges: list[tuple[str, str, str]] = []
    provenance: list[str] = []
    letters = LetterTable()  # each distinct token matched once per call

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, _, comment = raw.partition("#")
        line = line.strip()
        comment = comment.strip()
        if not line:
            continue
        head, *rest = line.split(None, 1)  # the keyword ends at any whitespace
        rest = rest[0] if rest else ""
        try:
            if head == "square":  # the commonest statement first
                origin = "added" if comment == "added" else "square-line"
                pending.append((lineno, Word.parse(rest, letters), origin))
            elif head == "generators":
                names = rest.split()
                check_generator_names(names, seen)
                letters.declare(names)
                generators += names
            elif head == "edge":
                fields = {}
                for item in rest.split():
                    key, eq, value = item.partition("=")
                    if not eq or not value:
                        raise InputError(f"bad edge field {item!r} (want key=value)")
                    if key not in ("label", "from", "to"):
                        raise InputError(f"unknown edge field {key!r} (want label, from, to)")
                    if key in fields:
                        raise InputError(f"repeated edge field {key!r}")
                    fields[key] = value
                missing = {"label", "from", "to"} - set(fields)
                if missing:
                    raise InputError(f"edge line missing {sorted(missing)}")
                for key in ("label", "from", "to"):
                    if fields[key] not in seen:
                        raise InputError(f"edge {key} {fields[key]!r} is not a declared generator")
                log_edges.append((fields["label"], fields["from"], fields["to"]))
                pending.append((lineno, log_square(fields["label"], fields["from"], fields["to"]),
                                "log-edge"))
            elif head == "name":
                provenance.append(f"name: {rest}")
            else:
                raise InputError(f"unknown statement {head!r}")
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None

    complex_ = SquareComplex(generators, provenance=provenance, checked=True)
    if log_edges:
        complex_.provenance.append(f"log shape: {_log_shape(complex_, log_edges)}")
    # squares are checked once every generator is declared, wherever its line is
    for lineno, boundary, origin in pending:
        try:
            complex_.append_square(boundary, origin)
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
    return complex_


def build_lot_family(k: int, stem: str = "a") -> SquareComplex:
    """The k-square labeled-oriented-tree presentation: a tree on k+1
    vertices with one valence-k vertex, conjugation relations permuted as in
    the 4-square case.  Defined for 4 <= k <= MAX_LOT_K (smaller k breaks
    the link condition)."""
    if k < 4:
        raise InputError(f"lot family needs k >= 4, got {k}")
    if k > MAX_LOT_K:
        raise InputError(f"lot family needs k <= MAX_LOT_K = {MAX_LOT_K}, got k = {k}")
    check_generator_name(stem + "0")
    gens = [f"{stem}{i}" for i in range(k + 1)]
    c = SquareComplex(gens, provenance=[f"lot family k={k} stem={stem}"])
    for i in range(k - 1):
        c.append_square(log_square(gens[i + 1], gens[k], gens[i]), "lot")
    c.append_square(log_square(gens[0], gens[k - 1], gens[k]), "lot")
    return c


_GF_SQUARES = (
    "b2 a1 b2^-1 a4^-1",
    "b3 a2 b3^-1 a4^-1",
    "b1 a4 b1^-1 a3^-1",
    "a2 b1 a2^-1 b4^-1",
    "a3 b2 a3^-1 b4^-1",
    "a1 b4 a1^-1 b3^-1",
)


def build_named(name: str) -> SquareComplex:
    if name == "lot-a":
        return build_lot_family(4, "a")
    if name == "lot-b":
        return build_lot_family(4, "b")
    if name == "g1":
        return combine(build_named("lot-a"), build_named("lot-b"), "a0 b2 a1^-1 b0^-1")
    if name == "gf":
        gens = [f"a{i}" for i in range(1, 5)] + [f"b{i}" for i in range(1, 5)]
        c = SquareComplex(gens, provenance=["labeled oriented forest on two 4-vertex trees"])
        for text in _GF_SQUARES:
            c.append_square(Word.parse(text), "lof")
        return c
    if name == "g2":
        return add_square(build_named("gf"), "a4 b1 a1^-1 b4^-1")
    if name == "torus":
        c = SquareComplex(["a", "b"], provenance=["torus control case"])
        c.append_square(Word.parse("a b a^-1 b^-1"), "torus")
        return c
    raise InputError(f"unknown named complex {name!r} (choose from {', '.join(NAMED_COMPLEXES)})")


def combine(c1: SquareComplex, c2: SquareComplex, relator: Word | str) -> SquareComplex:
    """Wedge ``c1`` and ``c2`` at the vertex and attach one square whose
    boundary is ``relator``; the relator must draw letters from both
    alphabets."""
    if isinstance(relator, str):
        relator = Word.parse(relator)
    alphabet1, alphabet2 = set(c1.generators), set(c2.generators)
    collision = alphabet1 & alphabet2
    if collision:
        raise InputError(f"alphabet collision: {sorted(collision)}")
    gens = list(c1.generators) + list(c2.generators)
    used = relator.support()
    if not (used & alphabet1) or not (used & alphabet2):
        raise InputError("combine relator must use generators from both complexes")
    # the sources' squares are valid and their repeats already recorded in
    # their provenance; disjoint alphabets keep them apart from each other
    squares = list(c1.squares)
    squares += [sq._replace(index=len(squares) + i) for i, sq in enumerate(c2.squares)]
    out = SquareComplex(
        gens,
        squares,
        provenance=list(c1.provenance) + list(c2.provenance) + [f"combined with relator {relator}"],
    )
    out.append_square(relator, "added")
    return out


def add_square(c: SquareComplex, relator: Word | str) -> SquareComplex:
    if isinstance(relator, str):
        relator = Word.parse(relator)
    out = SquareComplex(
        list(c.generators),
        list(c.squares),  # valid, and their repeats are in the copied provenance
        provenance=list(c.provenance) + [f"added square {relator}"],
    )
    out.append_square(relator, "added")
    return out
