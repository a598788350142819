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

from dataclasses import dataclass, field, replace

from .errors import InputError
from .words import Word, check_generator_name, generator_stem

NAMED_COMPLEXES = ("lot-a", "lot-b", "g1", "gf", "g2", "torus")


@dataclass(frozen=True)
class Square:
    index: int
    boundary: Word
    origin: str = ""


@dataclass
class SquareComplex:
    generators: list[str]
    squares: list[Square] = field(default_factory=list)
    provenance: list[str] = field(default_factory=list)
    # what `append_square` checks against, kept up to date by it
    _generators: set[str] = field(init=False, repr=False)
    _boundaries: set[Word] = field(init=False, repr=False)

    def __post_init__(self):
        seen = set()
        for g in self.generators:
            check_generator_name(g)
            if g in seen:
                raise InputError(f"duplicate generator {g!r}")
            seen.add(g)
        self._generators = seen
        self._boundaries = {sq.boundary for sq in self.squares}

    def __eq__(self, other) -> bool:
        # provenance is a build trail, not part of the presentation
        return (
            isinstance(other, SquareComplex)
            and self.generators == other.generators
            and [sq.boundary for sq in self.squares] == [sq.boundary for sq in other.squares]
        )

    def generator_set(self) -> set[str]:
        return set(self.generators)

    def stems(self) -> list[str]:
        out: list[str] = []
        for g in self.generators:
            stem = generator_stem(g)
            if stem not in out:
                out.append(stem)
        return out

    def append_square(self, boundary: Word, origin: str = "") -> Square:
        check_boundary(boundary, self._generators)
        if boundary in self._boundaries:
            self.provenance.append(f"duplicate square: {boundary}")
        self._boundaries.add(boundary)
        sq = Square(len(self.squares), boundary, origin)
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


def check_boundary(boundary: Word, generators: set[str]) -> None:
    if len(boundary) != 4:
        raise InputError(f"square boundary must have length 4, got {len(boundary)}: {boundary}")
    for g, _ in boundary:
        if g not in generators:
            raise InputError(f"boundary letter {g!r} is not a declared generator")
    if not boundary.is_cyclically_reduced():
        raise InputError(f"square boundary cyclically cancels: {boundary}")


def log_square(label: str, src: str, dst: str) -> Word:
    """Boundary of the square for a LOG edge labeled ``label`` from ``src``
    to ``dst``: the conjugation relation label*dst*label^-1 = src."""
    return Word([(label, 1), (dst, 1), (label, -1), (src, -1)])


def union_find(vertices, pairs) -> tuple[dict, bool]:
    """Join the two ends of every pair.  Returns each vertex's component
    root and whether no pair closed a cycle (the pairs form a forest)."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    acyclic = True
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra == rb:
            acyclic = False
        else:
            parent[ra] = rb
    return {v: find(v) for v in vertices}, acyclic


def _log_shape(vertices: list[str], edges: list[tuple[str, str, str]]) -> str:
    root, acyclic = union_find(vertices, ((u, v) for _, u, v in edges))
    components = len(set(root.values()))
    if not acyclic:
        return "graph with cycles"
    if components == 1:
        return "tree"
    return f"forest ({components} components)"


def parse_spec(text: str) -> SquareComplex:
    generators: list[str] = []
    seen: set[str] = set()
    pending: list[tuple[Word, str]] = []
    log_edges: list[tuple[str, str, str]] = []
    provenance: list[str] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, _, comment = raw.partition("#")
        line = line.strip()
        comment = comment.strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "generators":
                for g in rest.split():
                    check_generator_name(g)
                    if g in seen:
                        raise InputError(f"duplicate generator {g!r}")
                    seen.add(g)
                    generators.append(g)
            elif head == "edge":
                fields = {}
                for item in rest.split():
                    key, eq, value = item.partition("=")
                    if not eq or not value:
                        raise InputError(f"bad edge field {item!r} (want key=value)")
                    fields[key] = value
                missing = {"label", "from", "to"} - set(fields)
                if missing:
                    raise InputError(f"edge line missing {sorted(missing)}")
                for key in ("label", "from", "to"):
                    if fields[key] not in seen:
                        raise InputError(f"edge {key} {fields[key]!r} is not a declared generator")
                log_edges.append((fields["label"], fields["from"], fields["to"]))
                pending.append((log_square(fields["label"], fields["from"], fields["to"]), "log-edge"))
            elif head == "square":
                origin = "added" if comment == "added" else "square-line"
                pending.append((Word.parse(rest), origin))
            elif head == "name":
                provenance.append(f"name: {rest}")
            else:
                raise InputError(f"unknown statement {head!r}")
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from None

    complex_ = SquareComplex(generators, provenance=provenance)
    if log_edges:
        complex_.provenance.append(f"log shape: {_log_shape(generators, log_edges)}")
    for boundary, origin in pending:
        complex_.append_square(boundary, origin)
    return complex_


def build_lot_family(k: int, stem: str = "a") -> SquareComplex:
    """The k-square labeled-oriented-tree presentation: a tree on k+1
    vertices with one valence-k vertex, conjugation relations permuted as in
    the 4-square case.  Defined for k >= 4 (smaller k breaks the link
    condition)."""
    if k < 4:
        raise InputError(f"lot family needs k >= 4, got {k}")
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
    collision = c1.generator_set() & c2.generator_set()
    if collision:
        raise InputError(f"alphabet collision: {sorted(collision)}")
    gens = list(c1.generators) + list(c2.generators)
    used = relator.support()
    if not (used & c1.generator_set()) or not (used & c2.generator_set()):
        raise InputError("combine relator must use generators from both complexes")
    # the sources' squares are valid and their repeats already recorded in
    # their provenance; disjoint alphabets keep them apart from each other
    squares = list(c1.squares)
    squares += [replace(sq, index=len(squares) + i) for i, sq in enumerate(c2.squares)]
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
