"""Everything derived from one complex, each piece computed on first use.

A command builds one `Analysis` and hands it to every report it prints, so
the link, its largeness report, the poison corners, the eligible squares,
the weight lattice and its affine forms, the admissibility of each weight
system and the min corners and directional links of each sign vector are
built once; `min_corners` and `sign_links` are their only caches, and the
links, like `poison`, hold edge numbers.  A function that takes a
``source`` reads a complex or an `Analysis` of one through `Analysis.of`.
Nothing cached here holds the `Analysis`, so a dropped one is freed
without the cycle collector.
"""

from __future__ import annotations

from functools import cached_property

from . import links, morse
from .complexes import SquareComplex


class Analysis:
    # ``link``: the complex's link when the caller built it (`flatness.eligible_squares`)
    def __init__(self, c: SquareComplex, link: links.LinkGraph | None = None):
        self.complex = c
        if link is not None:
            self.link = link  # fills the cached property
        self._min_corners: dict[tuple, list[int]] = {}
        self._sign_links: dict[tuple, tuple[morse.DirectionalLink, morse.DirectionalLink]] = {}
        self._admissibility: dict[tuple, morse.AdmissibilityReport] = {}

    @classmethod
    def of(cls, source: SquareComplex | Analysis) -> Analysis:
        """``source`` itself when it is an `Analysis`, else a fresh one of it."""
        return source if isinstance(source, cls) else cls(source)

    @cached_property
    def link(self) -> links.LinkGraph:
        return links.build_link(self.complex)

    @cached_property
    def largeness(self) -> links.LargenessReport:
        return links.largeness(self.link)

    @cached_property
    def poison(self) -> list[int]:
        return links.poison_edges(self.link)

    @cached_property
    def eligible(self) -> list[int]:
        """Squares with no poison corner: the only candidates for a flat plane."""
        poisoned = {i >> 2 for i in self.poison}
        return [sq.index for sq in self.complex.squares if sq.index not in poisoned]

    @cached_property
    def lattice(self) -> list[morse.WeightSystem]:
        return morse.weight_lattice(self.complex)

    @cached_property
    def affine_forms(self) -> dict[tuple[int, ...], int]:
        """The affine condition on the lattice coordinates x: each nonzero
        form (s b_k[g] + t b_k[h])_k of a square's opposite letters (g, s)
        and (h, t) at places 0 and 2, with the first square that gives it.
        A lattice vector meets the condition iff every form is zero at its
        x; letters 1 and 3 give the negated form, the boundary sum being zero."""
        forms: dict[tuple[int, ...], int] = {}
        for sq in self.complex.squares:
            (g, s), _, (h, t), _ = sq.boundary.letters
            form = tuple(s * b[g] + t * b[h] for b in self.lattice)
            if any(form):
                forms.setdefault(form, sq.index)
        return forms

    def admissibility(self, ws: morse.WeightSystem) -> morse.AdmissibilityReport:
        """`morse.check_admissible` of ``ws``, run once per weight system."""
        key = tuple(map(ws.get, self.complex.generators))
        if key not in self._admissibility:
            self._admissibility[key] = morse.check_admissible(self.complex, ws)
        return self._admissibility[key]

    def _signs(self, ws: morse.WeightSystem) -> tuple[bool, ...]:
        return tuple(map((0).__lt__, map(ws.__getitem__, self.complex.generators)))

    def min_corners(self, ws: morse.WeightSystem) -> list[int]:
        """`morse.min_corners` of an admissible ``ws``, run once per sign vector."""
        key = self._signs(ws)
        if key not in self._min_corners:
            self._min_corners[key] = morse.min_corners(self.complex, ws)
        return self._min_corners[key]

    def sign_links(self, ws: morse.WeightSystem
                   ) -> tuple[morse.DirectionalLink, morse.DirectionalLink]:
        """Ascending and descending links of an admissible weight system.

        Each square's min and max corners, and each direction-end's side,
        depend only on the signs of the weights, so `morse.sign_links` builds
        the links once per sign vector, from `min_corners` and the link's
        end numbers, with no admissibility check."""
        key = self._signs(ws)
        if key not in self._sign_links:
            self._sign_links[key] = morse.sign_links(self, ws)
        return self._sign_links[key]
