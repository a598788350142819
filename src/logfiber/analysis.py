"""Everything derived from one complex, each piece computed on first use.

A command builds one `Analysis` and hands it to every report it prints, so
the link, its largeness report, the poison corners, the eligible squares,
the weight lattice, each weight system's `morse.MorseData` and the
directional links of each sign vector are built once.  Functions called
without one build a fresh one.
"""

from __future__ import annotations

from functools import cached_property

from . import links, morse
from .complexes import SquareComplex


class Analysis:
    def __init__(self, c: SquareComplex, link: links.LinkGraph | None = None):
        self.complex = c
        if link is not None:
            self.link = link  # fills the cached property
        self._morse: dict[tuple, morse.MorseData] = {}
        self._sign_links: dict[tuple, tuple[morse.DirectionalLink, morse.DirectionalLink]] = {}

    @cached_property
    def link(self) -> links.LinkGraph:
        return links.build_link(self.complex)

    @cached_property
    def largeness(self) -> links.LargenessReport:
        return links.largeness(self.link)

    @cached_property
    def poison(self) -> list[links.CornerEdge]:
        return links.poison_corners(self.complex, self.link)

    @cached_property
    def eligible(self) -> list[int]:
        """Squares with no poison corner: the only candidates for a flat plane."""
        poisoned = {e.square for e in self.poison}
        return [sq.index for sq in self.complex.squares if sq.index not in poisoned]

    @cached_property
    def lattice(self) -> list[morse.WeightSystem]:
        return morse.weight_lattice(self.complex)

    def morse_data(self, ws: morse.WeightSystem) -> morse.MorseData:
        key = tuple(sorted(ws.items()))
        if key not in self._morse:
            self._morse[key] = morse.MorseData(self.complex, ws)
        return self._morse[key]

    def sign_links(self, ws: morse.WeightSystem
                   ) -> tuple[morse.DirectionalLink, morse.DirectionalLink]:
        """Ascending and descending links of an admissible weight system.

        Each square's min and max corners, and each direction-end's side,
        depend only on the signs of the weights, so the links are built
        once per sign vector (from the first weight system seen with it)."""
        key = tuple(map((0).__lt__, map(ws.__getitem__, self.complex.generators)))
        if key not in self._sign_links:
            self._sign_links[key] = self.morse_data(ws).links
        return self._sign_links[key]
