"""Fiber-loop bases and monodromy automorphisms at unit weights.

When every generator has weight +1 or -1 and both directional links are
trees, the fiber over the base point is a bouquet: one loop per square.
The loop of a square is represented by the *upper path* read from its
minimum corner -- letters 2 and 3 of the boundary rotated to start at the
min corner -- a two-letter word of weight zero.

Display names follow the repeated letter of each square: a conjugation
square ``x y x^-1 z^-1`` is named by its conjugator ``x`` (stem mapped to a
Greek letter in order of first appearance, digits kept), e.g. the square
``a1 a0 a1^-1 a4^-1`` carries the loop α1.  Squares with four distinct
letters (the attached relator squares) are named γ.

Rewriting a weight-zero word into the basis is peak reduction driven by
the directional-link trees:

* Phase 1 (flattening): while the height profile leaves {0, 1}, take the
  leftmost extreme peak (or valley), join its two downward (upward)
  directions through the descending (ascending) tree, and cross the first
  corner on that path by replacing the entering letter with the
  complementary three-letter path around that corner's square.  Each step
  moves the extreme point one tree edge closer; the profile measure
  strictly decreases.

* Phase 2 (harvesting): a flat word is a concatenation of unit peaks
  ``x . y``; walking the descending tree from the reverse direction of
  ``x`` to the direction of ``y`` emits one signed basis letter per corner
  crossed until the pair cancels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import Analysis
from .complexes import SquareComplex
from .errors import InputError
from .links import End, arrival_end, departure_end
from .morse import WeightSystem
from .words import Letter, Word, generator_stem, inverse_letter, signed_weight

_GREEK = ("α", "β", "δ", "ε", "ζ", "η")


@dataclass(frozen=True)
class BasisLoop:
    square: int
    name: str
    rep: Word  # e2 * e3 of the boundary rotated to start at the min corner
    rotated: tuple[Letter, Letter, Letter, Letter]


def _conjugator_of(boundary: Word) -> str | None:
    letters = boundary.letters
    for i in (0, 1):
        g, s = letters[i]
        h, t = letters[i + 2]
        if g == h and s == -t:
            return g
    return None


class MonodromyContext:
    """Shared data for rewriting over one complex and unit weight system."""

    def __init__(self, c: SquareComplex, ws: WeightSystem, analysis: Analysis | None = None):
        data = (analysis or Analysis(c)).morse_data(ws)
        heights = data.heights
        bad = sorted(g for g in c.generators if abs(ws[g]) != 1)
        if bad:
            raise InputError(
                f"monodromy needs all weights +-1 (rank-only mode otherwise); got {bad}"
            )
        data.require_fibration()
        asc, desc = data.links
        self.complex = c
        self.weights = dict(ws)

        stems: list[str] = []
        for g in c.generators:
            stem = generator_stem(g)
            if stem not in stems:
                stems.append(stem)
        greek = {stem: _GREEK[i] if i < len(_GREEK) else f"x{i}" for i, stem in enumerate(stems)}

        loops: list[BasisLoop] = []
        names: list[str] = []
        for sq, h in zip(c.squares, heights):
            letters = sq.boundary.letters
            m = h.min_corner
            rotated = tuple(letters[(m + i) % 4] for i in range(4))
            rep = Word([rotated[1], rotated[2]])
            conj = _conjugator_of(sq.boundary)
            if conj is not None:
                name = greek[generator_stem(conj)] + conj[len(generator_stem(conj)):]
            else:
                name = "γ"
            names.append(name)
            loops.append(BasisLoop(sq.index, name, rep, rotated))
        # disambiguate clashes deterministically by square id
        duplicated = {n for n in names if names.count(n) > 1}
        used: set[str] = set()
        final: list[str] = []
        for loop, name in zip(loops, names):
            if name in duplicated or name in used:
                name = f"{name}{loop.square}"
                while name in used:
                    name += "x"
            used.add(name)
            final.append(name)
        self.basis = [
            BasisLoop(loop.square, name, loop.rep, loop.rotated)
            for loop, name in zip(loops, final)
        ]
        self.by_name = {loop.name: loop for loop in self.basis}

        # tree adjacency: direction-end -> {neighbor end: square}
        self.desc_adj: dict[End, dict[End, int]] = {v: {} for v in desc.vertices}
        self.asc_adj: dict[End, dict[End, int]] = {v: {} for v in asc.vertices}
        for loop in self.basis:
            e1, e2, e3, e4 = loop.rotated
            a, b = arrival_end(e2), departure_end(e3)
            assert b not in self.desc_adj[a], "parallel descending edges"
            self.desc_adj[a][b] = loop.square
            self.desc_adj[b][a] = loop.square
            a, b = arrival_end(e4), departure_end(e1)
            assert b not in self.asc_adj[a], "parallel ascending edges"
            self.asc_adj[a][b] = loop.square
            self.asc_adj[b][a] = loop.square
        self.loop_of_square = {loop.square: loop for loop in self.basis}

    def _next_hop(self, adj: dict[End, dict[End, int]], frm: End, to: End) -> tuple[End, int]:
        parent: dict[End, End] = {to: to}
        frontier = [to]
        while frontier:
            if frm in parent:
                break
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in parent:
                        parent[w] = v
                        nxt.append(w)
            frontier = nxt
        if frm not in parent:
            raise AssertionError(f"no tree path from {frm} to {to}")
        hop = parent[frm]
        return hop, adj[frm][hop]

    # -- peak reduction ------------------------------------------------

    def _profile(self, letters: list[Letter]) -> list[int]:
        heights = [0]
        for g, s in letters:
            heights.append(heights[-1] + s * self.weights[g])
        return heights

    def _flatten(self, letters: list[Letter]) -> list[Letter]:
        letters = list(Word(letters).free_reduce())
        for _ in range(100_000):
            h = self._profile(letters)
            top, bottom = max(h), min(h)
            if top <= 1 and bottom >= 0:
                return letters
            if top >= 2:
                j = h.index(top)
                x, y = letters[j - 1], letters[j]
                d_left, d_right = arrival_end(x), departure_end(y)
                assert d_left != d_right, "free reduction missed a cancelling peak"
                _, square = self._next_hop(self.desc_adj, d_left, d_right)
                e1, e2, e3, e4 = self.loop_of_square[square].rotated
                if d_left == arrival_end(e2):
                    assert x == e2, (x, e2)
                    replacement = [inverse_letter(e1), inverse_letter(e4), inverse_letter(e3)]
                else:
                    assert d_left == departure_end(e3) and x == inverse_letter(e3), (x, e3)
                    replacement = [e4, e1, e2]
            else:
                j = h.index(bottom)
                x, y = letters[j - 1], letters[j]
                d_left, d_right = arrival_end(x), departure_end(y)
                assert d_left != d_right, "free reduction missed a cancelling valley"
                _, square = self._next_hop(self.asc_adj, d_left, d_right)
                e1, e2, e3, e4 = self.loop_of_square[square].rotated
                if d_left == arrival_end(e4):
                    assert x == e4, (x, e4)
                    replacement = [inverse_letter(e3), inverse_letter(e2), inverse_letter(e1)]
                else:
                    assert d_left == departure_end(e1) and x == inverse_letter(e1), (x, e1)
                    replacement = [e2, e3, e4]
            letters[j - 1:j] = replacement
            letters = list(Word(letters).free_reduce())
        raise AssertionError("peak reduction did not terminate")

    def rewrite(self, word: Word) -> Word:
        """Express a weight-zero word in the fiber-loop basis."""
        if signed_weight(word, self.weights) != 0:
            raise InputError(f"cannot rewrite {word}: weight is nonzero")
        letters = self._flatten(list(word))
        out: list[Letter] = []
        i = 0
        while i < len(letters):
            x, y = letters[i], letters[i + 1]
            d_left, d_right = arrival_end(x), departure_end(y)
            for _ in range(10_000):
                if d_left == d_right:
                    break
                _, square = self._next_hop(self.desc_adj, d_left, d_right)
                loop = self.loop_of_square[square]
                e1, e2, e3, e4 = loop.rotated
                if d_left == arrival_end(e2):
                    assert x == e2, (x, e2)
                    out.append((loop.name, 1))
                    x = inverse_letter(e3)
                else:
                    assert d_left == departure_end(e3) and x == inverse_letter(e3), (x, e3)
                    out.append((loop.name, -1))
                    x = e2
                d_left = arrival_end(x)
            else:
                raise AssertionError("peak harvesting did not terminate")
            assert x == inverse_letter(y), (x, y)
            i += 2
        return Word(out).free_reduce()

    def push_to_generators(self, basis_word: Word) -> Word:
        """Substitute each basis letter by its representative (free-reduced)."""
        out = Word()
        for name, s in basis_word:
            rep = self.by_name[name].rep
            out = out * (rep if s > 0 else rep.inverse())
        return out.free_reduce()


@dataclass
class Automorphism:
    images: dict[str, Word]  # basis name -> word in basis letters
    conjugator: Word
    tag: str  # "monodromy" (weight +-1) or "inner" (weight 0)
    context: MonodromyContext

    @property
    def basis(self) -> list[BasisLoop]:
        return self.context.basis

    def is_identity(self) -> bool:
        return all(
            image.letters == ((name, 1),) for name, image in self.images.items()
        )


def kernel_basis(c: SquareComplex, ws: WeightSystem) -> list[BasisLoop]:
    """One fiber loop per square, in square-id order, with display names."""
    return MonodromyContext(c, ws).basis


def rewrite_to_basis(word: Word | str, c: SquareComplex, ws: WeightSystem) -> Word:
    if isinstance(word, str):
        word = Word.parse(word)
    return MonodromyContext(c, ws).rewrite(word)


def conjugation_automorphism(
    t: Word | str,
    c: SquareComplex,
    ws: WeightSystem,
    context: MonodromyContext | None = None,
) -> Automorphism:
    """The automorphism of the fiber kernel induced by conjugation with a
    word of weight -1, 0 or +1 (a monodromy for weight +-1, an inner twist
    of the kernel for weight 0)."""
    if isinstance(t, str):
        t = Word.parse(t)
    ctx = context if context is not None else MonodromyContext(c, ws)
    weight = signed_weight(t, ctx.weights)
    if abs(weight) > 1:
        raise InputError(f"unsupported conjugator {t}: weight {weight} not in -1..1")
    t_inv = t.inverse()
    images = {
        loop.name: ctx.rewrite((t * loop.rep * t_inv).free_reduce()) for loop in ctx.basis
    }
    return Automorphism(images, t.free_reduce(), "monodromy" if weight else "inner", ctx)


def compose(f: Automorphism, g: Automorphism) -> Automorphism:
    """f after g: substitute f's images into g's image words."""
    if [l.name for l in f.basis] != [l.name for l in g.basis]:
        raise InputError("cannot compose automorphisms over different bases")
    images = {}
    for name, word in g.images.items():
        out = Word()
        for letter, s in word:
            image = f.images[letter]
            out = out * (image if s > 0 else image.inverse())
        images[name] = out.free_reduce()
    conjugator = (f.conjugator * g.conjugator).free_reduce()
    weight = signed_weight(conjugator, f.context.weights)
    return Automorphism(images, conjugator, "monodromy" if weight else "inner", f.context)


def invert(f: Automorphism) -> Automorphism:
    return conjugation_automorphism(f.conjugator.inverse(), f.context.complex,
                                    f.context.weights, context=f.context)


@dataclass
class TransitionMatrix:
    order: list[str]  # basis names, row/column order
    matrix: np.ndarray  # counts, entry (i, j) = occurrences of letter i in image of j
    irreducible: bool
    primitive: bool
    witness_power: int | None  # least N with M^N entrywise positive


def transition_matrix(f: Automorphism) -> TransitionMatrix:
    """Occurrence counts of basis letters in the images, with the
    Perron-Frobenius classification: irreducible = strongly connected
    dependency digraph, primitive = some power entrywise positive (least
    witness searched up to the Wielandt bound (n-1)^2 + 1)."""
    order = [loop.name for loop in f.basis]
    index = {name: i for i, name in enumerate(order)}
    n = len(order)
    matrix = np.zeros((n, n), dtype=np.int64)
    for name, word in f.images.items():
        j = index[name]
        for letter, _ in word:
            matrix[index[letter], j] += 1
    adjacency = matrix > 0
    if n == 1:
        irreducible = bool(adjacency[0, 0])
    else:
        reach = adjacency | np.eye(n, dtype=bool)
        for _ in range(n):
            reach = reach | (reach @ reach)
        irreducible = bool(reach.all())
    primitive = False
    witness_power = None
    if irreducible:
        power = adjacency.copy()
        for exponent in range(1, (n - 1) ** 2 + 2):
            if power.all():
                primitive = True
                witness_power = exponent
                break
            power = (power @ adjacency) > 0
    return TransitionMatrix(order, matrix, irreducible, primitive, witness_power)


def _common_prefix(words: list[Word]) -> tuple[Letter, ...]:
    if not words:
        return ()
    prefix = words[0].letters
    for word in words[1:]:
        limit = 0
        for a, b in zip(prefix, word.letters):
            if a != b:
                break
            limit += 1
        prefix = prefix[:limit]
    return prefix


def _witness_for_subset(f: Automorphism, subset: tuple[str, ...]) -> Word | None:
    allowed = set(subset)
    images = [f.images[name] for name in subset]
    prefix = _common_prefix(images)
    for cut in range(len(prefix), -1, -1):
        conjugator = Word(prefix[:cut])
        inverse = conjugator.inverse()
        if all(
            (inverse * image * conjugator).free_reduce().support() <= allowed
            for image in images
        ):
            return conjugator
    return None


def invariant_factor_witnesses(f: Automorphism) -> list[tuple[tuple[str, ...], Word]]:
    """All proper nonempty basis subsets B with a conjugator c such that
    c^-1 . image(b) . c stays in the letters of B, smallest subsets first.

    The conjugator is the longest prefix, common to all images of B, whose
    stripping achieves purity (empty = syntactic invariance).  A witness
    certifies reducibility; finding none proves nothing.
    """
    from itertools import combinations

    names = [loop.name for loop in f.basis]
    if len(names) > 16:
        raise InputError(f"basis of size {len(names)} is too large for exhaustive search")
    witnesses = []
    for size in range(1, len(names)):
        for subset in combinations(names, size):
            conjugator = _witness_for_subset(f, subset)
            if conjugator is not None:
                witnesses.append((subset, conjugator))
    return witnesses


def invariant_factor_witness(f: Automorphism) -> tuple[tuple[str, ...], Word] | None:
    """First (smallest) reducibility witness, or None when no basis-subset
    free factor is preserved up to conjugacy."""
    from itertools import combinations

    names = [loop.name for loop in f.basis]
    if len(names) > 16:
        raise InputError(f"basis of size {len(names)} is too large for exhaustive search")
    for size in range(1, len(names)):
        for subset in combinations(names, size):
            conjugator = _witness_for_subset(f, subset)
            if conjugator is not None:
                return subset, conjugator
    return None
