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
the directional-link trees.  Their vertex sets are disjoint (a
direction-end ascends for one sign of its weight and descends for the
other), so one table holds both: each square's max-corner edge (descending
tree) and min-corner edge (ascending tree), in both directions.  Directed
edge ``(from, to)`` maps to the letter ``x`` entering ``from``, the other
three letters of the square's boundary in the order whose product equals
``x`` (the last one enters ``to``), and the square's signed basis letter.

Each tree is rooted once, on the first route request: the first hop from
``u`` toward ``v`` is ``u``'s parent, or the child whose DFS entry interval
holds ``v``; a whole path climbs both ends by depth until they meet.

* Phase 1 (flattening): while the height profile leaves {0, 1}, take the
  leftmost highest point while the top is at least 2, else the leftmost
  lowest; splice the rest of the square of the first edge toward the other
  side over the entering letter, in place, cancelling only at the splice's
  two junctions.  Each step moves the extreme point one tree edge closer;
  the profile measure strictly decreases.

* Phase 2 (harvesting): a flat word is a concatenation of unit peaks
  ``x . y``; walking the descending tree from the reverse direction of
  ``x`` to the direction of ``y`` emits the basis letter of each edge
  crossed and leaves by its replacement's last letter, until the pair
  cancels.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .analysis import Analysis
from .complexes import SquareComplex
from .errors import InputError
from .links import End, arrival_end, departure_end
from .morse import WeightSystem
from .words import Letter, Word, generator_stem, inverse_letter, signed_weight

_GREEK = ("α", "β", "δ", "ε", "ζ", "η")

# (letter entering `from`, the rest of the square's boundary, signed basis letter)
Crossing = tuple[Letter, tuple[Letter, Letter, Letter], Letter]


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


def _loop_name(boundary: Word, greek: dict[str, str]) -> str:
    conj = _conjugator_of(boundary)
    if conj is None:
        return "γ"
    stem = generator_stem(conj)
    return greek[stem] + conj[len(stem):]


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

        greek = {stem: _GREEK[i] if i < len(_GREEK) else f"x{i}"
                 for i, stem in enumerate(c.stems())}
        names = [_loop_name(sq.boundary, greek) for sq in c.squares]
        clashes = Counter(names)
        used: set[str] = set()
        self.basis: list[BasisLoop] = []
        # both trees: end -> {neighbour end: crossing of that directed edge}
        self._crossings: dict[End, dict[End, Crossing]] = {
            v: {} for v in (*asc.vertices, *desc.vertices)
        }
        # by `_tree`: end -> [parent, depth, entry, exit, root, children's entries, children]
        self._rooting: dict[End, list] | None = None
        for sq, h, name in zip(c.squares, heights, names):
            # disambiguate clashes deterministically by square id
            if clashes[name] > 1 or name in used:
                name = f"{name}{sq.index}"
                while name in used:
                    name += "x"
            used.add(name)
            m = h.min_corner
            rotated = sq.boundary.letters[m:] + sq.boundary.letters[:m]
            self.basis.append(BasisLoop(sq.index, name, Word._of(rotated[1:3]), rotated))
            e1, e2, e3, e4 = rotated
            i1, i2, i3, i4 = map(inverse_letter, rotated)
            # e1 e2 e3 e4 = 1 makes each entering letter x equal to its rest
            # and to loop^s . rest[-1]; the max corner's edge (the first two
            # rows) lies in the descending tree, the min corner's in the ascending
            for x, rest, s in ((e2, (i1, i4, i3), 1), (i3, (e4, e1, e2), -1),
                               (e4, (i3, i2, i1), -1), (i1, (e2, e3, e4), 1)):
                frm, to = arrival_end(x), arrival_end(rest[-1])
                assert to not in self._crossings[frm], "parallel tree edges"
                self._crossings[frm][to] = (x, rest, (name, s))

    def _tree(self, u: End, v: End) -> dict[End, list]:
        """The trees of `_crossings`, rooted on the first call, after checking that
        ``u`` and ``v`` share one.  Entries are DFS preorder: ``w``'s subtree is entry..exit-1."""
        rooting = self._rooting
        if rooting is None:
            rooting = self._rooting = {}
            order: list[End] = []
            for root in self._crossings:
                stack = [] if root in rooting else [(root, None)]
                while stack:
                    w, p = stack.pop()
                    # a root hangs below a placeholder of depth -1 that names it
                    up = rooting[p] if p is not None else (None, -1, 0, 0, w, [], [])
                    rooting[w] = [p, up[1] + 1, len(order), len(order) + 1, up[4], [], []]
                    up[5].append(len(order))
                    up[6].append(w)
                    order.append(w)
                    stack += [(z, w) for z in self._crossings[w] if z not in rooting]
            for w in reversed(order):  # a subtree's exit is its last descendant's
                p = rooting[w][0]
                if p is not None:
                    rooting[p][3] = max(rooting[p][3], rooting[w][3])
        if rooting[u][4] != rooting[v][4]:
            raise AssertionError(f"no tree path from {u} to {v}")
        return rooting

    def _first_hop(self, u: End, v: End) -> End:
        """The next end after ``u`` toward ``v != u``: the parent, unless ``u`` is
        a proper ancestor of ``v``; then the child whose subtree holds ``v``."""
        rooting = self._tree(u, v)
        parent, _, entry, exit_, _, entries, children = rooting[u]
        at = rooting[v][2]
        if entry < at < exit_:
            return children[bisect_right(entries, at) - 1]
        return parent

    def _path(self, u: End, v: End) -> list[End]:
        """The ends after ``u`` on the tree path to ``v``: the deeper end
        climbs until both meet."""
        rooting = self._tree(u, v)
        up, down = [], []
        while u != v:
            if rooting[u][1] >= rooting[v][1]:
                u = rooting[u][0]
                up.append(u)
            else:
                down.append(v)
                v = rooting[v][0]
        return up + down[::-1]

    # -- peak reduction ------------------------------------------------

    def _flatten(self, letters: list[Letter]) -> list[Letter]:
        weights = self.weights
        letters = list(Word._of(tuple(letters)).free_reduce())
        h = [0]
        for g, s in letters:
            h.append(h[-1] + s * weights[g])
        for _ in range(100_000):
            extreme = max(h)
            if extreme < 2 and (extreme := min(h)) >= 0:
                return letters
            j = h.index(extreme)
            x, y = letters[j - 1], letters[j]
            d_left, d_right = arrival_end(x), departure_end(y)
            assert d_left != d_right, "free reduction missed a cancelling peak or valley"
            entering, rest, _ = self._crossings[d_left][self._first_hop(d_left, d_right)]
            assert x == entering, (x, entering)
            (g1, s1), (g2, s2), _ = rest
            h1 = h[j - 1] + s1 * weights[g1]
            h[j:j] = (h1, h1 + s2 * weights[g2])
            letters[j - 1:j] = rest
            # the word on each side and the square's rest are reduced, so pairs cancel
            # only at the splice's junctions; the right one first keeps the left at j - 1
            for i in (j + 2, j - 1):
                while 0 < i < len(letters) and letters[i - 1] == inverse_letter(letters[i]):
                    del letters[i - 1:i + 1]
                    del h[i:i + 2]
                    i -= 1
        raise AssertionError("peak reduction did not terminate")

    def rewrite(self, word: Word) -> Word:
        """Express a weight-zero word in the fiber-loop basis."""
        if signed_weight(word, self.weights) != 0:
            raise InputError(f"cannot rewrite {word}: weight is nonzero")
        letters = self._flatten(list(word))
        out: list[Letter] = []
        for i in range(0, len(letters), 2):
            x, y = letters[i], letters[i + 1]
            d_left, d_right = arrival_end(x), departure_end(y)
            # each corner crossed moves d_left one tree edge closer to d_right
            for hop in self._path(d_left, d_right):
                entering, rest, letter = self._crossings[d_left][hop]
                assert x == entering, (x, entering)
                out.append(letter)
                x, d_left = rest[-1], hop
            assert d_left == d_right and x == inverse_letter(y), (x, y)
        return Word._of(tuple(out)).free_reduce()

    def push_to_generators(self, basis_word: Word) -> Word:
        """Substitute each basis letter by its representative (free-reduced)."""
        return _substitute(basis_word, {loop.name: loop.rep for loop in self.basis})


def _substitute(word: Word, images: dict[str, Word]) -> Word:
    """Each letter of ``word`` replaced by its image (inverted for an
    inverse letter), free-reduced."""
    letters: list[Letter] = []
    for name, s in word:
        image = images[name]
        letters += image.letters if s > 0 else image.inverse().letters
    return Word._of(tuple(letters)).free_reduce()


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
    for_witness_search: bool = False,
) -> Automorphism:
    """The automorphism of the fiber kernel induced by conjugation with a
    word of weight -1, 0 or +1 (a monodromy for weight +-1, an inner twist
    of the kernel for weight 0).  ``for_witness_search`` refuses a basis too
    large for `invariant_factor_witnesses` before rewriting it."""
    if isinstance(t, str):
        t = Word.parse(t)
    ctx = context if context is not None else MonodromyContext(c, ws)
    weight = signed_weight(t, ctx.weights)
    if abs(weight) > 1:
        raise InputError(f"unsupported conjugator {t}: weight {weight} not in -1..1")
    if for_witness_search:
        _require_searchable(len(ctx.basis))
    t_inv = t.inverse()
    images = {
        loop.name: ctx.rewrite((t * loop.rep * t_inv).free_reduce()) for loop in ctx.basis
    }
    return Automorphism(images, t.free_reduce(), "monodromy" if weight else "inner", ctx)


def compose(f: Automorphism, g: Automorphism) -> Automorphism:
    """f after g: substitute f's images into g's image words."""
    if [l.name for l in f.basis] != [l.name for l in g.basis]:
        raise InputError("cannot compose automorphisms over different bases")
    images = {name: _substitute(word, f.images) for name, word in g.images.items()}
    conjugator = (f.conjugator * g.conjugator).free_reduce()
    weight = signed_weight(conjugator, f.context.weights)
    return Automorphism(images, conjugator, "monodromy" if weight else "inner", f.context)


def invert(f: Automorphism) -> Automorphism:
    return conjugation_automorphism(f.conjugator.inverse(), f.context.complex,
                                    f.context.weights, context=f.context)


@dataclass
class TransitionMatrix:
    order: list[str]  # basis names, row/column order
    matrix: tuple[tuple[int, ...], ...]  # entry (i, j) = occurrences of letter i in image of j
    irreducible: bool
    primitive: bool
    witness_power: int | None  # least N with M^N entrywise positive


def transition_matrix(f: Automorphism) -> TransitionMatrix:
    """Occurrence counts of basis letters in the images, with the
    Perron-Frobenius classification: irreducible = strongly connected
    dependency digraph, primitive = some power entrywise positive (least
    witness searched up to the Wielandt bound (n-1)^2 + 1).

    The digraph has an edge i -> j when entry (i, j) is positive; row i is
    the bitset of those j, column j the bitset of those i.  An empty basis
    has no matrix to classify and is refused."""
    if not f.basis:
        raise InputError("the fiber-loop basis is empty; there is no transition matrix to classify")
    order = [loop.name for loop in f.basis]
    index = {name: i for i, name in enumerate(order)}
    n = len(order)
    counts = [[0] * n for _ in range(n)]
    rows, columns = [0] * n, [0] * n
    for name, word in f.images.items():
        j = index[name]
        bit = 1 << j
        for letter, _ in word.letters:
            i = index[letter]
            counts[i][j] += 1
            rows[i] |= bit
            columns[j] |= 1 << i
    # strongly connected iff every loop is reached from loop 0 and reaches
    # it by a nonempty path (for n = 1 that asks for a positive entry)
    irreducible = _reached_from_first(rows) and _reached_from_first(columns)
    witness_power = _least_positive_power(rows, (n - 1) ** 2 + 1) if irreducible else None
    matrix = tuple(map(tuple, counts))
    return TransitionMatrix(order, matrix, irreducible, witness_power is not None, witness_power)


def _union_of_rows(rows: list[int], mask: int) -> int:
    """OR of the rows whose bits are set in ``mask``, stopping once all
    bits are set."""
    full = (1 << len(rows)) - 1
    out = 0
    while mask and out != full:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _product(a: list[int], b: list[int]) -> list[int]:
    """Boolean matrix product of two bitset-row matrices."""
    return [_union_of_rows(b, row) for row in a]


def _reached_from_first(rows: list[int]) -> bool:
    """Whether every vertex ends a nonempty path from vertex 0 (true when
    there are no vertices)."""
    seen = frontier = rows[0] if rows else 0
    while frontier:
        step = _union_of_rows(rows, frontier)
        frontier = step & ~seen
        seen |= step
    return seen == (1 << len(rows)) - 1


def _least_positive_power(rows: list[int], bound: int) -> int | None:
    """Least N <= bound with the N-th power of the bitset-row matrix
    entrywise positive, or None.

    A positive power leaves no column of the matrix zero, so every higher
    power is positive too: square until positive (or past ``bound``), then
    binary-search the last doubling with the stored squares.
    """
    full = (1 << len(rows)) - 1

    def positive(matrix: list[int]) -> bool:
        return all(row == full for row in matrix)

    squares = [rows]
    exponent = 1
    while not positive(squares[-1]):
        if exponent >= bound:
            return None
        squares.append(_product(squares[-1], squares[-1]))
        exponent *= 2
    if exponent == 1:
        return 1
    # rows^(exponent/2) is not positive; add the halvings that keep it so
    below, below_exponent = squares[-2], exponent // 2
    for k in range(len(squares) - 3, -1, -1):
        trial = _product(below, squares[k])
        if not positive(trial):
            below, below_exponent = trial, below_exponent + 2 ** k
    return below_exponent + 1 if below_exponent + 1 <= bound else None


def _require_searchable(n: int) -> None:
    if n > 16:
        raise InputError(f"basis of size {n} is too large for exhaustive search")


def _witness_search(f: Automorphism) -> Iterator[tuple[tuple[str, ...], Word]]:
    """Lazily yield every reducibility witness, smallest subsets first.

    Basis letter i is bit i.  For a subset whose images share the prefix c,
    c^-1 . image . c is the rotation image[len(c):] + image[:len(c)], so each
    (image, cut) needs one free reduction, and testing a subset at a cut is
    an OR of support masks.  Every conjugate of an image contains the letters
    of its cyclic core, so only subsets holding the cores of their own images
    are tested at all.
    """
    names = [loop.name for loop in f.basis]
    n = len(names)
    _require_searchable(n)
    images = [f.images[name].letters for name in names]
    bit = {name: 1 << i for i, name in enumerate(names)}
    foreign = 1 << n  # letters outside the basis: no subset allows them

    def support_mask(letters: tuple[Letter, ...]) -> int:
        m = 0
        for g, _ in letters:
            m |= bit.get(g, foreign)
        return m

    lcp = [[_common_prefix_length(u, v) for v in images] for u in images]
    masks: list[dict[int, int]] = [{} for _ in images]

    def mask(i: int, cut: int) -> int:
        m = masks[i].get(cut)
        if m is None:
            image = images[i]
            rotated = Word._of(image[cut:] + image[:cut])
            m = masks[i][cut] = support_mask(rotated.free_reduce().letters)
        return m

    # cores[S] = the core letters of the images in subset S, by doubling
    cores = array("L", [0])
    for image in images:
        core = support_mask(_cyclic_core(image))
        cores += array("L", (core | m for m in cores))

    def generate() -> Iterator[tuple[tuple[str, ...], Word]]:
        bits = [1 << i for i in range(n)]
        for size in range(1, n):
            closed = [s for s in map(sum, combinations(bits, size)) if not cores[s] & ~s]
            for allowed in closed:
                subset = [i for i in range(n) if allowed >> i & 1]
                first = subset[0]
                for cut in range(min(lcp[first][j] for j in subset), -1, -1):
                    m = 0
                    for j in subset:
                        m |= mask(j, cut)
                    if not m & ~allowed:
                        yield tuple(names[j] for j in subset), Word._of(images[first][:cut])
                        break

    return generate()


def _common_prefix_length(u: tuple[Letter, ...], v: tuple[Letter, ...]) -> int:
    length = 0
    for a, b in zip(u, v):
        if a != b:
            break
        length += 1
    return length


def _cyclic_core(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The cyclically reduced word that every conjugate's reduced form contains."""
    reduced = Word._of(letters).free_reduce().letters
    start, stop = 0, len(reduced)
    while stop - start > 1 and reduced[start] == inverse_letter(reduced[stop - 1]):
        start += 1
        stop -= 1
    return reduced[start:stop]


def invariant_factor_witnesses(f: Automorphism) -> list[tuple[tuple[str, ...], Word]]:
    """All proper nonempty basis subsets B with a conjugator c such that
    c^-1 . image(b) . c stays in the letters of B, smallest subsets first.

    The conjugator is the longest prefix, common to all images of B, whose
    stripping achieves purity (empty = syntactic invariance).  A witness
    certifies reducibility; finding none proves nothing.  The search is
    exhaustive over the 2^n - 2 subsets (n <= 16).
    """
    return list(_witness_search(f))


def invariant_factor_witness(f: Automorphism) -> tuple[tuple[str, ...], Word] | None:
    """First (smallest) reducibility witness, or None when no basis-subset
    free factor is preserved up to conjugacy."""
    return next(_witness_search(f), None)
