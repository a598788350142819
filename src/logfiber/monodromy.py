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
the directional-link trees, over the end numbers of the complex's
`SquareComplex.letter_ends`.  The trees' vertex sets are disjoint (a
direction-end ascends for one sign of its weight and descends for the
other), so one table, `_crossings`, holds both: each square's max-corner
edge (descending tree) and min-corner edge (ascending tree), in both
directions.  It is built on the first rewrite, so `analyze`, which shows
the basis only, never builds it, and rooted on the first route request
into flat lists indexed by end number (`_tree`).

* Phase 1 (flattening, `_flatten`): while the height profile leaves
  {0, 1}, take the leftmost highest point while the top is at least 2,
  else the leftmost lowest; splice the rest of the square of the first
  edge toward the other side over the entering letter, in place,
  cancelling only at the splice's two junctions.  A word that needs more
  than `MAX_PEAK_STEPS` steps is refused.

* Phase 2 (harvesting): a flat word is a concatenation of unit peaks
  ``x . y``; the tree path from the arrival end of ``x`` to the departure
  end of ``y`` (`_climb`) gives its basis letters.  A tree path crosses
  each square once, so only the junctions between peaks cancel
  (`join_reduced`).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, namedtuple
from collections.abc import Iterator
from functools import cached_property, reduce
from itertools import compress, repeat
from operator import itemgetter, or_

from .analysis import Analysis
from .complexes import SquareComplex
from .errors import InputError
from .morse import WeightSystem, directional_links, require_fibration
from .words import Letter, Word, generator_stem, inverse_letter, join_reduced, signed_weight

_GREEK = ("α", "β", "δ", "ε", "ζ", "η")

# peak steps `MonodromyContext.rewrite` allows one word: a budget, for on LOT k
# the steps of a fixed-length conjugator's images grow like k^2
MAX_PEAK_STEPS = 100_000

# (letter entering `from`, the rest of the square's boundary, signed basis letter)
Crossing = tuple[Letter, tuple[Letter, Letter, Letter], Letter]


# rep: e2 * e3 of the boundary rotated to start at the min corner
BasisLoop = namedtuple("BasisLoop", ("square", "name", "rep", "rotated"))


def _conjugator_of(boundary: Word) -> str | None:
    letters = boundary.letters
    for i in (0, 1):
        g, s = letters[i]
        h, t = letters[i + 2]
        if g == h and s == -t:
            return g
    return None


class MonodromyContext:
    """Shared data for rewriting over one unit weight system of ``source``, a
    complex or its `Analysis`."""

    def __init__(self, source: SquareComplex | Analysis, ws: WeightSystem):
        a = Analysis.of(source)
        c = a.complex
        links = directional_links(a, ws)
        bad = sorted(g for g in c.generators if abs(ws[g]) != 1)
        if bad:
            raise InputError(
                f"monodromy needs all weights +-1 (rank-only mode otherwise); got {bad}"
            )
        # at unit weights the fiber is a one-vertex bouquet, always connected
        require_fibration(links)
        self.complex = c
        self.weights = dict(ws)

        greek = {stem: _GREEK[i] if i < len(_GREEK) else f"x{i}"
                 for i, stem in enumerate(c.stems())}
        named = {g: greek[stem] + g[len(stem):]  # each generator's loop name, once
                 for g, stem in zip(c.generators, map(generator_stem, c.generators))}
        names = [named.get(_conjugator_of(sq.boundary), "γ") for sq in c.squares]
        clashes = Counter(names)
        used: set[str] = set()
        self.basis: list[BasisLoop] = []
        self._rooting: tuple[list, ...] | None = None  # by `_tree`
        for sq, m, name in zip(c.squares, a.min_corners(ws), names):
            # disambiguate clashes deterministically by square id
            if clashes[name] > 1 or name in used:
                name = f"{name}{sq.index}"
                while name in used:
                    name += "x"
            used.add(name)
            rotated = sq.boundary.letters[m:] + sq.boundary.letters[:m]
            self.basis.append(BasisLoop(sq.index, name, Word._of(rotated[1:3]), rotated))

    @cached_property
    def _crossings(self) -> list[dict[int, Crossing]]:
        """Both trees (every end lies in one): end -> {neighbour end: crossing}.
        Once `require_fibration` has passed, "parallel tree edges" cannot fire: a
        repeat would be a loop or a parallel edge in one tree (they share no end)."""
        ends = self.complex.letter_ends
        crossings: list[dict[int, Crossing]] = [{} for _ in range(len(ends))]
        for loop in self.basis:
            e1, e2, e3, e4 = loop.rotated
            i1, i2, i3, i4 = map(inverse_letter, loop.rotated)
            # e1 e2 e3 e4 = 1 makes each entering letter x equal to its rest
            # and to loop^s . rest[-1]; the max corner's edge (the first two
            # rows) lies in the descending tree, the min corner's in the ascending
            for x, rest, s in ((e2, (i1, i4, i3), 1), (i3, (e4, e1, e2), -1),
                               (e4, (i3, i2, i1), -1), (i1, (e2, e3, e4), 1)):
                frm, to = ends[x][0], ends[rest[-1]][0]
                assert to not in crossings[frm], "parallel tree edges"
                crossings[frm][to] = (x, rest, (loop.name, s))
        return crossings

    def _tree(self, u: int, v: int) -> tuple[list, ...]:
        """The trees of `_crossings`, rooted on the first call, after checking that
        ``u`` and ``v`` share one: lists indexed by end of its parent (-1 at a
        root), depth, DFS preorder entry and exit (the subtree is entry..exit-1),
        root, children in entry order, and the basis letters for crossing up to
        the parent and down from it."""
        rooting = self._rooting
        if rooting is None:
            rooting = self._rooting = self._root()
        root = rooting[4]
        if root[u] != root[v]:
            raise AssertionError(f"no tree path from end {u} to end {v}")
        return rooting

    def _root(self) -> tuple[list, ...]:
        crossings, ends = self._crossings, self.complex.letter_ends
        n = len(crossings)
        parent, depth, entry, exit_, root = [-1] * n, [0] * n, [0] * n, [0] * n, [-1] * n
        children: list[list[int]] = [[] for _ in range(n)]
        up: list[Letter | None] = [None] * n  # the basis letter for crossing to the parent
        down: list[Letter | None] = [None] * n  # and for crossing back
        order: list[int] = []
        for r in range(n):
            if root[r] >= 0:
                continue
            root[r], stack = r, [r]
            while stack:
                w = stack.pop()
                entry[w] = len(order)
                exit_[w] = len(order) + 1
                order.append(w)
                if parent[w] >= 0:
                    children[parent[w]].append(w)
                for z in crossings[w]:
                    if root[z] < 0:
                        root[z], parent[z], depth[z] = r, w, depth[w] + 1
                        stack.append(z)
        for w in reversed(order):  # a subtree's exit is its last descendant's
            p = parent[w]
            if p >= 0:
                exit_[p] = max(exit_[p], exit_[w])
                # every climb hop is one of these crossings, so checking here that each
                # enters and leaves at the edge's ends chains a peak's letters x..y^-1
                (x, rest, up[w]), (y, back, down[w]) = crossings[w][p], crossings[p][w]
                assert ends[x][0] == w and ends[rest[-1]][0] == p, ("up", w, x)
                assert ends[y][0] == p and ends[back[-1]][0] == w, ("down", w, y)
        return parent, depth, entry, exit_, root, children, up, down

    def _first_hop(self, u: int, v: int) -> int:
        """The next end after ``u`` toward ``v != u``: the parent, unless ``u`` is
        a proper ancestor of ``v``; then the child whose subtree holds ``v``."""
        parent, _, entry, exit_, _, children, _, _ = self._tree(u, v)
        at = entry[v]
        if entry[u] < at < exit_[u]:
            return children[u][bisect_right(children[u], at, key=entry.__getitem__) - 1]
        return parent[u]

    def _climb(self, u: int, v: int) -> list[Letter]:
        """The basis letters of the tree path from ``u`` to ``v``: the deeper end
        climbs until both meet."""
        parent, depth, _, _, _, _, up, down = self._tree(u, v)
        ups, downs = [], []
        du, dv = depth[u], depth[v]
        for _ in range(du - dv):
            ups.append(up[u])
            u = parent[u]
        for _ in range(dv - du):
            downs.append(down[v])
            v = parent[v]
        while u != v:
            ups.append(up[u])
            downs.append(down[v])
            u, v = parent[u], parent[v]
        downs.reverse()
        return ups + downs

    # -- peak reduction ------------------------------------------------

    def _flatten(self, letters: list[Letter]) -> list[Letter]:
        """``letters``, reduced, rewritten until its heights stay in {0, 1}.

        It ends.  Let e(h) = h - 1 for h >= 2, -h for h <= -1, else 0, and E
        the step's extreme (the top while >= 2, then the bottom).  A step
        puts a square's rest in place of the letter entering the leftmost E,
        adding two heights strictly inside E (asserted below); cancelling
        only removes heights.  The rest's last letter arrives one tree edge
        nearer the end the letter leaving E departs from, and cancels that
        letter at distance 1, removing E.  So (E is a top, e(E), the count of
        heights E, that distance) falls lexicographically on N^4, which is
        well-founded.  The positive e(h) alone need not fall as a multiset:
        the splice keeps E.  `MAX_PEAK_STEPS` stays as the budget."""
        weights, ends = self.weights, self.complex.letter_ends
        letters = list(Word._of(tuple(letters)).free_reduce())
        h = [0]
        for g, s in letters:
            h.append(h[-1] + s * weights[g])
        extreme = count = j = 0  # count heights equal the extreme, none left of j
        for _ in range(MAX_PEAK_STEPS):
            if count:
                j = h.index(extreme, j)
            else:
                extreme = max(h)
                if extreme < 2 and (extreme := min(h)) >= 0:
                    return letters
                count, j = h.count(extreme), h.index(extreme)
            x, y = letters[j - 1], letters[j]
            d_left, d_right = ends[x][0], ends[y][1]
            assert d_left != d_right, "free reduction missed a cancelling peak or valley"
            entering, rest, _ = self._crossings[d_left][self._first_hop(d_left, d_right)]
            assert x == entering, (x, entering)
            (g1, s1), (g2, s2), _ = rest
            h1 = h[j - 1] + s1 * weights[g1]
            h2 = h1 + s2 * weights[g2]
            # at unit weights a square's one top and one bottom corner are two apart, so the new
            # heights stay below a peak, or between a valley (at most -1) and 2: while count > 0,
            # a rescan would pick the same extreme
            assert (max(h1, h2) < extreme if extreme >= 2
                    else extreme < min(h1, h2) and max(h1, h2) < 2), "a step passed its extreme"
            h[j:j] = (h1, h2)
            letters[j - 1:j] = rest
            # the word on each side and the square's rest are reduced, so pairs cancel
            # only at the splice's junctions; the right one first keeps the left at j - 1
            for i in (j + 2, j - 1):
                while 0 < i < len(letters) and letters[i - 1] == inverse_letter(letters[i]):
                    del letters[i - 1:i + 1]
                    count -= (h[i] == extreme) + (h[i + 1] == extreme)
                    del h[i:i + 2]
                    j = min(j, i)  # heights left of j are unchanged, so none is the extreme
                    i -= 1
        raise InputError(f"peak reduction exceeds the budget of {MAX_PEAK_STEPS} steps;"
                         " use a shorter conjugator")

    def rewrite(self, word: Word) -> Word:
        """Express a weight-zero word in the fiber-loop basis."""
        if signed_weight(word, self.weights) != 0:
            raise InputError(f"cannot rewrite {word}: weight is nonzero")
        letters, ends = self._flatten(list(word)), self.complex.letter_ends
        return join_reduced([self._climb(ends[x][0], ends[y][1])
                             for x, y in zip(letters[::2], letters[1::2])])

    def push_to_generators(self, basis_word: Word) -> Word:
        """Substitute each basis letter by its representative (free-reduced)."""
        return _substitute(basis_word, {loop.name: loop.rep for loop in self.basis})


def _substitute(word: Word, images: dict[str, Word]) -> Word:
    """Each letter of ``word`` replaced by its image (inverted for an
    inverse letter), free-reduced; the images must be reduced."""
    pieces = {(name, 1): image.letters for name, image in images.items()}
    for name, _ in set(word.letters) - pieces.keys():
        pieces[name, -1] = images[name].inverse().letters
    return join_reduced(map(pieces.__getitem__, word.letters))


class Automorphism(namedtuple("Automorphism", ("images", "conjugator", "tag", "context"))):
    # images: basis name -> word in basis letters;
    # tag: "monodromy" (weight +-1) or "inner" (weight 0)
    __slots__ = ()

    @property
    def basis(self) -> list[BasisLoop]:
        return self.context.basis

    def is_identity(self) -> bool:
        return all(
            image.letters == ((name, 1),) for name, image in self.images.items()
        )


def conjugation_automorphism(
    t: Word | str,
    source: SquareComplex | Analysis,
    ws: WeightSystem,
    for_witness_search: bool = False,
) -> Automorphism:
    """The automorphism of the fiber kernel of ``source`` (a complex or its
    `Analysis`) induced by conjugation with a word of weight -1, 0 or +1 (a
    monodromy for weight +-1, an inner twist of the kernel for weight 0).
    Errors come in order: an unusable complex or weight system, a malformed
    ``t``, its weight, then (``for_witness_search``) a basis too large for
    `invariant_factor_witnesses`, before any rewriting."""
    ctx = MonodromyContext(source, ws)
    return _conjugate(Word.parse(t) if isinstance(t, str) else t, ctx, for_witness_search)


def _conjugate(t: Word, ctx: MonodromyContext, for_witness_search: bool = False) -> Automorphism:
    weight = signed_weight(t, ctx.weights)
    if abs(weight) > 1:
        raise InputError(f"unsupported conjugator {t}: weight {weight} not in -1..1")
    if for_witness_search:
        _require_searchable(len(ctx.basis))
    t = t.free_reduce()
    t_inv = t.inverse().letters
    images = {loop.name: ctx.rewrite(join_reduced((t.letters, loop.rep.letters, t_inv)))
              for loop in ctx.basis}
    return Automorphism(images, t, "monodromy" if weight else "inner", ctx)


def compose(f: Automorphism, g: Automorphism) -> Automorphism:
    """f after g: substitute f's images into g's image words."""
    if [l.name for l in f.basis] != [l.name for l in g.basis]:
        raise InputError("cannot compose automorphisms over different bases")
    images = {name: _substitute(word, f.images) for name, word in g.images.items()}
    conjugator = join_reduced((f.conjugator.letters, g.conjugator.letters))
    weight = signed_weight(conjugator, f.context.weights)
    return Automorphism(images, conjugator, "monodromy" if weight else "inner", f.context)


def invert(f: Automorphism) -> Automorphism:
    """Conjugation by the inverse conjugator, over ``f``'s own context."""
    return _conjugate(f.conjugator.inverse(), f.context)


class TransitionMatrix(namedtuple("TransitionMatrix",
                                   ("order", "matrix", "irreducible", "primitive", "witness_power"))):
    """The letter-count matrix M of an automorphism's images on the rose of
    basis loops, one topological representative; ``irreducible``,
    ``primitive`` and ``witness_power`` are properties of M, not of the
    automorphism.  ``order`` holds the basis names in row/column order,
    entry (i, j) of ``matrix`` counts letter i in the image of j, and
    ``witness_power`` is the least N with M^N entrywise positive."""

    __slots__ = ()


def transition_matrix(f: Automorphism) -> TransitionMatrix:
    """Occurrence counts of basis letters in the images, with the
    Perron-Frobenius classification of that matrix, a property of the rose
    representative and not of ``f``: irreducible = strongly connected
    dependency digraph, primitive = some power entrywise positive (least
    witness searched up to the Wielandt bound (n-1)^2 + 1).

    The digraph has an edge i -> j when entry (i, j) is positive; row i is
    the bitset of those j, column j the bitset of those i.  An image of at
    most n letters whose letter bits sum to a number of as many bits repeats
    no letter: the sum is its column's bitset and its bits the column; any
    other image is counted by a `Counter`.  An empty basis has no matrix to
    classify and is refused."""
    if not f.basis:
        raise InputError("the fiber-loop basis is empty; there is no transition matrix to classify")
    order = [loop.name for loop in f.basis]
    n = len(order)
    bits = {name: 1 << i for i, name in enumerate(order)}
    columns, supports = [], []
    for name in order:
        letters = f.images[name].letters
        support = 0
        if len(letters) <= n:
            support = sum(map(bits.__getitem__, map(itemgetter(0), letters)))
        if support.bit_count() == len(letters):
            columns.append(list(_flags(support, n)))
        else:
            counts = Counter(map(itemgetter(0), letters))
            columns.append(list(map(counts.get, order, repeat(0))))
            support = sum(map(bits.__getitem__, counts))
        supports.append(support)
    matrix = tuple(zip(*columns))
    rows = list(map(_bitset, matrix))
    # strongly connected iff every loop is reached from loop 0 and reaches
    # it by a nonempty path (for n = 1 that asks for a positive entry)
    irreducible = _reached_from_first(rows) and _reached_from_first(supports)
    witness_power = _least_positive_power(rows, (n - 1) ** 2 + 1) if irreducible else None
    return TransitionMatrix(order, matrix, irreducible, witness_power is not None, witness_power)


# byte -> "0" for 0, else "1"; and the binary digits "0", "1" -> bytes 0, 1
_NONZERO = bytes.maketrans(bytes(range(256)), b"0" + b"1" * 255)
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _flags(mask: int, n: int = 0) -> bytes:
    """Byte i is bit i of ``mask``, for at least ``n`` bytes."""
    return bin(mask)[:1:-1].ljust(n, "0").encode().translate(_DIGITS)


def _bitset(counts) -> int:
    """The bitset of the positive entries of ``counts`` (n >= 1 ints >= 0), read
    from one byte per entry."""
    try:
        flags = bytes(counts)
    except ValueError:  # an entry above 255
        flags = bytes(map(bool, counts))
    return int(flags[::-1].translate(_NONZERO), 2)


def _union_of_rows(rows: list[int], mask: int) -> int:
    """OR of the rows whose bits are set in ``mask``."""
    return reduce(or_, compress(rows, _flags(mask)), 0)


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

    Basis letter i is bit n-1-i.  For a subset whose images share the prefix
    c, c^-1 . image . c is the rotation image[len(c):] + image[:len(c)], so
    each (image, cut) needs one free reduction, and testing a subset at a cut
    is an OR of support masks.  Every conjugate of an image contains the
    letters of its cyclic core, so a witness subset is closed: it holds the
    cores of its own images.  Only the closed subsets, from `_closed_subsets`,
    are tested, so the search stays exhaustive.
    """
    names = [loop.name for loop in f.basis]
    n = len(names)
    _require_searchable(n)
    images = [f.images[name].letters for name in names]
    bits = [1 << (n - 1 - i) for i in range(n)]
    bit = dict(zip(names, bits))
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

    order = _closed_subsets([support_mask(_cyclic_core(image)) for image in images])

    def generate() -> Iterator[tuple[tuple[str, ...], Word]]:
        for allowed in order:
            subset = [i for i in range(n) if allowed & bits[i]]
            first = subset[0]
            for cut in range(min(lcp[first][j] for j in subset), -1, -1):
                m = 0
                for j in subset:
                    m |= mask(j, cut)
                if not m & ~allowed:
                    yield tuple(names[j] for j in subset), Word._of(images[first][:cut])
                    break

    return generate()


def _closed_subsets(cores: list[int]) -> list[int]:
    """The proper nonempty subsets S of n letters (letter i is bit n-1-i)
    that hold ``cores[i]`` for every letter i in S, smallest first, then in
    `combinations` order.  Bit n in a core stands for a letter outside the
    basis, which no subset holds.

    Iterating the cores from one letter to a fixpoint gives its least closed
    subset; a union of closed subsets is closed, and a closed subset is the
    union of its letters' least ones.  Among subsets of one size, descending
    integer order is `combinations` order."""
    n = len(cores)
    foreign = 1 << n
    members = [(1 << (n - 1 - i), core) for i, core in enumerate(cores)]
    closed = {0}
    for b, _ in members:
        least, grown = 0, b
        while grown != least and not grown & foreign:
            least = grown
            for member, core in members:
                if least & member:
                    grown |= core
        if not grown & foreign and least not in closed:
            closed |= {least | s for s in closed}
    closed -= {0, foreign - 1}
    order = sorted(closed, reverse=True)
    order.sort(key=int.bit_count)
    return order


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
    certifies reducibility; finding none proves nothing.  Only subsets
    holding the cyclic-core letters of their own images can be witnesses,
    and the search tests exactly those, so it stays exhaustive over the
    2^n - 2 proper nonempty subsets (n <= 16).
    """
    return list(_witness_search(f))


def invariant_factor_witness(f: Automorphism) -> tuple[tuple[str, ...], Word] | None:
    """First (smallest) reducibility witness, or None when no basis-subset
    free factor is preserved up to conjugacy."""
    return next(_witness_search(f), None)
