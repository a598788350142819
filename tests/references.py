"""Reference implementations the tests compare the library against.

Each reads its value the slow, direct way: a union-find over any hashable
vertices, each square's corner heights sorted for their min and max, a
link's triangles by probing every edge's ends for common neighbours, the
infinite-fibering orthant by trying all 2^rank sign patterns, and a
transition matrix by counting its images letter by letter.
"""

from itertools import product
from typing import NamedTuple

from logfiber import directional_links


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


class CornerHeights(NamedTuple):
    square: int
    heights: tuple[int, int, int, int]  # relative to corner 0
    min_corner: int
    max_corner: int

    @property
    def span(self) -> int:
        return self.heights[self.max_corner] - self.heights[self.min_corner]


def corner_heights(sq, ws) -> CornerHeights:
    letters = sq.boundary.letters
    w = [s * ws[g] for g, s in letters]
    heights = (0, w[0], w[0] + w[1], w[0] + w[1] + w[2])
    low, second, third, high = sorted(heights)
    min_corner, max_corner = heights.index(low), heights.index(high)
    # admissibility puts min and max at unique, opposite corners
    assert low < second and third < high, sq
    assert (max_corner - min_corner) % 4 == 2, sq
    return CornerHeights(sq.index, heights, min_corner, max_corner)


def triangles(link) -> tuple[list, bool]:
    """`links._triangles` as it was before its disjoint-neighbour prefilter:
    every non-loop edge i = (a, b) probes the larger of its ends' neighbour
    dicts with the smaller for a common neighbour c, and keeps edges j on
    {b, c} and k on {c, a} with i < j < k, as edge-number triples.  The
    ``j < k`` filter is the known defect that the bench report hashes were
    recorded with.  Also returns whether any common neighbour was found."""
    near = link.near
    out, spanned = [], False
    for i, (a, b) in enumerate(link.ends):
        if a == b:
            continue
        found = []
        small, large = (near[a], near[b]) if len(near[a]) <= len(near[b]) else (near[b], near[a])
        for c in small:
            if c not in large:
                continue
            spanned = True
            for j in near[b][c]:
                for k in near[c][a]:
                    if i < min(j, k) and j < k:
                        found.append((min(j, k), max(j, k)))
        out.extend((i, j, k) for j, k in sorted(found))
    return out, spanned


def fibering_orthant(c, basis) -> list[str] | None:
    """The first sign pattern in `itertools.product` order over all 2^rank
    of them whose first representative with no zero weight, among the
    combinations of the ``basis`` with coefficients 1-3 signed by the
    pattern, has tree ascending and descending links, each link built from
    the weights with its admissibility check; None if there is none.  For
    complexes whose affine condition holds on the whole lattice."""
    for signs in product((1, -1), repeat=len(basis)):
        for coeffs in product(range(1, 4), repeat=len(basis)):
            ws = {g: sum(s * k * b[g] for s, k, b in zip(signs, coeffs, basis))
                  for g in c.generators}
            if 0 not in ws.values():
                asc, desc = directional_links(c, ws)
                if asc.is_tree and desc.is_tree:
                    return ["+" if s > 0 else "-" for s in signs]
                break
    return None


def transition_matrix(f) -> tuple:
    """`monodromy.transition_matrix` as it was before its columns were built
    by C-level calls: each image counted letter by letter into the counts and
    the row and column bitsets, and unions of rows taken bit by bit.  Returns
    (order, matrix, irreducible, primitive, witness_power)."""
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
    irreducible = _reached_from_first(rows) and _reached_from_first(columns)
    witness_power = _least_positive_power(rows, (n - 1) ** 2 + 1) if irreducible else None
    matrix = tuple(map(tuple, counts))
    return order, matrix, irreducible, witness_power is not None, witness_power


def _union_of_rows(rows, mask):
    full = (1 << len(rows)) - 1
    out = 0
    while mask and out != full:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _product(a, b):
    return [_union_of_rows(b, row) for row in a]


def _reached_from_first(rows):
    seen = frontier = rows[0] if rows else 0
    while frontier:
        step = _union_of_rows(rows, frontier)
        frontier = step & ~seen
        seen |= step
    return seen == (1 << len(rows)) - 1


def _least_positive_power(rows, bound):
    full = (1 << len(rows)) - 1

    def positive(matrix):
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
    below, below_exponent = squares[-2], exponent // 2
    for k in range(len(squares) - 3, -1, -1):
        trial = _product(below, squares[k])
        if not positive(trial):
            below, below_exponent = trial, below_exponent + 2 ** k
    return below_exponent + 1 if below_exponent + 1 <= bound else None
