"""Weight systems and circle-valued Morse data.

A weight system assigns a nonzero integer to every generator and encodes a
circle-valued Morse function on the complex: the vertex maps to the base
point and each generator loop wraps the circle weight-many times.  The
function extends over a square exactly when the boundary weights sum to
zero and opposite letters carry negated signed weights (the affine
condition); corner heights then have a unique minimum and maximum at
opposite corners.

From an admissible weight system we read off:

* ascending / descending links (one min- resp. max-corner edge per square),
  whose tree property certifies a free-by-cyclic splitting;
* the fiber graph over the base point, built explicitly with subdivision
  points on the edges and one arc per integer level crossing each square;
* the kernel rank 1 - chi(fiber) when both links are trees and the fiber
  is connected.

`MorseData` holds these for one weight system, each computed once.
`fibering_scan` reads the same values for each lattice vector from closed
forms and counts fiber components by integer union-find only when a
directional link is disconnected.

The integer lattice of zero-sum weight systems is computed exactly.  A LOG
square ``x v x^-1 u^-1`` only asks for w(u) = w(v), so every square whose
boundary row has exactly one +1 and one -1 entry is contracted by
union-find first; the Smith diagonalization over the integers then runs on
the remaining rows, summed over the contracted classes, and the expanded
kernel is Hermite-reduced to the same canonical basis the full matrix
gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, product, repeat
from math import gcd
from operator import mul
from typing import TYPE_CHECKING, Iterator

from .complexes import Square, SquareComplex, union_find
from .errors import InputError
from .links import CornerEdge, End, square_corners
from .words import generator_stem, signed_weight

if TYPE_CHECKING:
    from .analysis import Analysis

WeightSystem = dict[str, int]

# `fibering_scan` refuses lattices with more coordinate vectors than this
MAX_SCAN_VECTORS = 100_000
# `infinite_fibering_verdict` refuses lattices with more orthants than this
# (rank 13, about a second when no orthant fibers)
MAX_ORTHANTS = 2**13
# the fiber graph functions refuse fibers with more vertices plus arcs than
# this (the torus at weights 10^5 has about 4 * 10^5 and takes about a second)
MAX_FIBER_CELLS = 500_000


def parse_weight_spec(spec: str, c: SquareComplex) -> WeightSystem:
    """Parse ``"a=1,b=2,a0=5"``: stems assign every generator sharing the
    stem, exact names override."""
    stem_values: dict[str, int] = {}
    exact_values: dict[str, int] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip()
        try:
            number = int(value.strip())
        except ValueError:
            raise InputError(f"bad weight {item!r}") from None
        if key in c.generators:
            exact_values[key] = number
        elif key in c.stems():
            stem_values[key] = number
        else:
            raise InputError(f"{key!r} is neither a generator nor a stem of the complex")
    ws: WeightSystem = {}
    for g in c.generators:
        if g in exact_values:
            ws[g] = exact_values[g]
        elif generator_stem(g) in stem_values:
            ws[g] = stem_values[generator_stem(g)]
        else:
            raise InputError(f"no weight given for generator {g!r}")
    return ws


def unit_weights(c: SquareComplex) -> WeightSystem:
    return {g: 1 for g in c.generators}


@dataclass(frozen=True)
class CornerHeights:
    square: int
    heights: tuple[int, int, int, int]  # relative to corner 0
    min_corner: int
    max_corner: int

    @property
    def span(self) -> int:
        return self.heights[self.max_corner] - self.heights[self.min_corner]


def corner_heights(sq: Square, ws: WeightSystem) -> CornerHeights:
    letters = sq.boundary.letters
    w = [s * ws[g] for g, s in letters]
    heights = (0, w[0], w[0] + w[1], w[0] + w[1] + w[2])
    min_corner = min(range(4), key=lambda i: heights[i])
    max_corner = max(range(4), key=lambda i: heights[i])
    # admissibility puts min and max at unique, opposite corners
    assert sorted(heights)[0] < sorted(heights)[1] and sorted(heights)[2] < sorted(heights)[3], sq
    assert (max_corner - min_corner) % 4 == 2, sq
    return CornerHeights(sq.index, heights, min_corner, max_corner)


@dataclass
class AdmissibilityReport:
    admissible: bool
    problems: list[str]
    heights: list[CornerHeights] | None


def check_admissible(c: SquareComplex, ws: WeightSystem) -> AdmissibilityReport:
    problems = []
    for g in c.generators:
        if g not in ws:
            problems.append(f"no weight for generator {g}")
        elif ws[g] == 0:
            problems.append(f"zero weight on generator {g}")
    if not problems:
        for sq in c.squares:
            total = signed_weight(sq.boundary, ws)
            if total != 0:
                problems.append(f"square {sq.index}: boundary weight sum {total} != 0")
                continue
            letters = sq.boundary.letters
            w = [s * ws[g] for g, s in letters]
            if w[0] + w[2] != 0:
                problems.append(
                    f"square {sq.index}: opposite letters carry weights {w[0]} and {w[2]}"
                    " (no affine extension)"
                )
    if problems:
        return AdmissibilityReport(False, problems, None)
    heights = [corner_heights(sq, ws) for sq in c.squares]
    return AdmissibilityReport(True, [], heights)


def require_admissible(c: SquareComplex, ws: WeightSystem) -> list[CornerHeights]:
    return MorseData(c, ws).heights


@dataclass
class DirectionalLink:
    side: str  # "ascending" or "descending"
    vertices: list[End]
    edges: list[CornerEdge]
    is_tree: bool
    components: int


def _graph_stats(vertices: list[End], edges: list[CornerEdge]) -> tuple[bool, int]:
    root, acyclic = union_find(vertices, (e.ends for e in edges))
    components = len(set(root.values()))
    return (acyclic and components == 1), components


def directional_links(
    c: SquareComplex, ws: WeightSystem, heights: list[CornerHeights] | None = None
) -> tuple[DirectionalLink, DirectionalLink]:
    """Ascending and descending links of the vertex.

    A direction-end ascends when moving into it increases the Morse height:
    (g, start) for positive weight, (g, end) for negative.  Each square
    contributes its min-corner edge to the ascending link and its max-corner
    edge to the descending link.  ``heights`` skips the admissibility check
    when the caller already holds the corner heights of ``ws``.
    """
    if heights is None:
        heights = require_admissible(c, ws)
    asc_vertices = [(g, "-") if ws[g] > 0 else (g, "+") for g in c.generators]
    desc_vertices = [(g, "+") if ws[g] > 0 else (g, "-") for g in c.generators]
    asc_edges, desc_edges = [], []
    for sq, h in zip(c.squares, heights):
        corners = square_corners(sq)
        asc_edges.append(corners[h.min_corner])
        desc_edges.append(corners[h.max_corner])
    asc_set, desc_set = set(asc_vertices), set(desc_vertices)
    for e in asc_edges:
        assert set(e.ends) <= asc_set, e
    for e in desc_edges:
        assert set(e.ends) <= desc_set, e
    asc_tree, asc_comp = _graph_stats(asc_vertices, asc_edges)
    desc_tree, desc_comp = _graph_stats(desc_vertices, desc_edges)
    return (
        DirectionalLink("ascending", asc_vertices, asc_edges, asc_tree, asc_comp),
        DirectionalLink("descending", desc_vertices, desc_edges, desc_tree, desc_comp),
    )


BASE_VERTEX = ("*", 0)  # the unique vertex of the complex, as a fiber vertex

FiberVertex = tuple[str, int]


@dataclass
class FiberGraph:
    vertices: list[FiberVertex]
    edges: list[tuple[FiberVertex, FiberVertex, int, int]]  # (u, v, square, level)
    chi: int
    connected: bool
    components: int


def _fiber_arcs(c: SquareComplex, ws: WeightSystem) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Vertex count and arcs (u, v, square, level) of the fiber graph of an
    admissible weight system over integer point ids: 0 is the base vertex,
    then the points (g, 1) .. (g, |w_g| - 1) of each generator in order, the
    height rising with the index when w_g > 0 and falling when w_g < 0.  A
    square with corner heights (0, a, a+b, b) and min corner m has an arc at
    each level strictly between corners m and m+2, from the path through
    corner m+1 to the one through m+3; a path meets the levels at its first
    letter's points, the base vertex at its middle corner, then its second
    letter's points.  Refuses more than `MAX_FIBER_CELLS` vertices plus arcs."""
    by_level = {}  # generator -> its point ids in increasing height order
    vertices = 1
    for g in c.generators:
        ids = range(vertices, vertices + abs(ws[g]) - 1)
        by_level[g] = ids if ws[g] > 0 else ids[::-1]
        vertices += len(ids)
    squares = []
    for sq in c.squares:
        g, s = zip(*sq.boundary.letters)
        a, b = s[0] * ws[g[0]], s[1] * ws[g[1]]
        squares.append((sq.index, g, (0, a, a + b, b)))
    cells = vertices + sum(abs(h[1]) + abs(h[3]) - 1 for _, _, h in squares)
    if cells > MAX_FIBER_CELLS:
        raise InputError(
            f"fiber graph of {cells} vertices and arcs exceeds the limit of {MAX_FIBER_CELLS};"
            " lower the weights"
        )
    arcs: list[tuple[int, int, int, int]] = []
    for index, g, heights in squares:
        m = heights.index(min(heights))
        up = chain(by_level[g[m]], (0,), by_level[g[m - 3]])
        down = chain(by_level[g[m - 1]], (0,), by_level[g[m - 2]])
        arcs.extend(zip(up, down, repeat(index), count(heights[m] + 1)))
    return vertices, arcs


def fiber_components(c: SquareComplex, ws: WeightSystem, fiber: tuple | None = None) -> int:
    """Components of the fiber graph of an admissible weight system, by
    union-find over the integer point ids of `_fiber_arcs` (``fiber``, when
    the caller holds them)."""
    vertices, arcs = fiber or _fiber_arcs(c, ws)
    parent = list(range(vertices))
    for u, v, _, _ in arcs:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            vertices -= 1
    return vertices


def fiber_graph(
    c: SquareComplex, ws: WeightSystem, heights: list[CornerHeights] | None = None
) -> FiberGraph:
    """The preimage of the base point: one vertex per subdivision point of
    the edges plus the vertex itself, and one arc per integer level strictly
    between each square's min and max corner heights, as `_fiber_arcs`
    lists them.  ``heights`` skips the admissibility check."""
    if heights is None:
        require_admissible(c, ws)
    fiber = _fiber_arcs(c, ws)
    vertices = [BASE_VERTEX] + [(g, i) for g in c.generators for i in range(1, abs(ws[g]))]
    edges = [(vertices[u], vertices[v], square, level) for u, v, square, level in fiber[1]]
    components = fiber_components(c, ws, fiber)
    return FiberGraph(vertices, edges, len(vertices) - len(edges), components == 1, components)


class MorseData:
    """Admissibility, corner heights, directional links and fiber graph of
    one weight system, each computed once on first use."""

    def __init__(self, c: SquareComplex, ws: WeightSystem):
        self.complex = c
        self.weights = dict(ws)
        self.admissibility = check_admissible(c, ws)

    @property
    def heights(self) -> list[CornerHeights]:
        report = self.admissibility
        if not report.admissible:
            raise InputError("inadmissible weight system: " + "; ".join(report.problems))
        assert report.heights is not None
        return report.heights

    @cached_property
    def links(self) -> tuple[DirectionalLink, DirectionalLink]:
        return directional_links(self.complex, self.weights, self.heights)

    @cached_property
    def fiber(self) -> FiberGraph:
        return fiber_graph(self.complex, self.weights, self.heights)

    def fibration_failures(self) -> Iterator[tuple[str, int]]:
        """The failed conditions for a kernel rank, in order, each with its
        component count: tree ascending and descending links and a connected
        fiber.  The fiber is built only when asked for its condition."""
        asc, desc = self.links
        if not asc.is_tree:
            yield "ascending link is not a tree", asc.components
        if not desc.is_tree:
            yield "descending link is not a tree", desc.components
        if not self.fiber.connected:
            yield "fiber is disconnected", self.fiber.components

    def require_fibration(self) -> None:
        """Raise InputError naming the first failed condition for a kernel rank."""
        for condition, components in self.fibration_failures():
            raise InputError(f"{condition} ({components} components)")


def kernel_rank(c: SquareComplex, ws: WeightSystem) -> int:
    """Rank of the free kernel of the weight homomorphism: 1 - chi(fiber).

    Requires an admissible weight system whose ascending and descending
    links are trees and whose fiber is connected; failures name the broken
    condition.
    """
    data = MorseData(c, ws)
    data.require_fibration()
    return 1 - data.fiber.chi


# ----------------------------------------------------------------------
# integer lattice of zero-sum weight systems


def _kernel_basis_int(rows: list[list[int]], n: int) -> list[list[int]]:
    """Basis of the integer kernel of the matrix with the given rows.

    Diagonalizes A*V by integer row and column operations, tracking V;
    kernel = columns of V hitting zero diagonal entries.  The result is a
    saturated lattice (every integer solution is an integer combination).
    """
    a = [row[:] for row in rows]
    m = len(a)
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_col(dst, src, q):
        for row in a:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    while t < min(m, n):
        # smallest-magnitude pivot in the remaining block
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            swap_cols(t, pj)
        for i in range(t + 1, m):
            q = a[i][t] // a[t][t]
            if q:
                for j in range(n):
                    a[i][j] -= q * a[t][j]
        for j in range(t + 1, n):
            q = a[t][j] // a[t][t]
            if q:
                add_col(j, t, q)
        if any(a[i][t] for i in range(t + 1, m)) or any(a[t][j] for j in range(t + 1, n)):
            continue  # remainders survive; repick a (strictly smaller) pivot
        t += 1

    basis = []
    for j in range(t, n):
        assert all(row[j] == 0 for row in a), "diagonalization left a nonzero column"
        basis.append([v[i][j] for i in range(n)])
    return _hermite_rows(basis, n)


def _hermite_rows(rows: list[list[int]], n: int) -> list[list[int]]:
    """Row-style Hermite normal form: canonical basis for the row lattice."""
    mat = [row[:] for row in rows if any(row)]
    r = 0
    for col in range(n):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, len(mat)):
            while mat[i][col] != 0:
                q = mat[r][col] // mat[i][col]
                mat[r] = [x - q * y for x, y in zip(mat[r], mat[i])]
                mat[r], mat[i] = mat[i], mat[r]
        if mat[r][col] < 0:
            mat[r] = [-x for x in mat[r]]
        for i in range(r):
            q = mat[i][col] // mat[r][col]
            if q:
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return [row for row in mat[:r]]


def weight_lattice(c: SquareComplex) -> list[WeightSystem]:
    """Basis of the lattice of integer weight systems with zero sum on every
    square boundary (zero weights allowed here; admissibility is separate).
    Rows ``e_u - e_v`` are contracted first, as the module docstring says."""
    pairs, rows = [], []
    for sq in c.squares:
        row: dict[str, int] = {}
        for g, s in sq.boundary:
            row[g] = row.get(g, 0) + s
        support = {g: k for g, k in row.items() if k}
        if sorted(support.values()) == [-1, 1]:
            pairs.append(tuple(support))
        elif support:
            rows.append(support)
    root, _ = union_find(c.generators, pairs)
    column = {r: j for j, r in enumerate(dict.fromkeys(root.values()))}
    contracted = []
    for support in rows:
        vec = [0] * len(column)
        for g, k in support.items():
            vec[column[root[g]]] += k
        contracted.append(vec)
    kernel = _kernel_basis_int(contracted, len(column))
    expanded = [[vec[column[root[g]]] for g in c.generators] for vec in kernel]
    basis = _hermite_rows(expanded, len(c.generators))
    return [dict(zip(c.generators, vec)) for vec in basis]


def _analysis_of(c: SquareComplex, analysis: Analysis | None) -> Analysis:
    if analysis is not None:
        return analysis
    from .analysis import Analysis  # imports this module

    return Analysis(c)


def _combine_basis(basis: list[WeightSystem], coords: tuple[int, ...], c: SquareComplex) -> WeightSystem:
    return {g: sum(k * b[g] for k, b in zip(coords, basis)) for g in c.generators}


def fibering_scan(c: SquareComplex, bound: int, analysis: Analysis | None = None) -> list[dict]:
    """One row per lattice vector with coordinates in [-bound, bound]
    (zero-weight vectors excluded), in lexicographic coordinate order.

    Each row costs integer work linear in generators and squares, with the
    same values `MorseData` would give:

    * admissible iff, on every square, both pairs of opposite letters carry
      negated signed weights (together: zero boundary sum and the affine
      condition), tested on the vector itself;
    * the directional links depend only on the signs of the weights
      (corner heights are (0, a, a+b, b) for the signed weights a, b of
      letters 0 and 1), so they come from `Analysis.sign_links`, built once
      per sign vector;
    * chi = 1 + sum_g (|w_g| - 1) - sum_squares (|a| + |b| - 1), the vertex
      and arc count of `fiber_graph`;
    * when both links are connected, every level set of a primitive weight
      map is connected (Bestvina-Brady, Morse lemma), and the fiber of
      d times a primitive map is d disjoint level sets, so it has
      gcd(weights) components; otherwise `fiber_components` counts them.

    Refuses scans of more than `MAX_SCAN_VECTORS` coordinate vectors."""
    if bound < 1:
        raise InputError("scan bound must be >= 1")
    analysis = _analysis_of(c, analysis)
    basis = analysis.lattice
    vectors = (2 * bound + 1) ** len(basis)
    if vectors > MAX_SCAN_VECTORS:
        raise InputError(
            f"scan of {vectors} vectors ((2*{bound}+1)^{len(basis)}) exceeds the limit of"
            f" {MAX_SCAN_VECTORS}; lower the bound"
        )
    generators = c.generators
    span = range(-bound, bound + 1)
    # multiples[i][k + bound] = k times basis vector i, in generator order
    multiples = [[[k * b[g] for g in generators] for k in span] for b in basis]
    index = {g: i for i, g in enumerate(generators)}
    # opposite letters (index, sign, index, sign) whose signed weights must
    # cancel; a letter against its own inverse always does
    opposite = []
    # chi = chi_constant + sum_g chi_coefficient[g] * |w_g|
    chi_coefficient = [1] * len(generators)
    for sq in c.squares:
        (g0, s0), (g1, s1), (g2, s2), (g3, s3) = sq.boundary.letters
        for g, s, h, t in ((g0, s0, g2, s2), (g1, s1, g3, s3)):
            if g != h or s != -t:
                opposite.append((index[g], s, index[h], t))
        chi_coefficient[index[g0]] -= 1
        chi_coefficient[index[g1]] -= 1
    opposite = list(dict.fromkeys(opposite))
    chi_constant = 1 - len(generators) + len(c.squares)

    rows = []
    for coords, parts in zip(product(span, repeat=len(basis)), product(*multiples)):
        if not any(coords):
            continue
        w = list(map(sum, zip(*parts)))
        if 0 in w:
            continue
        ws = dict(zip(generators, w))
        row: dict = {"coords": list(coords), "weights": ws}
        row["admissible"] = all(s * w[i] + t * w[j] == 0 for i, s, j, t in opposite)
        row["primitive"] = gcd(*coords) == 1
        if not row["admissible"]:
            row.update({"asc_tree": None, "desc_tree": None, "chi": None,
                        "components": None, "rank": None})
            rows.append(row)
            continue
        asc, desc = analysis.sign_links(ws)
        chi = chi_constant + sum(map(mul, chi_coefficient, map(abs, w)))
        if asc.components == 1 and desc.components == 1:
            components = gcd(*w)
        else:
            components = fiber_components(c, ws)
        row["asc_tree"] = asc.is_tree
        row["desc_tree"] = desc.is_tree
        row["chi"] = chi  # vertex count minus arc count of the fiber graph
        row["components"] = components
        if asc.is_tree and desc.is_tree and components == 1:
            row["rank"] = 1 - chi
        else:
            row["rank"] = None
            if components != 1:
                row["note"] = (
                    f"disconnected fiber ({components} components);"
                    " chi is the direct count, no rank claim"
                )
        rows.append(row)
    return rows


def infinite_fibering_verdict(c: SquareComplex, analysis: Analysis | None = None) -> dict:
    """Does the complex fiber in infinitely many ways?

    YES when the weight lattice has rank >= 2 and some sign pattern
    (orthant) admits weight systems whose ascending and descending links
    are trees.  Tree-ness depends only on the signs, so one representative
    per orthant decides the whole orthant.  Refuses lattices with more than
    `MAX_ORTHANTS` orthants.
    """
    analysis = _analysis_of(c, analysis)
    basis = analysis.lattice
    rank = len(basis)
    out: dict = {"lattice_rank": rank, "infinite_fibering": False, "orthant": None}
    if rank < 2:
        out["reason"] = "weight lattice has rank < 2"
        return out
    # the affine condition is linear, so it holds lattice-wide iff it holds on
    # every basis vector; with no zero weight it makes a representative admissible
    for sq in c.squares:
        letters = sq.boundary.letters
        for b in basis:
            w = [s * b[g] for g, s in letters]
            if w[0] + w[2] != 0:
                out["reason"] = f"square {sq.index} admits no affine extension on the lattice"
                return out
    # a generator that weighs zero on every basis vector weighs zero on the
    # whole lattice, so no orthant has a representative to try
    if any(all(b[g] == 0 for b in basis) for g in c.generators):
        out["reason"] = "no orthant yields tree ascending and descending links"
        return out
    if 2**rank > MAX_ORTHANTS:
        raise InputError(
            f"infinite-fibering search over {2**rank} orthants (lattice rank {rank}) exceeds"
            f" the limit of {MAX_ORTHANTS}"
        )
    for signs in product((1, -1), repeat=rank):
        representative = None
        for coeffs in product(range(1, 4), repeat=rank):
            ws = _combine_basis(basis, tuple(s * k for s, k in zip(signs, coeffs)), c)
            if all(w != 0 for w in ws.values()):
                representative = ws
                break
        if representative is None:
            continue
        asc, desc = analysis.sign_links(representative)
        if asc.is_tree and desc.is_tree:
            out["infinite_fibering"] = True
            out["orthant"] = ["+" if s > 0 else "-" for s in signs]
            return out
    out["reason"] = "no orthant yields tree ascending and descending links"
    return out
