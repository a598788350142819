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
* the fiber graph over the base point, with subdivision points on the edges
  and one arc per integer level crossing each square, built explicitly
  (`fiber_graph`) or counted in closed form (`fiber_counts`);
* the kernel rank 1 - chi(fiber) when both links are trees and the fiber
  is connected.

Min and max corners, and so both directional links and the fiber's square
paths, depend only on the signs of the weights (`min_corners`): `orthant`
builds them as one entry, which `Analysis.orthant` keeps per sign vector.
A function here that takes a weight system reads its check and that entry
(`require_admissible`) and the lattice's affine forms from an `Analysis` of
its one source, and generator numbers from `SquareComplex.generator_index`.
Each directional link is counted by the one integer union-find,
`complexes.union`; `fibering_scan` and `fiber_counts` read the fiber's
values from closed forms and count its components on the entry's paths by
that union-find only when a directional link is disconnected.

The integer lattice of zero-sum weight systems is computed exactly.  A LOG
square ``x v x^-1 u^-1`` only asks for w(u) = w(v), so every square row
with exactly one +1 and one -1 entry is contracted by `complexes.union`
first.  The integer kernel of the remaining rows, summed over the
contracted classes, is read off the row echelon form of [A^T | I] and
put in Hermite normal form; classes are numbered by their first generator,
so the expanded kernel is the same canonical basis the full matrix gives.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import chain, count, islice, product
from math import gcd
from operator import add, mul, neg

from . import analysis  # a cycle: `analysis` imports this module; read at call time only
from .complexes import SquareComplex, union
from .errors import InputError
from .links import LinkGraph
from .words import generator_stem

WeightSystem = dict[str, int]

# `fibering_scan` refuses lattices with more coordinate vectors than this
MAX_SCAN_VECTORS = 100_000
# `infinite_fibering_verdict` refuses lattices with more orthants than this
# (rank 13; when no orthant fibers it tries the half with a leading +, well under a second)
MAX_ORTHANTS = 2**13
# the fiber graph functions refuse fibers with more vertices plus arcs than
# this (the torus at weights 10^5 has about 4 * 10^5 and takes about a second)
MAX_FIBER_CELLS = 500_000


def parse_weight_spec(spec: str, c: SquareComplex) -> WeightSystem:
    """Parse ``"a=1,b=2,a0=5"``: stems assign every generator sharing the
    stem, exact names override."""
    stem_values: dict[str, int] = {}
    exact_values: dict[str, int] = {}
    generators, stems = c.generator_index, set(c.stems())
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
        if key in generators:
            values = exact_values
        elif key in stems:
            values = stem_values
        else:
            raise InputError(f"{key!r} is neither a generator nor a stem of the complex")
        if key in values:
            raise InputError(f"weight for {key!r} given more than once")
        values[key] = number
    ws: WeightSystem = {}
    for g in c.generators:
        if g in exact_values:
            ws[g] = exact_values[g]
        elif (stem := generator_stem(g)) in stem_values:
            ws[g] = stem_values[stem]
        else:
            raise InputError(f"no weight given for generator {g!r}")
    return ws


def unit_weights(c: SquareComplex) -> WeightSystem:
    return {g: 1 for g in c.generators}


def min_corners(c: SquareComplex, ws: WeightSystem) -> list[int]:
    """Per square, its min corner under an admissible weight system; its max
    corner is two round.  The corner heights are (0, a, a+b, b) for the
    signed weights a, b of letters 0 and 1, so the signs alone decide which
    corners are lowest and highest."""
    return [(0, 3, 1, 2)[2 * (s0 * ws[g0] < 0) + (s1 * ws[g1] < 0)]
            for (g0, s0), (g1, s1), _, _ in (sq.boundary.letters for sq in c.squares)]


AdmissibilityReport = namedtuple("AdmissibilityReport", ("admissible", "problems"))


def check_admissible(c: SquareComplex, ws: WeightSystem) -> AdmissibilityReport:
    problems = []
    for g in c.generators:
        if g not in ws:
            problems.append(f"no weight for generator {g}")
        elif ws[g] == 0:
            problems.append(f"zero weight on generator {g}")
    if not problems:
        for sq in c.squares:
            (g0, s0), (g1, s1), (g2, s2), (g3, s3) = sq.boundary.letters
            w0, w2 = s0 * ws[g0], s2 * ws[g2]
            total = w0 + s1 * ws[g1] + w2 + s3 * ws[g3]
            if total != 0:
                problems.append(f"square {sq.index}: boundary weight sum {total} != 0")
            elif w0 + w2 != 0:
                problems.append(
                    f"square {sq.index}: opposite letters carry weights {w0} and {w2}"
                    " (no affine extension)"
                )
    return AdmissibilityReport(not problems, problems)


def require_admissible(source: SquareComplex | analysis.Analysis, ws: WeightSystem) -> Orthant:
    """The `orthant` entry of an admissible ``ws``, read with its `check_admissible` report
    from an `Analysis` of ``source``; InputError naming every problem otherwise."""
    a = analysis.Analysis.of(source)
    report = a.admissibility(ws)
    if not report.admissible:
        raise InputError("inadmissible weight system: " + "; ".join(report.problems))
    return a.orthant(ws)


# side: "ascending" or "descending"; edges: link edge numbers, 4s+k is corner k of square s
DirectionalLink = namedtuple("DirectionalLink",
                             ("side", "vertices", "edges", "is_tree", "components"))
# an `orthant` entry: min corners, ascending and descending links, fiber paths or None
Orthant = tuple[list[int], DirectionalLink, DirectionalLink, list | None]


def directional_links(source: SquareComplex | analysis.Analysis, ws: WeightSystem
                      ) -> tuple[DirectionalLink, DirectionalLink]:
    """Ascending and descending links of the vertex of ``source``, a complex or its
    `Analysis`, under ``ws``: the links of its `require_admissible` entry."""
    _, asc, desc, _ = require_admissible(source, ws)
    return asc, desc


def orthant(c: SquareComplex, link: LinkGraph, ws: WeightSystem) -> Orthant:
    """What the signs of an admissible ``ws`` decide, unchecked: its `min_corners`,
    its ascending and descending links on ``link``, the link of ``c``, and its
    `_fiber_paths` when a link is split (else None); `Analysis.orthant` keeps
    one per sign vector.
    A direction-end ascends when moving into it increases the Morse height:
    (g, start) for positive weight, (g, end) for negative.  Each square
    contributes its min-corner edge number to the ascending link and its
    max-corner one, two round, to the descending link.  A side holds one of
    the link's integer ends per generator, so `complexes.union` over the
    ends counts it, and it is a tree iff connected with n - 1 edges."""
    mins, n = min_corners(c, ws), len(c.generators)
    # the end that a letter (g, s) arrives at ascends iff s * w_g < 0
    ascends = [s * ws[g] < 0 for g, s in c.letter_ends]
    sides = []
    for side, turn, up in (("ascending", 0, True), ("descending", 2, False)):
        ids = [4 * i + (m + turn) % 4 for i, m in enumerate(mins)]
        pairs = list(map(link.ends.__getitem__, ids))
        assert all(ascends[p] is ascends[q] is up for p, q in pairs), side
        components = n - union(list(range(2 * n)), pairs)
        sides.append(DirectionalLink(side, [v for v, s in zip(link.vertices, ascends) if s is up],
                                     ids, components == 1 and len(ids) == n - 1, components))
    asc, desc = sides
    paths = None if asc.components == desc.components == 1 else _fiber_paths(c, mins)
    return mins, asc, desc, paths


BASE_VERTEX = ("*", 0)  # the unique vertex of the complex, as a fiber vertex

# edges: (u, v, square, level)
FiberGraph = namedtuple("FiberGraph", ("vertices", "edges", "chi", "connected", "components"))


def _fiber_paths(c: SquareComplex, mins: list[int]) -> list[tuple[int, int, int, int]]:
    """Per square, the generator numbers (p, q, r, t) of the letters on its
    two sides from its min corner m (``mins``, see `min_corners`) to m+2:
    letters m, m+1 and m-1, m-2."""
    index = c.generator_index
    paths = []
    for sq, m in zip(c.squares, mins):
        g = [index[x] for x, _ in sq.boundary.letters]
        paths.append((g[m], g[m - 3], g[m - 1], g[m - 2]))
    return paths


def _fiber_sides(w: list[int], paths: list[tuple[int, int, int, int]]
                 ) -> list[Iterator[tuple[int, int]]]:
    """Per square of the fiber graph of the weights ``w``, its arcs by rising
    level: the point ids (u, v) its sides through corners m+1 and m+3 meet
    at each level strictly between its min and max corners, along a side
    the first letter's points, the base vertex (point 0), then the second
    letter's.  The points (g, 1) .. (g, |w_g| - 1) of each generator follow
    in order, rising with the index when w_g > 0.  Only for sizes that
    `_fiber_counts` accepts (a range longer than sys.maxsize has no length)."""
    by_level = []  # generator number -> its point ids in increasing height order
    start = 1
    for x in w:
        ids = range(start, start + abs(x) - 1)
        by_level.append(ids if x > 0 else ids[::-1])
        start += len(ids)
    return [zip(chain(by_level[p], (0,), by_level[q]), chain(by_level[r], (0,), by_level[t]))
            for p, q, r, t in paths]


def _letter_pairs(c: SquareComplex) -> list[tuple[int, int]]:
    """Per square, the generator numbers of its letters 0 and 1."""
    index = c.generator_index
    return [(index[g], index[h])
            for (g, _), (h, _), _, _ in (sq.boundary.letters for sq in c.squares)]


def _fiber_counts(w: list[int], pairs: list[tuple[int, int]],
                  paths: list[tuple[int, int, int, int]] | None) -> tuple[int, int, int]:
    """Vertices 1 + sum_g (|w_g| - 1), arcs sum_squares (|w_p| + |w_q| - 1)
    over the letters 0 and 1 ``pairs`` (any adjacent two: opposite letters
    weigh alike) and components of the fiber graph of the weights ``w``:
    gcd(w) with no ``paths`` (both directional links connected), else
    vertices less the arcs of `_fiber_sides` on ``paths`` (`_fiber_paths`)
    that `complexes.union` joins.  Refuses more than `MAX_FIBER_CELLS` cells."""
    vertices = 1 + sum(map(abs, w)) - len(w)
    arcs = sum(abs(w[p]) + abs(w[q]) - 1 for p, q in pairs)
    if vertices + arcs > MAX_FIBER_CELLS:
        raise InputError(
            f"fiber graph of {vertices + arcs} vertices and arcs exceeds the limit of"
            f" {MAX_FIBER_CELLS}; lower the weights"
        )
    if paths is None:
        return vertices, arcs, gcd(*w)
    return vertices, arcs, vertices - union(list(range(vertices)),
                                            chain.from_iterable(_fiber_sides(w, paths)))


def fiber_counts(a: analysis.Analysis, ws: WeightSystem) -> tuple[int, int, int]:
    """The vertex, arc and component counts of `fiber_graph` for an admissible
    ``ws``, read by `_fiber_counts` on the paths of its `Analysis.orthant` entry."""
    c = a.complex
    return _fiber_counts([ws[g] for g in c.generators], _letter_pairs(c), a.orthant(ws)[3])


def fiber_graph(source: SquareComplex | analysis.Analysis, ws: WeightSystem) -> FiberGraph:
    """The preimage of the base point of ``source``, a complex or its
    `Analysis`, under an admissible ``ws`` (`require_admissible`): one vertex
    per subdivision point of the edges plus the vertex itself, and one arc
    per integer level strictly between each square's min and max corner
    heights, listed from `_fiber_sides` and counted into components by
    `_fiber_counts`.  A square's first arc sits at level 1 + the signed
    weight of its letters before its min corner."""
    a = analysis.Analysis.of(source)
    c, (mins, _, _, paths) = a.complex, require_admissible(a, ws)
    w = [ws[g] for g in c.generators]
    if paths is None:  # both links connected: the entry keeps no paths
        paths = _fiber_paths(c, mins)
    _, _, components = _fiber_counts(w, _letter_pairs(c), paths)  # refuses before any arc
    vertices = [BASE_VERTEX] + [(g, i) for g in c.generators for i in range(1, abs(ws[g]))]
    edges = [(vertices[u], vertices[v], sq.index, level)
             for sq, m, side in zip(c.squares, mins, _fiber_sides(w, paths))
             for (u, v), level in zip(side, count(1 + sum(
                 s * ws[g] for g, s in sq.boundary.letters[:m])))]
    return FiberGraph(vertices, edges, len(vertices) - len(edges), components == 1, components)


def fibration_failures(links: tuple[DirectionalLink, DirectionalLink],
                       fiber_components: int | None = None) -> list[tuple[str, int]]:
    """The failed conditions for a kernel rank, in order, each with its
    component count: tree ascending and descending ``links`` and, when
    ``fiber_components`` is given, a connected fiber."""
    failures = [(f"{side.side} link is not a tree", side.components)
                for side in links if not side.is_tree]
    if fiber_components not in (None, 1):
        failures.append(("fiber is disconnected", fiber_components))
    return failures


def require_fibration(links: tuple[DirectionalLink, DirectionalLink],
                      fiber_components: int | None = None) -> None:
    """Raise InputError naming the first of `fibration_failures`."""
    for condition, components in fibration_failures(links, fiber_components):
        raise InputError(f"{condition} ({components} components)")


def kernel_rank(source: SquareComplex | analysis.Analysis, ws: WeightSystem) -> int:
    """Rank of the free kernel of the weight homomorphism of ``source``, a
    complex or its `Analysis`: 1 - chi(fiber).

    Requires an admissible weight system whose ascending and descending
    links are trees and whose fiber is connected; failures name the broken
    condition, a link's before the fiber is counted (`fiber_counts`).
    """
    a = analysis.Analysis.of(source)
    links = directional_links(a, ws)
    require_fibration(links)
    vertices, arcs, components = fiber_counts(a, ws)
    require_fibration(links, components)
    return 1 - vertices + arcs


# ----------------------------------------------------------------------
# integer lattice of zero-sum weight systems


def _echelon(rows: list[list[int]], n: int) -> tuple[list[list[int]], list[int]]:
    """Integer row echelon form of ``rows`` in their first ``n`` columns,
    by Euclid's algorithm on whole rows (unimodular row operations only),
    and its pivot columns: row r has its first nonzero entry at pivots[r],
    and the rows after the pivot rows are zero in the first n columns."""
    mat = [row[:] for row in rows]
    pivots: list[int] = []
    for col in range(n):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, len(mat)):
            while mat[i][col] != 0:
                q = mat[r][col] // mat[i][col]
                mat[r] = [x - q * y for x, y in zip(mat[r], mat[i])]
                mat[r], mat[i] = mat[i], mat[r]
        pivots.append(col)
    return mat, pivots


def _hermite_rows(rows: list[list[int]], n: int) -> list[list[int]]:
    """Row-style Hermite normal form: canonical basis for the row lattice.
    Each pivot of `_echelon` is made positive and reduces the rows above it."""
    mat, pivots = _echelon(rows, n)
    for r, col in enumerate(pivots):
        if mat[r][col] < 0:
            mat[r] = [-x for x in mat[r]]
        for i in range(r):
            q = mat[i][col] // mat[r][col]
            if q:
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
    return mat[:len(pivots)]


def _kernel_basis_int(rows: list[list[int]], n: int) -> list[list[int]]:
    """Hermite basis of the integer kernel of the matrix A with the given
    rows: the right halves of the zero-left rows of the echelon form of
    [A^T | I] (Cohen, GTM 138, 2.4).  The row operations are unimodular, so
    the kernel is saturated (every integer solution is a combination)."""
    m = len(rows)
    augmented = [[row[j] for row in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    mat, pivots = _echelon(augmented, m)
    return _hermite_rows([row[m:] for row in mat[len(pivots):]], n)


def weight_lattice(c: SquareComplex) -> list[WeightSystem]:
    """Basis of the lattice of integer weight systems with zero sum on every
    square boundary (zero weights allowed here; admissibility is separate).
    Rows ``e_u - e_v`` are contracted first, as the module docstring says."""
    index = c.generator_index
    pairs, rows = [], []
    for sq in c.squares:
        (g0, s0), (g1, s1), (g2, s2), (g3, s3) = letters = sq.boundary.letters
        if g0 == g2 and s0 + s2 == 0 and s1 + s3 == 0:  # x v x^-1 u^-1: the pair (v, u)
            pairs.append((index[g1], index[g3]))
            continue
        row: dict[int, int] = {}
        for g, s in letters:
            row[index[g]] = row.get(index[g], 0) + s
        support = {i: k for i, k in row.items() if k}
        if sorted(support.values()) == [-1, 1]:
            pairs.append(tuple(support))
        elif support:
            rows.append(support)
    root = list(range(len(c.generators)))
    union(root, pairs)
    for i, p in enumerate(root):  # root[p] is final: p <= i is a root or was rooted above
        root[i] = root[p]
    column = {r: j for j, r in enumerate(dict.fromkeys(root))}
    contracted = []
    for support in rows:
        vec = [0] * len(column)
        for i, k in support.items():
            vec[column[root[i]]] += k
        contracted.append(vec)
    # classes are numbered by their first generator, so the expanded Hermite
    # basis is the Hermite basis of the full matrix
    kernel = _kernel_basis_int(contracted, len(column))
    return [{g: vec[column[r]] for g, r in zip(c.generators, root)} for vec in kernel]


def _combine_basis(basis: list[WeightSystem], coords: tuple[int, ...], c: SquareComplex) -> WeightSystem:
    return {g: sum(k * b[g] for k, b in zip(coords, basis)) for g in c.generators}


def fibering_scan(source: SquareComplex | analysis.Analysis, bound: int) -> list[dict]:
    """One row per lattice vector of ``source``, a complex or its `Analysis`,
    with coordinates x in [-bound, bound] (zero-weight vectors excluded), in
    lexicographic coordinate order, holding the values `check_admissible`,
    `directional_links` and `fiber_graph` give.  What stays fixed over the
    lattice, or over the weight vectors w = sum_k x_k b_k of one sign vector,
    is worked out once:

    * admissibility: each pair of opposite letters must carry negated signed
      weights (together: zero boundary sum and the affine condition), a
      linear form in x; a row is admissible iff every nonzero form is zero;
    * the directional links and fiber paths depend only on the signs of the
      weights (corner heights are (0, a, a+b, b) for the signed weights a, b
      of letters 0 and 1), so they come from `Analysis.orthant`;
    * chi = 1 + sum_g (|w_g| - 1) - sum_squares (|a| + |b| - 1), the vertex
      and arc count of `fiber_graph`; with |w_g| = sign(w_g) w_g it is a
      constant plus one slope per sign vector dotted with x;
    * when both links are connected, every level set of a primitive weight
      map is connected (Bestvina-Brady, Morse lemma), and the fiber of
      d times a primitive map is d disjoint level sets, so it has
      gcd(weights) components; otherwise union-find counts them on the
      entry's square paths (`_fiber_paths`).

    The span is symmetric, so -x sits at the mirrored place of x, with the
    zero vector at the centre; only the vectors before it are computed.
    The row of -x is that of x with coords and weights negated and the
    tree flags swapped: the forms are linear, |w| and gcd(w) keep their
    values, the min and max corners swap (so the ascending link of -w is
    the descending link of w), and -w has the same fiber as w.

    Refuses scans of more than `MAX_SCAN_VECTORS` coordinate vectors."""
    if bound < 1:
        raise InputError("scan bound must be >= 1")
    a = analysis.Analysis.of(source)
    c, basis = a.complex, a.lattice
    vectors = (2 * bound + 1) ** len(basis)
    if vectors > MAX_SCAN_VECTORS:
        raise InputError(
            f"scan of {vectors} vectors ((2*{bound}+1)^{len(basis)}) exceeds the limit of"
            f" {MAX_SCAN_VECTORS}; lower the bound"
        )
    if not basis:
        return []  # the zero vector only
    generators, forms, pairs = c.generators, a.affine_forms, _letter_pairs(c)
    chi_coefficient = [1] * len(generators)  # chi = chi_constant + sum_g coefficient |w_g|
    for p, q in pairs:
        chi_coefficient[p] -= 1
        chi_coefficient[q] -= 1
    chi_constant = 1 - len(generators) + len(c.squares)
    # sign vector (w_g > 0) -> its `Analysis.orthant` entry's tree flags and paths, chi slope
    orthants: dict[tuple[bool, ...], tuple[bool, bool, list | None, list[int]]] = {}

    span = range(-bound, bound + 1)
    *leading, last = [[[k * b[g] for g in generators] for k in span] for b in basis]
    heads = (2 * bound + 1) ** len(leading) // 2 + 1  # up to the zero head, the centre's
    rows, mirrors = [], []
    for head, parts in islice(zip(product(span, repeat=len(leading)), product(*leading)), heads):
        start = list(map(sum, zip(*parts))) if parts else [0] * len(generators)
        head_divisor, prefix = gcd(*head), list(head)
        for k, step in zip(span, last):
            divisor = gcd(head_divisor, k)
            if not divisor:
                break  # the zero vector, the centre: the rest mirror the rows before it
            w = list(map(add, start, step))
            if 0 in w:
                continue
            coords = prefix + [k]  # sized exactly, unlike [*head, k]
            ws = dict(zip(generators, w))
            if forms and any(sum(map(mul, form, coords)) for form in forms):
                row = {"coords": coords, "weights": ws, "admissible": False,
                       "primitive": divisor == 1, "asc_tree": None, "desc_tree": None,
                       "chi": None, "components": None, "rank": None}
            else:
                signs = tuple(map((0).__lt__, w))
                if signs not in orthants:
                    _, asc, desc, paths = a.orthant(ws)
                    signed = [f if up else -f for f, up in zip(chi_coefficient, signs)]
                    # w_g = sum_k x_k b_k[g]
                    slope = [sum(map(mul, signed, b.values())) for b in basis]
                    orthants[signs] = (asc.is_tree, desc.is_tree, paths, slope)
                asc_tree, desc_tree, paths, slope = orthants[signs]
                chi = chi_constant + sum(map(mul, slope, coords))
                components = gcd(*w) if paths is None else _fiber_counts(w, pairs, paths)[2]
                row = {"coords": coords, "weights": ws, "admissible": True,
                       "primitive": divisor == 1, "asc_tree": asc_tree, "desc_tree": desc_tree,
                       "chi": chi, "components": components,
                       "rank": 1 - chi if asc_tree and desc_tree and components == 1 else None}
                if components != 1:
                    row["note"] = (f"disconnected fiber ({components} components);"
                                   " chi is the direct count, no rank claim")
            rows.append(row)
            mirrors.append({**row, "coords": list(map(neg, coords)),
                            "weights": dict(zip(generators, map(neg, w))),
                            "asc_tree": row["desc_tree"], "desc_tree": row["asc_tree"]})
    rows += reversed(mirrors)
    return rows


def infinite_fibering_verdict(source: SquareComplex | analysis.Analysis) -> dict:
    """Does ``source``, a complex or its `Analysis`, fiber in infinitely many ways?

    YES when the weight lattice has rank >= 2 and some sign pattern
    (orthant) admits weight systems whose ascending and descending links
    are trees.  Tree-ness depends only on the signs, so one representative
    per orthant decides the whole orthant, and an orthant and its negation
    alike, so only orthants with a leading + are tried.  Refuses lattices
    with more than `MAX_ORTHANTS` orthants.
    """
    a = analysis.Analysis.of(source)
    c, basis = a.complex, a.lattice
    rank = len(basis)
    out: dict = {"lattice_rank": rank, "infinite_fibering": False, "orthant": None}
    if rank < 2:
        out["reason"] = "weight lattice has rank < 2"
        return out
    # the affine condition holds lattice-wide iff no affine form is left; with
    # no zero weight it then makes a representative admissible
    for square in a.affine_forms.values():  # the first square with a form, if any
        out["reason"] = f"square {square} admits no affine extension on the lattice"
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
    # the negated pattern has the negated representative, whose links are
    # these swapped: patterns with a leading + come first and decide alone
    for signs in islice(product((1, -1), repeat=rank), 2 ** (rank - 1)):
        candidates = (_combine_basis(basis, tuple(s * k for s, k in zip(signs, coeffs)), c)
                      for coeffs in product(range(1, 4), repeat=rank))
        representative = next((ws for ws in candidates if 0 not in ws.values()), None)
        if representative is None:
            continue
        _, asc, desc, _ = a.orthant(representative)
        if asc.is_tree and desc.is_tree:
            out["infinite_fibering"] = True
            out["orthant"] = ["+" if s > 0 else "-" for s in signs]
            return out
    out["reason"] = "no orthant yields tree ascending and descending links"
    return out
