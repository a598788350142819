"""Flat-plane obstruction search.

A flat plane in the universal cover would be tiled by squares of the
complex, and every square containing a poison corner is unusable (its
corner can never sit inside a full 2-pi circle of squares).  The squares
with no poison corner are *eligible*; this module tries to develop them
over a bounded disk of the unit grid and certifies hyperbolicity when the
development is impossible.

Grid conventions.  Cells are unit squares addressed by integer (x, y); the
disk of radius R is the taxicab ball {|x| + |y| <= R} around the origin
cell.  Each placed cell is described by four *canonical side labels*: the
signed letter read along the south/north sides left-to-right (+x) and the
west/east sides bottom-to-top (+y).  Placement (rot, refl) of a square
puts its boundary letter i = (k - rot) mod 4 on side k of (S, E, N, W),
or i = (rot - k) mod 4 when reflected; the letter reads inverted on N
and W (on S and E when reflected), and square corner (i + refl) mod 4
sits at cell corner k of (SW, SE, NE, NW).  So ``rot`` turns the square
a quarter counterclockwise per step and ``refl`` first mirrors it across
the vertical axis; rot 0 unreflected puts letters 0 to 3 on S, E, N, W
and square corner 0 at SW.  `square_tiles` lists placement (rot, refl)
at index 4 * refl + rot.

Two placed cells agree when shared sides carry equal canonical labels, and
every interior grid vertex (all four incident cells in the disk) must see
four pairwise distinct link directions around it, so its four corners form
a genuine length-four circuit in the link.

The search places cells in disk order (taxicab distance, then x, then y)
by backtracking over the tables `_DiskSearch` compiles once per search, in
the manner of Bitner and Reingold's precomputed constraints.  The radius-r
disk is a prefix of the radius-R cell order and the checks at a prefix
cell do not depend on R, so one search at the largest radius finds every
smaller radius's first witness the first time it has placed that prefix;
`hyperbolicity_verdict` runs that one search per seed square, over the
eligible squares of an `Analysis` of its one source.
"""

from __future__ import annotations

from collections import namedtuple

from .analysis import Analysis
from .complexes import SquareComplex
from .errors import InputError
from .links import LinkGraph, arrival_end, departure_end, square_corners
from .words import inverse_letter


# sides: the letters on the canonical S, E, N, W sides; corner_at: the
# square corner index at SW, SE, NE, NW
Tile = namedtuple("Tile", ("square", "rot", "refl", "sides", "corner_at"))


def square_tiles(square) -> list[Tile]:
    """All eight oriented placements of one square, (rot, refl) at index
    4 * refl + rot, by the closed form of the grid conventions above."""
    letters = square.boundary.letters
    inverses = tuple(map(inverse_letter, letters))
    tiles = []
    for refl, on_se, on_nw in ((False, letters, inverses), (True, inverses, letters)):
        for rot in range(4):
            s, e, n, w = at = [(rot - k if refl else k - rot) % 4 for k in range(4)]
            tiles.append(Tile(square.index, rot, refl, (on_se[s], on_se[e], on_nw[n], on_nw[w]),
                              tuple((i + refl) % 4 for i in at)))
    return tiles


def eligible_squares(c: SquareComplex, link: LinkGraph | None = None) -> list[int]:
    """Squares with no poison corner: the only candidates for a flat plane.
    ``link``: the complex's link, which `perfbench/workloads.py` passes."""
    a = Analysis(c)
    if link is not None:
        a.link = link  # fills the cached property
    return a.eligible


# Flat searches refuse larger radii: the radius-R disk has `disk_size(R)` cells.
MAX_DISK_RADIUS = 100


def disk_size(radius: int) -> int:
    return 2 * radius * radius + 2 * radius + 1


def _check_radius(radius: int) -> None:
    if radius < 1:
        raise InputError(f"disk radius must be >= 1, got {radius}")
    if radius > MAX_DISK_RADIUS:
        raise InputError(
            f"disk radius {radius} ({disk_size(radius)} cells) exceeds the limit of radius"
            f" {MAX_DISK_RADIUS} ({disk_size(MAX_DISK_RADIUS)} cells)"
        )


def disk_cells(radius: int) -> list[tuple[int, int]]:
    cells = [
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(-radius, radius + 1)
        if abs(x) + abs(y) <= radius
    ]
    cells.sort(key=lambda p: (abs(p[0]) + abs(p[1]), p))
    return cells


# placement: (x, y) -> (square, rot, refl)
DiskWitness = namedtuple("DiskWitness", ("radius", "placement"))


_SIDE_OF = {(0, -1): 0, (1, 0): 1, (0, 1): 2, (-1, 0): 3}  # neighbor offset -> my side
_OPPOSITE = {0: 2, 1: 3, 2: 0, 3: 1}


def _vertex_directions(tiles_at) -> tuple | None:
    """Direction-ends (north, east, south, west) at a grid vertex given the
    tiles of its four incident cells in SW, SE, NW, NE order; None when one
    is missing.  Assumes shared sides already match, so each label can be
    read off a single incident tile."""
    sw, se, nw, ne = tiles_at
    if None in (sw, se, nw, ne):
        return None
    del se  # its labels duplicate sw/ne once sides match
    north = departure_end(nw.sides[1])  # east side of NW, canonical +y, vertex at its base
    east = departure_end(ne.sides[0])  # south side of NE, canonical +x, vertex at its left
    south = arrival_end(sw.sides[1])  # east side of SW, canonical +y, vertex at its top
    west = arrival_end(sw.sides[2])  # north side of SW, canonical +x, vertex at its right
    return (north, east, south, west)


class _DiskSearch:
    """Depth-first placement over the cells of the radius-R disk in order,
    with every constraint compiled into tables once per search.

    Tiles are numbered in candidate order (eligible squares ascending, the
    eight placements of each in `square_tiles` order) and carry their side
    labels and vertex direction-ends as the complex's end numbers
    (`SquareComplex.letter_ends`).  Cell i's plan holds
    the earlier neighbours whose shared side it must match, as (cell,
    neighbour's side), keyed into a table of the tiles with those labels on
    those sides, in candidate order; and each interior vertex it completes
    (all four cells in the disk, i the last of them) as the direction-ends
    the earlier cells supply plus the ones cell i's tile adds.  Every cell
    but the origin has an earlier neighbour, so its candidates are one
    table lookup filtered by the vertices: the same tiles, in the same
    order, that a tile-by-tile fit check would accept.  A cell's plan is
    compiled when the search first reaches it, so a search that dies near
    the origin costs little at any radius.
    """

    def __init__(self, c: SquareComplex, eligible: list[int], radius: int):
        self.cells = disk_cells(radius)
        self.tiles = [t for s in sorted(eligible) for t in square_tiles(c.squares[s])]
        self.seed_tile = {t.square: k for k, t in enumerate(self.tiles)
                          if t.rot == 0 and not t.refl}
        ends = c.letter_ends  # a label is its letter's arrival end, which only it has
        self.labels = [tuple(ends[x][0] for x in t.sides) for t in self.tiles]
        # the ends a tile supplies at an interior vertex: slots 0 and 1 (west,
        # south) when it is the SW cell, 2 (north) at NW, 3 (east) at NE
        self.ends = [(ends[north][0], ends[east][0], ends[east][1], ends[south][1])
                     for south, east, north, _ in (t.sides for t in self.tiles)]
        self.index = {cell: i for i, cell in enumerate(self.cells)}
        self.tables: dict[tuple, dict] = {}
        self.adds: dict[tuple, list] = {}
        self.plan: list[tuple | None] = [None]  # the origin holds its seed tile

    def _compile(self, i: int) -> tuple:
        """Cell i's plan: its side table, the (cell, side) labels that key
        it, and per completed vertex the (cell, slot) ends read from earlier
        cells plus the ends each tile would add (None when the two ends a SW
        tile adds coincide, which only a boundary that is not cyclically
        reduced can do)."""
        x, y = self.cells[i]
        index = self.index
        matched = [(index[(x + dx, y + dy)], side) for (dx, dy), side in _SIDE_OF.items()
                   if index.get((x + dx, y + dy), i) < i]
        sides = tuple(side for _, side in matched)
        if sides not in self.tables:
            table = self.tables[sides] = {}
            for k, labels in enumerate(self.labels):
                table.setdefault(tuple(labels[s] for s in sides), []).append(k)
        vertices = []
        for vx, vy in ((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)):
            quad = [index.get(q) for q in ((vx - 1, vy - 1), (vx, vy - 1), (vx - 1, vy), (vx, vy))]
            if None in quad or max(quad) != i:
                continue
            sw, _, nw, ne = quad  # the SE cell's ends repeat SW's and NE's
            reads = ((sw, 0), (sw, 1), (nw, 2), (ne, 3))
            own = tuple(slot for j, slot in reads if j == i)
            if own and own not in self.adds:
                self.adds[own] = [tuple(end[s] for s in own)
                                  if len({end[s] for s in own}) == len(own) else None
                                  for end in self.ends]
            vertices.append((tuple((j, slot) for j, slot in reads if j != i),
                             self.adds[own] if own else None))
        return (self.tables[sides], tuple((j, _OPPOSITE[s]) for j, s in matched),
                tuple(vertices))

    def run(self, seed: int) -> tuple[int, list[int] | None]:
        """Search from ``seed``'s unrotated, unreflected tile at the origin.
        Returns the most cells ever placed at once and, when the whole disk
        is placed, the first complete placement as tile numbers per cell.
        ``options[i]`` holds cell i's candidates, ``tried[i]`` how many of
        them were tried."""
        plan, labels, ends = self.plan, self.labels, self.ends
        n = len(self.cells)
        chosen = [0] * n
        options: list = [()] * n
        tried = [0] * n
        options[0] = (self.seed_tile[seed],)
        i = deepest = 0
        while True:
            k = tried[i]
            if k == len(options[i]):
                i -= 1
                if i < 0:
                    return deepest, None
                continue
            tried[i] = k + 1
            chosen[i] = options[i][k]
            i += 1
            if i > deepest:
                deepest = i
                if i == n:
                    return n, chosen
                if i == len(plan):  # plans are compiled on first reach
                    plan.append(self._compile(i))
            table, matched, vertices = plan[i]
            candidates = table.get(tuple([labels[chosen[j]][s] for j, s in matched]), ())
            for fixed, own in vertices:
                seen = {ends[chosen[j]][slot] for j, slot in fixed}
                if len(seen) < len(fixed):
                    candidates = ()
                elif own is not None:
                    candidates = [t for t in candidates
                                  if (add := own[t]) is not None and seen.isdisjoint(add)]
                if not candidates:
                    break
            options[i] = candidates
            tried[i] = 0

    def placement(self, chosen: list[int]) -> dict[tuple[int, int], tuple[int, int, bool]]:
        tiles = self.tiles
        return {cell: (tiles[k].square, tiles[k].rot, tiles[k].refl)
                for cell, k in zip(self.cells, chosen)}


def search_flat_disk(source: SquareComplex | Analysis, radius: int) -> DiskWitness | None:
    """Exhaustively try to tile the radius-R disk with eligible squares of
    ``source``, a complex or its `Analysis`.

    Seeds every eligible square at the origin with rotation 0 and no
    reflection (the disk's symmetries make other seeds redundant).  Returns
    None when no complete consistent placement exists, else the first
    witness in deterministic search order (lexicographically least under
    the cell/placement ordering).
    """
    _check_radius(radius)
    return _seed_search(Analysis.of(source), radius)[1]


def _seed_search(a: Analysis, radius: int) -> tuple[int, DiskWitness | None]:
    """One `_DiskSearch` of the radius-R disk from each eligible seed in
    turn: the most cells a seed placed and the first witness, if any."""
    search = _DiskSearch(a.complex, a.eligible, radius)
    deepest = 0
    for seed in a.eligible:
        depth, chosen = search.run(seed)
        if chosen is not None:
            return depth, DiskWitness(radius, search.placement(chosen))
        deepest = max(deepest, depth)
    return deepest, None


def validate_witness(c: SquareComplex, witness: DiskWitness) -> list[str]:
    """Independent re-check of a disk witness: coverage, every shared edge
    matching, and a genuine length-four link circuit around every interior
    vertex.  Returns a list of problems (empty = valid)."""
    cells = disk_cells(witness.radius)
    if set(witness.placement) != set(cells):
        return ["placement does not cover the disk exactly"]
    tiles: dict[tuple[int, int], Tile] = {}
    placed: dict[int, tuple] = {}  # square -> its placements and its corners
    for cell, (square, rot, refl) in witness.placement.items():
        if not (0 <= square < len(c.squares)):
            return [f"cell {cell}: unknown square {square}"]
        if square not in placed:
            placed[square] = (square_tiles(c.squares[square]), square_corners(c.squares[square]))
        tiles[cell] = placed[square][0][4 * bool(refl) + rot % 4]
    problems: list[str] = []
    for (x, y), tile in tiles.items():
        for (dx, dy), side in _SIDE_OF.items():
            neighbor = tiles.get((x + dx, y + dy))
            if neighbor is not None and neighbor.sides[_OPPOSITE[side]] != tile.sides[side]:
                problems.append(f"edge mismatch between {(x, y)} and {(x + dx, y + dy)}")
    vertices = {(x + dx, y + dy) for x, y in cells for dx in (0, 1) for dy in (0, 1)}
    for vx, vy in sorted(vertices):
        quads = [(vx - 1, vy - 1), (vx, vy - 1), (vx - 1, vy), (vx, vy)]
        if any(q not in tiles for q in quads):
            continue
        directions = _vertex_directions([tiles[q] for q in quads])
        assert directions is not None
        north, east, south, west = directions
        if len({north, east, south, west}) != 4:
            problems.append(f"vertex {(vx, vy)}: directions not distinct")
        # each incident cell's corner must be the matching link edge
        checks = [
            ((vx, vy), 0, {north, east}),        # NE cell: vertex at its SW (position 0)
            ((vx - 1, vy), 1, {west, north}),    # NW cell: vertex at its SE (position 1)
            ((vx - 1, vy - 1), 2, {south, west}),  # SW cell: vertex at its NE (position 2)
            ((vx, vy - 1), 3, {east, south}),    # SE cell: vertex at its NW (position 3)
        ]
        for cell, position, ends in checks:
            tile = tiles[cell]
            corner = placed[tile.square][1][tile.corner_at[position]]
            if set(corner.pair) != ends:
                problems.append(
                    f"vertex {(vx, vy)}: corner of square {tile.square} does not match"
                )
    return problems


# tag: NotNPC | HyperbolicCertA | HyperbolicCertB | Inconclusive
Verdict = namedtuple("Verdict", ("tag", "radius", "witness", "eligible", "details"),
                     defaults=(None, None, None, ""))


def hyperbolicity_verdict(source: SquareComplex | Analysis, max_radius: int = 3) -> Verdict:
    """Certify hyperbolicity of the fundamental group of ``source``, a
    complex or its `Analysis`.

    NotNPC when the link is not large; HyperbolicCertA when every square has
    a poison corner; HyperbolicCertB(R) at the smallest radius whose disk
    admits no development; otherwise Inconclusive with the largest-radius
    witness (bounded search cannot prove a plane exists).
    """
    _check_radius(max_radius)
    a = Analysis.of(source)
    report = a.largeness
    if not report.is_large:
        kinds = sorted({v["kind"] for v in report.violations})
        return Verdict("NotNPC", details=f"link is not large: {', '.join(kinds)}")
    eligible = a.eligible
    if not eligible:
        return Verdict("HyperbolicCertA", eligible=[],
                       details="every square contains a poison corner")
    deepest, witness = _seed_search(a, max_radius)
    if witness is not None:
        return Verdict("Inconclusive", radius=max_radius, witness=witness, eligible=eligible,
                       details=f"flat disks exist up to radius {max_radius}")
    # radius r has a witness iff some seed placed all disk_size(r) cells of its prefix
    radius = next(r for r in range(1, max_radius + 1) if disk_size(r) > deepest)
    return Verdict("HyperbolicCertB", radius=radius, eligible=eligible,
                   details=f"no flat disk of radius {radius}")
