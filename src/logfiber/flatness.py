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
west/east sides bottom-to-top (+y).  A placement of square s with
``rot = r`` puts boundary letter i on side (S, E, N, W)[(i + r) % 4]
counterclockwise (rot 0, no reflection: letter 1 south, 2 east, 3 north,
4 west, square corner 0 at the SW cell corner).  ``refl`` mirrors across
the vertical axis before rotating.

Two placed cells agree when shared sides carry equal canonical labels, and
every interior grid vertex (all four incident cells in the disk) must see
four pairwise distinct link directions around it, so its four corners form
a genuine length-four circuit in the link.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import Analysis
from .complexes import SquareComplex
from .errors import InputError
from .links import CornerEdge, LinkGraph, arrival_end, departure_end, square_corners
from .words import Letter, inverse_letter


@dataclass(frozen=True)
class Tile:
    square: int
    rot: int
    refl: bool
    sides: tuple[Letter, Letter, Letter, Letter]  # canonical S, E, N, W
    corner_at: tuple[int, int, int, int]  # square corner index at SW, SE, NE, NW


def _base_tile(square: int, boundary) -> Tile:
    letters = boundary.letters
    sides = (letters[0], letters[1], inverse_letter(letters[2]), inverse_letter(letters[3]))
    return Tile(square, 0, False, sides, (0, 1, 2, 3))


def _rot_ccw(t: Tile) -> Tile:
    s, e, n, w = t.sides
    sides = (inverse_letter(w), s, inverse_letter(e), n)
    ca = t.corner_at
    corner_at = (ca[3], ca[0], ca[1], ca[2])  # corners shift one step CCW
    return Tile(t.square, (t.rot + 1) % 4, t.refl, sides, corner_at)


def _reflect(t: Tile) -> Tile:
    s, e, n, w = t.sides
    sides = (inverse_letter(s), w, inverse_letter(n), e)
    ca = t.corner_at
    corner_at = (ca[1], ca[0], ca[3], ca[2])
    return Tile(t.square, t.rot, True, sides, corner_at)


def square_tiles(square) -> list[Tile]:
    """All eight oriented placements of one square."""
    tiles = []
    for refl in (False, True):
        t = _base_tile(square.index, square.boundary)
        if refl:
            t = _reflect(t)
        for _ in range(4):
            tiles.append(t)
            t = _rot_ccw(t)
    return tiles


def eligible_squares(c: SquareComplex, link: LinkGraph | None = None) -> list[int]:
    """Squares with no poison corner: the only candidates for a flat plane."""
    return Analysis(c, link).eligible


def disk_cells(radius: int) -> list[tuple[int, int]]:
    cells = [
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(-radius, radius + 1)
        if abs(x) + abs(y) <= radius
    ]
    cells.sort(key=lambda p: (abs(p[0]) + abs(p[1]), p))
    return cells


@dataclass
class DiskWitness:
    radius: int
    placement: dict[tuple[int, int], tuple[int, int, bool]]  # (x, y) -> (square, rot, refl)


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
    def __init__(self, c: SquareComplex, tiles_by_square: dict[int, list[Tile]], radius: int):
        self.cells = disk_cells(radius)
        self.cell_set = set(self.cells)
        self.placement: dict[tuple[int, int], Tile] = {}
        self.tiles_by_square = tiles_by_square
        self.radius = radius

    def _fits(self, cell: tuple[int, int], tile: Tile) -> bool:
        x, y = cell
        for (dx, dy), side in _SIDE_OF.items():
            neighbor = self.placement.get((x + dx, y + dy))
            if neighbor is not None and neighbor.sides[_OPPOSITE[side]] != tile.sides[side]:
                return False
        # interior vertices completed by this cell must see 4 distinct directions
        for vx, vy in ((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)):
            quads = [(vx - 1, vy - 1), (vx, vy - 1), (vx - 1, vy), (vx, vy)]
            if any(q not in self.cell_set for q in quads):
                continue
            tiles_at = [self.placement.get(q) if q != cell else tile for q in quads]
            directions = _vertex_directions(tiles_at)
            if directions is not None and len(set(directions)) != 4:
                return False
        return True

    def run(self, seed_square: int) -> dict | None:
        """Depth-first placement over the cells in order, with an explicit
        stack: ``tried[i]`` counts the candidates already tried at cell i."""
        seed_tile = self.tiles_by_square[seed_square][0]
        assert seed_tile.rot == 0 and not seed_tile.refl
        every_tile = [t for s in sorted(self.tiles_by_square) for t in self.tiles_by_square[s]]
        cells = self.cells
        tried = [0] * len(cells)
        self.placement.clear()
        i = 0
        while i < len(cells):
            cell = cells[i]
            candidates = (seed_tile,) if cell == (0, 0) else every_tile
            k = tried[i]
            while k < len(candidates) and not self._fits(cell, candidates[k]):
                k += 1
            if k < len(candidates):
                self.placement[cell] = candidates[k]
                tried[i] = k + 1
                i += 1
                continue
            tried[i] = 0
            i -= 1
            if i < 0:
                return None
            del self.placement[cells[i]]
        return {cell: (t.square, t.rot, t.refl) for cell, t in self.placement.items()}


def search_flat_disk(
    c: SquareComplex, radius: int, analysis: Analysis | None = None
) -> DiskWitness | None:
    """Exhaustively try to tile the radius-R disk with eligible squares.

    Seeds every eligible square at the origin with rotation 0 and no
    reflection (the disk's symmetries make other seeds redundant).  Returns
    None when no complete consistent placement exists, else the first
    witness in deterministic search order (lexicographically least under
    the cell/placement ordering).
    """
    if radius < 1:
        raise InputError(f"disk radius must be >= 1, got {radius}")
    eligible = (analysis or Analysis(c)).eligible
    if not eligible:
        return None
    tiles_by_square = {i: square_tiles(c.squares[i]) for i in eligible}
    search = _DiskSearch(c, tiles_by_square, radius)
    for seed in eligible:
        placement = search.run(seed)
        if placement is not None:
            return DiskWitness(radius, placement)
    return None


def validate_witness(c: SquareComplex, witness: DiskWitness) -> list[str]:
    """Independent re-check of a disk witness: coverage, every shared edge
    matching, and a genuine length-four link circuit around every interior
    vertex.  Returns a list of problems (empty = valid)."""
    problems: list[str] = []
    cells = disk_cells(witness.radius)
    if set(witness.placement) != set(cells):
        problems.append("placement does not cover the disk exactly")
        return problems
    tiles: dict[tuple[int, int], Tile] = {}
    for cell, (square, rot, refl) in witness.placement.items():
        if not (0 <= square < len(c.squares)):
            problems.append(f"cell {cell}: unknown square {square}")
            return problems
        match = [
            t for t in square_tiles(c.squares[square]) if t.rot == rot % 4 and t.refl == bool(refl)
        ]
        tiles[cell] = match[0]
    for (x, y), tile in tiles.items():
        for (dx, dy), side in _SIDE_OF.items():
            neighbor = tiles.get((x + dx, y + dy))
            if neighbor is not None and neighbor.sides[_OPPOSITE[side]] != tile.sides[side]:
                problems.append(f"edge mismatch between {(x, y)} and {(x + dx, y + dy)}")
    corner_lookup: dict[tuple[int, int], CornerEdge] = {}
    for sq in c.squares:
        for corner in square_corners(sq):
            corner_lookup[(sq.index, corner.corner)] = corner
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
            corner = corner_lookup[(tile.square, tile.corner_at[position])]
            if set(corner.pair) != ends:
                problems.append(
                    f"vertex {(vx, vy)}: corner of square {tile.square} does not match"
                )
    return problems


@dataclass
class Verdict:
    tag: str  # NotNPC | HyperbolicCertA | HyperbolicCertB | Inconclusive
    radius: int | None = None
    witness: DiskWitness | None = None
    eligible: list[int] | None = None
    details: str = ""


def hyperbolicity_verdict(
    c: SquareComplex, max_radius: int = 3, analysis: Analysis | None = None
) -> Verdict:
    """Certify hyperbolicity of the fundamental group.

    NotNPC when the link is not large; HyperbolicCertA when every square has
    a poison corner; HyperbolicCertB(R) at the smallest radius whose disk
    admits no development; otherwise Inconclusive with the largest-radius
    witness (bounded search cannot prove a plane exists).
    """
    analysis = analysis or Analysis(c)
    report = analysis.largeness
    if not report.is_large:
        kinds = sorted({v["kind"] for v in report.violations})
        return Verdict("NotNPC", details=f"link is not large: {', '.join(kinds)}")
    eligible = analysis.eligible
    if not eligible:
        return Verdict("HyperbolicCertA", eligible=[],
                       details="every square contains a poison corner")
    witness = None
    for radius in range(1, max_radius + 1):
        witness = search_flat_disk(c, radius, analysis)
        if witness is None:
            return Verdict("HyperbolicCertB", radius=radius, eligible=eligible,
                           details=f"no flat disk of radius {radius}")
    return Verdict("Inconclusive", radius=max_radius, witness=witness, eligible=eligible,
                   details=f"flat disks exist up to radius {max_radius}")
