"""The compiled disk search against a direct tile-by-tile backtracker.

`ReferenceSearch` checks each candidate tile against the placed neighbours
and the interior vertices it completes, straight from the placement dict.
It is slow and obviously faithful to the definition of a flat disk, so the
compiled `flatness._DiskSearch` must find exactly its witnesses.
"""

import random

from logfiber import (
    build_named,
    disk_cells,
    hyperbolicity_verdict,
    parse_spec,
    search_flat_disk,
    validate_witness,
)
from logfiber.analysis import Analysis
from logfiber.complexes import NAMED_COMPLEXES
from logfiber.flatness import (
    _OPPOSITE,
    _SIDE_OF,
    DiskWitness,
    Verdict,
    _vertex_directions,
    square_tiles,
)


class ReferenceSearch:
    def __init__(self, tiles_by_square, radius):
        self.cells = disk_cells(radius)
        self.cell_set = set(self.cells)
        self.placement = {}
        self.tiles_by_square = tiles_by_square

    def fits(self, cell, tile):
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

    def run(self, seed_square):
        seed_tile = self.tiles_by_square[seed_square][0]
        every_tile = [t for s in sorted(self.tiles_by_square) for t in self.tiles_by_square[s]]
        cells = self.cells
        tried = [0] * len(cells)
        self.placement.clear()
        i = 0
        while i < len(cells):
            cell = cells[i]
            candidates = (seed_tile,) if cell == (0, 0) else every_tile
            k = tried[i]
            while k < len(candidates) and not self.fits(cell, candidates[k]):
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


def reference_search(c, radius):
    eligible = Analysis(c).eligible
    search = ReferenceSearch({i: square_tiles(c.squares[i]) for i in eligible}, radius)
    for seed in eligible:
        placement = search.run(seed)
        if placement is not None:
            return DiskWitness(radius, placement)
    return None


def loop_verdict(c, max_radius):
    """The verdict as one `search_flat_disk` per radius, 1 to max_radius."""
    a = Analysis(c)
    if not a.largeness.is_large:
        kinds = sorted({v["kind"] for v in a.largeness.violations})
        return Verdict("NotNPC", details=f"link is not large: {', '.join(kinds)}")
    if not a.eligible:
        return Verdict("HyperbolicCertA", eligible=[],
                       details="every square contains a poison corner")
    witness = None
    for radius in range(1, max_radius + 1):
        witness = search_flat_disk(a, radius)
        if witness is None:
            return Verdict("HyperbolicCertB", radius=radius, eligible=a.eligible,
                           details=f"no flat disk of radius {radius}")
    return Verdict("Inconclusive", radius=max_radius, witness=witness, eligible=a.eligible,
                   details=f"flat disks exist up to radius {max_radius}")


def random_square_complex(rng, generators, squares):
    gens = [f"g{i}" for i in range(rng.randint(*generators))]
    words = []
    while len(words) < rng.randint(*squares):
        letters = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(4)]
        if all(letters[i - 1] != (g, -s) for i, (g, s) in enumerate(letters)):
            words.append(" ".join(g + ("^-1" if s < 0 else "") for g, s in letters))
    return parse_spec("generators " + " ".join(gens) + "\n"
                      + "".join(f"square {w}\n" for w in words))


def random_log(rng):
    n = rng.randint(4, 7)
    gens = [f"a{i}" for i in range(n)]
    lines = ["generators " + " ".join(gens)]
    for _ in range(rng.choice((n - 1, n))):
        label = rng.choice(gens)
        frm, to = rng.sample([g for g in gens if g != label], 2)
        lines.append(f"edge label={label} from={frm} to={to}")
    return parse_spec("\n".join(lines) + "\n")


# large links whose flat disks stop at radius 2 (certificate at 3) and at 3
CERT_B3 = ("generators g0 g1 g2 g3\n"
           "square g1 g2^-1 g2^-1 g0^-1\nsquare g1^-1 g1^-1 g3 g0\nsquare g3 g2 g0 g0\n")
CERT_B4 = ("generators g0 g1 g2 g3\n"
           "square g3^-1 g3^-1 g2 g1\nsquare g0 g3 g2^-1 g3^-1\nsquare g0 g3^-1 g1 g0\n")


def corpus():
    """The named complexes and two deep certificates, then seeded random
    complexes with at least one eligible square: 40 small square complexes
    of any link, and 30 LOGs and 30 square complexes with large links."""
    out = [build_named(name) for name in NAMED_COMPLEXES]
    out += [parse_spec(CERT_B3), parse_spec(CERT_B4)]
    rng = random.Random(1975)
    draws = [
        (40, lambda: random_square_complex(rng, (3, 4), (1, 4)), False),
        (30, lambda: random_log(rng), True),
        (30, lambda: random_square_complex(rng, (3, 6), (2, 8)), True),
    ]
    for count, draw, large in draws:
        kept = 0
        while kept < count:
            c = draw()
            a = Analysis(c)
            if a.eligible and (a.largeness.is_large or not large):
                out.append(c)
                kept += 1
    return out


CORPUS = corpus()


def test_corpus_reaches_every_verdict():
    verdicts = {(v.tag, v.radius) for v in (hyperbolicity_verdict(c, 4) for c in CORPUS)}
    assert {("NotNPC", None), ("HyperbolicCertA", None), ("HyperbolicCertB", 2),
            ("HyperbolicCertB", 3), ("HyperbolicCertB", 4), ("Inconclusive", 4)} <= verdicts


def test_search_matches_reference():
    found = 0
    for c in CORPUS:
        for radius in (1, 2):
            witness = search_flat_disk(c, radius)
            expected = reference_search(c, radius)
            assert (witness is None) == (expected is None), c.render()
            if witness is not None:
                assert witness.placement == expected.placement, c.render()
                assert list(witness.placement) == disk_cells(radius)
                assert validate_witness(c, witness) == []
                found += 1
    assert found >= 20


def test_verdict_matches_radius_loop():
    for c in CORPUS:
        for max_radius in (3, 4):
            v = hyperbolicity_verdict(c, max_radius)
            assert v == loop_verdict(c, max_radius), c.render()
            if v.witness is not None:
                assert validate_witness(c, v.witness) == []
