"""Flat-disk development: eligibility, search, verdicts, witness checking."""

import pytest

from logfiber import (
    NAMED_COMPLEXES,
    InputError,
    build_link,
    build_lot_family,
    build_named,
    disk_cells,
    eligible_squares,
    flatness,
    hyperbolicity_verdict,
    links,
    parse_spec,
    search_flat_disk,
    square_corners,
    square_tiles,
    validate_witness,
)
from logfiber.flatness import MAX_DISK_RADIUS, DiskWitness
from test_text_reports import DRAW_1447_LOG


def test_disk_cells_taxicab():
    assert disk_cells(1) == [(0, 0), (-1, 0), (0, -1), (0, 1), (1, 0)]
    assert len(disk_cells(2)) == 13
    assert len(disk_cells(3)) == 25


def test_tiles_are_eight_per_square(torus):
    tiles = square_tiles(torus.squares[0])
    assert len(tiles) == 8
    assert tiles[0].rot == 0 and not tiles[0].refl
    # torus square tiles the plane by translation: rot-0 has equal N/S and E/W
    s, e, n, w = tiles[0].sides
    assert s == n and e == w


def test_eligible_squares(lot_a, g2, torus, monkeypatch):
    assert eligible_squares(lot_a) == []
    assert eligible_squares(g2) == [0, 3, 6]
    assert eligible_squares(torus) == [0]
    link = build_link(g2)  # a link handed over is read, not built again
    monkeypatch.setattr(links, "build_link", lambda c: pytest.fail("link built twice"))
    assert eligible_squares(g2, link) == [0, 3, 6]


def test_nothing_to_place_is_no_disk(lot_a):
    assert search_flat_disk(lot_a, 1) is None


def test_g2_flat_search(g2):
    assert search_flat_disk(g2, 1) is not None
    assert search_flat_disk(g2, 2) is None
    # monotone: no disk at radius 2 forces none at radius 3
    assert search_flat_disk(g2, 3) is None


def test_torus_tiles_every_radius(torus):
    for radius in (1, 2, 3):
        witness = search_flat_disk(torus, radius)
        assert witness is not None
        assert validate_witness(torus, witness) == []


def test_bad_radius(torus):
    with pytest.raises(InputError):
        search_flat_disk(torus, 0)
    for radius in (0, -1, MAX_DISK_RADIUS + 1):
        with pytest.raises(InputError):
            hyperbolicity_verdict(torus, radius)
    with pytest.raises(InputError, match="20605 cells"):
        search_flat_disk(torus, MAX_DISK_RADIUS + 1)


def test_witness_validation_catches_corruption(torus):
    witness = search_flat_disk(torus, 1)
    placement = dict(witness.placement)
    del placement[(1, 0)]
    assert validate_witness(torus, DiskWitness(1, placement))
    placement = dict(witness.placement)
    placement[(1, 0)] = (0, 1, False)  # rotate one cell: sides stop matching
    assert any("mismatch" in p for p in validate_witness(torus, DiskWitness(1, placement)))


def test_verdicts(lot_a, g1, g2, torus, gf, mixed):
    assert hyperbolicity_verdict(lot_a).tag == "HyperbolicCertA"
    assert hyperbolicity_verdict(g1).tag == "HyperbolicCertA"
    assert hyperbolicity_verdict(mixed).tag == "HyperbolicCertA"
    assert hyperbolicity_verdict(gf).tag == "HyperbolicCertA"
    v = hyperbolicity_verdict(g2, max_radius=3)
    assert v.tag == "HyperbolicCertB" and v.radius == 2
    t = hyperbolicity_verdict(torus, max_radius=3)
    assert t.tag == "Inconclusive" and t.radius == 3
    assert validate_witness(torus, t.witness) == []


def test_not_npc_verdict():
    c = parse_spec("generators a b\nsquare a b^-1 a b^-1\n")
    assert hyperbolicity_verdict(c).tag == "NotNPC"


def test_family_verdicts():
    for k in range(4, 9):
        assert hyperbolicity_verdict(build_lot_family(k)).tag == "HyperbolicCertA"


def test_search_is_deterministic(g2, torus):
    a = search_flat_disk(torus, 2)
    b = search_flat_disk(torus, 2)
    assert a.placement == b.placement
    assert search_flat_disk(g2, 2) is None and search_flat_disk(g2, 2) is None


def test_witness_cells_only_use_eligible_squares(g2, torus):
    witness = search_flat_disk(g2, 1)
    assert witness is not None
    assert {s for s, _, _ in witness.placement.values()} <= set(eligible_squares(g2))


# -- the placement rule, read off the grid ---------------------------------


def _inverse(letter):
    g, s = letter
    return (g, -s)


def _corner_ends(entering, leaving):
    """The two direction-ends that meet at a corner: where the letter
    entering it arrives and where the letter leaving it departs."""
    (g, s), (h, t) = entering, leaving
    return {(g, "+" if s > 0 else "-"), (h, "-" if t > 0 else "+")}


def test_placements_follow_the_grid():
    complexes = [build_named(name) for name in NAMED_COMPLEXES] + [parse_spec(DRAW_1447_LOG)]
    for c in complexes:
        for sq in c.squares:
            letters = list(sq.boundary.letters)
            inverse = [_inverse(x) for x in reversed(letters)]
            corners, tiles = square_corners(sq), square_tiles(sq)
            assert len(tiles) == 8
            for refl in (False, True):
                spelled = inverse if refl else letters
                for rot in range(4):
                    t = tiles[4 * refl + rot]
                    assert (t.square, t.rot, t.refl) == (sq.index, rot, refl)
                    s, e, n, w = t.sides
                    path = [s, e, _inverse(n), _inverse(w)]  # counterclockwise from SW
                    assert any(path == spelled[j:] + spelled[:j] for j in range(4)), (sq, t)
                    for k in range(4):  # cell corner k (SW, SE, NE, NW): path[k - 1], then path[k]
                        ends = set(corners[t.corner_at[k]].ends)
                        assert ends == _corner_ends(path[k - 1], path[k]), (sq, t, k)
                    if rot < 3:  # a quarter turn counterclockwise carries W to S and NW to SW
                        turned = tiles[4 * refl + rot + 1]
                        assert turned.sides == (_inverse(w), s, _inverse(e), n)
                        assert turned.corner_at == t.corner_at[3:] + t.corner_at[:3]
            # refl mirrors across the vertical axis: S and N reverse, E and W swap
            s, e, n, w = tiles[0].sides
            assert tiles[4].sides == (_inverse(s), w, _inverse(n), e)
            sw, se, ne, nw = tiles[0].corner_at
            assert tiles[4].corner_at == (se, sw, nw, ne)


# -- what the witness check refuses ---------------------------------------


def test_witness_naming_an_unknown_square_is_refused(torus):
    placement = dict(search_flat_disk(torus, 1).placement)
    placement[(1, 0)] = (99, 0, False)
    assert validate_witness(torus, DiskWitness(1, placement)) == ["cell (1, 0): unknown square 99"]


def test_side_matched_disk_without_distinct_directions_is_refused():
    # square a a a a: plain and mirrored cells in a checkerboard match every
    # shared side, but each vertex sees only the two ends of a
    c = parse_spec("generators a\nsquare a a a a\n")
    placement = {(x, y): (0, 0, (x + y) % 2 == 1) for x, y in disk_cells(2)}
    problems = validate_witness(c, DiskWitness(2, placement))
    assert problems and not any("mismatch" in p for p in problems)
    assert any("directions not distinct" in p for p in problems)


def test_witness_with_a_misplaced_corner_is_refused(monkeypatch):
    c = parse_spec(DRAW_1447_LOG)
    witness = search_flat_disk(c, 2)
    assert validate_witness(c, witness) == []
    square, rot, refl = witness.placement[(-1, 0)]  # a mirrored cell beside the origin
    assert refl
    real = flatness.square_tiles

    def swapped(sq):  # that placement with its SW and SE corners exchanged
        tiles = real(sq)
        if sq.index == square:
            t = tiles[4 * refl + rot]
            sw, se, ne, nw = t.corner_at
            tiles[4 * refl + rot] = t._replace(corner_at=(se, sw, ne, nw))
        return tiles

    monkeypatch.setattr(flatness, "square_tiles", swapped)
    problems = validate_witness(c, witness)
    assert problems and all(f"corner of square {square} does not match" in p for p in problems)
