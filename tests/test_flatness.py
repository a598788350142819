"""Flat-disk development: eligibility, search, verdicts, witness checking."""

import pytest

from logfiber import (
    InputError,
    build_lot_family,
    disk_cells,
    eligible_squares,
    hyperbolicity_verdict,
    parse_spec,
    search_flat_disk,
    square_tiles,
    validate_witness,
)
from logfiber.flatness import MAX_DISK_RADIUS, DiskWitness


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


def test_eligible_squares(lot_a, g2, torus):
    assert eligible_squares(lot_a) == []
    assert eligible_squares(g2) == [0, 3, 6]
    assert eligible_squares(torus) == [0]


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
