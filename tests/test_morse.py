"""Weight systems, directional links, fiber graphs, the weight lattice."""

import random

import pytest

from logfiber import (
    InputError,
    build_lot_family,
    check_admissible,
    corner_heights,
    directional_links,
    fiber_graph,
    fibering_scan,
    infinite_fibering_verdict,
    kernel_rank,
    parse_weight_spec,
    unit_weights,
    weight_lattice,
)
from logfiber.morse import _hermite_rows, _kernel_basis_int


def closed_form_chi(c, ws):
    """Independent count: subdivision vertices minus per-square level arcs."""
    vertices = 1 + sum(abs(ws[g]) - 1 for g in c.generators)
    edges = sum(corner_heights(sq, ws).span - 1 for sq in c.squares)
    return vertices - edges


# -- admissibility -----------------------------------------------------


def test_g1_unit_weights_admissible(g1):
    report = check_admissible(g1, unit_weights(g1))
    assert report.admissible
    added = report.heights[8]
    assert added.heights == (0, 1, 2, 1)
    assert (added.max_corner - added.min_corner) % 4 == 2


def test_g1_heights_at_2_3(g1):
    ws = parse_weight_spec("a=2,b=3", g1)
    report = check_admissible(g1, ws)
    assert report.admissible
    assert report.heights[8].heights == (0, 2, 5, 3)


def test_zero_weight_is_inadmissible(g1):
    ws = unit_weights(g1)
    ws["a0"] = 0
    report = check_admissible(g1, ws)
    assert not report.admissible
    assert any("zero weight" in p for p in report.problems)


def test_nonzero_sum_reported(g1):
    ws = unit_weights(g1)
    ws["a4"] = 2  # breaks the conjugation squares ending at a4
    report = check_admissible(g1, ws)
    assert not report.admissible
    assert any("weight sum" in p for p in report.problems)


def test_affine_violation_reported(torus):
    # need a square whose opposite letters are independent: a b a^-1 b^-1
    # always satisfies the affine condition, so build one that does not
    from logfiber import parse_spec

    c = parse_spec("generators a b\nsquare a b a b\n")
    report = check_admissible(c, {"a": 1, "b": -1})
    assert not report.admissible
    assert any("affine" in p for p in report.problems)


def test_weight_spec_parsing(g1):
    ws = parse_weight_spec("a=1,b=2,a0=5", g1)
    assert ws["a0"] == 5 and ws["a1"] == 1 and ws["b4"] == 2
    with pytest.raises(InputError):
        parse_weight_spec("a=1", g1)  # b generators uncovered
    with pytest.raises(InputError):
        parse_weight_spec("a=1,b=1,z=2", g1)
    with pytest.raises(InputError):
        parse_weight_spec("a=x,b=1", g1)


# -- directional links -------------------------------------------------


def test_lot_directional_links_are_trees(lot_a):
    asc, desc = directional_links(lot_a, unit_weights(lot_a))
    for side in (asc, desc):
        assert len(side.vertices) == 5 and len(side.edges) == 4
        assert side.is_tree and side.components == 1


def test_gf_links_are_two_component_forests(gf):
    asc, desc = directional_links(gf, unit_weights(gf))
    for side in (asc, desc):
        assert not side.is_tree
        assert side.components == 2


def test_g2_links_become_trees(g2):
    asc, desc = directional_links(g2, unit_weights(g2))
    assert asc.is_tree and desc.is_tree


def test_one_edge_per_square_per_side(g1, g2, mixed):
    for c in (g1, g2, mixed):
        asc, desc = directional_links(c, unit_weights(c))
        assert len(asc.edges) == len(c.squares)
        assert len(desc.edges) == len(c.squares)


def test_sign_only_dependence(g1):
    ws = parse_weight_spec("a=3,b=5", g1)
    signs = {g: (1 if w > 0 else -1) for g, w in ws.items()}
    a1, d1 = directional_links(g1, ws)
    a2, d2 = directional_links(g1, signs)
    assert a1.vertices == a2.vertices and d1.vertices == d2.vertices
    assert a1.edges == a2.edges and d1.edges == d2.edges


def test_negation_swaps_ascending_and_descending(g1):
    ws = parse_weight_spec("a=2,b=1", g1)
    neg = {g: -w for g, w in ws.items()}
    asc, desc = directional_links(g1, ws)
    asc_n, desc_n = directional_links(g1, neg)
    assert asc.vertices == desc_n.vertices and asc.edges == desc_n.edges
    assert desc.vertices == asc_n.vertices and desc.edges == asc_n.edges


def test_inadmissible_weights_raise(g1):
    ws = unit_weights(g1)
    ws["b3"] = 0
    with pytest.raises(InputError):
        directional_links(g1, ws)


# -- fiber graphs and ranks --------------------------------------------


def test_lot_fiber_is_a_bouquet(lot_a):
    fiber = fiber_graph(lot_a, unit_weights(lot_a))
    assert len(fiber.vertices) == 1 and len(fiber.edges) == 4
    assert fiber.chi == -3 and fiber.connected
    assert kernel_rank(lot_a, unit_weights(lot_a)) == 4


def test_g2_unit_fiber(g2):
    fiber = fiber_graph(g2, unit_weights(g2))
    assert len(fiber.vertices) == 1 and len(fiber.edges) == 7
    assert fiber.chi == -6
    assert kernel_rank(g2, unit_weights(g2)) == 7


def test_g1_chi_closed_form_coprime(g1):
    for m, n in ((1, 1), (2, 3), (3, 2), (1, 5), (5, 4)):
        ws = parse_weight_spec(f"a={m},b={n}", g1)
        fiber = fiber_graph(g1, ws)
        assert fiber.chi == -(4 * m + 4 * n)
        assert fiber.chi == closed_form_chi(g1, ws)
        assert kernel_rank(g1, ws) == 4 * m + 4 * n + 1


def test_gcd_two_fiber_disconnects(g1):
    ws = parse_weight_spec("a=2,b=2", g1)
    fiber = fiber_graph(g1, ws)
    assert fiber.chi == -16  # direct count
    assert fiber.components == 2
    with pytest.raises(InputError):
        kernel_rank(g1, ws)


def test_huge_fibers_are_refused_before_building(torus, monkeypatch):
    from logfiber import morse

    ws = parse_weight_spec("a=1000000,b=1000000", torus)
    with pytest.raises(InputError, match="3999998 vertices and arcs"):
        kernel_rank(torus, ws)
    # the limit is on vertices plus arcs: 2|a| + 2|b| - 2 on the torus
    ws = parse_weight_spec("a=3,b=4", torus)
    fiber = fiber_graph(torus, ws)
    assert len(fiber.vertices) + len(fiber.edges) == 12
    monkeypatch.setattr(morse, "MAX_FIBER_CELLS", 12)
    assert fiber_graph(torus, ws).chi == fiber.chi
    monkeypatch.setattr(morse, "MAX_FIBER_CELLS", 11)
    with pytest.raises(InputError, match="12 vertices and arcs"):
        fiber_graph(torus, ws)


def test_rank_equals_edges_minus_vertices_plus_one(g2):
    for m, n in ((1, 2), (3, 4), (2, 5)):
        ws = parse_weight_spec(f"a={m},b={n}", g2)
        fiber = fiber_graph(g2, ws)
        assert fiber.connected
        assert kernel_rank(g2, ws) == len(fiber.edges) - len(fiber.vertices) + 1
        assert kernel_rank(g2, ws) == 1 - fiber.chi


def test_chi_oracle_on_random_weights(g1, g2, mixed):
    rng = random.Random(20260808)
    families = [(g1, lambda m, n: -(4 * abs(m) + 4 * abs(n))),
                (g2, lambda m, n: -(3 * abs(m) + 3 * abs(n))),
                (mixed, lambda m, n: -(5 * abs(m) + 6 * abs(n)))]
    for _ in range(200):
        c, formula = families[rng.randrange(3)]
        m = rng.choice([x for x in range(-5, 6) if x])
        n = rng.choice([x for x in range(-5, 6) if x])
        ws = parse_weight_spec(f"a={m},b={n}", c)
        assert check_admissible(c, ws).admissible
        fiber = fiber_graph(c, ws)
        assert fiber.chi == formula(m, n)
        assert fiber.chi == closed_form_chi(c, ws)


def test_negative_weight_fiber(lot_a):
    ws = {g: -2 for g in lot_a.generators}
    fiber = fiber_graph(lot_a, ws)
    assert fiber.chi == closed_form_chi(lot_a, ws)
    asc, desc = directional_links(lot_a, ws)
    assert asc.is_tree and desc.is_tree


# -- integer kernel ----------------------------------------------------


def test_kernel_basis_int_small_matrices():
    assert _kernel_basis_int([[1, -1]], 2) == [[1, 1]]
    assert _kernel_basis_int([[2, 3]], 2) == [[3, -2]]
    # saturated: the (2, -2) row must still give the primitive kernel vector
    assert _kernel_basis_int([[2, -2]], 2) == [[1, 1]]
    assert _kernel_basis_int([[1, 0], [0, 1]], 2) == []
    assert _kernel_basis_int([[0, 0]], 2) == [[1, 0], [0, 1]]


def test_kernel_vectors_annihilate_the_matrix(g1, g2, mixed, torus):
    for c in (g1, g2, mixed, torus):
        basis = weight_lattice(c)
        for vec in basis:
            for sq in c.squares:
                assert sum(s * vec[g] for g, s in sq.boundary) == 0


def test_hermite_rows_canonical():
    assert _hermite_rows([[0, 1], [1, 0]], 2) == [[1, 0], [0, 1]]
    assert _hermite_rows([[2, 4], [1, 2]], 2) == [[1, 2]]


def test_lattices_of_named_complexes(lot_a, g1, gf, g2, torus):
    assert weight_lattice(lot_a) == [{g: 1 for g in lot_a.generators}]
    g1_basis = weight_lattice(g1)
    assert len(g1_basis) == 2
    assert g1_basis[0] == {g: (1 if g.startswith("a") else 0) for g in g1.generators}
    assert g1_basis[1] == {g: (1 if g.startswith("b") else 0) for g in g1.generators}
    assert len(weight_lattice(gf)) == 2
    assert len(weight_lattice(g2)) == 2
    assert len(weight_lattice(torus)) == 2


# -- fibering scan and verdict ------------------------------------------


def test_fibering_scan_g1(g1):
    rows = fibering_scan(g1, 1)
    # coords with a zero entry give zero generator weights and are excluded
    assert len(rows) == 4
    by_coords = {tuple(r["coords"]): r for r in rows}
    assert by_coords[(1, 1)]["rank"] == 9
    assert by_coords[(1, 1)]["primitive"]
    assert by_coords[(-1, -1)]["rank"] == 9
    # deterministic lexicographic order
    assert [tuple(r["coords"]) for r in rows] == sorted(tuple(r["coords"]) for r in rows)


def test_fibering_scan_nonprimitive_row(g1):
    rows = fibering_scan(g1, 2)
    row = next(r for r in rows if tuple(r["coords"]) == (2, 2))
    assert not row["primitive"]
    assert row["chi"] == -16 and row["components"] == 2 and row["rank"] is None
    assert "disconnected" in row["note"]


def test_fibering_scan_g2(g2):
    rows = fibering_scan(g2, 3)
    row = next(r for r in rows if tuple(r["coords"]) == (1, 2))
    assert row["rank"] == 1 + 3 * 1 + 3 * 2


def test_fibering_scan_bad_bound(g1):
    with pytest.raises(InputError):
        fibering_scan(g1, 0)


def test_weight_lattice_without_squares():
    from logfiber import parse_spec

    c = parse_spec("generators a b\n")
    assert weight_lattice(c) == [{"a": 1, "b": 0}, {"a": 0, "b": 1}]


def test_verdict_no_when_affine_fails_on_the_lattice():
    from logfiber import parse_spec

    c = parse_spec("generators a b c d\nsquare a b a b\n")
    verdict = infinite_fibering_verdict(c)
    assert not verdict["infinite_fibering"]
    assert "affine" in verdict["reason"]


def test_verdict_no_when_no_orthant_gives_trees():
    from logfiber import parse_spec

    c = parse_spec("generators a b c d\nsquare a b a^-1 b^-1\nsquare c d c^-1 d^-1\n")
    verdict = infinite_fibering_verdict(c)
    assert not verdict["infinite_fibering"]
    assert "orthant" in verdict["reason"]


def test_verdict_no_when_a_generator_always_weighs_zero():
    # g0 g0 g0 g0 forces w(g0) = 0: no weight system is nonzero everywhere,
    # which used to take 2^rank * 3^rank tries to find out
    from logfiber import parse_spec

    for n in (6, 14):
        c = parse_spec("generators " + " ".join(f"g{i}" for i in range(n))
                       + "\nsquare g0 g0 g0 g0\n")
        assert infinite_fibering_verdict(c) == {
            "lattice_rank": n - 1,
            "infinite_fibering": False,
            "orthant": None,
            "reason": "no orthant yields tree ascending and descending links",
        }


def test_infinite_fibering_verdicts(lot_a, g1, g2, torus):
    assert infinite_fibering_verdict(lot_a) == {
        "lattice_rank": 1,
        "infinite_fibering": False,
        "orthant": None,
        "reason": "weight lattice has rank < 2",
    }
    for c in (g1, g2):
        verdict = infinite_fibering_verdict(c)
        assert verdict["infinite_fibering"] and verdict["orthant"] == ["+", "+"]
    assert infinite_fibering_verdict(torus)["infinite_fibering"]


def test_family_ranks():
    for k in range(4, 9):
        c = build_lot_family(k)
        assert kernel_rank(c, unit_weights(c)) == k


def dense_square_rows(c):
    index = {g: i for i, g in enumerate(c.generators)}
    rows = []
    for sq in c.squares:
        row = [0] * len(c.generators)
        for g, s in sq.boundary:
            row[index[g]] += s
        rows.append(row)
    return rows


def test_contracted_lattice_matches_dense_smith_form():
    # LOG squares (graph rows e_v - e_u), relator squares, zero rows,
    # coefficient-2 rows, and sometimes no graph rows at all
    from logfiber import parse_spec

    rng = random.Random(20081015)
    for trial in range(120):
        gens = [f"g{i}" for i in range(rng.randint(2, 9))]
        squares = []
        for _ in range(rng.randint(0, 8)):
            x, u, v, w = (rng.choice(gens) for _ in range(4))
            kind = rng.randrange(5) if trial % 4 else rng.randrange(1, 5)
            if kind == 0 and len({x, u, v}) == 3:
                squares.append(f"{x} {v} {x}^-1 {u}^-1")
            elif kind == 1 and len({x, u, v, w}) == 4:
                squares.append(f"{x} {u} {v}^-1 {w}^-1")
            elif kind == 2 and x != u:
                squares.append(f"{x} {u} {x}^-1 {u}^-1")
            elif kind == 3 and len({x, u, v}) == 3:
                squares.append(f"{x} {x} {u}^-1 {v}^-1")
            elif kind == 4 and x != u:
                squares.append(f"{x} {u} {x} {u}")
        c = parse_spec("generators " + " ".join(gens) + "\n"
                       + "".join(f"square {s}\n" for s in squares))
        n = len(gens)
        expected = _hermite_rows(_kernel_basis_int(dense_square_rows(c), n), n)
        assert [[b[g] for g in gens] for b in weight_lattice(c)] == expected, squares


def test_contracted_lattice_on_lot_and_wedge():
    from logfiber import combine

    for c in (build_lot_family(40),
              combine(build_lot_family(9, "a"), build_lot_family(7, "b"), "a0 b2 a1^-1 b0^-1")):
        n = len(c.generators)
        expected = _hermite_rows(_kernel_basis_int(dense_square_rows(c), n), n)
        assert [[b[g] for g in c.generators] for b in weight_lattice(c)] == expected
