"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every expected value is an exact integer or a frozen
word table; there are no tolerances to tune.
"""

import json
import random
import time
from contextlib import contextmanager
from math import gcd

import numpy as np

from logfiber import (
    Word,
    build_link,
    build_lot_family,
    compose,
    conjugation_automorphism,
    directional_links,
    eligible_squares,
    fiber_graph,
    hyperbolicity_verdict,
    invariant_factor_witnesses,
    invert,
    kernel_rank,
    largeness,
    parse_weight_spec,
    poison_corners,
    search_flat_disk,
    shortest_cycle_through,
    transition_matrix,
    unit_weights,
    validate_witness,
    weight_lattice,
)
from logfiber.cli import main
from tests.test_monodromy import G1_A0_IMAGES, G2_A3_IMAGES


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} [{description}]: FAIL")
        raise
    else:
        print(f"criterion {number:2d} [{description}]: PASS")


def match_convention(pairs, expected):
    """Match edge pairs against an expected list under a global choice of the
    +/- convention (identity or swap); returns the convention that fits."""
    swap = {"+": "-", "-": "+"}
    as_given = {tuple(sorted(p)) for p in pairs}
    for label, transform in (("identity", lambda e: e), ("swapped", lambda e: (e[0], swap[e[1]]))):
        if {tuple(sorted(map(transform, p))) for p in expected} == as_given:
            return label
    raise AssertionError(f"no +/- convention matches: {sorted(as_given)}")


LOT_BRIDGES = [
    (("a1", "+"), ("a0", "+")),
    (("a2", "+"), ("a1", "-")),
    (("a3", "+"), ("a2", "-")),
    (("a0", "-"), ("a3", "-")),
]


def test_criterion_1_lot_block(lot_a):
    with criterion(1, "lot block: large link, 4 bridge poison corners, CertA, rank 4"):
        link = build_link(lot_a)
        report = largeness(link)
        assert report.is_large and report.girth == 4
        poison = poison_corners(lot_a, link)
        assert len(poison) == 4
        convention = match_convention([e.pair for e in poison], LOT_BRIDGES)
        assert convention == "identity"
        assert hyperbolicity_verdict(lot_a).tag == "HyperbolicCertA"
        ws = unit_weights(lot_a)
        asc, desc = directional_links(lot_a, ws)
        assert asc.is_tree and desc.is_tree
        assert kernel_rank(lot_a, ws) == 4


def test_criterion_2_lot_family():
    with criterion(2, "family k=4..8: rank k and CertA"):
        for k in range(4, 9):
            c = build_lot_family(k)
            assert kernel_rank(c, unit_weights(c)) == k
            assert hyperbolicity_verdict(c).tag == "HyperbolicCertA"


def test_criterion_3_g1(g1):
    with criterion(3, "g1: large, no new short cycles, CertA, ranks 4m+4n+1"):
        link = build_link(g1)
        assert largeness(link).is_large
        for i, e in enumerate(link.edges):
            if e.square == 8:  # the attached square
                cycle = shortest_cycle_through(link, i)
                assert cycle is None or cycle >= 5
        assert hyperbolicity_verdict(g1).tag == "HyperbolicCertA"
        assert len(weight_lattice(g1)) == 2
        ranks = []
        for m in range(1, 6):
            for n in range(1, 6):
                if gcd(m, n) != 1:
                    continue
                ws = parse_weight_spec(f"a={m},b={n}", g1)
                fiber = fiber_graph(g1, ws)
                assert fiber.chi == len(fiber.vertices) - len(fiber.edges)
                rank = kernel_rank(g1, ws)
                assert rank == 1 - fiber.chi == 4 * m + 4 * n + 1
                ranks.append(rank)
        assert min(ranks) == 9


def test_criterion_4_mixed_family(mixed):
    with criterion(4, "mixed 5/6 family: large, CertA, ranks 5m+6n+1"):
        assert largeness(build_link(mixed)).is_large
        assert hyperbolicity_verdict(mixed).tag == "HyperbolicCertA"
        for m in range(1, 4):
            for n in range(1, 4):
                ws = parse_weight_spec(f"a={m},b={n}", mixed)
                fiber = fiber_graph(mixed, ws)
                assert fiber.chi == -(5 * m + 6 * n)
                if gcd(m, n) == 1:
                    assert kernel_rank(mixed, ws) == 5 * m + 6 * n + 1


def test_criterion_5_poison_bookkeeping(gf, g2):
    with criterion(5, "gf 12 poison (2 per square), g2 4 poison, 3 eligible"):
        gf_poison = poison_corners(gf)
        assert len(gf_poison) == 12
        per_square = {}
        for e in gf_poison:
            per_square[e.square] = per_square.get(e.square, 0) + 1
        assert per_square == {i: 2 for i in range(6)}
        assert len(poison_corners(g2)) == 4
        eligible = eligible_squares(g2)
        assert len(eligible) == 3
        added = [sq.index for sq in g2.squares if sq.origin == "added"]
        assert added and added[0] in eligible


def test_criterion_6_flatness(g2, torus):
    with criterion(6, "g2 NoDisk at radius 2, CertB(2); torus Inconclusive"):
        assert search_flat_disk(g2, 2) is None
        verdict = hyperbolicity_verdict(g2, max_radius=3)
        assert verdict.tag == "HyperbolicCertB" and verdict.radius == 2
        control = hyperbolicity_verdict(torus, max_radius=3)
        assert control.tag == "Inconclusive"
        assert control.witness is not None and control.witness.radius == 3
        assert validate_witness(torus, control.witness) == []


def test_criterion_7_g2_ranks(g2):
    with criterion(7, "g2 ranks: 7 at (1,1), 1+3m+3n coprime"):
        assert kernel_rank(g2, unit_weights(g2)) == 7
        for m in range(1, 6):
            for n in range(1, 6):
                if gcd(m, n) != 1:
                    continue
                ws = parse_weight_spec(f"a={m},b={n}", g2)
                fiber = fiber_graph(g2, ws)
                assert 1 - fiber.chi == 1 + 3 * m + 3 * n
                assert kernel_rank(g2, ws) == 1 + 3 * m + 3 * n


def test_criterion_8_monodromy_anchors(g1, g2):
    with criterion(8, "monodromy image tables: 8 on g1 by a0, 7 on g2 by a3"):
        auto1 = conjugation_automorphism("a0", g1, unit_weights(g1))
        images1 = {name: str(word) for name, word in auto1.images.items()}
        assert {name: images1[name] for name in G1_A0_IMAGES} == G1_A0_IMAGES
        auto2 = conjugation_automorphism("a3", g2, unit_weights(g2))
        images2 = {name: str(word) for name, word in auto2.images.items()}
        assert images2 == G2_A3_IMAGES


def test_criterion_9_transition_matrix(g2):
    with criterion(9, "g2 transition matrix irreducible, primitive, M^3 > 0"):
        start = time.perf_counter()
        auto = conjugation_automorphism("a3", g2, unit_weights(g2))
        tm = transition_matrix(auto)
        assert np.array(tm.matrix).shape == (7, 7)
        assert tm.irreducible and tm.primitive
        assert tm.witness_power is not None and tm.witness_power <= 3
        assert (np.linalg.matrix_power(tm.matrix, 3) > 0).all()
        assert time.perf_counter() - start < 1.0


def test_criterion_10_reducibility_witnesses(g1, g2):
    with criterion(10, "g1 a0 yields the two block witnesses; g2 a3 yields none"):
        auto1 = conjugation_automorphism("a0", g1, unit_weights(g1))
        found = {
            (frozenset(subset), str(conj))
            for subset, conj in invariant_factor_witnesses(auto1)
        }
        assert (frozenset({"α0", "α1", "α2", "α3"}), "") in found
        assert (frozenset({"β0", "β1", "β2", "β3"}), "α1 γ^-1") in found
        auto2 = conjugation_automorphism("a3", g2, unit_weights(g2))
        assert invariant_factor_witnesses(auto2) == []


def test_criterion_11_property_suites(g1, g2, mixed, torus, capsys, tmp_path):
    with criterion(11, "property suites: reduction, chi oracle, inverses, determinism"):
        # free reduction idempotence on random words
        rng = random.Random(20260808)
        gens = ["a", "b", "c"]
        for _ in range(200):
            w = Word((rng.choice(gens), rng.choice((1, -1)))
                     for _ in range(rng.randrange(0, 16)))
            assert w.free_reduce().free_reduce() == w.free_reduce()
            assert (w * w.inverse()).free_reduce() == Word()

        # chi oracle equivalence on 200 random admissible weight vectors
        families = [(g1, lambda m, n: -(4 * abs(m) + 4 * abs(n))),
                    (g2, lambda m, n: -(3 * abs(m) + 3 * abs(n))),
                    (mixed, lambda m, n: -(5 * abs(m) + 6 * abs(n)))]
        for _ in range(200):
            c, formula = families[rng.randrange(3)]
            m = rng.choice([x for x in range(-5, 6) if x])
            n = rng.choice([x for x in range(-5, 6) if x])
            ws = parse_weight_spec(f"a={m},b={n}", c)
            fiber = fiber_graph(c, ws)
            assert fiber.chi == formula(m, n)
            assert fiber.chi == len(fiber.vertices) - len(fiber.edges)

        # automorphism invertibility for the named conjugators
        for c, conjugators in ((g1, ("a0", "a1", "b0", "a3")), (g2, ("a1", "a3"))):
            ws = unit_weights(c)
            for t in conjugators:
                auto = conjugation_automorphism(t, c, ws)
                assert compose(auto, invert(auto)).is_identity()

        # transition subadditivity on composed automorphisms
        for c, s, t in ((g1, "a0", "a1"), (g2, "a3", "a1")):
            ws = unit_weights(c)
            f = conjugation_automorphism(s, c, ws)
            g = conjugation_automorphism(t, c, ws)
            lhs = np.array(transition_matrix(compose(f, g)).matrix)
            rhs = np.array(transition_matrix(f).matrix) @ np.array(transition_matrix(g).matrix)
            assert (lhs <= rhs).all()

        # flat-disk witness revalidation
        witness = search_flat_disk(torus, 3)
        assert witness is not None and validate_witness(torus, witness) == []

        # determinism across repeated runs, library and CLI
        v1 = hyperbolicity_verdict(g2, max_radius=3)
        v2 = hyperbolicity_verdict(g2, max_radius=3)
        assert (v1.tag, v1.radius, v1.eligible) == (v2.tag, v2.radius, v2.eligible)
        w1 = search_flat_disk(torus, 2)
        w2 = search_flat_disk(torus, 2)
        assert w1.placement == w2.placement
        assert main(["build", "named", "g2"]) == 0
        path = tmp_path / "g2.log"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        outputs = []
        for _ in range(2):
            assert main(["analyze", str(path), "--weights", "a=1,b=1", "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])  # well-formed machine-readable report
