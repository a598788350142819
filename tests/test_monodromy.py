"""Fiber-loop bases, peak-reduction rewriting, automorphisms, matrices."""

import random
import time
from types import SimpleNamespace

import numpy as np
import pytest

from logfiber import (
    Automorphism,
    BasisLoop,
    InputError,
    MonodromyContext,
    Word,
    build_lot_family,
    compose,
    conjugation_automorphism,
    invariant_factor_witness,
    invariant_factor_witnesses,
    invert,
    parse_spec,
    parse_weight_spec,
    signed_weight,
    transition_matrix,
    unit_weights,
)
from logfiber.morse import _hermite_rows
from references import transition_matrix as reference_transition_matrix


def abelianize(word, generators):
    vec = [0] * len(generators)
    index = {g: i for i, g in enumerate(generators)}
    for g, s in word:
        vec[index[g]] += s
    return vec


def in_row_lattice(vec, rows, n):
    """Is vec an integer combination of the rows?  Reduce against the HNF."""
    hnf = _hermite_rows([r[:] for r in rows], n)
    residue = vec[:]
    for row in hnf:
        col = next(i for i, x in enumerate(row) if x)
        if residue[col] % row[col] != 0:
            return False
        q = residue[col] // row[col]
        residue = [x - q * y for x, y in zip(residue, row)]
    return not any(residue)


def relator_rows(c):
    return [abelianize(sq.boundary, c.generators) for sq in c.squares]


# -- basis and naming ---------------------------------------------------


def test_g1_basis(g1):
    basis = MonodromyContext(g1, unit_weights(g1)).basis
    assert [(l.square, l.name, str(l.rep)) for l in basis] == [
        (0, "α1", "a0 a1^-1"),
        (1, "α2", "a1 a2^-1"),
        (2, "α3", "a2 a3^-1"),
        (3, "α0", "a4 a0^-1"),
        (4, "β1", "b0 b1^-1"),
        (5, "β2", "b1 b2^-1"),
        (6, "β3", "b2 b3^-1"),
        (7, "β0", "b4 b0^-1"),
        (8, "γ", "b2 a1^-1"),
    ]


def test_g2_basis(g2):
    basis = MonodromyContext(g2, unit_weights(g2)).basis
    assert [l.name for l in basis] == ["β2", "β3", "β1", "α2", "α3", "α1", "γ"]
    assert {l.name for l in basis} == {"α1", "α2", "α3", "β1", "β2", "β3", "γ"}


def test_torus_basis(torus):
    basis = MonodromyContext(torus, unit_weights(torus)).basis
    assert len(basis) == 1


def test_basis_reps_have_weight_zero(g1, g2):
    for c in (g1, g2):
        ws = unit_weights(c)
        for loop in MonodromyContext(c, ws).basis:
            assert signed_weight(loop.rep, ws) == 0


def test_basis_requires_unit_weights(g1):
    with pytest.raises(InputError):
        MonodromyContext(g1, parse_weight_spec("a=2,b=1", g1))


def test_basis_requires_trees(gf):
    with pytest.raises(InputError):
        MonodromyContext(gf, unit_weights(gf))


def test_context_refuses_in_order(g2):
    # inadmissible, then not +-1, then not a tree: each case also fails the later checks
    for spec, message in (("a=2,b=-1,a1=3", "inadmissible weight system: square"),
                          ("a=2,b=-1", "monodromy needs all weights +-1"),
                          ("a=1,b=-1", "ascending link is not a tree (2 components)")):
        with pytest.raises(InputError) as raised:
            MonodromyContext(g2, parse_weight_spec(spec, g2))
        assert str(raised.value).startswith(message), spec


# -- rewriting ----------------------------------------------------------


def test_rewrite_round_trip(g1, g2):
    for c in (g1, g2):
        ctx = MonodromyContext(c, unit_weights(c))
        for loop in ctx.basis:
            assert ctx.rewrite(loop.rep) == Word([(loop.name, 1)])


def test_rewrite_empty(g1):
    assert MonodromyContext(g1, unit_weights(g1)).rewrite(Word()) == Word()


def test_rewrite_rejects_nonzero_weight(g1):
    with pytest.raises(InputError):
        MonodromyContext(g1, unit_weights(g1)).rewrite(Word.parse("a0"))


def test_rewrite_conjugated_loop(g1):
    # conjugating the first loop by a0 appends the loop of the last a-square
    word = Word.parse("a0 a0 a1^-1 a0^-1")
    assert str(MonodromyContext(g1, unit_weights(g1)).rewrite(word)) == "α1 α0"


def test_rewrite_abelianization_soundness(g1, g2):
    # pushing the rewritten word back through the representatives must agree
    # with the input in the abelianization of the group: the difference lies
    # in the lattice spanned by the square boundaries
    from logfiber.monodromy import MonodromyContext

    rng = random.Random(3)
    for c in (g1, g2):
        ws = unit_weights(c)
        ctx = MonodromyContext(c, ws)
        n = len(c.generators)
        rows = relator_rows(c)
        for _ in range(40):
            # random zero-weight word; height capped (flattening cost grows
            # fast with peak height, and conjugation only ever sees small ones)
            letters = []
            height = 0
            while True:
                if height == 3 or (height > 0 and rng.random() < 0.5):
                    letters.append((rng.choice(c.generators), -1))
                    height -= 1
                else:
                    letters.append((rng.choice(c.generators), 1))
                    height += 1
                if height == 0 and (rng.random() < 0.3 or len(letters) > 10):
                    break
            word = Word(letters)
            assert signed_weight(word, ws) == 0
            image = ctx.push_to_generators(ctx.rewrite(word))
            diff = [
                x - y
                for x, y in zip(abelianize(image, c.generators), abelianize(word, c.generators))
            ]
            assert in_row_lattice(diff, rows, n)


def test_mixed_sign_unit_weights(g1, g2):
    # negative unit weights flip min and max corners; rewriting must still
    # round-trip and invert (valleys now exercise the ascending tree)
    cases = [(g1, "a=1,b=-1"), (g1, "a=-1,b=1"), (g1, "a=-1,b=-1"), (g2, "a=-1,b=-1")]
    for c, spec in cases:
        ws = parse_weight_spec(spec, c)
        ctx = MonodromyContext(c, ws)
        for loop in ctx.basis:
            assert signed_weight(loop.rep, ws) == 0
            assert ctx.rewrite(loop.rep) == Word([(loop.name, 1)])
        for t in ("a1", "b1" if "b1" in c.generators else "b0"):
            auto = conjugation_automorphism(t, c, ws)
            assert compose(auto, invert(auto)).is_identity()


def test_negated_weights_give_inverse_style_images(g1):
    # at all-negative weights conjugation by a0 is still a monodromy
    ws = parse_weight_spec("a=-1,b=-1", g1)
    auto = conjugation_automorphism("a0", g1, ws)
    assert auto.tag == "monodromy"
    assert compose(auto, invert(auto)).is_identity()


# -- conjugation automorphisms: hand-checked image tables ----------------

G1_A0_IMAGES = {
    "α0": "α3^-1 α2^-1 α1^-1",
    "α1": "α1 α0",
    "α2": "α1 α2 α0",
    "α3": "α1 α2 α3 α0",
    "β0": "α1 γ^-1 β2^-1 β1^-1 β3^-1 γ α1^-1",
    "β1": "α1 γ^-1 β2^-1 β0 β1 β2 γ α1^-1",
    "β2": "α1 γ^-1 β0 β1 β2 γ α1^-1",
    "β3": "α1 γ^-1 β3 β0 β1 β2 γ α1^-1",
}

G2_A3_IMAGES = {
    "α1": "α3^-1 β2^-1 β3^-1 α2^-1 γ β2 α3",
    "α2": "α3^-1 β2^-1 γ^-1 α2 α1 β2 α3",
    "α3": "α1 β2 α3",
    "β1": "α3^-1 β2^-1 γ^-1",
    "β2": "α3^-1 β1 γ β2 α3",
    "β3": "α3^-1 β2^-1 γ^-1 α2 β3 β1 γ β2 α3",
    "γ": "α3^-1 β2^-1 γ^-1 β1^-1 α1 β2 α3",
}


def test_g1_a0_images(g1):
    auto = conjugation_automorphism("a0", g1, unit_weights(g1))
    images = {name: str(word) for name, word in auto.images.items()}
    assert {name: images[name] for name in G1_A0_IMAGES} == G1_A0_IMAGES
    assert auto.tag == "monodromy"


def test_g2_a3_images(g2):
    auto = conjugation_automorphism("a3", g2, unit_weights(g2))
    assert {name: str(word) for name, word in auto.images.items()} == G2_A3_IMAGES


def test_empty_conjugator_is_identity(g1):
    auto = conjugation_automorphism(Word(), g1, unit_weights(g1))
    assert auto.is_identity()
    assert auto.tag == "inner"


def test_weight_zero_conjugator_is_tagged_inner(g1):
    auto = conjugation_automorphism("b0 a0^-1", g1, unit_weights(g1))
    assert auto.tag == "inner"


def test_overweight_conjugator_rejected(g1):
    with pytest.raises(InputError):
        conjugation_automorphism("a0 a1", g1, unit_weights(g1))


# -- compose / invert ---------------------------------------------------


def test_invertibility(g1, g2):
    cases = [(g1, "a0"), (g1, "a1"), (g1, "b0"), (g1, "a3"), (g2, "a1"), (g2, "a3")]
    for c, conj in cases:
        auto = conjugation_automorphism(conj, c, unit_weights(c))
        assert compose(auto, invert(auto)).is_identity()
        assert compose(invert(auto), auto).is_identity()


def test_compose_identity(g1):
    ws = unit_weights(g1)
    f = conjugation_automorphism("a0", g1, ws)
    e = conjugation_automorphism(Word(), g1, ws)
    assert compose(e, f).images == f.images
    assert compose(f, e).images == f.images


def test_compose_matches_double_conjugation_oracle(g1):
    ws = unit_weights(g1)
    f = conjugation_automorphism("a0", g1, ws)
    ff = compose(f, f)
    from logfiber.monodromy import MonodromyContext

    ctx = MonodromyContext(g1, ws)
    t = Word.parse("a0 a0")
    for loop in ctx.basis:
        direct = ctx.rewrite((t * loop.rep * t.inverse()).free_reduce())
        assert ff.images[loop.name] == direct


def test_compose_requires_same_basis(g1, g2):
    f = conjugation_automorphism("a0", g1, unit_weights(g1))
    g = conjugation_automorphism("a3", g2, unit_weights(g2))
    with pytest.raises(InputError):
        compose(f, g)


# -- transition matrices -------------------------------------------------


def test_g2_transition_classification(g2):
    auto = conjugation_automorphism("a3", g2, unit_weights(g2))
    tm = transition_matrix(auto)
    assert tm.irreducible and tm.primitive
    assert tm.witness_power is not None and tm.witness_power <= 3
    cubed = np.linalg.matrix_power(tm.matrix, 3)
    assert (cubed > 0).all()
    if tm.witness_power > 1:
        below = np.linalg.matrix_power(tm.matrix, tm.witness_power - 1)
        assert (below == 0).any()
    # column of α3 (image α1 β2 α3): three entries of 1
    j = tm.order.index("α3")
    column = np.array(tm.matrix)[:, j]
    assert column.sum() == 3 and set(column.tolist()) <= {0, 1}
    for name in ("α1", "β2", "α3"):
        assert column[tm.order.index(name)] == 1


def test_column_sums_are_image_lengths(g1):
    auto = conjugation_automorphism("a0", g1, unit_weights(g1))
    tm = transition_matrix(auto)
    for j, name in enumerate(tm.order):
        assert np.array(tm.matrix)[:, j].sum() == len(auto.images[name])


def test_identity_matrix_not_irreducible(g1):
    auto = conjugation_automorphism(Word(), g1, unit_weights(g1))
    tm = transition_matrix(auto)
    assert (tm.matrix == np.eye(9, dtype=np.int64)).all()
    assert not tm.irreducible and not tm.primitive


def test_transition_subadditivity(g1, g2):
    cases = [
        (g1, "a0", "a1"),
        (g1, "a0", "a0"),
        (g2, "a3", "a3"),
        (g2, "a3", "a1"),
    ]
    for c, s, t in cases:
        ws = unit_weights(c)
        f = conjugation_automorphism(s, c, ws)
        g = conjugation_automorphism(t, c, ws)
        lhs = np.array(transition_matrix(compose(f, g)).matrix)
        rhs = np.array(transition_matrix(f).matrix) @ np.array(transition_matrix(g).matrix)
        assert (lhs <= rhs).all()


def test_subadditivity_strict_under_cancellation(g1):
    ws = unit_weights(g1)
    f = conjugation_automorphism("a0", g1, ws)
    lhs = np.array(transition_matrix(compose(f, invert(f))).matrix)
    rhs = np.array(transition_matrix(f).matrix) @ np.array(transition_matrix(invert(f)).matrix)
    assert (lhs <= rhs).all() and (lhs < rhs).any()


def matrix_automorphism(rows):
    """An automorphism-shaped record whose transition matrix is ``rows``:
    the image of loop j holds loop i once for each 1 in row i, column j."""
    n = len(rows)
    names = [f"x{i}" for i in range(n)]
    images = {
        names[j]: Word([(names[i], 1) for i in range(n) if rows[i][j]]) for j in range(n)
    }
    basis = [BasisLoop(i, name, Word(), ()) for i, name in enumerate(names)]
    return Automorphism(images, Word(), "inner", SimpleNamespace(basis=basis))


def linear_scan_classification(matrix):
    """Irreducibility by n rounds of squaring the reachability closure, and
    the least positive power by trying every exponent up to the Wielandt
    bound (n-1)^2 + 1."""
    n = matrix.shape[0]
    adjacency = matrix > 0
    if n == 1:
        irreducible = bool(adjacency[0, 0])
    else:
        reach = adjacency | np.eye(n, dtype=bool)
        for _ in range(n):
            reach = reach | (reach @ reach)
        irreducible = bool(reach.all())
    witness_power = None
    if irreducible:
        power = adjacency.copy()
        for exponent in range(1, (n - 1) ** 2 + 2):
            if power.all():
                witness_power = exponent
                break
            power = (power @ adjacency) > 0
    return irreducible, witness_power is not None, witness_power


def test_transition_classification_matches_linear_scan():
    rng = random.Random(1912)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 9)
        density = rng.choice((0.15, 0.25, 0.4, 0.7))
        rows = [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:  # a cycle through every loop, so it is irreducible
            order = rng.sample(range(n), n)
            for a, b in zip(order, order[1:] + order[:1]):
                rows[a][b] = 1
        tm = transition_matrix(matrix_automorphism(rows))
        assert np.array(tm.matrix).tolist() == rows
        expected = linear_scan_classification(np.array(tm.matrix))
        assert (tm.irreducible, tm.primitive, tm.witness_power) == expected, rows
        seen.add(expected[2] if expected[2] is None else min(expected[2], 5))
    assert seen == {None, 1, 2, 3, 4, 5}


def test_cyclic_permutation_is_irreducible_not_primitive():
    # no power is positive, so every exponent up to the Wielandt bound is ruled out
    n = 128
    rows = [[int(i == (j + 1) % n) for j in range(n)] for i in range(n)]
    start = time.perf_counter()
    tm = transition_matrix(matrix_automorphism(rows))
    assert time.perf_counter() - start < 0.5
    assert tm.irreducible and not tm.primitive and tm.witness_power is None
    # one extra chord makes it primitive, with the exponent the scan would find
    rows[0][0] = 1
    tm = transition_matrix(matrix_automorphism(rows))
    assert (tm.irreducible, tm.primitive, tm.witness_power) == \
        linear_scan_classification(np.array(tm.matrix))


def count_automorphism(rows, rng):
    """An automorphism-shaped record whose transition matrix is ``rows``:
    the image of loop j holds loop i, of either sign, ``rows[i][j]`` times,
    in a shuffled order."""
    n = len(rows)
    names = [f"x{i}" for i in range(n)]
    images = {}
    for j in range(n):
        letters = [(names[i], rng.choice((1, -1))) for i in range(n) for _ in range(rows[i][j])]
        rng.shuffle(letters)
        images[names[j]] = Word(letters)
    basis = [BasisLoop(i, name, Word(), ()) for i, name in enumerate(names)]
    return Automorphism(images, Word(), "inner", SimpleNamespace(basis=basis))


def test_transition_matrix_matches_letter_by_letter_counting():
    # n from 1 to 200, entries from 0 to 300: columns with and without a repeated
    # letter, images longer than n, and rows and columns with counts above 255
    rng = random.Random(2008)
    big = 0
    for _ in range(60):
        n = rng.choice((1, 2, 3, rng.randint(4, 40), rng.randint(41, 200)))
        density = rng.choice((0.02, 0.1, 0.5, 1.0))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if rng.random() < density:
                    roll = rng.random()
                    rows[i][j] = (1 if roll < 0.9 else rng.randint(2, 4) if roll < 0.995
                                  else rng.randint(5, 300))
        if rng.random() < 0.2:
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = rng.randint(256, 300)
        big += any(x > 255 for row in rows for x in row)
        f = count_automorphism(rows, rng)
        tm = transition_matrix(f)
        assert tm.matrix == tuple(map(tuple, rows))
        assert tuple(tm) == reference_transition_matrix(f), rows
    assert big >= 5


@pytest.mark.parametrize("conjugator", ["a0", "a3 a1^-1 a2", "a5 a9 a2^-1"])
def test_lot_transition_matrices_match_letter_by_letter_counting(conjugator):
    # the last two conjugators' images repeat letters; compose(f, f) repeats
    # them more, and its images are longer than the basis
    c = build_lot_family(32)
    f = conjugation_automorphism(conjugator, c, unit_weights(c))
    repeats = 0
    for g in (f, compose(f, f)):
        tm = transition_matrix(g)
        assert tuple(tm) == reference_transition_matrix(g)
        repeats += max(map(max, tm.matrix)) > 1
    assert repeats == (1 if conjugator == "a0" else 2)


# -- reducibility witnesses ----------------------------------------------


def test_g1_a0_witnesses(g1):
    auto = conjugation_automorphism("a0", g1, unit_weights(g1))
    witnesses = invariant_factor_witnesses(auto)
    as_sets = {(frozenset(subset), str(conj)) for subset, conj in witnesses}
    assert as_sets == {
        (frozenset({"α0", "α1", "α2", "α3"}), ""),
        (frozenset({"β0", "β1", "β2", "β3"}), "α1 γ^-1"),
    }
    first = invariant_factor_witness(auto)
    assert first is not None
    assert frozenset(first[0]) == frozenset({"α0", "α1", "α2", "α3"})
    assert first[1] == Word()


def test_g2_a3_has_no_subset_witness(g2):
    auto = conjugation_automorphism("a3", g2, unit_weights(g2))
    assert invariant_factor_witnesses(auto) == []
    assert invariant_factor_witness(auto) is None


def test_witness_search_refuses_large_bases():
    from logfiber import build_lot_family

    c = build_lot_family(17)
    auto = conjugation_automorphism(Word(), c, unit_weights(c))
    with pytest.raises(InputError):
        invariant_factor_witness(auto)
    with pytest.raises(InputError):
        invariant_factor_witnesses(auto)
    with pytest.raises(InputError, match="basis of size 17 is too large"):
        conjugation_automorphism(Word(), c, unit_weights(c), for_witness_search=True)


def test_witness_certificates_verify(g1):
    auto = conjugation_automorphism("a0", g1, unit_weights(g1))
    for subset, conj in invariant_factor_witnesses(auto):
        allowed = set(subset)
        for name in subset:
            moved = (conj.inverse() * auto.images[name] * conj).free_reduce()
            assert moved.support() <= allowed


def test_transition_matrix_refuses_an_empty_basis():
    c = parse_spec("generators a\n")
    auto = conjugation_automorphism("a", c, unit_weights(c))
    assert auto.basis == []
    with pytest.raises(InputError, match="the fiber-loop basis is empty"):
        transition_matrix(auto)
    assert list(invariant_factor_witnesses(auto)) == []
