"""The closed-form fibering scan against the per-vector Morse data loop.

`reference_scan` runs, for every lattice vector and with no cache, the
admissibility check, both directional links and the explicit fiber graph,
each from the weights alone.  It is slow and reads each value straight from
its definition, so `fibering_scan` must give exactly its rows, key order
included.
"""

import json
import random
from itertools import product
from math import gcd

from logfiber import (
    add_square,
    build_link,
    build_lot_family,
    build_named,
    check_admissible,
    combine,
    directional_links,
    fiber_graph,
    fibering_scan,
    infinite_fibering_verdict,
    parse_spec,
    parse_weight_spec,
    square_corners,
    weight_lattice,
)
from logfiber import morse
from logfiber.analysis import Analysis
from logfiber.complexes import NAMED_COMPLEXES
from logfiber.morse import BASE_VERTEX, _combine_basis, min_corners
from references import corner_heights, fibering_orthant, union_find


def reference_scan(c, bound):
    basis = weight_lattice(c)
    rows = []
    for coords in product(range(-bound, bound + 1), repeat=len(basis)):
        if all(k == 0 for k in coords):
            continue
        ws = _combine_basis(basis, coords, c)
        if any(w == 0 for w in ws.values()):
            continue
        row = {"coords": list(coords), "weights": dict(ws)}
        row["admissible"] = check_admissible(c, ws).admissible
        row["primitive"] = gcd(*coords) == 1
        if not row["admissible"]:
            row.update({"asc_tree": None, "desc_tree": None, "chi": None,
                        "components": None, "rank": None})
            rows.append(row)
            continue
        asc, desc = directional_links(c, ws)
        fiber = fiber_graph(c, ws)
        row["asc_tree"] = asc.is_tree
        row["desc_tree"] = desc.is_tree
        row["chi"] = fiber.chi
        row["components"] = fiber.components
        if asc.is_tree and desc.is_tree and fiber.connected:
            row["rank"] = 1 - fiber.chi
        else:
            row["rank"] = None
            if not fiber.connected:
                row["note"] = (
                    f"disconnected fiber ({fiber.components} components);"
                    " chi is the direct count, no rank claim"
                )
        rows.append(row)
    return rows


WEDGE_RELATOR = "a0 b2 a1^-1 b0^-1"
# on this square the affine condition w(g0) = w(g3) holds only on a proper
# sublattice of the rank-3 weight lattice
AFFINE_SUBLATTICE = "generators g0 g1 g2 g3\nsquare g0 g1 g3^-1 g2^-1\n"


def wedge(k):
    return combine(build_lot_family(k, "a"), build_lot_family(k, "b"), WEDGE_RELATOR)


def triple(k):
    return combine(wedge(k), build_lot_family(k, "c"), "b0 c2 b1^-1 c0^-1")


def random_word(rng, gens):
    while True:
        letters = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(4)]
        if all(letters[i - 1] != (g, -s) for i, (g, s) in enumerate(letters)):
            return " ".join(g + ("^-1" if s < 0 else "") for g, s in letters)


def random_square_complex(rng):
    gens = [f"g{i}" for i in range(rng.randint(2, 5))]
    squares = [random_word(rng, gens) for _ in range(rng.randint(1, 3))]
    return parse_spec("generators " + " ".join(gens) + "\n"
                      + "".join(f"square {w}\n" for w in squares))


def random_log(rng):
    n = rng.randint(3, 6)
    gens = [f"a{i}" for i in range(n)]
    lines = ["generators " + " ".join(gens)]
    for _ in range(rng.randint(1, n)):
        label = rng.choice(gens)
        frm, to = rng.sample([g for g in gens if g != label], 2)
        lines.append(f"edge label={label} from={frm} to={to}")
    return parse_spec("\n".join(lines) + "\n")


def random_lot_wedge(rng):
    a, b = build_lot_family(rng.randint(4, 5), "a"), build_lot_family(rng.randint(4, 5), "b")
    gens = a.generators + b.generators
    while True:
        relator = random_word(rng, gens)
        used = {token.split("^")[0] for token in relator.split()}
        if used & set(a.generators) and used & set(b.generators):
            break
    c = combine(a, b, relator)
    if rng.random() < 0.5:
        c = add_square(c, random_word(rng, gens))
    return c


def random_corpus():
    """Seeded random LOGs, square complexes and LOT wedges with extra
    relators, kept when their lattice has rank 1 to 3."""
    rng = random.Random(4711)
    out = []
    for count, draw in ((40, random_log), (60, random_square_complex), (20, random_lot_wedge)):
        kept = 0
        while kept < count:
            c = draw(rng)
            if 1 <= len(weight_lattice(c)) <= 3:
                out.append(c)
                kept += 1
    return out


NAMED = [build_named(name) for name in ("g1", "g2", "gf", "torus")]
NAMED += [combine(build_lot_family(5, "a"), build_lot_family(6, "b"), WEDGE_RELATOR),
          triple(4), wedge(7), parse_spec(AFFINE_SUBLATTICE)]
RANDOM = random_corpus()


def assert_same_rows(c, bound):
    rows = fibering_scan(c, bound)
    expected = reference_scan(c, bound)
    # equal as dicts and in key order, so the JSON report is byte-identical
    assert json.dumps(rows) == json.dumps(expected), c.render()
    return rows


def test_named_complexes_match_reference():
    for c in NAMED:
        for bound in (1, 2, 3, 4):
            assert_same_rows(c, bound)


def test_random_complexes_match_reference():
    inadmissible = non_tree = disconnected = fallback = 0
    mirrored = {"inadmissible": 0, "split link": 0, "note": 0}
    for c in RANDOM:
        for bound in (1, 2, 3, 4):
            rows = assert_same_rows(c, bound)
            for row in rows:
                if not row["admissible"]:
                    inadmissible += 1
                    continue
                non_tree += not (row["asc_tree"] and row["desc_tree"])
                disconnected += row["components"] != 1
                fallback += row["components"] != gcd(*row["weights"].values())
            a = Analysis(c)
            for row in rows[len(rows) // 2:]:  # the mirrored half
                mirrored["inadmissible"] += not row["admissible"]
                mirrored["note"] += "note" in row
                if row["admissible"]:
                    asc, desc = a.sign_links(row["weights"])
                    mirrored["split link"] += not asc.components == desc.components == 1
    # the corpus reaches every branch of the scan
    assert inadmissible >= 1000 and non_tree >= 1000 and disconnected >= 1000
    # rows whose links are not both connected and whose fiber does not have
    # gcd(weights) components: the fiber graph must count these
    assert fallback >= 500
    # and the mirrored half reaches the inadmissible rows, the fibers counted
    # by union-find over a split link, and the notes
    assert min(mirrored.values()) >= 100, mirrored


def test_rows_mirror_about_the_centre():
    # the row of -x is the row of x with coords and weights negated and the
    # tree flags swapped, at the mirrored place
    checked = 0
    for c in NAMED + RANDOM:
        for bound in (2, 3):
            rows = fibering_scan(c, bound)
            assert len(rows) % 2 == 0
            for i, row in enumerate(rows[:len(rows) // 2]):
                mirror = {**row, "coords": [-x for x in row["coords"]],
                          "weights": {g: -w for g, w in row["weights"].items()},
                          "asc_tree": row["desc_tree"], "desc_tree": row["asc_tree"]}
                assert json.dumps(rows[-1 - i]) == json.dumps(mirror), (c.render(), bound)
                checked += row["asc_tree"] is not row["desc_tree"]
    assert checked >= 100  # rows whose swap shows


def test_affine_condition_decided_per_vector():
    c = parse_spec(AFFINE_SUBLATTICE)
    rows = assert_same_rows(c, 2)
    assert len(weight_lattice(c)) == 3
    admissible = [r for r in rows if r["admissible"]]
    assert admissible and len(admissible) < len(rows)
    for row in rows:
        w = row["weights"]
        assert row["admissible"] == (w["g0"] == w["g3"])


def test_components_are_gcd_when_links_connected():
    checked = 0
    for c in NAMED + RANDOM:
        a = Analysis(c)
        for row in fibering_scan(a, 3):
            if not row["admissible"]:
                continue
            ws = row["weights"]
            asc, desc = directional_links(c, ws)
            fiber = fiber_graph(c, ws)
            assert row["chi"] == fiber.chi
            assert row["components"] == fiber.components
            if asc.components == 1 and desc.components == 1:
                assert fiber.components == gcd(*ws.values()), (c.render(), ws)
                checked += 1
    assert checked >= 500


def test_links_built_once_per_sign_vector():
    c = triple(4)
    a = Analysis(c)
    rows = fibering_scan(a, 4)
    signs = {tuple(w > 0 for w in r["weights"].values()) for r in rows if r["admissible"]}
    assert len(rows) >= 50 * len(signs)
    # the links are built in the scan's first half only: each sign vector of
    # the second half is the complement of one of the first
    built = set(a._sign_links)
    assert built <= signs
    assert all(s in built or tuple(not x for x in s) in built for s in signs)
    assert len(built) < len(signs)


def test_verdict_matches_the_search_over_every_orthant():
    # the verdict tries the orthants with a leading + only; the first
    # pattern in product order over all 2^rank of them must be the one it names
    found = set()
    for c in NAMED + RANDOM:
        verdict = infinite_fibering_verdict(c)
        if verdict["lattice_rank"] < 2 or "affine" in verdict.get("reason", ""):
            continue
        orthant = fibering_orthant(c, weight_lattice(c))
        assert verdict["orthant"] == orthant, c.render()
        assert verdict["infinite_fibering"] == (orthant is not None)
        found.add(None if orthant is None else "".join(orthant))
    # NO, YES in the first orthant and YES in a later one all occur
    assert {None, "++", "+-"} <= found, found


def test_sign_links_build_no_morse_data(monkeypatch):
    # the scan and the verdict read each sign vector's links from its signs
    # alone: no per-vector admissibility check
    calls = []
    check = morse.check_admissible
    monkeypatch.setattr(morse, "check_admissible", lambda *args: calls.append(args) or check(*args))
    a = Analysis(NAMED[1])  # g2
    assert fibering_scan(a, 3)
    assert infinite_fibering_verdict(a)["infinite_fibering"]
    assert a._sign_links and not calls


def test_min_corners_match_sorted_corner_heights():
    # `min_corners` reads each square's min corner from the signs; the sort
    # in `corner_heights` stays the reference
    rows = 0
    for c in NAMED + RANDOM:
        for row in fibering_scan(c, 3):
            if not row["admissible"]:
                continue
            ws = row["weights"]
            for sq, m in zip(c.squares, min_corners(c, ws), strict=True):
                h = corner_heights(sq, ws)
                assert (h.min_corner, h.max_corner) == (m, (m + 2) % 4), (c.render(), ws)
            rows += 1
    assert rows >= 1000


def reference_affine_reason(c, basis):
    """The verdict's per-basis affine check as it was: the first square
    whose opposite letters 0 and 2 carry unequal weights on some basis vector."""
    for sq in c.squares:
        letters = sq.boundary.letters
        for b in basis:
            w = [s * b[g] for g, s in letters]
            if w[0] + w[2] != 0:
                return f"square {sq.index} admits no affine extension on the lattice"
    return None


def test_affine_reason_matches_per_basis_loop():
    rng = random.Random(7)
    drawn = [random_square_complex(rng) for _ in range(3000)]
    squares = set()
    for c in NAMED + RANDOM + drawn:
        basis = weight_lattice(c)
        if len(basis) < 2:
            continue  # the verdict stops at the rank first
        reason = infinite_fibering_verdict(c).get("reason")
        expected = reference_affine_reason(c, basis)
        if expected is None:
            assert reason is None or "affine" not in reason, c.render()
        else:
            assert reason == expected, c.render()
            squares.add(int(expected.split()[1]))
    # the first failing square is not always square 0
    assert squares == {0, 1, 2}


def reference_fiber_edges(c, ws):
    """Each arc of the fiber graph from its definition: at every integer
    level strictly between a square's min and max corner heights, the
    points where the boundary paths through its two middle corners cross
    that level.  Point (g, i) sits i * sign(w_g) above the origin of g."""
    edges = []
    for sq in c.squares:
        h = corner_heights(sq, ws)
        for level in range(h.heights[h.min_corner] + 1, h.heights[h.max_corner]):
            ends = []
            for middle in ((h.min_corner + 1) % 4, (h.min_corner + 3) % 4):
                if h.heights[middle] == level:
                    ends.append(BASE_VERTEX)
                    continue
                for j in range(4):  # letter j runs from corner j to corner j + 1
                    a, b = h.heights[j], h.heights[(j + 1) % 4]
                    if middle in (j, (j + 1) % 4) and min(a, b) < level < max(a, b):
                        g, s = sq.boundary.letters[j]
                        origin = a if s > 0 else b
                        ends.append((g, (level - origin) * (1 if ws[g] > 0 else -1)))
            edges.append((*ends, sq.index, level))
    return edges


def test_fiber_graph_and_component_count_match_references():
    # `fiber_graph` takes its arcs and its component count from the integer
    # ids of `morse._fiber_sides`, so they are checked against the definition
    # and against a union-find over tuple vertices
    gf_rows = g2_mixed_rows = 0
    for c in NAMED + RANDOM:
        for row in fibering_scan(c, 3):
            if not row["admissible"]:
                continue
            ws = row["weights"]
            fiber = fiber_graph(c, ws)
            assert fiber.edges == reference_fiber_edges(c, ws), (c.render(), ws)
            root, _ = union_find(fiber.vertices, ((u, v) for u, v, _, _ in fiber.edges))
            components = len(set(root.values()))
            assert fiber.components == components == row["components"], (c.render(), ws)
            gf_rows += c is NAMED[2]
            g2_mixed_rows += c is NAMED[1] and len({w > 0 for w in ws.values()}) == 2
    # every admissible gf row and every mixed-sign g2 row at bound 3
    assert (gf_rows, g2_mixed_rows) == (36, 18)


def admissible_rows(c, a=None):
    """The admissible rows of the bound-3 scan of ``c``."""
    return [row for row in fibering_scan(a or c, 3) if row["admissible"]]


def test_link_ends_number_the_end_tuples():
    # `build_link` writes each corner's ends as numbers while it makes the
    # corners; they must be the places of the end tuples in the vertex list
    for c in NAMED + RANDOM:
        link = build_link(c)
        number = {v: i for i, v in enumerate(link.vertices)}
        assert link.ends == [(number[a], number[b]) for a, b in (e.ends for e in link.edges)]


def test_link_edges_are_the_square_corners():
    # `LinkGraph.edges` is built on first use from the end numbers alone;
    # edge 4s+k must be corner k of square s as `square_corners` names it
    for c in NAMED + RANDOM + [build_named(name) for name in NAMED_COMPLEXES]:
        link = build_link(c)
        assert "edges" not in link.__dict__
        assert link.edges == [e for sq in c.squares for e in square_corners(sq)]
        assert all(link.edges[4 * sq.index + k] == e
                   for sq in c.squares for k, e in enumerate(square_corners(sq)))


def test_directional_link_numbers_are_the_min_and_max_corners():
    # a side's edge numbers 4s+k name corner k of square s: each square's
    # min corner on the ascending side and its max corner on the descending
    # one, read off the corner heights
    for c in NAMED + RANDOM:
        signs = {tuple(w > 0 for w in row["weights"].values()): row["weights"]
                 for row in admissible_rows(c)}
        for ws in signs.values():
            asc, desc = directional_links(c, ws)
            heights = [corner_heights(sq, ws) for sq in c.squares]
            assert [divmod(i, 4) for i in asc.edges] == [(h.square, h.min_corner) for h in heights]
            assert [divmod(i, 4) for i in desc.edges] == [(h.square, h.max_corner) for h in heights]


def test_directional_links_match_union_find_over_end_tuples():
    # `directional_links` counts on the link's integer ends; the sides'
    # vertices from the weight signs and a union-find over their end tuples
    # must give its vertices, tree flags and component counts
    kinds = set()
    for c in NAMED + RANDOM:
        corners = [e for sq in c.squares for e in square_corners(sq)]  # edge 4s+k
        signs = {tuple(w > 0 for w in row["weights"].values()): row["weights"]
                 for row in admissible_rows(c)}
        for ws in signs.values():
            # the ascending side holds g- for positive w_g and g+ for negative
            for side, (positive, negative) in zip(directional_links(c, ws), ("-+", "+-")):
                assert side.vertices == [(g, positive if ws[g] > 0 else negative)
                                         for g in c.generators]
                root, acyclic = union_find(side.vertices, (corners[i].ends for i in side.edges))
                components = len(set(root.values()))
                assert (side.is_tree, side.components) == (acyclic and components == 1, components)
                kinds.add((side.is_tree, components > 1, acyclic))
    # trees, forests and connected graphs with a cycle all occur
    assert {(True, False, True), (False, True, True), (False, False, False)} <= kinds


def assert_counts_match_fiber_graph(a, ws):
    c = a.complex
    vertices, arcs, components = morse.fiber_counts(a, ws)
    fiber = fiber_graph(c, ws)
    assert (vertices, arcs, vertices - arcs, components == 1, components) == (
        len(fiber.vertices), len(fiber.edges), fiber.chi, fiber.connected, fiber.components)


def test_closed_form_fiber_counts_match_fiber_graph():
    split = 0
    for c in NAMED + RANDOM:
        a = Analysis(c)
        for row in admissible_rows(c, a):
            assert_counts_match_fiber_graph(a, row["weights"])
            asc, desc = a.sign_links(row["weights"])
            split += not asc.components == desc.components == 1
    assert split >= 500  # rows counted by union-find, not by gcd
    # both links of g2 at a=-3, b=2 have two components
    a = Analysis(NAMED[1])
    ws = parse_weight_spec("a=-3,b=2", a.complex)
    assert [side.components for side in a.sign_links(ws)] == [2, 2]
    assert_counts_match_fiber_graph(a, ws)
