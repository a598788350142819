"""The closed-form fibering scan against the per-vector Morse data loop.

`reference_scan` builds a full `MorseData` for every lattice vector, with
the admissibility check, the corner heights of every square, both
directional links and the explicit fiber graph.  It is slow and reads each
value straight from its definition, so `fibering_scan` must give exactly its
rows, key order included.
"""

import json
import random
from itertools import product
from math import gcd

from logfiber import (
    add_square,
    build_lot_family,
    build_named,
    combine,
    fiber_graph,
    fibering_scan,
    parse_spec,
    weight_lattice,
)
from logfiber.analysis import Analysis
from logfiber.complexes import union_find
from logfiber.morse import BASE_VERTEX, MorseData, _combine_basis, corner_heights, fiber_components


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
        data = MorseData(c, ws)
        row["admissible"] = data.admissibility.admissible
        row["primitive"] = gcd(*coords) == 1
        if not row["admissible"]:
            row.update({"asc_tree": None, "desc_tree": None, "chi": None,
                        "components": None, "rank": None})
            rows.append(row)
            continue
        asc, desc = data.links
        fiber = data.fiber
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
    for c in RANDOM:
        for bound in (1, 2, 3, 4):
            for row in assert_same_rows(c, bound):
                if not row["admissible"]:
                    inadmissible += 1
                    continue
                non_tree += not (row["asc_tree"] and row["desc_tree"])
                disconnected += row["components"] != 1
                fallback += row["components"] != gcd(*row["weights"].values())
    # the corpus reaches every branch of the scan
    assert inadmissible >= 1000 and non_tree >= 1000 and disconnected >= 1000
    # rows whose links are not both connected and whose fiber does not have
    # gcd(weights) components: the fiber graph must count these
    assert fallback >= 500


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
        for row in fibering_scan(c, 3, a):
            if not row["admissible"]:
                continue
            ws = row["weights"]
            asc, desc = MorseData(c, ws).links
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
    rows = fibering_scan(c, 4, a)
    signs = {tuple(w > 0 for w in r["weights"].values()) for r in rows if r["admissible"]}
    assert len(rows) >= 50 * len(signs)
    assert set(a._sign_links) == signs


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
    # `fiber_graph` takes its arcs and component count from the integer ids
    # of `morse._fiber_arcs`, so they are checked against the definition and
    # against a union-find over tuple vertices
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
            assert fiber_components(c, ws) == components == row["components"], (c.render(), ws)
            gf_rows += c is NAMED[2]
            g2_mixed_rows += c is NAMED[1] and len({w > 0 for w in ws.values()}) == 2
    # every admissible gf row and every mixed-sign g2 row at bound 3
    assert (gf_rows, g2_mixed_rows) == (36, 18)
