"""Link analysis against brute-force cycle oracles."""

import random
from collections import Counter

import pytest

from logfiber import (
    add_square,
    build_link,
    export_dot,
    largeness,
    parse_spec,
    poison_corners,
    shortest_cycle_through,
    unit_weights,
)
from logfiber.links import format_end


def closed_four_walk_edges(link):
    """Oracle: edge instances on some closed 4-edge walk without immediate
    backtracking (loop edges excluded), by global enumeration."""
    adj = link.adjacency()
    loops = {i for i, e in enumerate(link.edges) if e.ends[0] == e.ends[1]}
    hits = set()
    walks = []
    for i0, e0 in enumerate(link.edges):
        if i0 in loops:
            continue
        for v0, v1 in (e0.ends, (e0.ends[1], e0.ends[0])):
            for i1, v2 in adj[v1]:
                if i1 == i0 or i1 in loops:
                    continue
                for i2, v3 in adj[v2]:
                    if i2 == i1 or i2 in loops:
                        continue
                    for i3, v4 in adj[v3]:
                        if i3 == i2 or i3 == i0 or i3 in loops:
                            continue
                        if v4 == v0:
                            hits.update((i0, i1, i2, i3))
                            walks.append((v0, v1, v2, v3))
    return hits, walks


def brute_girth(link, cap=8):
    """Oracle: shortest cycle by DFS over simple paths (multigraph aware)."""
    if any(e.ends[0] == e.ends[1] for e in link.edges):
        return 1
    if any(n > 1 for n in Counter(e.pair for e in link.edges).values()):
        return 2
    neighbors = {}
    for e in link.edges:
        a, b = e.ends
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)
    best = None
    vertices = sorted(neighbors)

    def dfs(path, seen):
        nonlocal best
        if best is not None and len(path) >= best:
            return
        if len(path) >= cap:
            return
        for nxt in sorted(neighbors[path[-1]]):
            if nxt == path[0] and len(path) >= 3:
                if best is None or len(path) < best:
                    best = len(path)
            elif nxt not in seen and nxt > path[0]:
                dfs(path + [nxt], seen | {nxt})

    for start in vertices:
        dfs([start], {start})
    return best


def test_lot_link_counts_and_girth(lot_a):
    link = build_link(lot_a)
    report = largeness(link)
    assert len(link.vertices) == 10 and len(link.edges) == 16
    assert report.is_large and report.girth == 4
    assert brute_girth(link) == 4


def test_torus_link_is_a_four_cycle(torus):
    link = build_link(torus)
    assert len(link.vertices) == 4 and len(link.edges) == 4
    assert largeness(link).girth == 4
    # a single 4-cycle: every vertex has degree exactly 2
    degree = Counter(v for e in link.edges for v in e.ends)
    assert set(degree.values()) == {2}


def test_g1_link_counts(g1):
    link = build_link(g1)
    assert len(link.vertices) == 20 and len(link.edges) == 36
    assert largeness(link).is_large


def test_edge_count_always_four_per_square(g1, gf, g2, torus, mixed):
    for c in (g1, gf, g2, torus, mixed):
        assert len(build_link(c).edges) == 4 * len(c.squares)


def test_bigon_detected():
    c = parse_spec("generators a b\nsquare a b^-1 a b^-1\n")
    report = largeness(build_link(c))
    assert not report.is_large
    assert report.girth == 2
    assert any(v["kind"] == "bigon" for v in report.violations)


def test_triangle_detected():
    c = parse_spec(
        "generators a b c d e f g h i\n"
        "square a b^-1 d e\nsquare b c^-1 f g\nsquare a c^-1 h i\n"
    )
    report = largeness(build_link(c))
    assert not report.is_large and report.girth == 3
    triangle = next(v for v in report.violations if v["kind"] == "triangle")
    assert set(triangle["vertices"]) == {"a+", "b+", "c+"}


def test_poison_matches_brute_force_oracle(lot_a, gf, g2, g1, torus):
    bigon = parse_spec("generators a b\nsquare a b^-1 a b^-1\n")
    for c in (lot_a, gf, g2, g1, torus, bigon):
        link = build_link(c)
        hits, _ = closed_four_walk_edges(link)
        expected = {
            (e.square, e.corner) for i, e in enumerate(link.edges) if i not in hits
        }
        assert {(e.square, e.corner) for e in poison_corners(c, link)} == expected


def test_poison_matches_brute_force_on_random_complexes():
    # repeated letters give loops, bigons and parallel edges in the link
    rng = random.Random(4)
    for _ in range(200):
        gens = "abcde"[: rng.randint(2, 5)]
        squares = []
        while len(squares) < rng.randint(1, 5):
            letters = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(4)]
            if all(letters[i - 1] != (g, -s) for i, (g, s) in enumerate(letters)):
                squares.append(" ".join(g + ("^-1" if s < 0 else "") for g, s in letters))
        c = squares_complex(" ".join(gens), squares)
        link = build_link(c)
        hits, _ = closed_four_walk_edges(link)
        expected = {(e.square, e.corner) for i, e in enumerate(link.edges) if i not in hits}
        assert {(e.square, e.corner) for e in poison_corners(c, link)} == expected, squares


def test_large_links_have_honest_four_cycles(lot_a, gf, g2, g1, mixed):
    # in a large link every length-4 circuit visits 4 distinct vertices
    for c in (lot_a, gf, g2, g1, mixed):
        link = build_link(c)
        assert largeness(link).is_large
        _, walks = closed_four_walk_edges(link)
        for walk in walks:
            assert len(set(walk)) == 4


def test_lot_poison_corners_are_the_bridges(lot_a):
    poison = poison_corners(lot_a)
    assert len(poison) == 4
    pairs = {tuple(sorted(map(format_end, e.pair))) for e in poison}
    assert pairs == {
        ("a0+", "a1+"),
        ("a1-", "a2+"),
        ("a2-", "a3+"),
        ("a0-", "a3-"),
    }
    # one per square
    assert sorted(e.square for e in poison) == [0, 1, 2, 3]


def test_gf_and_g2_poison_bookkeeping(gf, g2):
    gf_poison = poison_corners(gf)
    assert len(gf_poison) == 12
    assert Counter(e.square for e in gf_poison) == {i: 2 for i in range(6)}
    g2_poison = poison_corners(g2)
    assert len(g2_poison) == 4


def test_g2_added_square_edges(g2):
    link = build_link(g2)
    added = [e for e in link.edges if e.square == 6]
    pairs = {tuple(sorted(map(format_end, e.pair))) for e in added}
    assert pairs == {
        ("a1-", "b4+"),
        ("a4-", "b4-"),
        ("a4+", "b1-"),
        ("a1+", "b1+"),
    }


def test_adding_a_square_only_shrinks_old_poison(gf, g2, torus):
    before = {(e.square, e.corner) for e in poison_corners(gf)}
    after = {(e.square, e.corner) for e in poison_corners(g2) if e.square < 6}
    assert after <= before
    doubled = add_square(torus, "a b a^-1 b^-1")
    old = {(e.square, e.corner) for e in poison_corners(doubled) if e.square == 0}
    assert old <= {(e.square, e.corner) for e in poison_corners(torus)}


def test_g1_new_edges_lie_on_no_short_cycle(g1):
    link = build_link(g1)
    for i, e in enumerate(link.edges):
        if e.square == 8:
            cycle = shortest_cycle_through(link, i)
            assert cycle is None or cycle >= 5


def squares_complex(generators, squares):
    return parse_spec(f"generators {generators}\n" + "".join(f"square {s}\n" for s in squares))


# girth 5 to 8 and an acyclic link: no 4-cycle, so largeness falls back to BFS
LONG_GIRTH = {
    5: squares_complex("a b c d", ["a^-1 a^-1 b c^-1", "d^-1 a c^-1 d^-1"]),
    6: squares_complex("a b c d", ["d c d b^-1", "b d a a"]),
    7: squares_complex("a b c d e f", ["a^-1 b a^-1 c^-1", "c f e^-1 d^-1", "e^-1 a^-1 d^-1 c^-1"]),
    8: squares_complex("a b c d", ["a^-1 d^-1 b^-1 b^-1", "c d^-1 a c"]),
    None: squares_complex("a b c d", ["c d^-1 d^-1 b"]),
}


def test_girth_matches_brute_force(lot_a, gf, g2, torus):
    for c in (lot_a, gf, g2, torus):
        link = build_link(c)
        assert largeness(link).girth == brute_girth(link)
    for girth, c in LONG_GIRTH.items():
        link = build_link(c)
        assert largeness(link).girth == brute_girth(link, cap=10) == girth
        if girth is not None:
            assert min(shortest_cycle_through(link, i) or 99 for i in range(len(link.edges))) == girth


def test_girth_matches_brute_force_on_random_logs():
    # links without loops or bigons, so both triangle checks and the 4-cycle
    # shortcut get exercised (LONG_GIRTH covers the BFS fallback)
    rng = random.Random(2008)
    seen = Counter()
    while sum(seen.values()) < 60:
        n = rng.randint(4, 7)
        gens = [f"a{i}" for i in range(n)]
        lines = ["generators " + " ".join(gens)]
        for _ in range(rng.choice((n - 1, n))):
            label = rng.choice(gens)
            frm, to = rng.sample([g for g in gens if g != label], 2)
            lines.append(f"edge label={label} from={frm} to={to}")
        link = build_link(parse_spec("\n".join(lines) + "\n"))
        expected = brute_girth(link, cap=2 * n + 1)
        if expected in (1, 2):
            continue
        assert largeness(link).girth == expected
        seen[expected] += 1
    assert seen[3] and seen[4]


@pytest.mark.xfail(strict=True, reason="_triangles misses triangles whose second edge"
                   " meets the first at its stored start; kept while the bench report"
                   " hashes depend on it")
def test_triangle_found_in_either_edge_order():
    c = squares_complex("a b c d e f", ["f^-1 d^-1 a f^-1", "a b a^-1 b^-1", "f d^-1 f c"])
    report = largeness(build_link(c))
    assert report.girth == 3
    assert not report.is_large


def test_export_dot(g2):
    from logfiber import directional_links

    link = build_link(g2)
    asc, _ = directional_links(g2, unit_weights(g2))
    text = export_dot(
        link,
        highlight_vertices=set(asc.vertices),
        highlight_edges={(e.square, e.corner) for e in asc.edges},
        distinct_squares={6},
    )
    assert text.startswith("graph link {")
    assert text.rstrip().endswith("}")
    assert "style=bold" in text and "style=dashed" in text
    assert text.count("--") == len(link.edges)
    # deterministic
    assert text == export_dot(
        link,
        highlight_vertices=set(asc.vertices),
        highlight_edges={(e.square, e.corner) for e in asc.edges},
        distinct_squares={6},
    )


def test_export_dot_empty_complex():
    c = parse_spec("generators a b\n")
    text = export_dot(build_link(c))
    assert '"a+"' in text and "--" not in text
