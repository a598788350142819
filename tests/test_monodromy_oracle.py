"""The bitset witness search, the rooted-tree routes and the in-place
rewriting against direct references.

`reference_witnesses` conjugates every image of every subset by each
candidate prefix and free-reduces the result.  `ReferenceContext` keeps one
adjacency per directional-link tree, built from `directional_links`, runs a
fresh breadth-first search for every tree hop, rebuilds each peak's or
valley's replacement from the square's rotated boundary, free-reduces the
whole word after every step, and walks the harvest until the two directions
meet.  `reference_routes` is one full breadth-first search per target end.
All are slow and follow the definitions, so the library must give exactly
their witnesses, routes, flat words and basis words.
"""

import random
from itertools import combinations
from types import SimpleNamespace

import pytest

from logfiber import (
    Automorphism,
    BasisLoop,
    MonodromyContext,
    Word,
    build_lot_family,
    build_named,
    combine,
    compose,
    conjugation_automorphism,
    invariant_factor_witness,
    invariant_factor_witnesses,
    invert,
    parse_weight_spec,
    signed_weight,
    unit_weights,
)
from logfiber.links import arrival_end, departure_end
from logfiber.morse import directional_links
from logfiber.words import inverse_letter


def reference_common_prefix(words):
    if not words:
        return ()
    prefix = words[0].letters
    for word in words[1:]:
        limit = 0
        for a, b in zip(prefix, word.letters):
            if a != b:
                break
            limit += 1
        prefix = prefix[:limit]
    return prefix


def reference_witness_for_subset(f, subset):
    allowed = set(subset)
    images = [f.images[name] for name in subset]
    prefix = reference_common_prefix(images)
    for cut in range(len(prefix), -1, -1):
        conjugator = Word(prefix[:cut])
        inverse = conjugator.inverse()
        if all(
            (inverse * image * conjugator).free_reduce().support() <= allowed
            for image in images
        ):
            return conjugator
    return None


def reference_witnesses(f):
    names = [loop.name for loop in f.basis]
    witnesses = []
    for size in range(1, len(names)):
        for subset in combinations(names, size):
            conjugator = reference_witness_for_subset(f, subset)
            if conjugator is not None:
                witnesses.append((subset, conjugator))
    return witnesses


class ReferenceContext:
    """Peak reduction over one adjacency per directional-link tree, with a
    new BFS per hop, separate peak and valley steps, and an unbounded
    harvest walk.  Only the basis comes from the library."""

    def __init__(self, c, ws):
        self.weights = dict(ws)
        self.flatten_steps = 0
        self.basis = MonodromyContext(c, ws).basis
        self.loop_of_square = {loop.square: loop for loop in self.basis}
        asc, desc = directional_links(c, ws)
        self.asc_adj, self.desc_adj = (
            {v: {} for v in link.vertices} for link in (asc, desc)
        )
        for link, adj in ((asc, self.asc_adj), (desc, self.desc_adj)):
            for edge in link.edges:
                a, b = edge.ends
                adj[a][b] = adj[b][a] = edge.square

    def _next_hop(self, adj, frm, to):
        parent = {to: to}
        frontier = [to]
        while frontier:
            if frm in parent:
                break
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in parent:
                        parent[w] = v
                        nxt.append(w)
            frontier = nxt
        if frm not in parent:
            raise AssertionError(f"no tree path from {frm} to {to}")
        hop = parent[frm]
        return hop, adj[frm][hop]

    def _flatten(self, letters):
        letters = list(Word(letters).free_reduce())
        for _ in range(100_000):
            h = [0]
            for g, s in letters:
                h.append(h[-1] + s * self.weights[g])
            top, bottom = max(h), min(h)
            if top <= 1 and bottom >= 0:
                return letters
            if top >= 2:
                j = h.index(top)
                x, y = letters[j - 1], letters[j]
                d_left, d_right = arrival_end(x), departure_end(y)
                assert d_left != d_right
                _, square = self._next_hop(self.desc_adj, d_left, d_right)
                e1, e2, e3, e4 = self.loop_of_square[square].rotated
                if d_left == arrival_end(e2):
                    assert x == e2, (x, e2)
                    replacement = [inverse_letter(e1), inverse_letter(e4), inverse_letter(e3)]
                else:
                    assert d_left == departure_end(e3) and x == inverse_letter(e3), (x, e3)
                    replacement = [e4, e1, e2]
            else:
                j = h.index(bottom)
                x, y = letters[j - 1], letters[j]
                d_left, d_right = arrival_end(x), departure_end(y)
                assert d_left != d_right
                _, square = self._next_hop(self.asc_adj, d_left, d_right)
                e1, e2, e3, e4 = self.loop_of_square[square].rotated
                if d_left == arrival_end(e4):
                    assert x == e4, (x, e4)
                    replacement = [inverse_letter(e3), inverse_letter(e2), inverse_letter(e1)]
                else:
                    assert d_left == departure_end(e1) and x == inverse_letter(e1), (x, e1)
                    replacement = [e2, e3, e4]
            letters[j - 1:j] = replacement
            letters = list(Word(letters).free_reduce())
            self.flatten_steps += 1
        raise AssertionError("peak reduction did not terminate")

    def rewrite(self, word):
        assert signed_weight(word, self.weights) == 0
        letters = self._flatten(list(word))
        out = []
        for i in range(0, len(letters), 2):
            x, y = letters[i], letters[i + 1]
            d_left, d_right = arrival_end(x), departure_end(y)
            while d_left != d_right:
                _, square = self._next_hop(self.desc_adj, d_left, d_right)
                loop = self.loop_of_square[square]
                e1, e2, e3, e4 = loop.rotated
                if d_left == arrival_end(e2):
                    assert x == e2, (x, e2)
                    out.append((loop.name, 1))
                    x = inverse_letter(e3)
                else:
                    assert d_left == departure_end(e3) and x == inverse_letter(e3), (x, e3)
                    out.append((loop.name, -1))
                    x = e2
                d_left = arrival_end(x)
            assert x == inverse_letter(y), (x, y)
        return Word(out).free_reduce()


def wedge(k):
    return combine(build_lot_family(k, "a"), build_lot_family(k, "b"), "a0 b2 a1^-1 b0^-1")


# the monodromy benchmark's reducible-witness cases, plus LOT k=8
BENCH_CASES = {
    "g1": (lambda: build_named("g1"), "a0"),
    "g2": (lambda: build_named("g2"), "a1"),
    "mixed": (lambda: combine(build_lot_family(5, "a"), build_lot_family(6, "b"),
                              "a0 b2 a1^-1 b0^-1"), "a0"),
    "wedge7": (lambda: wedge(7), "a0"),
    "triple4": (lambda: combine(wedge(4), build_lot_family(4, "c"), "b0 c2 b1^-1 c0^-1"),
                "a0"),
    "lot8": (lambda: build_lot_family(8), "a0"),
}


def assert_witnesses_match(f):
    expected = reference_witnesses(f)
    assert invariant_factor_witnesses(f) == expected
    assert invariant_factor_witness(f) == (expected[0] if expected else None)
    return expected


@pytest.mark.parametrize("name", list(BENCH_CASES))
def test_witnesses_match_reference_on_bench_cases(name):
    build, conjugator = BENCH_CASES[name]
    c = build()
    f = conjugation_automorphism(conjugator, c, unit_weights(c))
    expected = assert_witnesses_match(f)
    if name in ("g1", "mixed", "wedge7", "triple4"):
        assert expected  # the search must find something on these
    if name == "triple4":
        assert any(conj for _, conj in expected)  # and some need a conjugator


def test_witnesses_match_reference_after_compose_and_invert(g1, g2):
    for c, s, t in ((g1, "a0", "a1"), (g1, "b0", "a0^-1"), (g2, "a1", "a3")):
        ws = unit_weights(c)
        f = conjugation_automorphism(s, c, ws)
        g = conjugation_automorphism(t, c, ws)
        for h in (compose(f, g), compose(g, f), invert(f), compose(f, compose(f, g))):
            assert_witnesses_match(h)


def random_reduced_word(rng, letters, length, start=()):
    word = list(start)
    while len(word) < length:
        letter = (rng.choice(letters), rng.choice((1, -1)))
        if word and word[-1] == inverse_letter(letter):
            continue
        word.append(letter)
    return word


def random_automorphism(rng, n):
    """Reduced images over n basis letters; most share a long prefix with an
    earlier image, some are conjugates c w c^-1, a few use a foreign letter."""
    names = [f"x{i}" for i in range(n)]
    images = {}
    for name in names:
        kind = rng.random()
        if images and kind < 0.4:
            base = rng.choice(list(images.values())).letters
            prefix = list(base[:rng.randint(0, len(base))])
            letters = random_reduced_word(rng, names, len(prefix) + rng.randint(0, 4), prefix)
        elif kind < 0.7:
            c = Word(random_reduced_word(rng, names, rng.randint(1, 4)))
            core = Word(random_reduced_word(rng, rng.sample(names, rng.randint(1, n)),
                                            rng.randint(1, 4)))
            letters = (c * core * c.inverse()).letters
        elif kind < 0.75:
            letters = random_reduced_word(rng, names + ["z"], rng.randint(1, 5))
        else:
            letters = random_reduced_word(rng, names, rng.randint(0, 8))
        images[name] = Word(letters).free_reduce()
    basis = [BasisLoop(i, name, Word(), ()) for i, name in enumerate(names)]
    return Automorphism(images, Word(), "inner", SimpleNamespace(basis=basis))


def test_witnesses_match_reference_on_random_automorphisms():
    rng = random.Random(1986)
    found = conjugated = 0
    for trial in range(120):
        f = random_automorphism(rng, rng.randint(2, 12 if trial % 10 == 0 else 8))
        expected = assert_witnesses_match(f)
        found += len(expected)
        conjugated += sum(1 for _, conj in expected if conj)
    assert found >= 100 and conjugated >= 20


def conjugated_loops(c, ws, rng, count):
    """Basis-loop reps conjugated by random words of weight -1, 0 and +1."""
    words = []
    while len(words) < count:
        t = Word(random_reduced_word(rng, c.generators, rng.randint(0, 5)))
        if abs(signed_weight(t, ws)) <= 1:
            words.append(t)
    return words


def build_case(name):
    return BENCH_CASES[name][0]() if name in BENCH_CASES else build_lot_family(int(name[3:]))


def case_weights(c, spec):
    return unit_weights(c) if spec is None else parse_weight_spec(spec, c)


# unit weights on the bench cases, and the mixed signs of
# test_mixed_sign_unit_weights, where peaks and valleys swap trees
REWRITE_CASES = [pytest.param(name, None, id=name)
                 for name in ("g1", "g2", "mixed", "wedge7", "lot8")] + [
    pytest.param(name, spec, id=f"{name}-{spec}")
    for name, spec in (("g1", "a=1,b=-1"), ("g1", "a=-1,b=1"), ("g1", "a=-1,b=-1"),
                       ("g2", "a=-1,b=-1"))
]


@pytest.mark.parametrize("name, spec", REWRITE_CASES)
def test_rewrite_matches_reference(name, spec):
    c = build_case(name)
    ws = case_weights(c, spec)
    ctx, ref = MonodromyContext(c, ws), ReferenceContext(c, ws)
    rng = random.Random(f"rewrite {name}" if spec is None else f"rewrite {name} {spec}")
    weights = set()
    for t in conjugated_loops(c, ws, rng, 12):
        weights.add(signed_weight(t, ws))
        for loop in ctx.basis:
            word = (t * loop.rep * t.inverse()).free_reduce()
            rewritten = ctx.rewrite(word)
            assert rewritten == ref.rewrite(word), (str(t), loop.name)
            # pushing back gives the same group element, not the same free
            # word (flattening applies square relators), so it rewrites back
            pushed = ctx.push_to_generators(rewritten)
            assert ctx.rewrite(pushed) == rewritten, (str(t), loop.name)
    assert weights == {-1, 0, 1}


def reference_routes(adj, to):
    """End -> (next end toward ``to``, tree distance to ``to``), from one full
    breadth-first search rooted at ``to``."""
    routes = {to: (to, 0)}
    frontier = [to]
    dist = 0
    while frontier:
        dist += 1
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in routes:
                    routes[w] = (v, dist)
                    nxt.append(w)
        frontier = nxt
    return routes


# REWRITE_CASES (lot8 among them at unit weights), triple4, and LOTs at
# a=1 and a=-1 whose trees are deep enough for long ancestor chains
ROUTE_CASES = REWRITE_CASES + [pytest.param("triple4", None, id="triple4")] + [
    pytest.param(f"lot{k}", spec, id=f"lot{k}-{spec}")
    for k, spec in ((8, "a=-1"), (32, "a=1"), (32, "a=-1"), (64, "a=1"), (64, "a=-1"))
]


@pytest.mark.parametrize("name, spec", ROUTE_CASES)
def test_routes_match_per_target_bfs(name, spec):
    c = build_case(name)
    ws = case_weights(c, spec)
    ctx, ref = MonodromyContext(c, ws), ReferenceContext(c, ws)
    assert ctx._rooting is None  # building the basis roots nothing
    for adj in (ref.asc_adj, ref.desc_adj):
        for to in adj:
            routes = reference_routes(adj, to)
            assert routes.keys() == adj.keys()  # one tree
            for frm in adj:
                path, at = [], frm
                while at != to:
                    at = routes[at][0]
                    path.append(at)
                assert ctx._path(frm, to) == path, (frm, to)
                assert len(path) == routes[frm][1]
                if frm != to:
                    assert ctx._first_hop(frm, to) == routes[frm][0], (frm, to)
    for u, v in ((next(iter(ref.asc_adj)), next(iter(ref.desc_adj))),
                 (next(reversed(ref.desc_adj)), next(reversed(ref.asc_adj)))):
        for route in (ctx._first_hop, ctx._path):
            with pytest.raises(AssertionError, match="no tree path"):
                route(u, v)


def counting(method, calls):
    def counted(*args):
        calls.append(args)
        return method(*args)
    return counted


# REWRITE_CASES, and LOT 32 at a=-1 under 3-letter conjugators whose long
# words splice with cancellation at both junctions in one step, two pairs
# deep on either side, and through the whole splice into the left word
FLATTEN_CASES = [(*p.values, None) for p in REWRITE_CASES] + [
    ("lot32", "a=-1", ("a2 a1 a5^-1", "a23 a8^-1 a9^-1", "a15^-1 a16^-1 a26"))
]


@pytest.mark.parametrize("name, spec, conjugators", FLATTEN_CASES,
                         ids=[f"{n}-{s}" if s else n for n, s, _ in FLATTEN_CASES])
def test_flatten_matches_reference_step_for_step(name, spec, conjugators):
    c = build_case(name)
    ws = case_weights(c, spec)
    ctx, ref = MonodromyContext(c, ws), ReferenceContext(c, ws)
    hops = []
    ctx._first_hop = counting(ctx._first_hop, hops)  # one hop per peak step
    if conjugators is None:
        conjugators = conjugated_loops(c, ws, random.Random(f"flatten {name} {spec}"), 12)
    else:
        conjugators = map(Word.parse, conjugators)
    for t in conjugators:
        for loop in ctx.basis:
            word = (t * loop.rep * t.inverse()).free_reduce()
            del hops[:]
            ref.flatten_steps = 0
            assert ctx._flatten(list(word)) == ref._flatten(list(word)), (str(t), loop.name)
            assert len(hops) == ref.flatten_steps, (str(t), loop.name)
