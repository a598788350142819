import gc
import random
import tracemalloc

import pytest

from logfiber import (
    InputError,
    Word,
    add_square,
    build_lot_family,
    build_named,
    combine,
    parse_spec,
    signed_weight,
)
from logfiber.complexes import MAX_LOT_K
from logfiber.complexes import log_square, union
from references import union_find


def test_log_edge_expansion():
    text = "generators a0 a4 a1\nedge label=a1 from=a4 to=a0\n"
    c = parse_spec(text)
    assert [str(sq.boundary) for sq in c.squares] == ["a1 a0 a1^-1 a4^-1"]


def test_log_square_weight_forcing():
    # abelianized boundary of a conjugation square is (to) - (from)
    boundary = log_square("x", "u", "v")
    ws = {"x": 7, "u": 3, "v": 3}
    assert signed_weight(boundary, ws) == 0
    ws["v"] = 4
    assert signed_weight(boundary, ws) == 1


def test_empty_declaration():
    c = parse_spec("generators a b\n")
    assert c.generators == ["a", "b"] and c.squares == []


def test_degenerate_square_rejected():
    with pytest.raises(InputError):
        parse_spec("generators a1 a0\nsquare a1 a1^-1 a0 a0^-1\n")


def test_wraparound_cancellation_rejected():
    with pytest.raises(InputError):
        parse_spec("generators a b c\nsquare a b c a^-1\n")


def test_parse_errors():
    with pytest.raises(InputError):
        parse_spec("generators a a\n")  # duplicate vertex label
    with pytest.raises(InputError):
        parse_spec("generators a\nedge label=a from=a to=z\n")  # undeclared endpoint
    with pytest.raises(InputError):
        parse_spec("generators a b\nsquare a b a^-1\n")  # boundary length
    with pytest.raises(InputError):
        parse_spec("generators a\nfrobnicate a\n")  # unknown statement


def test_round_trip_all_named():
    for name in ("lot-a", "lot-b", "g1", "gf", "g2", "torus"):
        c = build_named(name)
        assert parse_spec(c.render()) == c


def test_round_trip_keeps_name_line():
    c = parse_spec("name my complex\ngenerators a b\nsquare a b a^-1 b^-1\n")
    assert "name my complex" in c.render()
    assert parse_spec(c.render()) == c


def test_bad_edge_field():
    # each line names the field: a malformed one, one that is not label, from
    # or to, and one given twice (which would silently win over the first)
    for edge, message in [
        ("edge label a from=a to=b", "line 2: bad edge field 'label'"),
        ("edge label=a from=b to=c colour=red", "line 2: unknown edge field 'colour'"),
        ("edge label=a label=d from=b to=c", "line 2: repeated edge field 'label'"),
        ("edge label=a from=b to=c to=c", "line 2: repeated edge field 'to'"),
    ]:
        with pytest.raises(InputError, match=message):
            parse_spec(f"generators a b c d\n{edge}\n")


def test_lot_family_refuses_k_above_the_limit():
    # only just above the limit: a huge k would be refused the same way, but
    # a regression there would try to allocate it
    with pytest.raises(InputError, match=f"MAX_LOT_K = {MAX_LOT_K}, got k = {MAX_LOT_K + 1}"):
        build_lot_family(MAX_LOT_K + 1)


def test_round_trip_preserves_added_tag():
    g2 = build_named("g2")
    again = parse_spec(g2.render())
    assert [sq.origin == "added" for sq in again.squares] == [
        sq.origin == "added" for sq in g2.squares
    ]


def test_log_shape_metadata():
    lot = parse_spec(build_lot_family(4).render())  # square lines only, no edges
    assert not any("log shape" in line for line in lot.provenance)
    tree = parse_spec(
        "generators a0 a1 a2 a3 a4\n"
        "edge label=a1 from=a4 to=a0\nedge label=a2 from=a4 to=a1\n"
        "edge label=a3 from=a4 to=a2\nedge label=a0 from=a3 to=a4\n"
    )
    assert any("log shape: tree" in line for line in tree.provenance)
    cyclic = parse_spec(
        "generators a b c\nedge label=c from=a to=b\nedge label=c from=b to=a\n"
    )
    assert cyclic.provenance == ["log shape: graph with cycles"]
    triangle = parse_spec("generators a b c d\nedge label=d from=a to=b\n"
                          "edge label=d from=b to=c\nedge label=d from=c to=a\n")
    assert triangle.provenance == ["log shape: graph with cycles"]


def test_union_matches_the_dict_union_find():
    # random pairs over 0 .. n - 1, self-pairs and repeats included
    rng = random.Random(21)
    self_pairs = repeats = 0
    for _ in range(2000):
        n = rng.randint(1, 10)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        self_pairs += any(u == v for u, v in pairs)
        repeats += len(set(pairs)) < len(pairs)
        root, acyclic = union_find(range(n), pairs)
        parent = list(range(n))
        joins = union(parent, pairs)
        assert (n - joins, joins == len(pairs)) == (len(set(root.values())), acyclic), pairs
        # each root is the least member of its tree
        assert all(p <= i for i, p in enumerate(parent)), pairs
        for i, p in enumerate(parent):
            parent[i] = parent[p]
        assert parent == [min(v for v in range(n) if root[v] == root[u]) for u in range(n)], pairs
    assert self_pairs > 100 and repeats > 100


def test_lot_family_k4():
    c = build_lot_family(4, "a")
    assert [str(sq.boundary) for sq in c.squares] == [
        "a1 a0 a1^-1 a4^-1",
        "a2 a1 a2^-1 a4^-1",
        "a3 a2 a3^-1 a4^-1",
        "a0 a4 a0^-1 a3^-1",
    ]


def test_lot_family_k5():
    c = build_lot_family(5, "a")
    assert len(c.squares) == 5
    assert str(c.squares[3].boundary) == "a4 a3 a4^-1 a5^-1"
    assert str(c.squares[4].boundary) == "a0 a5 a0^-1 a4^-1"


def test_lot_family_needs_k_at_least_4():
    with pytest.raises(InputError):
        build_lot_family(3)


def test_named_g1_matches_explicit_combine():
    expected = combine(build_named("lot-a"), build_named("lot-b"), "a0 b2 a1^-1 b0^-1")
    assert build_named("g1") == expected


def test_named_counts():
    assert len(build_named("g1").squares) == 9
    assert len(build_named("g1").generators) == 10
    assert len(build_named("gf").squares) == 6
    assert len(build_named("g2").squares) == 7
    assert len(build_named("torus").squares) == 1


def test_named_unknown():
    with pytest.raises(InputError):
        build_named("nonsense")


def test_combine_square_count(mixed):
    assert len(mixed.squares) == 5 + 6 + 1
    assert mixed.squares[-1].origin == "added"


def test_combine_validation():
    lot = build_named("lot-a")
    with pytest.raises(InputError):
        combine(lot, build_named("lot-a"), "a0 a1 a0^-1 a1^-1")  # alphabet collision
    lot_b = build_named("lot-b")
    with pytest.raises(InputError):
        combine(lot, lot_b, "a0 b2 a1^-1")  # wrong length
    with pytest.raises(InputError):
        combine(lot, lot_b, "a0 z9 a1^-1 b0^-1")  # unknown generator
    with pytest.raises(InputError):
        combine(lot, lot_b, "a0 a1 a2^-1 a3^-1")  # one-sided relator


def test_add_square():
    g2 = add_square(build_named("gf"), "a4 b1 a1^-1 b4^-1")
    assert g2 == build_named("g2")
    with pytest.raises(InputError):
        add_square(build_named("gf"), Word.parse("a4 b1 a1^-1"))


def test_duplicate_square_flagged():
    torus = build_named("torus")
    doubled = add_square(torus, "a b a^-1 b^-1")
    assert len(doubled.squares) == 2
    assert any("duplicate square" in line for line in doubled.provenance)
    # every repeat gets its own line, in order
    text = ("generators a b c\nsquare a b a^-1 b^-1\nsquare b c b^-1 c^-1\n"
            "square a b a^-1 b^-1\nedge label=c from=a to=b\nsquare b c b^-1 c^-1\n"
            "square a b a^-1 b^-1\n")
    c = parse_spec(text)
    assert len(c.squares) == 6
    repeats = ["duplicate square: a b a^-1 b^-1", "duplicate square: b c b^-1 c^-1",
               "duplicate square: a b a^-1 b^-1"]
    assert c.provenance == ["log shape: forest (2 components)", *repeats]
    # add_square copies the trail, with each repeat once, then flags the new
    # square when it repeats one
    again = add_square(c, "c b c^-1 a^-1")
    assert again.provenance == [*c.provenance, "added square c b c^-1 a^-1",
                                "duplicate square: c b c^-1 a^-1"]
    fresh = add_square(c, "a c a^-1 c^-1")
    assert fresh.provenance == [*c.provenance, "added square a c a^-1 c^-1"]
    assert [sq.boundary for sq in fresh.squares[:6]] == [sq.boundary for sq in c.squares]
    # combine keeps each source's repeats once
    wedge = combine(c, parse_spec("generators x y\nsquare x y x^-1 y^-1\n"), "a x a^-1 y^-1")
    assert wedge.provenance == [*c.provenance, "combined with relator a x a^-1 y^-1"]
    assert [sq.index for sq in wedge.squares] == list(range(8))
    wedge = combine(build_named("torus"), parse_spec("generators x y\n"), "a x a^-1 y^-1")
    assert wedge.provenance == ["torus control case", "combined with relator a x a^-1 y^-1"]


def test_statement_keyword_ends_at_any_whitespace():
    text = ("name\tsample\ngenerators\ta b\tc\nsquare\ta b\ta^-1 b^-1\n"
            "edge\tlabel=c\tfrom=a to=b\n")
    c = parse_spec(text)
    assert c.generators == ["a", "b", "c"]
    assert [str(sq.boundary) for sq in c.squares] == ["a b a^-1 b^-1", "c b c^-1 a^-1"]
    assert c.provenance[0] == "name: sample"
    assert c == parse_spec(text.replace("\t", " "))


def test_parse_checks_each_generator_name_once(monkeypatch):
    from logfiber import complexes

    checked = []
    check = complexes.check_generator_names

    def counted(names, seen):
        checked.extend(names)
        return check(names, seen)

    monkeypatch.setattr(complexes, "check_generator_names", counted)
    c = parse_spec("generators a b\nsquare a b a^-1 b^-1\ngenerators c\n")
    assert checked == ["a", "b", "c"] and c.generators == ["a", "b", "c"]
    with pytest.raises(InputError, match="^boundary letter 'd' is not a declared generator$"):
        c.append_square(Word.parse("a d a^-1 d^-1"))
    # the errors keep their text and order, and a complex built directly still checks
    for text, message in (("generators a b\ngenerators b\n", "line 2: duplicate generator 'b'"),
                          ("generators a 1b a\n", "line 1: invalid generator name '1b'")):
        with pytest.raises(InputError, match=f"^{message}"):
            parse_spec(text)
    del checked[:]
    for names, message in ((["a", "b", "a"], "duplicate generator 'a'"),
                           (["a", "b_"], "invalid generator name 'b_'")):
        with pytest.raises(InputError, match=f"^{message}"):
            complexes.SquareComplex(names)
    assert checked == ["a", "b", "a", "a", "b_"]


def test_generator_names_take_ascii_digits_only(tmp_path, capsys):
    # `generator_stem` strips 0-9 only, so a name ending in another script's
    # decimal digits (Arabic-Indic "٢") is refused as a name and as a letter
    from logfiber.cli import main
    from logfiber.words import check_generator_name, generator_stem

    for name in ("a٢", "a1٢", "β٣"):
        with pytest.raises(InputError, match=f"^line 1: invalid generator name '{name}'"):
            parse_spec(f"generators a1 {name} b1\n")
        with pytest.raises(InputError, match=f"^line 2: cannot parse letter '{name}'"):
            parse_spec(f"generators a1 b1\nsquare a1 b1 {name} b1^-1\n")
    assert generator_stem(check_generator_name("β20")) == "β"  # letters of any script
    path = tmp_path / "digits.log"
    path.write_text("generators a1 a٢ b1\nsquare a1 b1 a1^-1 b1^-1\n"
                    "square a٢ b1 a٢^-1 b1^-1\n", encoding="utf-8")
    assert main(["morse", str(path), "--weights", "a=1,b=1"]) == 1
    assert "error: line 1: invalid generator name 'a٢'" in capsys.readouterr().err


def test_parse_memo_keeps_letters_and_errors():
    # ``a-`` and ``a^-1`` are one letter, whether or not a generators line came first
    c = parse_spec("square a b a- b^-1\ngenerators a b\nsquare b a b- a^-1\nsquare a b a^-1 b-\n")
    assert [str(sq.boundary) for sq in c.squares] == ["a b a^-1 b^-1", "b a b^-1 a^-1",
                                                      "a b a^-1 b^-1"]
    # a bad token after memoized good ones is still reported, first of its line
    text = "generators a b\nsquare a b a^-1 b^-1\nsquare b a b^-1 a^-1\nsquare a b? a^ b^-1\n"
    with pytest.raises(InputError, match=r"^line 4: cannot parse letter 'b\?'$"):
        parse_spec(text)
    with pytest.raises(InputError, match=r"^line 2: cannot parse letter 'a\^'$"):
        parse_spec("generators a b\nsquare a^ b a^-1 b^-1\nfrobnicate\n")
    with pytest.raises(InputError, match=r"^line 2: unknown statement 'frobnicate'$"):
        parse_spec("generators a b\nfrobnicate\nsquare a^ b a^-1 b^-1\n")


def module_state(module):
    """Each global of ``module`` with its identity and, for containers,
    classes and caches, its size."""
    def size(v):
        if isinstance(v, (dict, list, set, tuple)):
            return len(v)
        if isinstance(v, type):
            return len(vars(v))
        if hasattr(v, "cache_info"):
            return v.cache_info().currsize
        return None
    return {name: (id(v), size(v)) for name, v in vars(module).items()}


def test_parse_keeps_no_cache_between_calls():
    from logfiber import complexes, words

    parse_spec("generators a b\nsquare a b a- b^-1\n")
    names = [f"fresh{i}" for i in range(2000)]
    squares = "".join(f"square {g} {h} {g}- {h}^-1\n" for g, h in zip(names, names[1:]))
    text = "generators " + " ".join(names) + "\n" + squares
    before = module_state(words), module_state(complexes)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        c = parse_spec(text)
        assert len(c.squares) == 1999
        del c
        gc.collect()
        # a cache of the 6 000 letters would hold hundreds of KB
        assert tracemalloc.get_traced_memory()[0] - held < 20_000
    finally:
        tracemalloc.stop()
    assert (module_state(words), module_state(complexes)) == before
