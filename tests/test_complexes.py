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
from logfiber.complexes import log_square


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
    with pytest.raises(InputError):
        parse_spec("generators a b\nedge label a from=a to=b\n")


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
    assert any("cycles" in line for line in cyclic.provenance)


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
