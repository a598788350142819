import random

import pytest

from logfiber import InputError, Word, signed_weight


def test_parse_both_inverse_suffixes():
    assert Word.parse("a0 b2^-1 a1-") == Word([("a0", 1), ("b2", -1), ("a1", -1)])


def test_render_emits_caret_form():
    assert str(Word.parse("a0 b2- a1^-1")) == "a0 b2^-1 a1^-1"


def test_parse_rejects_garbage():
    for bad in ("a0^2", "a-1", "0a", "a_1", "a0^"):
        with pytest.raises(InputError):
            Word.parse(bad)


def test_multiplication_is_verbatim_concatenation():
    w = Word.parse("a a^-1")
    assert len(w * w) == 4  # no implicit reduction


def test_free_reduce_examples():
    assert Word.parse("a a^-1 b").free_reduce() == Word.parse("b")
    assert Word().free_reduce() == Word()
    already = Word.parse("a1 a0 a1^-1 a4^-1")
    assert already.free_reduce() == already


def _random_word(rng, length):
    gens = ["a", "b", "c"]
    return Word((rng.choice(gens), rng.choice((1, -1))) for _ in range(length))


def test_free_reduce_idempotent_and_kills_inverses():
    rng = random.Random(7)
    for _ in range(300):
        w = _random_word(rng, rng.randrange(0, 12))
        reduced = w.free_reduce()
        assert reduced.free_reduce() == reduced
        assert len(reduced) <= len(w)
        assert (w * w.inverse()).free_reduce() == Word()


def test_inverse_is_reverse_and_flip():
    w = Word.parse("a b^-1 c")
    assert w.inverse() == Word.parse("c^-1 b a^-1")
    assert w.inverse().inverse() == w


def test_signed_weight_examples():
    ws = {f"a{i}": 5 for i in range(5)}
    assert signed_weight(Word.parse("a1 a0 a1^-1 a4^-1"), ws) == 0
    weights = {"a0": 2, "a1": 2, "b0": 3, "b2": 3}
    assert signed_weight(Word.parse("a0 b2 a1^-1 b0^-1"), weights) == 0
    assert signed_weight(Word.parse("a0"), {"a0": 2}) == 2


def test_signed_weight_reduction_invariance_and_additivity():
    rng = random.Random(11)
    ws = {"a": 2, "b": -3, "c": 1}
    for _ in range(300):
        u = _random_word(rng, rng.randrange(0, 10))
        v = _random_word(rng, rng.randrange(0, 10))
        assert signed_weight(u.free_reduce(), ws) == signed_weight(u, ws)
        assert signed_weight(u * v, ws) == signed_weight(u, ws) + signed_weight(v, ws)


def test_signed_weight_unknown_generator():
    with pytest.raises(InputError):
        signed_weight(Word.parse("z"), {"a": 1})


def test_cyclic_reduction_flag():
    assert Word.parse("a b a^-1 b^-1").is_cyclically_reduced()
    assert not Word.parse("a1 a1^-1 a0 a0^-1").is_cyclically_reduced()
    assert not Word.parse("a b b^-1 a").is_cyclically_reduced()
    # wraparound cancellation
    assert not Word.parse("a b c a^-1").is_cyclically_reduced()


def test_constructor_checks_signs_and_derived_words_match():
    for bad in ([("a", 2)], [("a", 0)], [("a", 1), ("b", -2)]):
        with pytest.raises(InputError):
            Word(bad)
    u, v = Word.parse("a b^-1 c"), Word.parse("c^-1 b a")
    # products, inverses and reductions skip the checks but equal checked words
    assert u * v == Word(list(u) + list(v))
    assert u.inverse() == Word([("c", -1), ("b", 1), ("a", -1)])
    assert (u * v).free_reduce() == Word([("a", 1), ("a", 1)])
    assert type((u * v).free_reduce().letters) is tuple
