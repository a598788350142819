"""One source per call: a complex or its `Analysis`, never both."""

import gc
import weakref

import pytest

from logfiber import (
    Analysis,
    InputError,
    MonodromyContext,
    build_lot_family,
    build_named,
    conjugation_automorphism,
    fibering_scan,
    hyperbolicity_verdict,
    infinite_fibering_verdict,
    invert,
    kernel_rank,
    search_flat_disk,
    unit_weights,
)

NAMES = ("g1", "g2", "gf", "torus")


def complex_of(source):
    return source.complex if isinstance(source, Analysis) else source


def outcome(call, source):
    """What ``call(source)`` returns, or the message of the `InputError` it raises."""
    try:
        return call(source)
    except InputError as exc:
        return ("InputError", str(exc))


def automorphism(t):
    def call(source):
        auto = conjugation_automorphism(t, source, unit_weights(complex_of(source)))
        return auto.images, auto.conjugator, auto.tag, auto.basis

    return call


CALLS = {
    "hyperbolicity_verdict": lambda s: hyperbolicity_verdict(s, 3),
    "search_flat_disk": lambda s: search_flat_disk(s, 2),
    "fibering_scan": lambda s: fibering_scan(s, 2),
    "infinite_fibering_verdict": infinite_fibering_verdict,
    "kernel_rank": lambda s: kernel_rank(s, unit_weights(complex_of(s))),
    "MonodromyContext": lambda s: MonodromyContext(s, unit_weights(complex_of(s))).basis,
    "conjugation_automorphism": automorphism("a0"),
}


def complexes():
    return {name: build_named(name) for name in NAMES} | {"lot8": build_lot_family(8)}


def test_of_returns_an_analysis_itself_and_wraps_a_complex():
    c = build_named("g1")
    a = Analysis(c)
    assert Analysis.of(a) is a
    fresh = Analysis.of(c)
    assert isinstance(fresh, Analysis) and fresh.complex is c and fresh is not Analysis.of(c)


@pytest.mark.parametrize("call", CALLS)
def test_an_analysis_gives_what_its_complex_gives(call):
    for name, c in complexes().items():
        if name == "lot8" and call not in ("MonodromyContext", "conjugation_automorphism"):
            continue
        assert outcome(CALLS[call], Analysis(c)) == outcome(CALLS[call], c), name


def test_conjugation_reports_an_unusable_complex_before_a_malformed_conjugator():
    gf = build_named("gf")
    with pytest.raises(InputError, match="ascending link is not a tree"):
        conjugation_automorphism("a0%", gf, unit_weights(gf))
    g1 = build_named("g1")
    with pytest.raises(InputError, match="cannot parse letter 'a0%'"):
        conjugation_automorphism("a0%", g1, unit_weights(g1))


def test_invert_reuses_the_context_and_its_crossing_table():
    c = build_lot_family(8)
    f = conjugation_automorphism("a3 a1 a5^-1", c, unit_weights(c))
    table = vars(f.context)["_crossings"]
    g = invert(f)
    assert g.context is f.context
    assert vars(g.context)["_crossings"] is table
    assert g.conjugator == f.conjugator.inverse()


def test_a_dropped_analysis_is_freed_without_the_cycle_collector():
    c = build_named("g1")
    ws = unit_weights(c)
    enabled = gc.isenabled()
    gc.disable()
    try:
        a = Analysis(c)
        a.orthant(ws)
        fibering_scan(a, 1)
        hyperbolicity_verdict(a, 2)
        infinite_fibering_verdict(a)
        auto = conjugation_automorphism("a0", a, ws)
        ref = weakref.ref(a)
        del a
        assert ref() is None
        assert auto.context.complex is c
    finally:
        if enabled:
            gc.enable()
