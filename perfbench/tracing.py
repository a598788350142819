"""Spans and work counters around logfiber's public functions, from outside.

`Tracer.install` rebinds each traced function in every ``logfiber`` module
namespace that holds it (``flatness`` imports ``largeness`` by name, ``cli``
imports ``parse_spec`` by name), and rebinds traced methods on their class.
Only the traced worker imports this module; the untraced worker runs the
package exactly as shipped.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (module, qualified name) of every traced callable; a class name stands for
# its constructor.
TRACED = (
    ("complexes", "parse_spec"),
    ("links", "build_link"),
    ("links", "largeness"),
    ("links", "poison_corners"),
    ("flatness", "hyperbolicity_verdict"),
    ("flatness", "search_flat_disk"),
    ("flatness", "eligible_squares"),
    ("morse", "weight_lattice"),
    ("morse", "check_admissible"),
    ("morse", "require_admissible"),
    ("morse", "directional_links"),
    ("morse", "fiber_graph"),
    ("morse", "fibering_scan"),
    ("morse", "infinite_fibering_verdict"),
    ("monodromy", "MonodromyContext"),
    ("monodromy", "MonodromyContext.rewrite"),
    ("monodromy", "conjugation_automorphism"),
    ("monodromy", "transition_matrix"),
    ("monodromy", "invariant_factor_witnesses"),
    ("words", "Word.free_reduce"),
    ("cli", "complex_report"),
    ("cli", "link_report"),
    ("cli", "flat_report"),
    ("cli", "morse_report"),
    ("cli", "fiberings_report"),
    ("cli", "verdict_report"),
    ("cli", "monodromy_report"),
    ("cli", "transition_report"),
    ("cli", "reducible_report"),
    ("cli", "main"),
)

VERDICT_TAGS = ("NotNPC", "HyperbolicCertA", "HyperbolicCertB", "Inconclusive")

# name -> (unit, better) of every counter a pass reports, besides calls and self time
COUNTERS = {
    "links.edges": ("count", "lower"),
    **{f"flatness.verdict.{tag}": ("count", "higher") for tag in VERDICT_TAGS},
    "morse.scan_vectors": ("count", "lower"),
    "morse.scan_rank_rows": ("count", "higher"),
    "morse.scan_rank_ratio": ("ratio", "higher"),
    "monodromy.witness_subsets": ("count", "lower"),
    "monodromy.witnesses_found": ("count", "higher"),
    "monodromy.image_letters": ("count", "lower"),
    "words.Word.free_reduce.letters_in": ("count", "lower"),
}


def _count_edges(counts, args, link):
    counts["links.edges"] += len(link.edges)


def _count_verdict(counts, args, verdict):
    counts[f"flatness.verdict.{verdict.tag}"] += 1


def _count_scan(counts, args, rows):
    counts["morse.scan_vectors"] += len(rows)
    counts["morse.scan_rank_rows"] += sum(row["rank"] is not None for row in rows)


def _count_images(counts, args, auto):
    counts["monodromy.image_letters"] += sum(len(word) for word in auto.images.values())


def _count_witnesses(counts, args, witnesses):
    counts["monodromy.witness_subsets"] += 2 ** len(args[0].basis) - 2
    counts["monodromy.witnesses_found"] += len(witnesses)


def _count_letters(counts, args, word):
    counts["words.Word.free_reduce.letters_in"] += len(args[0])


_COUNT_HOOKS = {
    "links.build_link": _count_edges,
    "flatness.hyperbolicity_verdict": _count_verdict,
    "morse.fibering_scan": _count_scan,
    "monodromy.conjugation_automorphism": _count_images,
    "monodromy.invariant_factor_witnesses": _count_witnesses,
    "words.Word.free_reduce": _count_letters,
}


def span_names() -> list[str]:
    return [f"{module}.{name}" for module, name in TRACED]


class Tracer:
    """Records one span per traced call: [name, start, end, parent, job].

    ``parent`` is the index of the enclosing span in the same pass (-1 at
    the top); ``job`` is set by the caller before each job runs.  Times come
    from ``clock``.
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = ""
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans, self.counts, self._stack = [], Counter(), []

    def _wrap(self, name: str, fn):
        hook = _COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            span = [name, self.clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced callable; call once, after importing logfiber."""
        namespaces = [m for key, m in sys.modules.items()
                      if key == "logfiber" or key.startswith("logfiber.")]
        for module_name, qualname in TRACED:
            module = sys.modules[f"logfiber.{module_name}"]
            name = f"{module_name}.{qualname}"
            owner_name, _, method = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, method, self._wrap(name, getattr(owner, method)))
                continue
            target = getattr(module, qualname)
            if isinstance(target, type):
                target.__init__ = self._wrap(name, target.__init__)
                continue
            traced = self._wrap(name, target)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is target:
                        setattr(namespace, attr, traced)


def self_times(spans: list[list]) -> dict[str, tuple[int, float]]:
    """name -> (calls, self ms) over ``spans``; self time is a span's
    duration minus the durations of its direct child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for (name, start, end, parent, job), inner in zip(spans, child):
        calls, ms = out.get(name, (0, 0.0))
        out[name] = (calls + 1, ms + (end - start - inner) * 1e3)
    return out


def pass_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one pass: calls and self ms of every traced
    callable (zero when not called) plus every counter."""
    times = self_times(spans)
    out: dict[str, float] = {}
    for name in span_names():
        calls, ms = times.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_ms"] = ms
    for name in COUNTERS:
        out[name] = counts.get(name, 0)
    vectors = counts.get("morse.scan_vectors", 0)
    out["morse.scan_rank_ratio"] = counts.get("morse.scan_rank_rows", 0) / vectors if vectors else 0.0
    return out
