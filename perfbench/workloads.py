"""Job lists for the four benchmark workloads and the seeded random-LOG generator.

A job is one ``logfiber.cli.main(argv)`` call on an input file that
`build` writes before any worker process starts, so input generation is
never part of the measured set-up or pass time.  Every input except the
seeded random LOGs of ``flat-search`` is the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from logfiber.complexes import SquareComplex, build_lot_family, build_named, combine, parse_spec
from logfiber.flatness import eligible_squares
from logfiber.links import build_link, largeness

WORKLOADS = ("lot-scale", "flat-search", "fibering", "monodromy")

# Seed whose report hashes are stored in expected.json; other seeds record theirs.
DEFAULT_SEED = 0

# The flat-search timing body: large-link LOGs drawn once from this fixed
# seed, as many as fit a pass of about 3 s.  Disk-search cost swings fivefold
# when a LOG is merely presented in another generator or edge order, so LOGs
# drawn from the run's own seed are kept to the cheap class below and the
# seed moves correctness, not timing.
CORPUS_SEED = 2008
CORPUS_LOGS = 18
SEEDED_LOGS = 10
SEEDED_MAX_ELIGIBLE = 3

WEDGE_RELATOR = "a0 b2 a1^-1 b0^-1"
TRIPLE_RELATOR = "b0 c2 b1^-1 c0^-1"
MONODROMY_CONJUGATOR = "a3 b1^-1 a2 b4 a1^-1"


@dataclass(frozen=True)
class Job:
    id: str
    argv: list[str]
    input: str
    seeded: bool  # input drawn from the run's seed; no stored hash except at DEFAULT_SEED


@dataclass
class DrawStats:
    draws: int = 0
    accepted: int = 0


def random_log_text(rng: random.Random, name: str) -> str:
    """One LOG on 5-10 generators with n-1 or n edges; each edge label
    differs from both endpoints, so every square is cyclically reduced."""
    n = rng.randint(5, 10)
    gens = [f"a{i}" for i in range(n)]
    lines = [f"name {name}", "generators " + " ".join(gens)]
    for _ in range(rng.choice((n - 1, n))):
        label = rng.choice(gens)
        frm, to = rng.sample([g for g in gens if g != label], 2)
        lines.append(f"edge label={label} from={frm} to={to}")
    return "\n".join(lines) + "\n"


def draw_large_logs(seed: int, count: int, max_eligible: int | None = None
                    ) -> tuple[list[str], DrawStats]:
    """Draw random LOGs from ``seed`` until ``count`` of them have a large
    link (and at most ``max_eligible`` poison-free squares, when given).

    About one draw in a hundred has a large link, so this keeps drawing; the
    returned stats say how many draws it made and how many it accepted.
    """
    rng = random.Random(seed)
    stats = DrawStats()
    accepted: list[str] = []
    while len(accepted) < count:
        stats.draws += 1
        text = random_log_text(rng, f"random LOG seed={seed} draw={stats.draws}")
        c = parse_spec(text)
        link = build_link(c)
        if not largeness(link).is_large:
            continue
        if max_eligible is not None and len(eligible_squares(c, link)) > max_eligible:
            continue
        accepted.append(text)
    stats.accepted = len(accepted)
    return accepted, stats


def wedge(k: int) -> SquareComplex:
    return combine(build_lot_family(k, "a"), build_lot_family(k, "b"), WEDGE_RELATOR)


def triple(k: int) -> SquareComplex:
    return combine(wedge(k), build_lot_family(k, "c"), TRIPLE_RELATOR)


def mixed() -> SquareComplex:
    return combine(build_lot_family(5, "a"), build_lot_family(6, "b"), WEDGE_RELATOR)


def build(workload: str, seed: int, inputs: Path, small: bool = False
          ) -> tuple[list[Job], dict[str, DrawStats]]:
    """Write the workload's input files under ``inputs`` and return its job
    list plus generator statistics.  ``small`` is the reduced size the
    self-test runs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
    inputs.mkdir(parents=True, exist_ok=True)
    jobs: list[Job] = []
    stats: dict[str, DrawStats] = {}

    def add(name: str, text: str, command: str, options: list[str], seeded: bool = False) -> None:
        path = inputs / f"{name}.log"
        path.write_text(text, encoding="utf-8")
        jobs.append(Job(f"{command} {name}", [*command.split(), str(path), *options],
                        str(path), seeded))

    if workload == "lot-scale":
        lots, wedge_k = ((8, 16), 8) if small else ((32, 128, 512), 64)
        cases = {f"lot{k}": build_lot_family(k) for k in lots}
        cases[f"wedge{wedge_k}"] = wedge(wedge_k)
        for name, c in cases.items():
            add(name, c.render(), "analyze", ["--json"])

    elif workload == "flat-search":
        flat = ["--radius", "3", "--json"]
        for name in ("g2", "torus"):
            add(name, build_named(name).render(), "check flat", flat)
        corpus, stats["corpus"] = draw_large_logs(CORPUS_SEED, 3 if small else CORPUS_LOGS)
        for i, text in enumerate(corpus):
            add(f"corpus{i:02d}", text, "check flat", flat)
        seeded, stats["seeded"] = draw_large_logs(seed, 2 if small else SEEDED_LOGS,
                                                  SEEDED_MAX_ELIGIBLE)
        for i, text in enumerate(seeded):
            add(f"seeded{i:02d}", text, "check flat", flat, seeded=True)

    elif workload == "fibering":
        cases = {"g1": build_named("g1"), "torus": build_named("torus")}
        if not small:
            cases.update({"g2": build_named("g2"), "gf": build_named("gf"), "mixed": mixed(),
                          "triple4": triple(4), "triple5": triple(5)})
        for name, c in cases.items():
            text = c.render()
            add(name, text, "fiberings", ["--bound", "2" if small else "4", "--json"])
            add(name, text, "verdict", ["--json"])

    else:  # monodromy
        for k in (8,) if small else (64, 128):
            add(f"lot{k}", build_lot_family(k).render(), "transition",
                ["--conjugator", "a0", "--json"])
        witness = ["--json", "--conjugator"]
        cases = {"g1": (build_named("g1"), "a0"), "g2": (build_named("g2"), "a1")}
        if not small:
            cases.update({"mixed": (mixed(), "a0"), "wedge7": (wedge(7), "a0"),
                          "triple4": (triple(4), "a0")})
        for name, (c, conjugator) in cases.items():
            add(name, c.render(), "reducible-witness", witness + [conjugator])
        add("g2", build_named("g2").render(),
            "monodromy", ["--conjugator", MONODROMY_CONJUGATOR, "--json"])
    return jobs, stats
