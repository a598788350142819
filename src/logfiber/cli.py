"""Command-line front end and report assembly.

Exit status: 0 when the command ran to completion (verdicts are data, never
errors), 1 on input or validation problems, 2 on an internal invariant
violation.  ``--json`` switches every report to a machine-readable object;
the documented key sets live in `SCHEMAS` and the reports never emit keys
outside them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import islice

from . import flatness, links, monodromy, morse
from .analysis import Analysis
from .complexes import (
    NAMED_COMPLEXES,
    SquareComplex,
    add_square,
    build_lot_family,
    build_named,
    combine,
    parse_spec,
)
from .errors import InputError
from .words import Word

END_CONVENTION = "g+ is the end (arrival) direction of g, g- its start"
LOOP_CONVENTION = "loop = upper boundary path from the square's min corner; " + END_CONVENTION

SCHEMAS = {
    "complex": {"generators", "squares", "provenance"},
    "square": {"id", "boundary", "origin"},
    "link": {"vertices", "edges", "girth", "is_large", "violations", "poison", "convention"},
    "violation": {"kind", "corners", "vertices"},
    "poison_corner": {"square", "corner", "endpoints"},
    "flat": {"verdict", "radius", "eligible", "witness", "details"},
    "witness_cell": {"x", "y", "square", "rot", "refl"},
    "morse": {"lattice_rank", "basis", "admissible", "problems", "asc", "desc", "fiber",
              "chi", "rank", "rank_blocked_by"},
    "directional": {"vertices", "edges", "is_tree", "components"},
    "fiber": {"vertices", "edges", "connected", "components"},
    "fiberings": {"lattice_rank", "basis", "table"},
    "fibering_row": {"coords", "weights", "admissible", "asc_tree", "desc_tree", "chi",
                     "components", "rank", "primitive", "note"},
    "verdict": {"lattice_rank", "infinite_fibering", "orthant", "reason"},
    "monodromy": {"basis", "naming_map", "images", "conjugator", "tag", "convention"},
    "basis_loop": {"square", "name", "rep"},
    "transition": {"basis", "matrix", "irreducible", "primitive", "witness_power"},
    "reducible": {"basis", "witness", "witnesses"},
    "witness": {"subset", "conjugator"},
    "analyze": {"complex", "link", "flat", "morse", "fibering", "monodromy"},
    "skipped": {"skipped"},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


# ----------------------------------------------------------------------
# report builders (dict + text, shared by subcommands and `analyze`); those
# `analyze` calls read its `Analysis` and build a fresh one when given none


def _read_complex(path: str) -> SquareComplex:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return parse_spec(text)


def _weights_for(c: SquareComplex, spec: str | None) -> morse.WeightSystem:
    if spec is None:
        return morse.unit_weights(c)
    return morse.parse_weight_spec(spec, c)


def complex_report(c: SquareComplex) -> dict:
    return {
        "generators": list(c.generators),
        "squares": [
            {"id": sq.index, "boundary": str(sq.boundary), "origin": sq.origin}
            for sq in c.squares
        ],
        "provenance": list(c.provenance),
    }


def complex_text(c: SquareComplex) -> str:
    lines = [f"complex: {len(c.generators)} generators, {len(c.squares)} squares"]
    lines.append("  generators: " + " ".join(c.generators))
    for sq in c.squares:
        tag = "  [added]" if sq.origin == "added" else ""
        lines.append(f"  square {sq.index}: {sq.boundary}{tag}")
    return "\n".join(lines)


def link_report(c: SquareComplex, analysis: Analysis | None = None) -> dict:
    a = analysis or Analysis(c)
    return {
        "vertices": len(a.link.vertices),
        "edges": len(a.link.edges),
        "girth": a.largeness.girth,
        "is_large": a.largeness.is_large,
        "violations": a.largeness.violations,
        "poison": [
            {
                "square": e.square,
                "corner": e.corner,
                "endpoints": [links.format_end(v) for v in e.pair],
            }
            for e in a.poison
        ],
        "convention": END_CONVENTION,
    }


def link_text(data: dict) -> str:
    girth = data["girth"] if data["girth"] is not None else "none (no cycles)"
    lines = [
        f"link: {data['vertices']} vertices, {data['edges']} edges,"
        f" girth {girth}, large: {'yes' if data['is_large'] else 'no'}"
    ]
    for v in data["violations"]:
        lines.append(f"  violation: {v['kind']} at corners {v['corners']} ({', '.join(v['vertices'])})")
    return "\n".join(lines + [poison_text(data)])


def poison_text(data: dict) -> str:
    lines = [f"poison corners: {len(data['poison'])}"]
    for p in data["poison"]:
        lines.append(
            f"  square {p['square']} corner {p['corner']}"
            f" ({p['endpoints'][0]} -- {p['endpoints'][1]})"
        )
    lines.append(f"  convention: {data['convention']}")
    return "\n".join(lines)


def flat_report(c: SquareComplex, max_radius: int, analysis: Analysis | None = None) -> dict:
    verdict = flatness.hyperbolicity_verdict(c, max_radius, analysis)
    witness = None
    if verdict.witness is not None:
        witness = [
            {"x": x, "y": y, "square": s, "rot": r, "refl": refl}
            for (x, y), (s, r, refl) in sorted(verdict.witness.placement.items())
        ]
    return {
        "verdict": verdict.tag,
        "radius": verdict.radius,
        "eligible": verdict.eligible if verdict.eligible is not None else [],
        "witness": witness,
        "details": verdict.details,
    }


def flat_text(data: dict) -> str:
    tag = data["verdict"]
    shown = f"{tag}({data['radius']})" if tag == "HyperbolicCertB" else tag
    lines = [f"flatness verdict: {shown} ({data['details']})"]
    lines.append(f"  eligible squares: {data['eligible'] if data['eligible'] else 'none'}")
    if data["witness"]:
        lines.append(f"  witness disk of radius {data['radius']}:")
        for cell in data["witness"]:
            refl = " reflected" if cell["refl"] else ""
            lines.append(
                f"    ({cell['x']:2d},{cell['y']:2d}) square {cell['square']}"
                f" rot {cell['rot']}{refl}"
            )
    return "\n".join(lines)


def morse_report(c: SquareComplex, ws: morse.WeightSystem,
                 analysis: Analysis | None = None) -> dict:
    a = analysis or Analysis(c)
    data: dict = {
        "lattice_rank": len(a.lattice),
        "basis": [dict(b) for b in a.lattice],
    }
    weights = a.morse_data(ws)
    report = weights.admissibility
    data["admissible"] = report.admissible
    data["problems"] = report.problems
    if not report.admissible:
        data.update({"asc": None, "desc": None, "fiber": None, "chi": None, "rank": None,
                     "rank_blocked_by": "inadmissible weight system"})
        return data
    asc, desc = weights.links
    fiber = weights.fiber
    for side, name in ((asc, "asc"), (desc, "desc")):
        data[name] = {
            "vertices": len(side.vertices),
            "edges": len(side.edges),
            "is_tree": side.is_tree,
            "components": side.components,
        }
    data["fiber"] = {
        "vertices": len(fiber.vertices),
        "edges": len(fiber.edges),
        "connected": fiber.connected,
        "components": fiber.components,
    }
    data["chi"] = fiber.chi
    if asc.is_tree and desc.is_tree and fiber.connected:
        data["rank"] = 1 - fiber.chi
        data["rank_blocked_by"] = None
    else:
        blockers = []
        if not asc.is_tree:
            blockers.append("ascending link is not a tree")
        if not desc.is_tree:
            blockers.append("descending link is not a tree")
        if not fiber.connected:
            blockers.append("fiber is disconnected")
        data["rank"] = None
        data["rank_blocked_by"] = "; ".join(blockers)
    return data


def morse_text(data: dict, weights_shown: str) -> str:
    lines = [f"weight lattice: rank {data['lattice_rank']}"]
    for b in data["basis"]:
        lines.append("  basis vector: " + " ".join(f"{g}={w}" for g, w in b.items()))
    lines.append(f"morse ({weights_shown}): admissible: {'yes' if data['admissible'] else 'no'}")
    for problem in data["problems"]:
        lines.append(f"  problem: {problem}")
    if not data["admissible"]:
        return "\n".join(lines)
    for name, label in (("asc", "ascending"), ("desc", "descending")):
        side = data[name]
        tree = "yes" if side["is_tree"] else f"no ({side['components']} components)"
        lines.append(
            f"  {label} link: {side['vertices']} vertices, {side['edges']} edges, tree: {tree}"
        )
    fiber = data["fiber"]
    connected = "yes" if fiber["connected"] else f"no ({fiber['components']} components)"
    lines.append(
        f"  fiber graph: {fiber['vertices']} vertices, {fiber['edges']} edges,"
        f" connected: {connected}"
    )
    lines.append(f"  chi: {data['chi']}")
    if data["rank"] is not None:
        lines.append(f"  kernel rank: {data['rank']}")
    else:
        lines.append(f"  kernel rank: undefined ({data['rank_blocked_by']})")
    return "\n".join(lines)


def fiberings_report(c: SquareComplex, bound: int) -> dict:
    a = Analysis(c)
    return {
        "lattice_rank": len(a.lattice),
        "basis": [dict(b) for b in a.lattice],
        "table": morse.fibering_scan(c, bound, a),
    }


def fiberings_text(data: dict) -> str:
    lines = [f"weight lattice rank {data['lattice_rank']}; scanned {len(data['table'])} vectors"]
    for row in data["table"]:
        coords = ",".join(str(k) for k in row["coords"])
        rank = row["rank"] if row["rank"] is not None else "-"
        flags = []
        flags.append("admissible" if row["admissible"] else "inadmissible")
        if row.get("asc_tree") is not None:
            flags.append("trees" if row["asc_tree"] and row["desc_tree"] else "not trees")
        flags.append("primitive" if row["primitive"] else "non-primitive")
        lines.append(
            f"  ({coords}): chi {row['chi'] if row['chi'] is not None else '-'},"
            f" rank {rank} [{', '.join(flags)}]"
        )
        if row.get("note"):
            lines.append(f"      note: {row['note']}")
    return "\n".join(lines)


def verdict_report(c: SquareComplex, analysis: Analysis | None = None) -> dict:
    data = morse.infinite_fibering_verdict(c, analysis)
    out = {
        "lattice_rank": data["lattice_rank"],
        "infinite_fibering": "YES" if data["infinite_fibering"] else "NO",
        "orthant": data["orthant"],
    }
    if "reason" in data:
        out["reason"] = data["reason"]
    return out


def verdict_text(data: dict) -> str:
    line = f"infinite fibering: {data['infinite_fibering']} (lattice rank {data['lattice_rank']})"
    if data["orthant"]:
        line += f", witness orthant ({','.join(data['orthant'])})"
    if data.get("reason"):
        line += f" -- {data['reason']}"
    return line


def basis_report(ctx: monodromy.MonodromyContext) -> dict:
    return {
        "basis": [
            {"square": loop.square, "name": loop.name, "rep": str(loop.rep)}
            for loop in ctx.basis
        ],
        "naming_map": {loop.name: loop.square for loop in ctx.basis},
    }


def monodromy_report(c: SquareComplex, ws: morse.WeightSystem, conjugator: str) -> dict:
    ctx = monodromy.MonodromyContext(c, ws)
    auto = monodromy.conjugation_automorphism(Word.parse(conjugator), c, ws, context=ctx)
    return {
        **basis_report(ctx),
        "images": {name: str(word) for name, word in auto.images.items()},
        "conjugator": str(auto.conjugator),
        "tag": auto.tag,
        "convention": LOOP_CONVENTION,
    }


def monodromy_text(data: dict) -> str:
    lines = [f"fiber-loop basis ({len(data['basis'])} loops):"]
    for loop in data["basis"]:
        lines.append(f"  {loop['name']} = loop of square {loop['square']} (rep {loop['rep']})")
    lines.append(f"conjugation by {data['conjugator']} ({data['tag']}):")
    for loop in data["basis"]:
        name = loop["name"]
        lines.append(f"  {name} -> {data['images'][name]}")
    return "\n".join(lines)


def transition_report(c: SquareComplex, ws: morse.WeightSystem, conjugator: str) -> dict:
    auto = monodromy.conjugation_automorphism(Word.parse(conjugator), c, ws)
    tm = monodromy.transition_matrix(auto)
    return {
        "basis": tm.order,
        "matrix": tm.matrix.tolist(),
        "irreducible": tm.irreducible,
        "primitive": tm.primitive,
        "witness_power": tm.witness_power,
    }


def transition_text(data: dict) -> str:
    lines = [f"transition matrix over basis {' '.join(data['basis'])}:"]
    for row in data["matrix"]:
        lines.append("  " + " ".join(f"{x:2d}" for x in row))
    lines.append(f"irreducible: {'yes' if data['irreducible'] else 'no'}")
    if data["primitive"]:
        lines.append(f"primitive: yes (M^{data['witness_power']} is entrywise positive)")
    else:
        lines.append("primitive: no")
    return "\n".join(lines)


def reducible_report(c: SquareComplex, ws: morse.WeightSystem, conjugator: str) -> dict:
    auto = monodromy.conjugation_automorphism(Word.parse(conjugator), c, ws)
    witnesses = monodromy.invariant_factor_witnesses(auto)
    return {
        "basis": [loop.name for loop in auto.basis],
        "witness": (
            {"subset": list(witnesses[0][0]), "conjugator": str(witnesses[0][1])}
            if witnesses
            else None
        ),
        "witnesses": [
            {"subset": list(subset), "conjugator": str(word)} for subset, word in witnesses
        ],
    }


def reducible_text(data: dict) -> str:
    if not data["witnesses"]:
        return ("no invariant free-factor witness among basis subsets"
                " (this does not prove irreducibility)")
    lines = ["reducibility witnesses (subset, conjugator):"]
    for w in data["witnesses"]:
        conj = w["conjugator"] if w["conjugator"] else "(empty)"
        lines.append(f"  {{{', '.join(w['subset'])}}} conjugated by {conj}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# commands


# `json.dumps(indent=2)` runs this pure-Python encoder and joins every chunk
# at once; `_emit` writes the same bytes in joined batches instead
_JSON = json.JSONEncoder(indent=2, ensure_ascii=False)
_JSON_BATCH = 4096  # chunks per write


def _emit(args, text: str, data: dict) -> int:
    if getattr(args, "json", False):
        chunks = _JSON.iterencode(data)
        while batch := "".join(islice(chunks, _JSON_BATCH)):
            sys.stdout.write(batch)
        sys.stdout.write("\n")
    else:
        print(text)
    return 0


def cmd_build(args) -> int:
    if args.what == "lot":
        c = build_lot_family(args.k, args.stem)
    else:
        c = build_named(args.name)
    sys.stdout.write(c.render())
    return 0


def cmd_combine(args) -> int:
    c = combine(_read_complex(args.file1), _read_complex(args.file2), Word.parse(args.relator))
    sys.stdout.write(c.render())
    return 0


def cmd_add_square(args) -> int:
    c = add_square(_read_complex(args.file), Word.parse(args.relator))
    sys.stdout.write(c.render())
    return 0


def _write_dot(args, a: Analysis) -> None:
    if not getattr(args, "dot", None):
        return
    c = a.complex
    highlight_edges: set[tuple[int, int]] = set()
    highlight_vertices: set = set()
    if args.highlight == "poison":
        highlight_edges = {(e.square, e.corner) for e in a.poison}
    elif args.highlight in ("asc", "desc"):
        ws = _weights_for(c, getattr(args, "weights", None))
        asc, desc = a.morse_data(ws).links
        side = asc if args.highlight == "asc" else desc
        highlight_edges = {(e.square, e.corner) for e in side.edges}
        highlight_vertices = set(side.vertices)
    distinct = {sq.index for sq in c.squares if sq.origin == "added"}
    text = links.export_dot(a.link, highlight_vertices, highlight_edges, distinct)
    try:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.dot}: {exc}") from None


def cmd_link(args) -> int:
    a = Analysis(_read_complex(args.file))
    data = link_report(a.complex, a)
    _write_dot(args, a)
    return _emit(args, link_text(data), data)


def cmd_check(args) -> int:
    c = _read_complex(args.file)
    if args.what == "large":
        data = link_report(c)
        keep = {k: data[k] for k in ("vertices", "edges", "girth", "is_large", "violations")}
        girth = keep["girth"] if keep["girth"] is not None else "none (no cycles)"
        text = (f"link large: {'yes' if keep['is_large'] else 'no'} (girth {girth},"
                f" {len(keep['violations'])} violations)")
        return _emit(args, text, keep)
    if args.what == "poison":
        data = link_report(c)
        keep = {k: data[k] for k in ("poison", "convention")}
        return _emit(args, poison_text(keep), keep)
    data = flat_report(c, args.radius)
    return _emit(args, flat_text(data), data)


def cmd_morse(args) -> int:
    c = _read_complex(args.file)
    ws = _weights_for(c, args.weights)
    data = morse_report(c, ws)
    shown = " ".join(f"{g}={ws[g]}" for g in c.generators)
    return _emit(args, morse_text(data, shown), data)


def cmd_fiberings(args) -> int:
    c = _read_complex(args.file)
    data = fiberings_report(c, args.bound)
    return _emit(args, fiberings_text(data), data)


def cmd_verdict(args) -> int:
    c = _read_complex(args.file)
    data = verdict_report(c)
    return _emit(args, verdict_text(data), data)


def cmd_monodromy(args) -> int:
    c = _read_complex(args.file)
    ws = _weights_for(c, args.weights)
    data = monodromy_report(c, ws, args.conjugator)
    return _emit(args, monodromy_text(data), data)


def cmd_transition(args) -> int:
    c = _read_complex(args.file)
    ws = _weights_for(c, args.weights)
    data = transition_report(c, ws, args.conjugator)
    return _emit(args, transition_text(data), data)


def cmd_reducible(args) -> int:
    c = _read_complex(args.file)
    ws = _weights_for(c, args.weights)
    data = reducible_report(c, ws, args.conjugator)
    return _emit(args, reducible_text(data), data)


def cmd_analyze(args) -> int:
    c = _read_complex(args.file)
    a = Analysis(c)
    ws = _weights_for(c, args.weights)
    shown = " ".join(f"{g}={ws[g]}" for g in c.generators)
    data: dict = {"complex": complex_report(c)}
    texts = [complex_text(c)]

    data["link"] = link_report(c, a)
    texts.append(link_text(data["link"]))

    data["flat"] = flat_report(c, args.radius, a)
    texts.append(flat_text(data["flat"]))

    data["morse"] = morse_report(c, ws, a)
    texts.append(morse_text(data["morse"], shown))

    data["fibering"] = verdict_report(c, a)
    texts.append(verdict_text(data["fibering"]))

    section = data["morse"]
    unit = all(abs(w) == 1 for w in ws.values())
    if (section["admissible"] and unit and section["asc"] and section["asc"]["is_tree"]
            and section["desc"]["is_tree"] and section["fiber"]["connected"]):
        ctx = monodromy.MonodromyContext(c, ws, a)
        data["monodromy"] = {**basis_report(ctx), "convention": LOOP_CONVENTION}
        names = " ".join(loop.name for loop in ctx.basis)
        texts.append(f"fiber-loop basis: {names}")
    else:
        reason = ("weights are not all +-1" if not unit
                  else "needs admissible weights, tree links and a connected fiber")
        data["monodromy"] = {"skipped": reason}
        texts.append(f"monodromy basis: skipped ({reason})")

    _write_dot(args, a)
    return _emit(args, "\n\n".join(texts), data)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="logfiber", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit a complex in the file format")
    build_sub = p.add_subparsers(dest="what", required=True)
    lot = build_sub.add_parser("lot", help="labeled-oriented-tree family")
    lot.add_argument("--k", type=int, required=True)
    lot.add_argument("--stem", default="a")
    lot.set_defaults(func=cmd_build)
    named = build_sub.add_parser("named", help=f"one of: {', '.join(NAMED_COMPLEXES)}")
    named.add_argument("name")
    named.set_defaults(func=cmd_build, what="named")

    p = sub.add_parser("combine", help="wedge two complexes and attach a relator square")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--relator", required=True)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("add-square", help="attach one square to a complex")
    p.add_argument("file")
    p.add_argument("--relator", required=True)
    p.set_defaults(func=cmd_add_square)

    p = sub.add_parser("link", help="link of the vertex: counts, girth, poison corners")
    p.add_argument("file")
    p.add_argument("--dot", help="write the link as a DOT graph")
    p.add_argument("--highlight", choices=("asc", "desc", "poison"))
    p.add_argument("--weights")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("check", help="large / poison / flat checks")
    check_sub = p.add_subparsers(dest="what", required=True)
    for what in ("large", "poison"):
        q = check_sub.add_parser(what)
        q.add_argument("file")
        q.add_argument("--json", action="store_true")
        q.set_defaults(func=cmd_check)
    q = check_sub.add_parser("flat")
    q.add_argument("file")
    q.add_argument("--radius", type=int, default=3)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_check)

    p = sub.add_parser("morse", help="weight system analysis")
    p.add_argument("file")
    p.add_argument("--weights", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_morse)

    p = sub.add_parser("fiberings", help="scan the weight lattice")
    p.add_argument("file")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fiberings)

    p = sub.add_parser("verdict", help="does the complex fiber in infinitely many ways?")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verdict)

    p = sub.add_parser("monodromy", help="conjugation automorphism on the fiber loops")
    p.add_argument("file")
    p.add_argument("--weights")
    p.add_argument("--conjugator", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_monodromy)

    p = sub.add_parser("transition", help="transition matrix with PF classification")
    p.add_argument("file")
    p.add_argument("--weights")
    p.add_argument("--conjugator", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("reducible-witness", help="search invariant free-factor witnesses")
    p.add_argument("file")
    p.add_argument("--weights")
    p.add_argument("--conjugator", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reducible)

    p = sub.add_parser("analyze", help="full pipeline report")
    p.add_argument("file")
    p.add_argument("--weights")
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--dot")
    p.add_argument("--highlight", choices=("asc", "desc", "poison"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every `main` call in a process uses: building one costs
    milliseconds, it has no inputs, and parsing does not change it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AssertionError, RuntimeError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
