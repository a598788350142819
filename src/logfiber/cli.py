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
import os
import sys
from itertools import repeat
from typing import Callable, Iterator

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
# reports (dicts) and their texts; each report reads one `Analysis`


def _read_complex(path: str) -> SquareComplex:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return parse_spec(text)


def complex_report(a: Analysis) -> dict:
    return {
        "generators": list(a.complex.generators),
        "squares": [
            {"id": sq.index, "boundary": str(sq.boundary), "origin": sq.origin}
            for sq in a.complex.squares
        ],
        "provenance": list(a.complex.provenance),
    }


def complex_text(c: SquareComplex) -> str:
    lines = [f"complex: {len(c.generators)} generators, {len(c.squares)} squares"]
    lines.append("  generators: " + " ".join(c.generators))
    for sq in c.squares:
        tag = "  [added]" if sq.origin == "added" else ""
        lines.append(f"  square {sq.index}: {sq.boundary}{tag}")
    return "\n".join(lines)


def link_report(a: Analysis) -> dict:
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


def large_text(data: dict) -> str:
    girth = data["girth"] if data["girth"] is not None else "none (no cycles)"
    return (f"link large: {'yes' if data['is_large'] else 'no'} (girth {girth},"
            f" {len(data['violations'])} violations)")


def poison_text(data: dict) -> str:
    lines = [f"poison corners: {len(data['poison'])}"]
    for p in data["poison"]:
        lines.append(
            f"  square {p['square']} corner {p['corner']}"
            f" ({p['endpoints'][0]} -- {p['endpoints'][1]})"
        )
    lines.append(f"  convention: {data['convention']}")
    return "\n".join(lines)


def flat_report(a: Analysis, max_radius: int) -> dict:
    verdict = flatness.hyperbolicity_verdict(a.complex, max_radius, a)
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


def morse_report(a: Analysis, ws: morse.WeightSystem) -> dict:
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
    failures = [condition for condition, _ in weights.fibration_failures()]
    data["rank"] = None if failures else 1 - fiber.chi
    data["rank_blocked_by"] = "; ".join(failures) if failures else None
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


def fiberings_report(a: Analysis, bound: int) -> dict:
    return {
        "lattice_rank": len(a.lattice),
        "basis": [dict(b) for b in a.lattice],
        "table": morse.fibering_scan(a.complex, bound, a),
    }


def fiberings_text(data: dict) -> str:
    lines = [f"weight lattice rank {data['lattice_rank']}; scanned {len(data['table'])} vectors"]
    for row in data["table"]:
        coords = ",".join(str(k) for k in row["coords"])
        rank = row["rank"] if row["rank"] is not None else "-"
        flags = ["admissible" if row["admissible"] else "inadmissible"]
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


def verdict_report(a: Analysis) -> dict:
    data = morse.infinite_fibering_verdict(a.complex, a)
    return {**data, "infinite_fibering": "YES" if data["infinite_fibering"] else "NO"}


def verdict_text(data: dict) -> str:
    line = f"infinite fibering: {data['infinite_fibering']} (lattice rank {data['lattice_rank']})"
    if data["orthant"]:
        line += f", witness orthant ({','.join(data['orthant'])})"
    if data.get("reason"):
        line += f" -- {data['reason']}"
    return line


def _basis(ctx: monodromy.MonodromyContext) -> dict:
    return {
        "basis": [
            {"square": loop.square, "name": loop.name, "rep": str(loop.rep)}
            for loop in ctx.basis
        ],
        "naming_map": {loop.name: loop.square for loop in ctx.basis},
    }


def _automorphism(a: Analysis, ws: morse.WeightSystem, t: str, **options) -> monodromy.Automorphism:
    """Conjugation by ``t`` over a context built from ``a``.  The conjugator
    is parsed after the context is built, so an unusable complex is
    reported before a malformed conjugator."""
    ctx = monodromy.MonodromyContext(a.complex, ws, a)
    return monodromy.conjugation_automorphism(t, a.complex, ws, context=ctx, **options)


def monodromy_report(a: Analysis, ws: morse.WeightSystem, conjugator: str) -> dict:
    auto = _automorphism(a, ws, conjugator)
    return {
        **_basis(auto.context),
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


def transition_report(a: Analysis, ws: morse.WeightSystem, conjugator: str) -> dict:
    tm = monodromy.transition_matrix(_automorphism(a, ws, conjugator))
    return {
        "basis": tm.order,
        "matrix": [list(row) for row in tm.matrix],
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


def reducible_report(a: Analysis, ws: morse.WeightSystem, conjugator: str) -> dict:
    auto = _automorphism(a, ws, conjugator, for_witness_search=True)
    witnesses = [
        {"subset": list(subset), "conjugator": str(word)}
        for subset, word in monodromy.invariant_factor_witnesses(auto)
    ]
    return {
        "basis": [loop.name for loop in auto.basis],
        "witness": witnesses[0] if witnesses else None,
        "witnesses": witnesses,
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


def _json_pieces(value, level: int, stream: int) -> Iterator[str]:
    """``json.dumps(value, indent=2, ensure_ascii=False)`` for `value` nested
    ``level`` deep, in pieces: one per item of the outer ``stream`` levels.
    A container of str, int, bool and None values goes to the C encoder with
    ``"," + newline + indentation`` as item separator (encoded strings hold
    no raw newline, so only its outer brackets need laying out).  Other
    lists, tuples and str-keyed dicts are joined here, scalar items inline;
    anything else (floats, subclasses, other keys) is the stdlib's text."""
    kind = type(value)
    if kind is list or kind is tuple:
        head, tail, keys, values = "[", "]", repeat(""), value
    elif kind is dict and _JSON_STR.issuperset(map(type, value)):
        head, tail, keys, values = "{", "}", map(_json_key, value), value.values()
    else:
        scalar = _JSON_SCALARS.get(kind)
        yield scalar(value) if scalar else json.dumps(
            value, indent=2, ensure_ascii=False).replace("\n", "\n" + "  " * level)
        return
    if not value:
        yield head + tail
        return
    inner = "\n" + "  " * (level + 1)
    if _JSON_FLAT.issuperset(map(type, values)):
        yield head + inner + "".join(_json_flat(level)(value, 0))[1:-1]
    else:
        separator = head + inner
        for key, item in zip(keys, values):
            scalar = _JSON_SCALARS.get(type(item))
            if scalar:
                yield separator + key + scalar(item)
            elif stream > 1:
                yield separator + key
                yield from _json_pieces(item, level + 1, stream - 1)
            else:
                yield separator + key + "".join(_json_pieces(item, level + 1, 0))
            separator = "," + inner
    yield "\n" + "  " * level + tail


_JSON_STRING = json.encoder.encode_basestring
_JSON_SCALARS = {str: _JSON_STRING, int: int.__repr__, bool: {True: "true", False: "false"}.get,
                 type(None): lambda _: "null"}
_JSON_STR, _JSON_FLAT = frozenset((str,)), frozenset(_JSON_SCALARS)
_json_key = functools.lru_cache(1024)(lambda key: _JSON_STRING(key) + ": ")  # `"key": `


@functools.cache
def _json_flat(level: int):
    """The C encoder for the items of a flat container nested ``level`` deep."""
    return json.encoder.c_make_encoder(
        None, None, _JSON_STRING, None, ": ", ",\n" + "  " * (level + 1), False, False, True)


def _write_json(data) -> None:
    """Write ``json.dumps(data, indent=2, ensure_ascii=False)`` and a
    newline to stdout, the items of the outer two levels one at a time."""
    if json.encoder.c_make_encoder is None:
        sys.stdout.write(json.dumps(data, indent=2, ensure_ascii=False))
    else:
        for piece in _json_pieces(data, 0, 2):
            sys.stdout.write(piece)
    sys.stdout.write("\n")


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


def _weights(a: Analysis, args) -> morse.WeightSystem:
    if args.weights is None:
        return morse.unit_weights(a.complex)
    return morse.parse_weight_spec(args.weights, a.complex)


def _with_text(data: dict, text: Callable[[dict], str]) -> tuple[dict, Callable[[], str]]:
    return data, functools.partial(text, data)


def _keep(data: dict, keys: tuple[str, ...]) -> dict:
    return {k: data[k] for k in keys}


def _morse_view(a: Analysis, args) -> tuple[dict, Callable[[], str]]:
    ws = _weights(a, args)
    data = morse_report(a, ws)
    return data, lambda: morse_text(data, " ".join(f"{g}={ws[g]}" for g in a.complex.generators))


def _analyze_view(a: Analysis, args) -> tuple[dict, Callable[[], str]]:
    ws = _weights(a, args)
    views = {"complex": (complex_report(a), functools.partial(complex_text, a.complex))}
    for key, command in (("link", "link"), ("flat", "check flat"), ("morse", "morse"),
                         ("fibering", "verdict")):
        views[key] = VIEWS[command](a, args)
    unit = all(abs(w) == 1 for w in ws.values())
    if unit and views["morse"][0]["rank"] is not None:
        ctx = monodromy.MonodromyContext(a.complex, ws, a)
        views["monodromy"] = ({**_basis(ctx), "convention": LOOP_CONVENTION}, lambda: (
            "fiber-loop basis: " + " ".join(loop.name for loop in ctx.basis)))
    else:
        reason = ("weights are not all +-1" if not unit
                  else "needs admissible weights, tree links and a connected fiber")
        views["monodromy"] = ({"skipped": reason}, lambda: f"monodromy basis: skipped ({reason})")
    data = {key: section for key, (section, _) in views.items()}
    return data, lambda: "\n\n".join(render() for _, render in views.values())


def _write_dot(args, a: Analysis) -> None:
    if not getattr(args, "dot", None):
        return
    highlight_edges: set[tuple[int, int]] = set()
    highlight_vertices: set = set()
    if args.highlight == "poison":
        highlight_edges = {(e.square, e.corner) for e in a.poison}
    elif args.highlight in ("asc", "desc"):
        asc, desc = a.morse_data(_weights(a, args)).links
        side = asc if args.highlight == "asc" else desc
        highlight_edges = {(e.square, e.corner) for e in side.edges}
        highlight_vertices = set(side.vertices)
    distinct = {sq.index for sq in a.complex.squares if sq.origin == "added"}
    text = links.export_dot(a.link, highlight_vertices, highlight_edges, distinct)
    try:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.dot}: {exc}") from None


def _run_view(args) -> int:
    a = Analysis(_read_complex(args.file))
    if getattr(args, "weights", None) is not None:
        _weights(a, args)  # a bad --weights is the first error, even where it is unused
    data, render = args.view(a, args)
    _write_dot(args, a)
    if args.json:
        _write_json(data)
    else:
        print(render())
    return 0


_DOT = ("--dot", {"help": "write the link as a DOT graph"})
_HIGHLIGHT = ("--highlight", {"choices": ("asc", "desc", "poison")})
_WEIGHTS = ("--weights", {})
_RADIUS = ("--radius", {"type": int, "default": 3})
_CONJUGATOR = ("--conjugator", {"required": True})

# (subcommand, help, options besides `file` and `--json`, view) of every
# subcommand that reads a complex, in listing order; a row without a view
# is a group of the subcommands named after it.  `_run_view` prints the
# data of view(analysis, args) = (data, render), or without --json render().
# A view calls its reports by their module names, so it runs whatever
# `cli.*_report` is bound to when it runs.
FILE_COMMANDS = (
    ("link", "link of the vertex: counts, girth, poison corners", (_DOT, _HIGHLIGHT, _WEIGHTS),
     lambda a, args: _with_text(link_report(a), link_text)),
    ("check", "large / poison / flat checks", (), None),
    ("check large", None, (), lambda a, args: _with_text(
        _keep(link_report(a), ("vertices", "edges", "girth", "is_large", "violations")),
        large_text)),
    ("check poison", None, (),
     lambda a, args: _with_text(_keep(link_report(a), ("poison", "convention")), poison_text)),
    ("check flat", None, (_RADIUS,),
     lambda a, args: _with_text(flat_report(a, args.radius), flat_text)),
    ("morse", "weight system analysis", (("--weights", {"required": True}),), _morse_view),
    ("fiberings", "scan the weight lattice", (("--bound", {"type": int, "required": True}),),
     lambda a, args: _with_text(fiberings_report(a, args.bound), fiberings_text)),
    ("verdict", "does the complex fiber in infinitely many ways?", (),
     lambda a, args: _with_text(verdict_report(a), verdict_text)),
    ("monodromy", "conjugation automorphism on the fiber loops", (_WEIGHTS, _CONJUGATOR),
     lambda a, args: _with_text(monodromy_report(a, _weights(a, args), args.conjugator),
                                monodromy_text)),
    ("transition", "transition matrix with PF classification", (_WEIGHTS, _CONJUGATOR),
     lambda a, args: _with_text(transition_report(a, _weights(a, args), args.conjugator),
                                transition_text)),
    ("reducible-witness", "search invariant free-factor witnesses", (_WEIGHTS, _CONJUGATOR),
     lambda a, args: _with_text(reducible_report(a, _weights(a, args), args.conjugator),
                                reducible_text)),
    ("analyze", "full pipeline report", (_WEIGHTS, _RADIUS, _DOT, _HIGHLIGHT), _analyze_view),
)
VIEWS = {command: view for command, _, _, view in FILE_COMMANDS if view is not None}


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

    groups = {}
    for command, help_text, options, view in FILE_COMMANDS:
        *group, name = command.split()
        owner = groups[group[0]] if group else sub
        # a subcommand given no help stays out of its group's listing
        p = owner.add_parser(name, **({"help": help_text} if help_text else {}))
        if view is None:
            groups[name] = p.add_subparsers(dest="what", required=True)
            continue
        p.add_argument("file")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=_run_view, view=view)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every `main` call in a process uses: building one costs
    milliseconds, it has no inputs, and parsing does not change it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # a reader that left early shows here, not at exit
        return status
    except BrokenPipeError:
        # send what is still buffered nowhere, so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AssertionError, RuntimeError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
