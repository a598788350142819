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
from collections.abc import Callable
from itertools import chain, compress, repeat
from operator import eq

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
# reports (dicts) and their texts; each report reads one `Analysis` and
# passes that `Analysis` itself to every library call, so it reads one complex


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


def large_report(a: Analysis) -> dict:
    largeness, link = a.largeness, a.link
    return {
        "vertices": len(link.vertices),
        "edges": len(link.ends),
        "girth": largeness.girth,
        "is_large": largeness.is_large,
        "violations": largeness.violations,
    }


def poison_report(a: Analysis) -> dict:
    return {"poison": links.poison_rows(a.link, a.poison), "convention": END_CONVENTION}


def link_report(a: Analysis) -> dict:
    return {**large_report(a), **poison_report(a)}


def _girth_text(data: dict) -> int | str:
    return data["girth"] if data["girth"] is not None else "none (no cycles)"


def link_text(data: dict) -> str:
    lines = [
        f"link: {data['vertices']} vertices, {data['edges']} edges,"
        f" girth {_girth_text(data)}, large: {'yes' if data['is_large'] else 'no'}"
    ]
    for v in data["violations"]:
        lines.append(f"  violation: {v['kind']} at corners {v['corners']} ({', '.join(v['vertices'])})")
    return "\n".join(lines + [poison_text(data)])


def large_text(data: dict) -> str:
    return (f"link large: {'yes' if data['is_large'] else 'no'} (girth {_girth_text(data)},"
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
    verdict = flatness.hyperbolicity_verdict(a, max_radius)
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
    report = a.admissibility(ws)
    data["admissible"] = report.admissible
    data["problems"] = report.problems
    if not report.admissible:
        data.update({"asc": None, "desc": None, "fiber": None, "chi": None, "rank": None,
                     "rank_blocked_by": "inadmissible weight system"})
        return data
    _, asc, desc, _ = a.orthant(ws)
    vertices, arcs, components = morse.fiber_counts(a, ws)
    for side, name in ((asc, "asc"), (desc, "desc")):
        data[name] = {
            "vertices": len(side.vertices),
            "edges": len(side.edges),
            "is_tree": side.is_tree,
            "components": side.components,
        }
    data["fiber"] = {"vertices": vertices, "edges": arcs, "connected": components == 1,
                     "components": components}
    data["chi"] = vertices - arcs
    failures = [condition for condition, _ in morse.fibration_failures((asc, desc), components)]
    data["rank"] = None if failures else 1 - data["chi"]
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
        "table": morse.fibering_scan(a, bound),
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
    data = morse.infinite_fibering_verdict(a)
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


def monodromy_report(a: Analysis, ws: morse.WeightSystem, conjugator: str) -> dict:
    auto = monodromy.conjugation_automorphism(conjugator, a, ws)
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
    lines.append(f"conjugation by {data['conjugator'] or '(empty)'} ({data['tag']}):")
    for loop in data["basis"]:
        name = loop["name"]
        lines.append(f"  {name} -> {data['images'][name]}")
    return "\n".join(lines)


def transition_report(a: Analysis, ws: morse.WeightSystem, conjugator: str) -> dict:
    tm = monodromy.transition_matrix(monodromy.conjugation_automorphism(conjugator, a, ws))
    return {
        "basis": tm.order,
        "matrix": [list(row) for row in tm.matrix],
        "irreducible": tm.irreducible,
        "primitive": tm.primitive,
        "witness_power": tm.witness_power,
    }


def transition_text(data: dict) -> str:
    lines = ["transition matrix M (letter counts of the images) over basis"
             f" {' '.join(data['basis'])}:"]
    for row in data["matrix"]:
        lines.append("  " + " ".join(f"{x:2d}" for x in row))
    lines.append("of M, the matrix of this representative on the rose of basis loops,"
                 " not of the automorphism:")
    lines.append(f"  irreducible: {'yes' if data['irreducible'] else 'no'}")
    if data["primitive"]:
        lines.append(f"  primitive: yes (M^{data['witness_power']} is entrywise positive)")
    else:
        lines.append("  primitive: no")
    return "\n".join(lines)


def reducible_report(a: Analysis, ws: morse.WeightSystem, conjugator: str) -> dict:
    auto = monodromy.conjugation_automorphism(conjugator, a, ws, for_witness_search=True)
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


_JSON_STRING = json.encoder.encode_basestring
_JSON_INT, _JSON_STR, _JSON_CONSTANT_KINDS = {int}, {str}, {bool, type(None)}
_JSON_SCALAR_KINDS = _JSON_INT | _JSON_STR | _JSON_CONSTANT_KINDS
_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}
_TABLE_BLOCK = 64  # rows of a table laid out, and written, at once


def _json_texts(column, level: int, kinds: set | None = None):
    """The texts of the values in ``column`` (the values at one depth), each
    nested ``level`` deep as ``json.dumps(value, indent=2, ensure_ascii=False)``
    lays it out; ``kinds``, if given, is the set of their types.

    - An exact int stands for its own text: ``%s`` of it is its JSON text;
      a list of them (a scan keeps bools out) joins the texts of a `_IntTexts`.
    - A str is encoded, and True, False and None are looked up.
    - Lists and tuples of one length, and dicts of one key tuple, fill their
      `_json_template` from one column of all their items or values, a
      level deeper; several dicts whose first one holds several kinds of
      values use one column per key instead.
    - A column of several kinds, lengths or key tuples is laid out in parts,
      merged back in column order.
    - The rest (floats, subclasses, keys that are not str) is the stdlib's.
    """
    kinds = set(map(type, column)) if kinds is None else kinds
    if kinds <= _JSON_INT:
        return column
    if kinds <= _JSON_STR:
        return list(map(_JSON_STRING, column))
    if kinds <= _JSON_CONSTANT_KINDS:
        return list(map(_JSON_CONSTANTS.__getitem__, column))
    kind = next(iter(kinds)) if len(kinds) == 1 else None
    shape = tuple if kind is dict else len if kind is list or kind is tuple else None
    shapes = list(map(shape or type, column))
    if len(set(shapes)) > 1:  # laid out in parts, one per kind, length or key tuple
        parts = {key: iter(_json_texts(list(compress(column, map(eq, shapes, repeat(key)))), level))
                 for key in dict.fromkeys(shapes)}
        return list(map(next, map(parts.__getitem__, shapes)))
    template = shape and _json_template(shapes[0], level)
    if template:
        rows = list(map(dict.values, column)) if kind is dict else column
        if kind is dict and len(rows) > 1 and len(set(map(type, rows[0]))) > 1:
            rows = zip(*map(_json_texts, zip(*rows), repeat(level + 1)))
        elif not (kinds := set(map(type, chain.from_iterable(rows)))) <= _JSON_INT:
            items = _json_texts(list(chain.from_iterable(rows)), level + 1, kinds)
            rows = zip(*[iter(items)] * len(rows[0]))
        elif kind is dict or not kinds:  # a dict's values, or no items
            rows = map(tuple, rows)
        else:
            text, inner = _IntTexts().__getitem__, "\n" + "  " * (level + 1)
            head, separator, tail = "[" + inner, "," + inner, inner[:-2] + "]"
            return [head + separator.join(map(text, row)) + tail for row in rows]
        return list(map(template.__mod__, rows))
    return [json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n" + "  " * level)
            for value in column]


class _IntTexts(dict):
    """Exact int -> its JSON text, made on its first lookup: one table per column."""

    def __missing__(self, value: int) -> str:
        self[value] = text = int.__repr__(value)
        return text


@functools.lru_cache(1024)
def _json_template(keys: tuple | int, level: int) -> str | None:
    """The text of a list of ``keys`` items, or of a dict with the keys
    ``keys``, nested ``level`` deep with ``%s`` for each value; None if a key
    is not a str (a str subclass encodes as its str)."""
    if type(keys) is int:
        head, tail, items = "[", "]", ["%s"] * keys
    else:
        try:
            head, tail, items = "{", "}", [_JSON_STRING(key).replace("%", "%%") + ": %s"
                                           for key in keys]
        except TypeError:
            return None
    inner = "\n" + "  " * (level + 1)
    return head + inner + ("," + inner).join(items) + inner[:-2] + tail if items else head + tail


def _write_json(data) -> None:
    """Write ``json.dumps(data, indent=2, ensure_ascii=False)`` and a newline."""
    _write_items(sys.stdout.write, data, 0, 2)
    sys.stdout.write("\n")


def _write_items(write: Callable[[str], object], value, level: int, stream: int, prefix="") -> None:
    """Write ``prefix`` and the JSON text of ``value`` nested ``level`` deep
    in pieces: a table (a list whose first item is a dict) `_TABLE_BLOCK` rows
    per write, a dict with str keys and a list or dict value item by item
    through ``stream`` levels, the rest at once."""
    inner = "\n" + "  " * (level + 1)
    if type(value) is list and value and type(value[0]) is dict:
        separator = prefix + "[" + inner
        for start in range(0, len(value), _TABLE_BLOCK):
            block = _json_texts(value[start:start + _TABLE_BLOCK], level + 1)
            write(separator + ("," + inner).join(map(str, block)))
            separator = "," + inner
        write(inner[:-2] + "]")
    elif (type(value) is dict and stream and not _JSON_SCALAR_KINDS.issuperset(
            map(type, value.values())) and _json_template(tuple(value), level)):
        separator = prefix + "{" + inner
        for key, item in value.items():
            _write_items(write, item, level + 1, stream - 1, separator + _JSON_STRING(key) + ": ")
            separator = "," + inner
        write(inner[:-2] + "}")
    else:
        write(prefix + str(_json_texts([value], level)[0]))


def cmd_build(args) -> int:
    """Write the complex that ``build``, ``combine`` or ``add-square`` makes."""
    if args.command == "combine":
        c = combine(_read_complex(args.file1), _read_complex(args.file2), Word.parse(args.relator))
    elif args.command == "add-square":
        c = add_square(_read_complex(args.file), Word.parse(args.relator))
    elif args.what == "lot":
        c = build_lot_family(args.k, args.stem)
    else:
        c = build_named(args.name)
    sys.stdout.write(c.render())
    return 0


def _weights(a: Analysis, args) -> morse.WeightSystem:
    """``--weights`` (unit weights without it), parsed once: it replaces the spec in ``args``."""
    if not isinstance(args.weights, dict):
        args.weights = (morse.unit_weights(a.complex) if args.weights is None
                        else morse.parse_weight_spec(args.weights, a.complex))
    return args.weights


def _with_text(data: dict, text: Callable[[dict], str]) -> tuple[dict, Callable[[], str]]:
    return data, functools.partial(text, data)


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
        ctx = monodromy.MonodromyContext(a, ws)
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
    vertices, edges = (), (a.poison if args.highlight == "poison" else ())
    if args.highlight in ("asc", "desc"):
        asc, desc = morse.directional_links(a, _weights(a, args))
        side = asc if args.highlight == "asc" else desc
        vertices, edges = side.vertices, side.edges
    distinct = {sq.index for sq in a.complex.squares if sq.origin == "added"}
    text = links.export_dot(a.link, set(vertices), set(edges), distinct)
    try:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.dot}: {exc}") from None


def _run_view(args) -> int:
    if getattr(args, "highlight", None) and not args.dot:
        raise InputError("--highlight needs --dot")
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
    ("check large", None, (), lambda a, args: _with_text(large_report(a), large_text)),
    ("check poison", None, (), lambda a, args: _with_text(poison_report(a), poison_text)),
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser every `main` call in a process uses: building one costs
    milliseconds, it has no inputs, and parsing does not change it."""
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
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("add-square", help="attach one square to a complex")
    p.add_argument("file")
    p.add_argument("--relator", required=True)
    p.set_defaults(func=cmd_build)

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


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
