"""Reference implementations the tests compare the library against.

Each reads its value the slow, direct way: a union-find over any hashable
vertices, each square's corner heights sorted for their min and max, and a
link's triangles by probing every edge's ends for common neighbours.
"""

from typing import NamedTuple


def union_find(vertices, pairs) -> tuple[dict, bool]:
    """Join the two ends of every pair.  Returns each vertex's component
    root and whether no pair closed a cycle (the pairs form a forest)."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    acyclic = True
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra == rb:
            acyclic = False
        else:
            parent[ra] = rb
    return {v: find(v) for v in vertices}, acyclic


class CornerHeights(NamedTuple):
    square: int
    heights: tuple[int, int, int, int]  # relative to corner 0
    min_corner: int
    max_corner: int

    @property
    def span(self) -> int:
        return self.heights[self.max_corner] - self.heights[self.min_corner]


def corner_heights(sq, ws) -> CornerHeights:
    letters = sq.boundary.letters
    w = [s * ws[g] for g, s in letters]
    heights = (0, w[0], w[0] + w[1], w[0] + w[1] + w[2])
    low, second, third, high = sorted(heights)
    min_corner, max_corner = heights.index(low), heights.index(high)
    # admissibility puts min and max at unique, opposite corners
    assert low < second and third < high, sq
    assert (max_corner - min_corner) % 4 == 2, sq
    return CornerHeights(sq.index, heights, min_corner, max_corner)


def triangles(link) -> tuple[list, bool]:
    """`links._triangles` as it was before its disjoint-neighbour prefilter:
    every non-loop edge i = (a, b) probes the larger of its ends' neighbour
    dicts with the smaller for a common neighbour c, and keeps edges j on
    {b, c} and k on {c, a} with i < j < k.  The ``j < k`` filter is the known
    defect that the bench report hashes were recorded with.  Also returns
    whether any common neighbour was found."""
    near, edges = link.near, link.edges
    out, spanned = [], False
    for i, (a, b) in enumerate(link.ends):
        if a == b:
            continue
        found = []
        small, large = (near[a], near[b]) if len(near[a]) <= len(near[b]) else (near[b], near[a])
        for c in small:
            if c not in large:
                continue
            spanned = True
            for j in near[b][c]:
                for k in near[c][a]:
                    if i < min(j, k) and j < k:
                        found.append((min(j, k), max(j, k)))
        out.extend((edges[i], edges[j], edges[k]) for j, k in sorted(found))
    return out, spanned
