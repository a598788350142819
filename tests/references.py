"""Reference implementations the tests compare the library against.

Each reads its value the slow, direct way: a union-find over any hashable
vertices, and each square's corner heights sorted for their min and max.
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
