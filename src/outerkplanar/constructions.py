"""Graph constructions: clique-sum concatenation and the extremal families.

Concatenation glues two convex graphs along a hull edge: the second graph's
vertices are relabeled so that they occupy the arc outside the chosen hull
edge of the first graph, and the two hull edges are identified endpoint to
endpoint (lower index to lower index).  Because each input ends up on a
contiguous arc and the arcs meet only at the identified endpoints, no edge
of one input can interleave with an edge of the other, so every surviving
edge keeps exactly the crossing count it had in its source graph.

The chains are written down directly in one layout.  A chain of `blocks`
blocks of s + 2 vertices has n = blocks*s + 2 vertices, and block j is the
arc j*s, ..., (j+1)*s together with vertex n-1.  So every block contains
vertex n-1, and blocks j and j+1 share the edge ((j+1)*s, n-1), a hull
edge of both.  This is the chain that repeated concatenation onto the hull
edge (n-2, n-1) builds, so each edge is crossed exactly as often as in its
block and the chain's crossing counts are those of a single block.  The
families:

* ``kx_chain(x, blocks)``: complete graphs K_x in a chain (s = x - 2).
  For even x the middle diagonal of each block is the worst edge and is
  crossed ((x-2)/2)^2 times, so the chain is outer ((x-2)/2)^2-planar.
* ``kxx_alternating(x)``: complete bipartite K_{x,x} with the two classes
  interleaved around the polygon (vertex parity = class).  Its maximum
  crossing count is 2*floor((x-1)/2)*ceil((x-1)/2).
* ``kxx_chain(x, blocks)``: alternating K_{x,x} blocks in a chain
  (s = 2x - 2), colored by vertex parity; each shared hull edge is
  bichromatic, so the coloring is proper (and in fact alternating).

``outercopy`` produces the two-page doubling used by the counting
arguments: every edge stays inside the polygon and every diagonal gains a
twin drawn outside the hull, giving 2m - h edges total where h is the
number of hull edges present.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .geometry import (
    ConvexGraph,
    _normalize_edge,
    chord_length,
    crossing_counts,
)

__all__ = [
    "complete_graph",
    "cycle_graph",
    "concatenate",
    "kx_chain",
    "kxx_alternating",
    "kxx_chain",
    "OuterCopyGraph",
    "outercopy",
    "outercopy_crossing_counts",
]


def complete_graph(x: int) -> ConvexGraph:
    """K_x on x points in convex position."""
    if x < 2:
        raise ValueError("complete_graph needs x >= 2")
    return ConvexGraph(x, combinations(range(x), 2))


def cycle_graph(n: int) -> ConvexGraph:
    """The polygon itself: n hull edges, nothing else."""
    if n < 3:
        raise ValueError("cycle_graph needs n >= 3")
    return ConvexGraph(n, [(i, (i + 1) % n) for i in range(n)])


def _check_hull_edge(g: ConvexGraph, edge, which: str) -> tuple[int, int]:
    e = _normalize_edge(g.n, edge)
    if e not in g.edges:
        raise ValueError(f"{which} {e} is not an edge of the graph")
    if chord_length(g.n, e) != 0:
        raise ValueError(f"{which} {e} is not a hull edge")
    return e


def concatenate(g1: ConvexGraph, e1, g2: ConvexGraph, e2) -> ConvexGraph:
    """Glue g2 onto g1 by identifying hull edge e2 of g2 with e1 of g1.

    The result has g1.n + g2.n - 2 vertices and m1 + m2 - 1 edges (the
    identified edge is kept once).  Crossing counts of all surviving edges
    are unchanged; in particular the maximum crossing count of the result
    is the larger of the two inputs' maxima.  If both inputs are colored
    and g2's coloring, possibly flipped, agrees with g1's on the identified
    endpoints, the result carries the union coloring; otherwise none.
    """
    a, b = _check_hull_edge(g1, e1, "e1")
    p, q = _check_hull_edge(g2, e2, "e2")
    n1, n2 = g1.n, g2.n

    # Walk g2's other vertices from p to q on the side avoiding the edge
    # (p, q), and give them the labels of g1's gap between a and b.
    step = 1 if (p, q) == (0, n2 - 1) else -1
    interior = [(p + step * t) % n2 for t in range(1, n2 - 1)]
    if (a, b) == (0, n1 - 1):  # the wrap gap: g1 keeps its labels
        map1 = list(range(n1))
        interior.reverse()
        first = n1
    else:  # b == a + 1: g1's vertices above a move up past the walk
        map1 = [v if v <= a else v + n2 - 2 for v in range(n1)]
        first = a + 1
    map2 = [0] * n2
    map2[p], map2[q] = map1[a], map1[b]
    for label, v in enumerate(interior, first):
        map2[v] = label

    edges = [(map1[u], map1[v]) for u, v in g1.edges]
    edges += [(map2[u], map2[v]) for u, v in g2.edges]
    coloring = None
    if g1.coloring is not None and g2.coloring is not None:
        flip = g2.coloring[p] ^ g1.coloring[a]
        if g2.coloring[q] ^ flip == g1.coloring[b]:
            coloring = [0] * (n1 + n2 - 2)
            for v, c in enumerate(g1.coloring):
                coloring[map1[v]] = c
            for v, c in enumerate(g2.coloring):
                coloring[map2[v]] = c ^ flip
    return ConvexGraph(n1 + n2 - 2, edges, coloring)


def _chain_blocks(s: int, blocks: int) -> tuple[int, list[list[int]]]:
    """Vertex count and block vertex lists of a chain of (s+2)-vertex blocks."""
    n = blocks * s + 2
    return n, [[*range(j * s, (j + 1) * s + 1), n - 1] for j in range(blocks)]


def kx_chain(x: int, blocks: int) -> ConvexGraph:
    """Chain of `blocks` copies of K_x, consecutive copies sharing one hull edge.

    The result has blocks*(x-2) + 2 vertices and blocks*C(x,2) - (blocks-1)
    edges: every pair inside one block of the layout in the module
    docstring, with s = x - 2.
    """
    if x < 3:
        raise ValueError("kx_chain needs x >= 3")
    if blocks < 1:
        raise ValueError("kx_chain needs at least one block")
    n, arcs = _chain_blocks(x - 2, blocks)
    return ConvexGraph(n, (e for arc in arcs for e in combinations(arc, 2)))


def kxx_alternating(x: int) -> ConvexGraph:
    """K_{x,x} with the two classes alternating around the polygon.

    Vertex i belongs to class i mod 2 and all x^2 bichromatic pairs are
    edges.  The worst edge is crossed 2*floor((x-1)/2)*ceil((x-1)/2) times.
    """
    if x < 1:
        raise ValueError("kxx_alternating needs x >= 1")
    return kxx_chain(x, 1)


def kxx_chain(x: int, blocks: int) -> ConvexGraph:
    """Chain of `blocks` alternating K_{x,x}, consecutive copies sharing a hull edge.

    Every odd-sum pair inside one block of the layout in the module
    docstring, with s = 2x - 2, is an edge, and vertex i has class i mod 2,
    so the coloring is proper (and alternating).  The result has
    blocks*(2x-2) + 2 vertices and blocks*x^2 - (blocks-1) edges, and the
    same maximum crossing count as a single block.
    """
    if x < 1:
        raise ValueError("kxx_chain needs x >= 1")
    if blocks < 1:
        raise ValueError("kxx_chain needs at least one block")
    n, arcs = _chain_blocks(2 * x - 2, blocks)
    edges = ((u, v) for arc in arcs for u, v in combinations(arc, 2) if (u + v) % 2)
    return ConvexGraph(n, edges, coloring=[i % 2 for i in range(n)])


class OuterCopyGraph(NamedTuple):
    """Two-page multigraph: base edges inside the hull, diagonal copies outside.

    ``inside_edges`` is every edge of the base graph; ``outside_edges``
    holds one copy of each diagonal, drawn in the outer page.  Two inside
    edges cross iff their chords interleave, two outside edges cross iff
    their chords interleave, and an inside edge never crosses an outside
    one.  Edge multiplicity is therefore at most 2.
    """

    base: ConvexGraph
    inside_edges: tuple[tuple[int, int], ...]
    outside_edges: tuple[tuple[int, int], ...]

    @property
    def total_edges(self) -> int:
        return len(self.inside_edges) + len(self.outside_edges)

    def multiplicity(self, edge) -> int:
        e = _normalize_edge(self.base.n, edge)
        return (e in self.inside_edges) + (e in self.outside_edges)


def outercopy(g: ConvexGraph) -> OuterCopyGraph:
    """Double every diagonal of g into the outer page.

    The total edge count is 2m - h where h is the number of hull edges
    present in g, hence always at least 2m - n.
    """
    inside = tuple(g.sorted_edges())
    outside = tuple(e for e in inside if chord_length(g.n, e) > 0)
    return OuterCopyGraph(base=g, inside_edges=inside, outside_edges=outside)


def outercopy_crossing_counts(oc: OuterCopyGraph) -> dict:
    """Crossing counts keyed by ("in" | "out", edge).

    Same-page pairs cross iff their chords interleave; cross-page pairs
    never do, so each page is counted as a convex graph of its own.
    """
    n = oc.base.n
    counts = {}
    for page, page_edges in (("in", oc.inside_edges), ("out", oc.outside_edges)):
        for e, c in crossing_counts(ConvexGraph(n, page_edges)).items():
            counts[(page, e)] = c
    return counts
