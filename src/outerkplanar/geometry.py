"""Graphs on points in convex position, encoded purely combinatorially.

Vertices are the integers 0..n-1, read clockwise around a convex polygon.
Every edge is a straight chord, so whether two edges cross depends only on
the cyclic order of their four endpoints: {a, b} and {c, d} cross exactly
when one of c, d lies strictly between a and b along the circle and the
other does not.  No coordinates are ever computed.

Conventions used throughout the package:

* edges are stored as pairs (a, b) with a < b;
* the *length* of a chord is the number of vertices strictly between its
  endpoints on the smaller side, so hull edges are the chords of length 0
  and every other chord is a diagonal;
* a graph is outer k-planar when no edge is crossed more than k times;
* ``ConvexGraph`` alone checks n, edges and coloring, and the JSON loader
  applies the same rule through it: values must be ints, never truncated.

Per-edge crossing counts come from a counting identity rather than from
testing pairs.  For a chord (a, b) with a < b,

    crossings(a, b) = sum_{a<v<b} deg(v) - 2 I(a, b) - E(a, b)

where I(a, b) counts the edges (c, d) with a < c < d < b and E(a, b) the
edges joining a vertex strictly inside (a, b) to a or to b: the degree sum
counts every edge with an endpoint inside once per such endpoint, and only
the edges with exactly one endpoint inside and the other outside [a, b]
cross.  The degree sum is a prefix-sum difference.  One walk visits the
edges in decreasing (a, b) order, reading each vertex's upper neighbours
off its ascending neighbour list: a Fenwick tree over the right endpoints
already walked gives I, and E is read off the walk (b's rank among a's
upper neighbours, plus a counter per b of the edges (a', b) walked so
far), with no bisection or lookup per edge.  The whole count costs
O((n + m) log n) time and O(n + m) memory.  Which pairs cross is told by
``chords_cross`` for one pair and ``_crossing_pairs`` for all chords on n points.

The degeneracy helpers at the bottom exist because several of the density
arguments elsewhere in the package reduce to "every induced subgraph has a
low-degree vertex".
"""

from __future__ import annotations

import json
import operator
from bisect import bisect_right
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import accumulate, combinations

__all__ = [
    "ConvexGraph",
    "chord_length",
    "chords_cross",
    "crossing_counts",
    "max_crossing",
    "is_outer_k_planar",
    "degeneracy_order",
    "greedy_color",
    "bipartition",
    "is_bipartite",
    "to_json_dict",
    "graph_to_json",
    "graph_from_json",
]

_PAIR_TYPES = (list, tuple)  # an edge, or a coloring


def _normalize_edge(n: int, edge) -> tuple[int, int]:
    """Return edge as (a, b) with 0 <= a < b < n.

    An edge is a list or tuple of two ints (``type(x) is int``, so bool,
    float, str and numpy scalars are refused), checked in the order pair,
    integer, loop, range.  A tuple already in that form is returned
    itself, so graphs built from shared edge tuples (the search's
    candidates) share them.
    """
    if type(edge) is tuple and len(edge) == 2:
        a, b = edge
        if type(a) is int and type(b) is int and 0 <= a < b < n:
            return edge
    if not isinstance(edge, _PAIR_TYPES) or len(edge) != 2:
        raise ValueError(f"edge entry {edge!r} is not a pair")
    a, b = edge
    if type(a) is not int or type(b) is not int:
        raise ValueError(f"edge entry {edge!r} has an endpoint that is not an integer")
    if a < b:
        if 0 <= a and b < n:
            return (a, b)
    elif b < a:
        if 0 <= b and a < n:
            return (b, a)
    else:
        raise ValueError(f"loop edge ({a}, {b}) is not allowed")
    raise ValueError(f"edge ({a}, {b}) has an endpoint outside 0..{n - 1}")


def chord_length(n: int, edge) -> int:
    """Number of vertices strictly between the endpoints, on the smaller side.

    The two endpoints split the remaining n-2 vertices into arcs of sizes
    g-1 and n-g-1 where g is the index gap; the length is the smaller of
    the two, so it ranges from 0 (hull edge) to floor((n-2)/2).
    """
    a, b = _normalize_edge(n, edge)
    gap = b - a
    return min(gap - 1, n - gap - 1)


def chords_cross(n: int, e1, e2) -> bool:
    """True iff the two chords cross in the convex drawing.

    Chords sharing an endpoint never cross.  Otherwise the endpoints of e2
    must strictly interleave with those of e1 around the circle, which for
    normalized pairs (a, b) and (c, d) means exactly one of c, d falls in
    the open interval (a, b).
    """
    a, b = _normalize_edge(n, e1)
    c, d = _normalize_edge(n, e2)
    if a in (c, d) or b in (c, d):
        return False
    return (a < c < b) != (a < d < b)


def _crossing_pairs(n: int):
    """Every crossing pair of chords on n points, once each: of the three
    pairings of a 4-subset a < b < c < d, only (a, c) and (b, d) cross."""
    return (((a, c), (b, d)) for a, b, c, d in combinations(range(n), 4))


class ConvexGraph:
    """Immutable graph on n points in convex position.

    Parameters
    ----------
    n : int
        Vertex count, at least 2.
    edges : iterable of pairs
        Chords, each a list or tuple of two ints (see ``_normalize_edge``);
        stored normalized and deduplicated.
    coloring : list or tuple of ints in {0, 1}, optional
        A two-sided vertex coloring (used by the bipartite constructions
        and searches).  Attaching a coloring does not by itself assert
        that every edge is bichromatic; callers that claim bipartiteness
        check that separately.
    """

    __slots__ = ("n", "edges", "coloring", "_nbrs")

    def __init__(self, n: int, edges=(), coloring=None):
        if type(n) is not int:
            raise ValueError("'n' must be an integer")
        if n < 2:
            raise ValueError("a convex graph needs at least 2 vertices")
        normalized = frozenset(map(partial(_normalize_edge, n), edges))
        if coloring is not None:
            if not isinstance(coloring, _PAIR_TYPES) or any(type(c) is not int for c in coloring):
                raise ValueError("'coloring' must be a list of integers")
            coloring = tuple(coloring)
            if len(coloring) != n:
                raise ValueError("coloring length must equal the vertex count")
            if any(c not in (0, 1) for c in coloring):
                raise ValueError("coloring values must be 0 or 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", normalized)
        object.__setattr__(self, "coloring", coloring)
        object.__setattr__(self, "_nbrs", None)

    def __setattr__(self, name, value):
        raise AttributeError("ConvexGraph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def _neighbours(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours in ascending order, built on first use
        and shared by the functions below that only read the graph."""
        if self._nbrs is None:
            nbrs: list[list[int]] = [[] for _ in range(self.n)]
            for a, b in self.edges:
                nbrs[a].append(b)
                nbrs[b].append(a)
            for nb in nbrs:
                nb.sort()
            object.__setattr__(self, "_nbrs", tuple(map(tuple, nbrs)))
        return self._nbrs

    def with_coloring(self, coloring) -> "ConvexGraph":
        return ConvexGraph(self.n, self.edges, coloring)

    def __eq__(self, other):
        if not isinstance(other, ConvexGraph):
            return NotImplemented
        return (self.n, self.edges, self.coloring) == (other.n, other.edges, other.coloring)

    def __hash__(self):
        return hash((self.n, self.edges, self.coloring))

    def __reduce__(self):  # through __init__: unpickling slots by setattr would raise
        return ConvexGraph, (self.n, self.edges, self.coloring)

    def __repr__(self):
        extra = ", colored" if self.coloring is not None else ""
        return f"ConvexGraph(n={self.n}, m={self.m}{extra})"


def crossing_counts(g: ConvexGraph) -> dict[tuple[int, int], int]:
    """Per-edge crossing counts under the convex drawing, keyed in sorted order.

    Uses crossings(a, b) = sum_{a<v<b} deg(v) - 2 I(a, b) - E(a, b) (see the
    module docstring) in one walk over the edges (a, b) in decreasing order,
    read off the neighbour lists, so no edge is looked up or bisected; the
    walk reversed is the sorted-edge order of the keys.  O((n + m) log n)
    time, O(n + m) memory.
    """
    n = g.n
    nbrs = g._neighbours()  # ascending
    prefix = [0, *accumulate(map(len, nbrs))]  # prefix[v] = sum of deg(u), u < v
    # The Fenwick tree holds the right endpoints of the edges already walked,
    # all of whose left endpoints exceed a, so the ones below b are exactly
    # the edges nested inside (a, b): that is I(a, b).  Of E(a, b), a's
    # neighbours inside are the j upper neighbours before b, and b's are
    # the later[b] edges (a', b) already walked, since a < a' < b for them.
    tree = [0] * (n + 1)
    later = [0] * n
    keys = []
    values = []
    for a in range(n - 1, -1, -1):
        na = nbrs[a]
        upper = na[bisect_right(na, a):]
        base = prefix[a + 1]
        j = len(upper)
        for b in reversed(upper):
            j -= 1
            i, inside = b, 0
            while i:
                inside += tree[i]
                i &= i - 1
            seen = later[b]
            later[b] = seen + 1
            keys.append((a, b))
            values.append(prefix[b] - base - 2 * inside - j - seen)
        for b in upper:
            i = b + 1
            while i <= n:
                tree[i] += 1
                i += i & -i
    keys.reverse()
    values.reverse()
    return dict(zip(keys, values))


def max_crossing(g: ConvexGraph) -> int:
    counts = crossing_counts(g)
    return max(counts.values(), default=0)


def is_outer_k_planar(g: ConvexGraph, k: int) -> bool:
    """True iff every edge is crossed at most k times."""
    if operator.index(k) < 0:
        raise ValueError("k must be non-negative")
    return max_crossing(g) <= k


def degeneracy_order(g: ConvexGraph) -> tuple[list[int], int]:
    """Repeated minimum-degree removal, ties broken by smallest index.

    A heap of int keys d*n + v for vertex v at degree d, which order as the
    pairs (d, v) do since 0 <= v < n.  key[v] is v's current key, or -1 once
    v is removed; degrees only fall, so a popped key that is not key[v] is
    stale and skipped.  O(m log n).

    Returns
    -------
    order : list of int
        Vertices in removal order.
    degeneracy : int
        The largest degree observed at removal time.
    """
    adj = g._neighbours()
    n = len(adj)
    key = [len(nb) * n + v for v, nb in enumerate(adj)]
    heap = key[:]
    heapify(heap)
    order = []
    degeneracy = 0
    while heap:
        x = heappop(heap)
        v = x % n
        if key[v] != x:
            continue
        key[v] = -1
        order.append(v)
        if x // n > degeneracy:
            degeneracy = x // n
        for u in adj[v]:
            k = key[u]
            if k >= 0:
                k -= n
                key[u] = k
                heappush(heap, k)
    return order, degeneracy


def greedy_color(g: ConvexGraph, order: list[int] | None = None) -> tuple[dict[int, int], int]:
    """Greedy coloring along the reverse degeneracy order.

    Each vertex gets the smallest color absent from its already-colored
    neighbors, so the color count never exceeds degeneracy + 1.  A caller
    that already holds ``degeneracy_order(g)[0]`` may pass it as ``order``,
    which must be a permutation of 0..n-1 (ValueError otherwise).  The
    colors taken around a vertex are one int mask; its lowest clear bit is
    the vertex's color.
    """
    adj = g._neighbours()
    if order is None:
        order, _ = degeneracy_order(g)
    elif len(order) != len(adj) or set(order) != set(range(len(adj))):
        raise ValueError("order must be a permutation of the vertices 0..n-1")
    color = [-1] * len(adj)  # -1 until colored
    colors: dict[int, int] = {}
    for v in reversed(order):
        used = 0
        for u in adj[v]:
            c = color[u]
            if c >= 0:
                used |= 1 << c
        color[v] = colors[v] = (~used & (used + 1)).bit_length() - 1
    return colors, max(color) + 1


def bipartition(g: ConvexGraph):
    """A proper 2-coloring of g found by depth-first search, or None if none
    exists.

    Each component's smallest vertex gets side 0, which fixes the colouring
    of a bipartite component, so the result does not depend on the order in
    which the search visits vertices.
    """
    adj = g._neighbours()
    side = [-1] * g.n
    for start in range(g.n):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in adj[v]:
                if side[u] == -1:
                    side[u] = 1 - side[v]
                    queue.append(u)
                elif side[u] == side[v]:
                    return None
    return tuple(side)


def is_bipartite(g: ConvexGraph) -> bool:
    return bipartition(g) is not None


# ---------------------------------------------------------------------------
# JSON interchange format
#
# {"n": <int>, "edges": [[a, b], ...], "coloring": [0, 1, ...]}
#
# Edges are serialized with a < b and sorted lexicographically; "coloring"
# is optional.  This is the format consumed and produced by the CLI.  The
# loader checks the document's shape; ConvexGraph checks its values.
# ---------------------------------------------------------------------------


def to_json_dict(g: ConvexGraph) -> dict:
    doc: dict = {"n": g.n, "edges": [[a, b] for a, b in g.sorted_edges()]}
    if g.coloring is not None:
        doc["coloring"] = list(g.coloring)
    return doc


def graph_to_json(g: ConvexGraph) -> str:
    return json.dumps(to_json_dict(g))


def graph_from_json(text: str) -> ConvexGraph:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("graph document must be a JSON object")
    if "n" not in doc:
        raise ValueError("graph document is missing 'n'")
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise ValueError("'edges' must be a list of pairs")
    unknown = set(doc) - {"n", "edges", "coloring"}
    if unknown:
        raise ValueError(f"unknown graph fields: {sorted(unknown)}")
    return ConvexGraph(doc["n"], edges, doc.get("coloring"))
