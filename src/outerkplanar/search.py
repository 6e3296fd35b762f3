"""Exact maximum edge counts on few convex points, by branch and bound.

The optimization problem: among graphs on n points in convex position
whose every edge is crossed at most k times, how many edges can there be?
Four modes are supported.  "general" has no further constraint; the three
bipartite modes additionally require every edge to be bichromatic under a
two-coloring that is respectively fixed alternating (vertex parity),
consecutive (the two color classes are contiguous arcs, with the split
point part of the search), or free (all two-colorings, iterated up to
rotation, reflection, and color swap).

The solver enumerates candidate chords in a fixed order (increasing chord
length, then lexicographic) and branches include/exclude on the first
still-addable candidate.  Feasibility is monotone (an edge that cannot be
added now can never be added later), so each node derives its addable
set from its parent's with a few bitset operations.  Each node gets its
state as arguments: the bitset of addable candidates and, per cost c,
the bitset of those that cross exactly c included edges, bitsets of the
included and of the saturated edges (those crossed k times), the
crossing headroom left on included edges, and the number of edges
included.  Pruning uses ``_node_bound``, an admissible optimistic bound
over that state, which ``upper_prune`` exposes for a given partial
graph.  One dominance rule skips branches: once the include branch of a
chord that crosses no candidate has been searched, its exclude branch is
not, because adding that chord to any graph of the exclude branch keeps
it feasible and gains an edge.  Hull edges cross nothing, so
in general mode every searched graph contains the first candidate, the
hull edge (0, 1), which also leaves no rotation of the first edge to try.

Everything is deterministic: the incumbent only updates on strict
improvement, so repeated runs return byte-identical results, including
the witness.  The incumbent is the bitset of included candidates, decoded
to edges once, for the result.  What a search reads that does not depend
on k (each coloring's candidate order and crossing bitsets, the
bipartite_free colorings) and the closed-form bound are memoized, so a
loop over k at one n builds them once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

from .bounds import _BOUNDS, DEFAULT_K_MIN
from .errors import BudgetExceededError
from .geometry import (
    ConvexGraph,
    _normalize_edge,
    bipartition,
    chord_length,
    is_outer_k_planar,
)

__all__ = [
    "MAX_SEARCH_N",
    "SEARCH_MODES",
    "SearchResult",
    "max_edges",
    "upper_prune",
    "canonical_form",
]

MAX_SEARCH_N = 12


@dataclass(frozen=True)
class SearchResult:
    max_edges: int
    witness: ConvexGraph
    nodes_explored: int
    proven_optimal: bool
    settings: dict


def canonical_form(g: ConvexGraph) -> tuple[tuple[int, int], ...]:
    """Lexicographically least edge list over all 2n dihedral relabelings."""
    n = g.n
    edges = g.sorted_edges()
    best = None
    for sign in (1, -1):
        for t in range(n):
            relabeled = sorted(
                tuple(sorted(((sign * a + t) % n, (sign * b + t) % n)))
                for a, b in edges
            )
            if best is None or relabeled < best:
                best = relabeled
    return tuple(best) if best is not None else ()


@functools.cache
def _static_upper(n: int, k: int, bipartite: bool) -> int:
    """Floor of the smallest unconditionally valid closed-form upper bound.

    The bounds are the upper rows of the bound table that ``bound_report``
    marks ``valid: yes`` (so never a conditional value): the general rows,
    and in a bipartite search the bipartite rows as well.  They are read
    from the table directly, because building whole reports would add a
    noticeable share to the smallest searches.  Rows are evaluated in
    their weaker stated form (``strict_statement``), which keeps pruning
    sound under either bipartite small-k constant.
    """
    vals = [float(math.comb(n, 2))]
    for row in _BOUNDS:
        if row.kind == "upper" and (bipartite or row.family == "general"):
            value, valid = row.at(n, k, DEFAULT_K_MIN, stated=True)
            if valid == "yes":
                vals.append(value)
    return math.floor(min(vals))


def _candidate_list(n: int, coloring) -> list[tuple[int, int]]:
    cands = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if coloring is None or coloring[a] != coloring[b]
    ]
    cands.sort(key=lambda e: (chord_length(n, e), e))
    return cands


def _cross_table(n: int, cands) -> list[int]:
    """Bitmask per candidate of the candidates it crosses.

    Of the three pairings of a 4-subset a < b < c < d only (a, c), (b, d)
    crosses, so the table costs C(n, 4) lookups instead of m^2 tests.
    """
    index = {e: i for i, e in enumerate(cands)}
    cross = [0] * len(cands)
    for a, b, c, d in combinations(range(n), 4):
        i = index.get((a, c))
        j = index.get((b, d))
        if i is not None and j is not None:
            cross[i] |= 1 << j
            cross[j] |= 1 << i
    return cross


@functools.cache
def _tables(n: int, coloring) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The candidate chords of one coloring (None = all) and their crossing
    bitsets, built once per (n, coloring) and shared by every search on it.

    Both are tuples, so no caller can change what the next one reads.  The
    cache keeps one entry per (n, coloring) searched, all at n <= 12, and
    one per n that ``upper_prune`` was asked about.
    """
    cands = _candidate_list(n, coloring)
    return tuple(cands), tuple(_cross_table(n, cands))


def _node_bound(m_inc: int, n_feas: int, per_cost, cap: int, static_ub: int) -> int:
    """The search's pruning bound at one node; no completion can beat it.

    The node has ``m_inc`` edges included, ``n_feas`` candidates still
    individually addable of which ``per_cost[c]`` cross exactly c included
    edges (read only for emptiness, so a count or a bitset of those
    candidates will do), and ``cap`` crossing headroom (the sum of k minus
    the crossing count over the included edges).  The bound is the least of
    ``m_inc + n_feas``, the closed-form ``static_ub``, and, when the
    cheapest addable candidate crosses c_min > 0 included edges,
    ``m_inc + cap // c_min``: every edge a completion adds takes at least
    c_min of the ``cap`` crossings the included edges have left.
    """
    ub = m_inc + n_feas
    if static_ub < ub:
        ub = static_ub
    if n_feas and not per_cost[0]:
        c_min = 1
        while not per_cost[c_min]:
            c_min += 1
        if m_inc + cap // c_min < ub:
            ub = m_inc + cap // c_min
    return ub


def upper_prune(n: int, k: int, state, remaining, *, bipartite: bool = False) -> int:
    """The search's pruning bound at the node that has chosen ``state``.

    ``state`` holds the edges already chosen (must itself be outer
    k-planar) and ``remaining`` the undecided candidates.  The node state
    is built the way the search keeps it, on the general candidate list
    and its crossing bitsets, and ``_node_bound`` is evaluated on it; see
    there for the three quantities.  ``bipartite`` selects the closed-form
    bounds of a bipartite search.  The bound never undercuts the best
    completion of ``state`` by edges of ``remaining``.  The first call at
    a given n builds that n's C(n, 4) crossing table in ``_tables``, which
    keeps it for the life of the process.
    """
    cands, cross = _tables(n, None)
    index = {e: i for i, e in enumerate(cands)}
    state_bits = [index[e] for e in {_normalize_edge(n, e) for e in state}]
    included = sum(1 << i for i in state_bits)
    sat = 0
    cap = 0
    for i in state_bits:
        count = (cross[i] & included).bit_count()
        if count > k:
            raise ValueError("state is not outer k-planar")
        if count == k:
            sat |= 1 << i
        cap += k - count
    feas = 0
    layers = [0] * (min(k, len(state_bits)) + 1)  # a cost never exceeds k or |state|
    for f in {_normalize_edge(n, e) for e in remaining}:
        i = index[f]
        if included >> i & 1 or cross[i] & sat:
            continue
        cost = (cross[i] & included).bit_count()
        if cost <= k:
            feas |= 1 << i
            layers[cost] |= 1 << i
    return _node_bound(len(state_bits), feas.bit_count(), layers, cap,
                       _static_upper(n, k, bipartite))


class _Incumbent:
    """Node count and the best graph so far, of ``best`` edges: the
    ``best_bits`` bitset over the candidates of ``best_coloring``, or the
    ``warm`` start (``best_bits`` None) until the search strictly beats it."""

    __slots__ = ("nodes", "budget", "best", "best_bits", "best_coloring", "warm")

    def __init__(self, budget, warm: ConvexGraph | None):
        self.nodes = 0
        self.budget = budget
        self.best = -1 if warm is None else warm.m
        self.best_bits: int | None = None
        self.best_coloring = None if warm is None else warm.coloring
        self.warm = warm

    def witness(self, n: int) -> ConvexGraph:
        if self.best_bits is None:
            return self.warm
        cands = _tables(n, self.best_coloring)[0]
        return ConvexGraph(n, [e for i, e in enumerate(cands) if self.best_bits >> i & 1],
                           self.best_coloring)


def _solve(inc: _Incumbent, n: int, k: int, coloring, static_ub: int) -> None:
    """Branch and bound over one fixed coloring (None = unconstrained)."""
    cands, cross = _tables(n, coloring)
    m_cand = len(cands)

    n_costs = min(k, m_cand) + 1  # a candidate's cost never exceeds k or m_inc

    def dfs(feas, layers, included, sat, cap, m_inc):
        # feas is the bitset of addable candidates and layers[c] the
        # bitset of those that cross exactly c included edges.  A call
        # owns the layers it is given: its caller never reads them again.
        inc.nodes += 1
        if m_inc > inc.best:
            inc.best = m_inc
            inc.best_bits = included
            inc.best_coloring = coloring
        if inc.budget is not None and inc.nodes > inc.budget:
            raise BudgetExceededError("search node budget exceeded")
        if not feas:
            return
        if _node_bound(m_inc, feas.bit_count(), layers, cap, static_ub) <= inc.best:
            return
        # branch on the first addable candidate in candidate order
        bit0 = feas & -feas
        i0 = bit0.bit_length() - 1
        x0 = cross[i0]
        t = x0 & included
        c0 = t.bit_count()
        # include branch: drop i0, the candidates it would push past k
        # crossings (the top layer's that cross it: layers[-1] is
        # layers[k], or empty when k >= m_cand) and those that cross a
        # newly saturated edge, i0 or an included edge it crosses
        new_included = included | bit0
        new_sat = sat | bit0 if c0 == k else sat
        drop = bit0 | (x0 if c0 == k else layers[-1] & x0)
        while t:
            low = t & -t
            x = cross[low.bit_length() - 1]
            if (x & new_included).bit_count() == k:
                new_sat |= low
                drop |= x
            t ^= low
        new_feas = feas & ~drop
        # the others that cross i0 move up one layer
        stay = new_feas & ~x0
        move = new_feas & x0
        new_layers = []
        below = 0
        for layer in layers:
            new_layers.append(layer & stay | below & move)
            below = layer
        dfs(new_feas, new_layers, new_included, new_sat, cap + k - 2 * c0, m_inc + 1)
        if not x0:
            # Dominance: i0 crosses no candidate, so adding it to any
            # completion of the exclude branch stays feasible and gains
            # an edge; the include branch just searched holds a
            # strictly better graph, and the incumbent already has it.
            return
        # exclude branch
        layers[c0] ^= bit0
        dfs(feas ^ bit0, layers, included, sat, cap, m_inc)

    every = (1 << m_cand) - 1
    dfs(every, [every] + [0] * (n_costs - 1), 0, 0, 0, 0)


@functools.cache
def _canonical_colorings(n: int) -> tuple[tuple[int, ...], ...]:
    """All 2-colorings with vertex 0 on side 0, one per dihedral/swap orbit.

    Vertex i > 0 takes bit i - 1 of the loop counter, and a coloring is
    kept when, read as a tuple, it is the least of its orbit.  The orbit
    is tested on n-bit ints whose most significant bit is vertex 0, so
    that integer order is tuple order: the images are the rotations of
    the coloring and of its reversal (the reflections), and their
    complements (the color swap).
    """
    mask = (1 << n) - 1
    reps = []
    for bits in range(1 << (n - 1)):
        value = int(format(bits, f"0{n - 1}b")[::-1], 2)  # vertex i at bit n-1-i
        mirrored = int(format(value, f"0{n}b")[::-1], 2)
        images = (((word << t) | (word >> (n - t))) & mask
                  for word in (value, mirrored) for t in range(n))
        if all(value <= img and value <= img ^ mask for img in images):
            reps.append(tuple((value >> (n - 1 - i)) & 1 for i in range(n)))
    return tuple(reps)


# mode -> the colorings its search runs over at n (None: no coloring)
_MODE_COLORINGS = {
    "general": lambda n: [None],
    "bipartite_free": _canonical_colorings,
    "bipartite_alternating": lambda n: [tuple(i % 2 for i in range(n))],
    "bipartite_consecutive": lambda n: [(0,) * t + (1,) * (n - t)
                                        for t in range(1, n // 2 + 1)],
}
SEARCH_MODES = tuple(_MODE_COLORINGS)


def _validate_warm_start(warm: ConvexGraph, n: int, k: int, mode: str) -> ConvexGraph:
    if warm.n != n:
        raise ValueError(f"warm start has n={warm.n}, search wants n={n}")
    if not is_outer_k_planar(warm, k):
        raise ValueError("warm start is not outer k-planar for this k")
    if mode == "general":
        return warm
    if mode == "bipartite_alternating":
        if any((a + b) % 2 == 0 for a, b in warm.edges):
            raise ValueError("warm start has an edge inside a parity class")
        return warm.with_coloring([i % 2 for i in range(n)])
    if mode == "bipartite_consecutive":
        # Accept any rotation of a two-arc coloring: the anchored search
        # reaches the same maximum, so the edge count is a valid seed.
        for t in range(1, n):
            for s in range(n):
                coloring = tuple(0 if (i - s) % n < t else 1 for i in range(n))
                if all(coloring[a] != coloring[b] for a, b in warm.edges):
                    return warm.with_coloring(coloring)
        raise ValueError("warm start fits no consecutive two-coloring")
    if warm.coloring and all(warm.coloring[a] != warm.coloring[b] for a, b in warm.edges):
        return warm
    side = bipartition(warm)
    if side is None:
        raise ValueError("warm start is not bipartite")
    return warm.with_coloring(side)


def max_edges(n: int, k: int, mode: str = "general", *,
              node_budget: int | None = None,
              warm_start: ConvexGraph | None = None) -> SearchResult:
    """Exact maximum edge count over the mode's graphs on n convex points.

    Accepts 2 <= n <= 12 (``MAX_SEARCH_N``), but not every accepted cell is
    proven in reasonable time.  Of the cells with k <= 6, these stay
    unproven within 3M nodes: general (10,4-6), (11,3-6) and (12,2-6),
    bipartite_free (12,3-6) and bipartite_consecutive (12,5-6); every
    bipartite_alternating cell proves.  Raises BudgetExceededError (with the
    best incumbent attached as ``result``) if ``node_budget`` search nodes
    are exhausted first; otherwise the result is proven optimal.
    """
    n, k = int(n), int(k)
    if not 2 <= n <= MAX_SEARCH_N:
        raise ValueError(f"search supports 2 <= n <= {MAX_SEARCH_N} (got n={n})")
    if k < 0:
        raise ValueError("k must be non-negative")
    if mode not in _MODE_COLORINGS:
        raise ValueError(f"unknown mode {mode!r}; choose one of {SEARCH_MODES}")
    colorings = _MODE_COLORINGS[mode](n)
    if mode == "bipartite_alternating" and n % 2:
        raise ValueError("alternating mode needs even n")
    settings = {"n": n, "k": k, "mode": mode}
    bipartite = mode != "general"
    static_ub = _static_upper(n, k, bipartite)
    inc = _Incumbent(node_budget, None if warm_start is None
                     else _validate_warm_start(warm_start, n, k, mode))
    exceeded = None
    try:
        for coloring in colorings:
            _solve(inc, n, k, coloring, static_ub)
    except BudgetExceededError as exc:
        exceeded = exc
    result = SearchResult(
        max_edges=inc.best,
        witness=inc.witness(n),
        nodes_explored=inc.nodes,
        proven_optimal=exceeded is None,
        settings=settings,
    )
    if exceeded is not None:
        raise BudgetExceededError(
            f"node budget {node_budget} exceeded (best incumbent {inc.best})",
            result=result,
        ) from exceeded
    return result
