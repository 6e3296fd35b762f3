"""Exact maximum edge counts on few convex points, by branch and bound.

The optimization problem: among graphs on n points in convex position
whose every edge is crossed at most k times, how many edges can there be?
Four modes are supported.  "general" has no further constraint; the three
bipartite modes additionally require every edge to be bichromatic under a
two-coloring that is respectively fixed alternating (vertex parity),
consecutive (the two color classes are contiguous arcs, with the split
point part of the search), or free (all two-colorings, iterated up to
rotation, reflection, and color swap).

The solver enumerates candidate chords in a fixed order (increasing
chord length, then lexicographic) and branches include/exclude on the
first still-addable candidate.  Feasibility is monotone (an edge that
cannot be added now can never be added later), so each node derives its
addable set from its parent's with a few bitset operations.  Each node
gets its state as arguments: the bitset of addable candidates and, per
cost c, the bitset of those that cross exactly c included edges, the
bitset of included edges, the crossing headroom left on them, and their
number (an edge crossed k times needs no state: the branch that
saturates it drops its crossers); ``_state`` builds it at the root.
Pruning uses ``_node_bound``, an admissible optimistic bound over that
state, and the vertex term below; the closed-form ceiling
``bounds._least_upper`` only stops the search, once the incumbent
reaches it.  ``upper_prune`` gives the least of the three for a given
partial graph.  The candidates that cross no candidate (the bichromatic
hull edges, or every candidate of a star coloring) come first in
candidate order, and the search starts with all of them included.  That
is the node a chain of include branches on them would reach, and each
exclude branch on the way is dominated: adding the candidate to any of
its graphs keeps it feasible and gains an edge.  So the search branches
only on candidates that cross some candidate.

A vertex term prunes as Russian-doll search does (Verfaillie, Lemaitre
and Schiex, AAAI 1996; Ostergard, Discrete Appl. Math. 2002): delete any
vertex and the other points are still in convex position, so no
completion has more than opt(n - 1, k) edges plus the candidates still
live at the vertex, included or addable.  The optima on n - 1 points
come from ``_optima._PROVEN_OPTIMA``, a frozen table of values this
search proved for n <= 11 and k <= 6, each row with the rows above it;
where it has no entry the term is left out.
Each node packs every vertex's live degree in one int (``_view``),
so the term costs a few big-int operations per node, not a loop over
the vertices; a node takes its parent's packed degrees and subtracts
the candidates it lost only once it passes ``_node_bound``.

Symmetry is pruned by orbital branching (Ostrowski, Linderoth, Rossi and
Smriglio, Math. Programming 2011).  ``_view`` lists the maps of
``_dihedral(n)``, i -> +-i + t (mod n), that send a coloring's candidate
set onto itself; they preserve crossing, so each sends solutions to
solutions of the same size.  Each node carries a group H of maps that
fix its included and its excluded set.  Branching on a candidate i0, the
include child keeps the maps of H that fix i0, and the exclude child
keeps H and excludes i0's whole orbit under H: a solution of the node that holds some image p(i0)
but not i0 is sent by the inverse of p to one of the same size that
holds i0, in the include child, which is searched first.  So every
strict improvement is still first met at the same node, and the optimum,
its proof and its witness are those of the search without symmetry; only
node counts move.  The root's H is the whole group, which fixes its
included set, the candidates that cross nothing (a map preserves
crossing), and its empty excluded set.

Everything is deterministic: the incumbent only updates on strict
improvement, so repeated runs return byte-identical results, including
the witness.  The incumbent is the bitset of included candidates, decoded
to edges once, for the result.  What a search reads that does not depend
on k is memoized, so a loop over k at one n builds it once: the
bipartite_free colorings, the dihedral maps (``_dihedral``), and one
record per coloring (``_view``): its candidates with their crossing
bitsets and vertex words, and its symmetry group.  The general view,
over every chord, holds the crossing table, and each coloring's view is
cut from it.  The closed-form bound is memoized in ``bounds``.
"""

from __future__ import annotations

import functools
import operator
from typing import NamedTuple

from ._optima import _PROVEN_OPTIMA
from .bounds import _least_upper
from .errors import BudgetExceededError
from .geometry import (
    ConvexGraph,
    _crossing_pairs,
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


class SearchResult(NamedTuple):
    max_edges: int
    witness: ConvexGraph
    nodes_explored: int
    proven_optimal: bool
    settings: dict


def _checked(n, k, caller: str) -> tuple[int, int]:
    """n and k as ints if 2 <= n <= ``MAX_SEARCH_N`` and k >= 0, else ValueError."""
    n, k = operator.index(n), operator.index(k)
    if not 2 <= n <= MAX_SEARCH_N:
        raise ValueError(f"{caller} supports 2 <= n <= {MAX_SEARCH_N} (got n={n})")
    if k < 0:
        raise ValueError("k must be non-negative")
    return n, k


@functools.lru_cache(maxsize=1)  # canonical_form takes any n; a search, one n at a time
def _dihedral(n: int) -> tuple[tuple[int, ...], ...]:
    """The 2n maps i -> +-i + t (mod n), as the images of 0..n-1; they preserve crossing."""
    return tuple(tuple((sign * i + t) % n for i in range(n)) for sign in (1, -1) for t in range(n))


def canonical_form(g: ConvexGraph) -> tuple[tuple[int, int], ...]:
    """Lexicographically least edge list over all 2n dihedral relabelings."""
    return tuple(min(sorted(tuple(sorted((p[a], p[b]))) for a, b in g.edges)
                     for p in _dihedral(g.n)))


class _View(NamedTuple):
    cands: tuple[tuple[int, int], ...]
    cross: tuple[int, ...]
    words: tuple[int, ...]
    ones: int
    guard: int
    group: tuple[tuple[int, ...], ...]
    free: int


@functools.cache
def _view(n: int, coloring) -> _View:
    """One coloring's search record (None = no coloring); read only.

    Candidate order is increasing chord length, then lexicographic.  The
    general view (coloring None) takes every chord and holds the crossing
    table: ``cross[i]`` is the bitset of the candidates that candidate i
    crosses, set from ``geometry._crossing_pairs`` in C(n, 4) steps, not
    m^2 tests.  A coloring's view takes the bichromatic chords, in that
    order, and cuts its bitsets and words from the general view,
    re-indexed over its candidates.  Chord (a, b) has the word
    2^(f*a) + 2^(f*b): vertex v's live degree is packed in the
    f = (n - 1).bit_length() + 1 bits at f*v, below its bit of ``guard``,
    and ``ones`` has a 1 in each field.  ``group`` holds the maps of
    ``_dihedral(n)`` that send the candidate set onto itself, as index maps
    p (candidate j goes to p[j], and cross[j] to cross[p[j]]).  A map keeps
    the bichromatic pairs exactly when it keeps the coloring or swaps its
    colors, which is tested first.  Maps that move no candidate are left
    out, so each entry is a distinct permutation of the candidates.
    ``free`` counts the candidates before the first that crosses another.
    """
    if coloring is None:
        cands = tuple(sorted(((a, b) for a in range(n) for b in range(a + 1, n)),
                             key=lambda e: (chord_length(n, e), e)))
        index = {e: i for i, e in enumerate(cands)}
        cross = [0] * len(cands)
        for e, f in _crossing_pairs(n):
            i = index[e]
            j = index[f]
            cross[i] |= 1 << j
            cross[j] |= 1 << i
        f = (n - 1).bit_length() + 1
        ones = sum(1 << f * v for v in range(n))
        words = tuple(1 << f * a | 1 << f * b for a, b in cands)
        guard = ones << f - 1
    else:
        gen = _view(n, None)
        keep = [g for g, (a, b) in enumerate(gen.cands) if coloring[a] != coloring[b]]
        pos = dict(zip(keep, range(len(keep))))  # general index -> candidate index
        mask = sum(1 << g for g in keep)
        cross = []
        for g in keep:
            x = gen.cross[g] & mask
            y = 0
            while x:
                low = x & -x
                y |= 1 << pos[low.bit_length() - 1]
                x ^= low
            cross.append(y)
        cands = tuple(gen.cands[g] for g in keep)
        index = {e: i for i, e in enumerate(cands)}
        words = tuple(gen.words[g] for g in keep)
        ones, guard = gen.ones, gen.guard
    maps = set()
    for p in _dihedral(n):
        if coloring and len({coloring[v] ^ c for v, c in zip(p, coloring)}) > 1:
            continue
        maps.add(tuple(index[_normalize_edge(n, (p[a], p[b]))] for a, b in cands))
    maps.discard(tuple(range(len(cands))))
    free = next((i for i, x in enumerate(cross) if x), len(cross))
    return _View(cands, tuple(cross), words, ones, guard, tuple(sorted(maps)), free)


def _node_bound(m_inc: int, n_feas: int, per_cost, cap: int) -> int:
    """The search's pruning bound at one node; no completion can beat it.

    The node has ``m_inc`` edges included, ``n_feas`` candidates still
    individually addable of which ``per_cost[c]`` cross exactly c included
    edges (read only for emptiness, so a count or a bitset of those
    candidates will do), and ``cap`` crossing headroom (the sum of k minus
    the crossing count over the included edges).  The bound is the lesser
    of ``m_inc + n_feas`` and, when the cheapest addable candidate crosses
    c_min > 0 included edges, ``m_inc + cap // c_min``: every edge a
    completion adds takes at least c_min of the ``cap`` crossings the
    included edges have left.  The closed-form ceiling is no part of it.
    """
    ub = m_inc + n_feas
    if n_feas and not per_cost[0]:
        c_min = 1
        while not per_cost[c_min]:
            c_min += 1
        if m_inc + cap // c_min < ub:
            ub = m_inc + cap // c_min
    return ub


def _state(cross, k: int, included: int, undecided: int) -> tuple[int, list[int], int, int]:
    """What ``dfs`` takes at the node that includes the candidates of bitset
    ``included`` and may add those of ``undecided``, for crossing bitsets
    ``cross``: the addable candidates (undecided, not included, and leaving
    every edge crossed at most k times when added), their layers by cost
    (included edges crossed: at most k and len(cross), so the last layer is
    layer k or empty), the crossing headroom and the edge count.  Raises
    ValueError if an included edge is crossed more than k times."""
    crossed = blocked = 0  # candidates that cross an included edge, a saturated one
    cap = k * included.bit_count()
    for i in range(included.bit_length()):
        if cross[i] and included >> i & 1:  # an edge that crosses nothing keeps headroom k
            count = (cross[i] & included).bit_count()
            if count > k:
                raise ValueError("state is not outer k-planar")
            if count == k:
                blocked |= cross[i]
            crossed |= cross[i]
            cap -= count
    feas = undecided & ~included & ~blocked
    layers = [feas & ~crossed] + [0] * min(k, len(cross))
    x = feas & crossed  # the addable candidates of cost 1 or more
    for i in range(x.bit_length()):
        cost = (cross[i] & included).bit_count()
        if x >> i & 1 and cost <= k:
            layers[cost] |= 1 << i
    return sum(layers), layers, cap, included.bit_count()  # the layers are disjoint


def _smaller_optimum(n: int, k: int, mode: str) -> int | None:
    """opt(n - 1, k) for the vertex term, or None off the table.  A vertex
    deleted from a consecutive coloring leaves two arcs, and from the
    alternating one some two-coloring, which bipartite_free covers."""
    row = _PROVEN_OPTIMA.get(("bipartite_free" if mode == "bipartite_alternating"
                              else mode, n - 1), ())
    return row[k] if k < len(row) else None


def upper_prune(n: int, k: int, state, remaining, *, bipartite: bool = False) -> int:
    """The search's pruning bound at the node that has chosen ``state``.

    ``state`` holds the edges already chosen (must itself be outer
    k-planar, else ValueError) and ``remaining`` the undecided candidates.
    The bound is the least of ``_node_bound`` on the node state that
    ``_state`` builds over the general candidates, the closed-form ceiling
    ``bounds._least_upper``, and, where the table holds opt(n - 1, k), the
    vertex term opt(n - 1, k) + min live(v) (module docstring).
    ``bipartite`` selects the closed-form bounds and the smaller optimum of
    a bipartite search.  The bound never undercuts the best completion of
    ``state`` by edges of ``remaining``.  n and k are integers as for
    ``max_edges``, with 2 <= n <= ``MAX_SEARCH_N``: the first call at an n
    builds its lasting general ``_view`` record, whose C(n, 4) crossing
    table grows as n^4."""
    n, k = _checked(n, k, "upper_prune")
    chords, cross, *_ = _view(n, None)
    index = {e: i for i, e in enumerate(chords)}
    included = sum(1 << index[e] for e in {_normalize_edge(n, e) for e in state})
    undecided = sum(1 << index[e] for e in {_normalize_edge(n, e) for e in remaining})
    feas, layers, cap, m_inc = _state(cross, k, included, undecided)
    ub = min(_node_bound(m_inc, feas.bit_count(), layers, cap), _least_upper(n, k, bipartite))
    opt1 = _smaller_optimum(n, k, "bipartite_free" if bipartite else "general")
    if opt1 is None:
        return ub
    ends = [v for i, e in enumerate(chords) if (included | feas) >> i & 1 for v in e]
    return min(ub, opt1 + min(ends.count(v) for v in range(n)))


class _Incumbent:
    """Node count and the best graph so far, of ``best`` edges: ``best_at``,
    the pair (bitset over a coloring's candidates, that coloring), or the
    ``warm`` start (``best_at`` None) until the search strictly beats it."""

    __slots__ = ("nodes", "budget", "best", "best_at", "warm")

    def __init__(self, budget, warm: ConvexGraph | None):
        self.nodes = 0
        self.budget = budget
        self.best = -1 if warm is None else warm.m
        self.best_at: tuple | None = None
        self.warm = warm

    def result(self, settings: dict, proven: bool) -> SearchResult:
        n = settings["n"]
        witness = self.warm
        if self.best_at is not None:
            bits, coloring = self.best_at
            cands = _view(n, coloring).cands
            witness = ConvexGraph(n, [e for i, e in enumerate(cands) if bits >> i & 1], coloring)
        return SearchResult(self.best, witness, self.nodes, proven, settings)


def _solve(inc: _Incumbent, n: int, k: int, coloring, static_ub: int,
           opt1: int | None) -> None:
    """Branch and bound over one fixed coloring (None = unconstrained);
    ``opt1`` is opt(n - 1, k) for the vertex term, or None to leave it out."""
    cands, cross, words, ones, guard, group, free = _view(n, coloring)

    def dfs(feas, layers, cap, m_inc, included, group, deg, lost):
        # feas is the bitset of addable candidates and layers[c] the
        # bitset of those that cross exactly c included edges.  A call
        # owns the layers it is given: its caller never reads them again.
        # group holds the maps of the view's group that fix the node's
        # included and excluded sets (see the module docstring).  deg
        # packs the live degrees (see _view) as the parent had them,
        # and lost is the bitset of candidates that died since; a node
        # brings deg up to date only once it passes _node_bound.
        inc.nodes += 1
        if m_inc > inc.best:
            inc.best = m_inc
            inc.best_at = included, coloring
        if inc.budget is not None and inc.nodes > inc.budget:
            raise BudgetExceededError("search node budget exceeded")
        if not feas or inc.best >= static_ub:  # the closed-form ceiling stops the search
            return
        if _node_bound(m_inc, feas.bit_count(), layers, cap) <= inc.best:
            return
        if opt1 is not None:
            while lost:
                low = lost & -lost
                deg -= words[low.bit_length() - 1]
                lost ^= low
            # opt1 + min live(v) <= best iff a field of deg is below th1, whose
            # guard bit the subtraction then clears; no field borrows, as
            # th1 <= n <= 2^(f-1) (best <= opt(n, k) <= opt1 + n - 1)
            th1 = inc.best - opt1 + 1
            if th1 > 0 and ((deg | guard) - th1 * ones) & guard != guard:
                return
        # branch on the first addable candidate in candidate order
        bit0 = feas & -feas
        i0 = bit0.bit_length() - 1
        x0 = cross[i0]
        t = x0 & included
        c0 = t.bit_count()
        # include branch: drop i0, the candidates it would push past k
        # crossings (the top layer's that cross it: layers[-1] is
        # layers[k], or empty when k >= len(cands)) and those that cross a
        # newly saturated edge, i0 or an included edge it crosses
        new_included = included | bit0
        drop = bit0 | (x0 if c0 == k else layers[-1] & x0)
        while t:
            low = t & -t
            x = cross[low.bit_length() - 1]
            if (x & new_included).bit_count() == k:
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
        # Orbital branching (see the module docstring): the include
        # branch keeps the maps that fix i0, and the exclude branch drops
        # i0's whole orbit.
        orbit = bit0
        fixing = group
        if group:
            fixing = []
            for p in group:
                if p[i0] == i0:
                    fixing.append(p)
                else:
                    orbit |= 1 << p[i0]
        dfs(new_feas, new_layers, cap + k - 2 * c0, m_inc + 1, new_included,
            fixing, deg, feas & drop ^ bit0)
        # exclude branch: i0's whole orbit, which shares i0's cost and so
        # lies in layers[c0]
        layers[c0] ^= orbit
        dfs(feas ^ orbit, layers, cap, m_inc, included, group, deg, orbit)

    # the root includes the free candidates (module docstring); they stay
    # live, so deg is current
    prefix = (1 << free) - 1
    dfs(*_state(cross, k, prefix, (1 << len(cands)) - 1), prefix, group, sum(words), 0)


@functools.cache
def _canonical_colorings(n: int) -> tuple[tuple[int, ...], ...]:
    """All 2-colorings with vertex 0 on side 0, one per dihedral/swap orbit.

    Vertex i > 0 takes bit i - 1 of the loop counter, and a coloring is
    kept when it is the least tuple among its images under ``_dihedral(n)``
    and their color swaps.
    """
    reps = []
    for bits in range(1 << (n - 1)):
        c = (0, *((bits >> i) & 1 for i in range(n - 1)))
        images = (tuple(c[i] for i in p) for p in _dihedral(n))
        if all(c <= img and c <= tuple(1 - v for v in img) for img in images):
            reps.append(c)
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


# mode -> (the colorings a warm start may take, in the order tried; the
# error when none is proper).  A consecutive warm start may take any
# rotation of a two-arc coloring: the anchored search reaches the same
# maximum, so its edge count is a valid seed.
_WARM_COLORINGS = {
    "bipartite_alternating": (lambda warm: _MODE_COLORINGS["bipartite_alternating"](warm.n),
                              "warm start has an edge inside a parity class"),
    "bipartite_consecutive": (lambda warm: (tuple(0 if (i - s) % warm.n < t else 1
                                                  for i in range(warm.n))
                                            for t in range(1, warm.n) for s in range(warm.n)),
                              "warm start fits no consecutive two-coloring"),
    "bipartite_free": (lambda warm: (warm.coloring, bipartition(warm)),
                       "warm start is not bipartite"),
}


def _validate_warm_start(warm: ConvexGraph, n: int, k: int, mode: str) -> ConvexGraph:
    if warm.n != n:
        raise ValueError(f"warm start has n={warm.n}, search wants n={n}")
    if not is_outer_k_planar(warm, k):
        raise ValueError("warm start is not outer k-planar for this k")
    if mode == "general":
        return warm
    colorings, message = _WARM_COLORINGS[mode]
    for coloring in colorings(warm):
        if coloring and all(coloring[a] != coloring[b] for a, b in warm.edges):
            return warm.with_coloring(coloring)
    raise ValueError(message)


def max_edges(n: int, k: int, mode: str = "general", *,
              node_budget: int | None = None,
              warm_start: ConvexGraph | None = None) -> SearchResult:
    """Exact maximum edge count over the mode's graphs on n convex points.

    Accepts 2 <= n <= 12 (``MAX_SEARCH_N``), but not every accepted cell is
    proven in reasonable time.  Of the cells with k <= 6, these stay
    unproven within 3M nodes: general (10,5-6), (11,3-6) and (12,3-6), and
    bipartite_free (12,4-6); general (12,2) = 30 takes 2.3M nodes.  Every
    bipartite_alternating and bipartite_consecutive cell proves, the
    slowest being consecutive (12,5) at 735k nodes.  Raises
    BudgetExceededError (with the best incumbent attached as ``result``)
    if ``node_budget`` search nodes are exhausted first; otherwise the
    result is proven optimal.  n and k must be integers: a float or a str
    raises TypeError.
    """
    n, k = _checked(n, k, "search")
    if mode not in _MODE_COLORINGS:
        raise ValueError(f"unknown mode {mode!r}; choose one of {SEARCH_MODES}")
    colorings = _MODE_COLORINGS[mode](n)
    if mode == "bipartite_alternating" and n % 2:
        raise ValueError("alternating mode needs even n")
    settings = {"n": n, "k": k, "mode": mode}
    static_ub = _least_upper(n, k, mode != "general")
    opt1 = _smaller_optimum(n, k, mode)
    inc = _Incumbent(node_budget, None if warm_start is None
                     else _validate_warm_start(warm_start, n, k, mode))
    try:
        for coloring in colorings:
            _solve(inc, n, k, coloring, static_ub, opt1)
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"node budget {node_budget} exceeded (best incumbent {inc.best})",
            result=inc.result(settings, proven=False),
        ) from exc
    return inc.result(settings, proven=True)
