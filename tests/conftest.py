"""Shared independent oracles for the test suite.

Everything here is deliberately written against the definitions, not
against the library internals: crossings come from 4-subsets, the
reference searcher branches in plain lexicographic order with only the
counting prune, the numpy crossing counter vectorizes the raw
interleaving comparison, and the circulant max-cut oracle scores every
side vector.  Agreement between these and the package is what the tests
actually check.
"""

import itertools
import random

import numpy as np
import pytest


def crossing_pairs_by_subsets(n, edge_set):
    """All crossing pairs via the 4-subset rule: among the three pairings
    of {a<b<c<d} only ({a,c},{b,d}) crosses."""
    pairs = set()
    for a, b, c, d in itertools.combinations(range(n), 4):
        if (a, c) in edge_set and (b, d) in edge_set:
            pairs.add(((a, c), (b, d)))
    return pairs


def crossing_counts_by_subsets(n, edges):
    """Per-edge crossing counts, in sorted-edge order, from the 4-subset rule."""
    edge_set = set(edges)
    counts = {e: 0 for e in sorted(edge_set)}
    for e1, e2 in crossing_pairs_by_subsets(n, edge_set):
        counts[e1] += 1
        counts[e2] += 1
    return counts


def crossing_counts_np(n, edges):
    """Vectorized per-edge crossing counts for large instances."""
    arr = np.asarray(sorted(edges), dtype=np.int64).reshape(-1, 2)
    a = arr[:, 0][:, None]
    b = arr[:, 1][:, None]
    c = arr[:, 0][None, :]
    d = arr[:, 1][None, :]
    inter = ((a < c) & (c < b)) != ((a < d) & (d < b))
    shared = (a == c) | (a == d) | (b == c) | (b == d)
    cross = inter & ~shared
    return dict(zip(map(tuple, arr.tolist()), cross.sum(axis=1).tolist()))


def degeneracy_order_by_rescan(n, edges):
    """Minimum-degree removal by the definition: at every step rescan the
    remaining vertices for the smallest (degree, index)."""
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    alive = set(range(n))
    order = []
    degeneracy = 0
    while alive:
        v = min(alive, key=lambda u: (len(adj[u]), u))
        degeneracy = max(degeneracy, len(adj[v]))
        order.append(v)
        alive.discard(v)
        for u in adj[v]:
            adj[u].discard(v)
        adj[v] = set()
    return order, degeneracy


def greedy_color_by_sets(edges, order):
    """The plain rule: each vertex along reversed `order` takes the least
    color not in the set of its colored neighbours' colors."""
    colors = {}
    for v in reversed(order):
        taken = {colors[u] for a, b in edges for u in (a, b)
                 if v in (a, b) and u != v and u in colors}
        colors[v] = min(set(range(len(taken) + 1)) - taken)
    return colors, 1 + max(colors.values()) if colors else 0


def canonical_colorings_by_tuples(n):
    """Orbit representatives of the 2-colorings by the definition: vertex i > 0
    takes bit i - 1 of the counter, and a coloring is kept when no rotation,
    reflection or color swap of it is a lexicographically smaller tuple."""
    reps = []
    for bits in range(1 << (n - 1)):
        c = tuple(0 if i == 0 else (bits >> (i - 1)) & 1 for i in range(n))
        smallest = c
        for sign in (1, -1):
            for t in range(n):
                img = tuple(c[(sign * i + t) % n] for i in range(n))
                for flip in (0, 1):
                    cand = tuple(v ^ flip for v in img) if flip else img
                    if cand < smallest:
                        smallest = cand
        if c == smallest:
            reps.append(c)
    return reps


def brute_max_edges(n, k, coloring=None, seed_best=0):
    """Reference exact searcher: lex edge order, counting prune only.

    Returns the maximum edge count at least seed_best; pass the known
    optimum as seed_best to turn it into a decision check.
    """
    cands = [(a, b) for a in range(n) for b in range(a + 1, n)
             if coloring is None or coloring[a] != coloring[b]]
    idx = {e: i for i, e in enumerate(cands)}
    m = len(cands)
    cross = [[] for _ in range(m)]
    for a, b, c, d in itertools.combinations(range(n), 4):
        if (a, c) in idx and (b, d) in idx:
            i, j = idx[(a, c)], idx[(b, d)]
            cross[i].append(j)
            cross[j].append(i)
    best = [seed_best]
    counts = [0] * m
    chosen = [False] * m

    def dfs(pos, mm):
        if mm + (m - pos) <= best[0]:
            return
        if pos == m:
            best[0] = mm
            return
        if counts[pos] <= k and all(counts[j] < k for j in cross[pos] if chosen[j]):
            chosen[pos] = True
            for j in cross[pos]:
                counts[j] += 1
            dfs(pos + 1, mm + 1)
            for j in cross[pos]:
                counts[j] -= 1
            chosen[pos] = False
        dfs(pos + 1, mm)

    dfs(0, 0)
    return best[0]


def brute_best_completion(n, k, state, remaining):
    """Exhaustive optimum of a search subtree: edges of `state` are
    forced in, any subset of `remaining` may be added on top."""
    state = [tuple(sorted(e)) for e in state]
    remaining = [tuple(sorted(e)) for e in remaining if tuple(sorted(e)) not in set(state)]
    all_edges = state + remaining
    idx = {e: i for i, e in enumerate(all_edges)}
    cross = [[] for _ in all_edges]
    for a, b, c, d in itertools.combinations(range(n), 4):
        if (a, c) in idx and (b, d) in idx:
            i, j = idx[(a, c)], idx[(b, d)]
            cross[i].append(j)
            cross[j].append(i)
    ns = len(state)
    counts = [0] * len(all_edges)
    chosen = [False] * len(all_edges)
    for i in range(ns):
        chosen[i] = True
        for j in cross[i]:
            counts[j] += 1
    assert all(counts[i] <= k for i in range(ns)), "state over cap"
    best = [ns]

    def dfs(pos, mm):
        if pos == len(all_edges):
            best[0] = max(best[0], mm)
            return
        if counts[pos] <= k and all(counts[j] < k for j in cross[pos] if chosen[j]):
            chosen[pos] = True
            for j in cross[pos]:
                counts[j] += 1
            dfs(pos + 1, mm + 1)
            for j in cross[pos]:
                counts[j] -= 1
            chosen[pos] = False
        dfs(pos + 1, mm)

    dfs(ns, ns)
    return best[0]


def node_state_by_definition(n, k, included, undecided):
    """A search node's state from the definitions, for sets of edges.

    Returns None when an included edge is crossed more than k times, else
    (addable, costs, edge count): an undecided edge that is not included
    is addable when the included edges and it are each crossed at most k
    times among themselves; costs maps each addable edge to the number of
    included edges it crosses.
    """
    pairs = crossing_pairs_by_subsets(n, included | undecided)
    crossed = {e: set() for e in included | undecided}
    for e, f in pairs:
        crossed[e].add(f)
        crossed[f].add(e)
    counts = {e: len(crossed[e] & included) for e in included}
    if any(c > k for c in counts.values()):
        return None
    costs = {e: len(crossed[e] & included) for e in undecided - included
             if len(crossed[e] & included) <= k
             and all(counts[f] < k for f in crossed[e] & included)}
    return set(costs), costs, len(included)


def random_graph(rng, n, p=0.4):
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    return edges


def circulant_adjacency(n, r):
    A = np.zeros((n, n))
    for i in range(n):
        for d in range(1, r + 1):
            A[i, (i + d) % n] = 1
            A[i, (i - d) % n] = 1
    return A


def maxcut_by_enumeration(n, r):
    """Maximum cut of C_n^{1..r} by scoring all 2^(n-1) side assignments.

    Vertex 0 is pinned to side 0.  Assignments are scanned in increasing
    order of the side vector read as a binary number (vertex 0 most
    significant) and the incumbent only updates on strict improvement, so
    the witness is the lexicographically smallest maximizing side vector.
    Returns (value, sides).
    """
    chunk_size = 1 << 20
    total = 1 << (n - 1)
    mask = np.uint64((1 << n) - 1)
    best_val = -1
    best_x = 0
    for start in range(0, total, chunk_size):
        stop = min(start + chunk_size, total)
        xs = np.arange(start, stop, dtype=np.uint64)
        vals = np.zeros(stop - start, dtype=np.int64)
        for d in range(1, r + 1):
            rot = ((xs << np.uint64(d)) | (xs >> np.uint64(n - d))) & mask
            vals += np.bitwise_count(xs ^ rot)
        i = int(np.argmax(vals))
        if int(vals[i]) > best_val:
            best_val = int(vals[i])
            best_x = start + i
    sides = tuple((best_x >> (n - 1 - i)) & 1 for i in range(n))
    return best_val, sides


@pytest.fixture
def rng():
    return random.Random(20260814)


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    """Echo one pass/fail line per acceptance criterion after the run."""
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
