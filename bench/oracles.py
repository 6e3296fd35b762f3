"""Independent computations the benchmark checks the package against.

Nothing here imports ``outerkplanar``.  Each function is written from a
definition, not from the package's code:

* crossings come from the interleaving rule: chords (a, b) and (c, d)
  with a < b, c < d and no shared endpoint cross exactly when
  a < c < b < d or c < a < d < b;
* the reference searcher branches over chords in plain lexicographic
  order and prunes only by counting the chords that can still be added,
  never with a closed-form bound;
* circulant max-cut values come from a cyclic transfer-matrix DP over
  windows of r sides, O(n * 4^r), and spectra from a dense eigensolver.
"""

from __future__ import annotations

import itertools

import numpy as np

# ---------------------------------------------------------------- crossings


def crossing_counts(n, edges, chunk=256):
    """Per-edge crossing counts {edge: count} by the interleaving rule.

    Rows are processed in chunks so that memory stays O(chunk * m).
    """
    pairs = sorted({(min(a, b), max(a, b)) for a, b in edges})
    if not pairs:
        return {}
    arr = np.asarray(pairs, dtype=np.int64)
    c = arr[:, 0][None, :]
    d = arr[:, 1][None, :]
    out = np.zeros(len(pairs), dtype=np.int64)
    for lo in range(0, len(pairs), chunk):
        a = arr[lo:lo + chunk, 0][:, None]
        b = arr[lo:lo + chunk, 1][:, None]
        cross = ((a < c) & (c < b) & (b < d)) | ((c < a) & (a < d) & (d < b))
        out[lo:lo + chunk] = cross.sum(axis=1)
    return dict(zip(pairs, out.tolist()))


def max_crossing(n, edges):
    return max(crossing_counts(n, edges).values(), default=0)


def is_proper(coloring, edges):
    return all(coloring[a] != coloring[b] for a, b in edges)


def two_coloring(n, edges):
    """A proper 2-coloring found by depth-first search, or None."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    side = [None] * n
    for root in range(n):
        if side[root] is not None:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if side[u] is None:
                    side[u] = 1 - side[v]
                    stack.append(u)
                elif side[u] == side[v]:
                    return None
    return side


def degeneracy(n, edges):
    """Largest minimum degree over all subgraphs (by peeling with buckets)."""
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    deg = [len(s) for s in adj]
    buckets = [set() for _ in range(max(deg, default=0) + 1)]
    for v, d in enumerate(deg):
        buckets[d].add(v)
    removed = [False] * n
    best = 0
    low = 0
    for _ in range(n):
        low = max(low - 1, 0)
        while not buckets[low]:
            low += 1
        v = buckets[low].pop()
        best = max(best, low)
        removed[v] = True
        for u in adj[v]:
            if not removed[u]:
                buckets[deg[u]].discard(u)
                deg[u] -= 1
                buckets[deg[u]].add(u)
    return best


# ------------------------------------------------------------- constructions


def glued_chain(block_edges, block_size, blocks):
    """Copies of one block glued in a chain along hull edges.

    The block lives on positions 0..block_size-1 and must contain the hull
    edges (0, block_size-1) and (block_size-2, block_size-1).  Each new
    copy is inserted into the arc of the previous copy's last hull edge,
    so the copies meet only in the glued edge and no two edges of
    different copies interleave.  Returns (n, sorted edge list) with
    vertices labeled by their cyclic position.
    """
    order = list(range(block_size))
    edges = set(block_edges)
    next_id = block_size
    u, v = block_size - 2, block_size - 1
    for _ in range(blocks - 1):
        new = list(range(next_id, next_id + block_size - 2))
        next_id += block_size - 2
        pos = order.index(u)
        order[pos + 1:pos + 1] = new
        labels = [u, *new, v]
        edges |= {(labels[p], labels[q]) for p, q in block_edges}
        u, v = new[-1], v
    where = {x: i for i, x in enumerate(order)}
    relabeled = sorted(
        (min(where[a], where[b]), max(where[a], where[b])) for a, b in edges
    )
    return len(order), relabeled


def k6_minus_long_diagonal():
    """K_6 without the chord (0, 3): 14 edges, every edge crossed <= 3 times."""
    return [e for e in itertools.combinations(range(6), 2) if e != (0, 3)]


def complete_block(x):
    return list(itertools.combinations(range(x), 2))


def alternating_biclique(x):
    """K_{x,x} with the classes alternating around 2x points."""
    return [(i, j) for i, j in itertools.combinations(range(2 * x), 2)
            if (i + j) % 2]


# ------------------------------------------------------------ exact search


def mode_colorings(n, mode):
    """Every coloring the mode allows, straight from its definition.

    general: no coloring; alternating: vertex parity; consecutive: the two
    classes are the arcs 0..t-1 and t..n-1 for some 1 <= t < n; free:
    every 2-coloring with vertex 0 on side 0 (swapping sides changes
    nothing).
    """
    if mode == "general":
        return [None]
    if mode == "bipartite_alternating":
        return [tuple(i % 2 for i in range(n))]
    if mode == "bipartite_consecutive":
        return [tuple(0 if i < t else 1 for i in range(n)) for t in range(1, n)]
    if mode == "bipartite_free":
        return [(0,) + bits for bits in itertools.product((0, 1), repeat=n - 1)]
    raise ValueError(f"unknown mode {mode!r}")


def max_edges_for_coloring(n, k, coloring=None, best=0):
    """Most edges of an outer k-planar graph proper under `coloring`.

    Branches include/exclude over the allowed chords in lexicographic
    order.  A chord stays addable while it has at most k chosen chords
    crossing it and crosses no chosen chord that is already crossed k
    times; the only prune is chosen + (addable chords left) <= best.
    Returns max(best, optimum).
    """
    chords = [(a, b) for a, b in itertools.combinations(range(n), 2)
              if coloring is None or coloring[a] != coloring[b]]
    m = len(chords)
    cross = [0] * m
    for i, (a, b) in enumerate(chords):
        for j, (c, d) in enumerate(chords):
            if a < c < b < d or c < a < d < b:
                cross[i] |= 1 << j
    count = [0] * m
    best_box = [best]

    def dfs(addable, chosen, full, size):
        # addable: list of chord indices, increasing, still addable
        if size + len(addable) <= best_box[0]:
            return
        if not addable:
            best_box[0] = size
            return
        i, rest = addable[0], addable[1:]
        # include i
        crossed = cross[i] & chosen
        t = crossed
        newly_full = 1 << i if count[i] == k else 0
        while t:
            low = t & -t
            j = low.bit_length() - 1
            count[j] += 1
            if count[j] == k:
                newly_full |= low
            t ^= low
        for j in rest:
            if cross[j] >> i & 1:
                count[j] += 1
        full2 = full | newly_full
        keep = [j for j in rest if count[j] <= k and not cross[j] & full2]
        dfs(keep, chosen | 1 << i, full2, size + 1)
        for j in rest:
            if cross[j] >> i & 1:
                count[j] -= 1
        t = crossed
        while t:
            low = t & -t
            count[low.bit_length() - 1] -= 1
            t ^= low
        # exclude i
        dfs(rest, chosen, full, size)

    dfs(list(range(m)), 0, 0, 0)
    return best_box[0]


def reference_max_edges(n, k, mode):
    """Exact optimum over every coloring the mode allows."""
    best = 0
    for coloring in mode_colorings(n, mode):
        best = max_edges_for_coloring(n, k, coloring, best)
    return best


# ----------------------------------------------------------------- max-cut


def cut_size(n, r, sides):
    """Edges {i, i+d mod n}, 1 <= d <= r, whose endpoints differ."""
    return sum(sides[i] != sides[(i + d) % n]
               for i in range(n) for d in range(1, r + 1))


def maxcut_dp(n, r):
    """Maximum cut of C_n^{1..r} by a cyclic transfer matrix (needs 2r < n).

    Vertex 0 is pinned to side 0 and the sides of vertices 0..r-1 are
    fixed in each of 2^(r-1) cases.  The state is the window of the last r
    sides (bit p = side of the vertex p steps back); placing vertex v adds
    the edges to the r vertices before it.  After vertex n-1 the r(r+1)/2
    wrap-around edges between the last window and the fixed first window
    are added.
    """
    if not 1 <= r or 2 * r >= n:
        raise ValueError("need 1 <= r and 2r < n")
    full = (1 << r) - 1
    best = -1
    for head in range(1 << (r - 1)):
        first = [0] + [(head >> p) & 1 for p in range(r - 1)]
        inner = sum(first[i] != first[j]
                    for i in range(r) for j in range(i + 1, r))
        window = 0
        for s in first:
            window = ((window << 1) | s) & full
        frontier = {window: inner}
        for _ in range(r, n):
            nxt = {}
            for w, val in frontier.items():
                for s in (0, 1):
                    gain = bin(w ^ (full if s else 0)).count("1")
                    w2 = ((w << 1) | s) & full
                    if nxt.get(w2, -1) < val + gain:
                        nxt[w2] = val + gain
            frontier = nxt
        for w, val in frontier.items():
            last = [(w >> p) & 1 for p in range(r)]  # last[p]: vertex n-1-p
            wrap = sum(last[p] != first[q]
                       for p in range(r) for q in range(r) if p + q + 1 <= r)
            best = max(best, val + wrap)
    return best


def laplacian_lambda_max(n, r):
    """Largest Laplacian eigenvalue of C_n^{1..r} from the dense matrix."""
    adj = np.zeros((n, n))
    for i in range(n):
        for d in range(1, r + 1):
            adj[i, (i + d) % n] = adj[(i + d) % n, i] = 1.0
    lap = np.diag(adj.sum(axis=1)) - adj
    return float(np.linalg.eigvalsh(lap)[-1])


def xor_double_sum(bits, r, cyclic=True):
    """sum_i sum_{0 < |j| <= r} s_i xor s_{i+j}, straight from the definition."""
    n = len(bits)
    total = 0
    for i in range(n):
        for j in range(-r, r + 1):
            if j == 0:
                continue
            t = i + j
            if cyclic:
                t %= n
            elif not 0 <= t < n:
                continue
            total += bits[i] != bits[t]
    return total
