import hashlib
import math
import random

import pytest

from outerkplanar import (
    ConvexGraph,
    complete_graph,
    concatenate,
    crossing_counts,
    cycle_graph,
    bipartition,
    is_bipartite,
    is_outer_k_planar,
    kx_chain,
    kxx_alternating,
    kxx_chain,
    max_crossing,
    outercopy,
    outercopy_crossing_counts,
)
from outerkplanar._optima import _PROVEN_OPTIMA
from conftest import crossing_counts_by_subsets, crossing_counts_np


def test_complete_and_cycle():
    g = complete_graph(6)
    assert (g.n, g.m) == (6, 15)
    c = cycle_graph(7)
    assert (c.n, c.m) == (7, 7)
    assert max_crossing(c) == 0
    with pytest.raises(ValueError):
        complete_graph(1)
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_complete_graph_max_crossing_formula():
    # the busiest edge of K_x splits the other x-2 vertices as evenly
    # as possible, so it is crossed floor((x-2)/2) * ceil((x-2)/2) times
    for x in range(3, 10):
        g = complete_graph(x)
        want = ((x - 2) // 2) * ((x - 1) // 2)
        assert max_crossing(g) == want, x


def test_concatenate_triangle_pair():
    t = complete_graph(3)
    g = concatenate(t, (1, 2), t, (0, 1))
    assert (g.n, g.m) == (4, 5)
    assert max_crossing(g) == 0  # gluing on a hull edge crosses nothing


def test_concatenate_k4_pair():
    g = concatenate(complete_graph(4), (2, 3), complete_graph(4), (0, 1))
    assert (g.n, g.m) == (6, 11)
    assert max_crossing(g) == 1


def test_concatenate_counts_arithmetic():
    cases = [
        (complete_graph(4), (0, 1), complete_graph(5), (4, 0)),
        (complete_graph(5), (2, 3), cycle_graph(6), (0, 5)),
        (cycle_graph(5), (0, 4), complete_graph(3), (1, 2)),
    ]
    for g1, e1, g2, e2 in cases:
        g = concatenate(g1, e1, g2, e2)
        assert g.n == g1.n + g2.n - 2
        assert g.m == g1.m + g2.m - 1


def test_concatenate_preserves_crossing_profile():
    """Each side keeps its own crossing counts after the clique-sum."""
    g1, g2 = complete_graph(5), complete_graph(4)
    glued = concatenate(g1, (2, 3), g2, (0, 1))
    # g2's interior (2 vertices) is inserted between old labels 2 and 3,
    # so g1's vertices map as v -> v for v <= 2 and v -> v + 2 above
    relabel = lambda v: v if v <= 2 else v + 2
    before = crossing_counts(g1)
    after = crossing_counts(glued)
    for (a, b), c in before.items():
        assert after[(relabel(a), relabel(b))] == c, (a, b)


def _hull_edges(g):
    return [e for e in g.sorted_edges() if e[1] - e[0] in (1, g.n - 1)]


def _concatenate_battery():
    """Every (graph, hull edge) pair of a few small graphs, each uncolored
    and under three colorings, glued onto every other, e1 both ways round."""
    graphs = (
        ConvexGraph(2, [(0, 1)]),
        complete_graph(3),
        ConvexGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
        kxx_alternating(2),
        ConvexGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3), (1, 4)]),
        complete_graph(5),
        kx_chain(4, 2),
    )
    inputs = [(g.with_coloring(c), _hull_edges(g))
              for g in graphs
              for c in (None, [i % 2 for i in range(g.n)],
                        [int(2 * i >= g.n) for i in range(g.n)], [0] * g.n)]
    for g1, hull1 in inputs:
        for a, b in hull1:
            for e1 in ((a, b), (b, a)):
                for g2, hull2 in inputs:
                    for e2 in hull2:
                        yield concatenate(g1, e1, g2, e2)


def test_concatenate_labels_and_coloring_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for g in _concatenate_battery():
        digest.update(f"{g.n} {g.sorted_edges()} {g.coloring}\n".encode())
        count += 1
    assert count == 23_328
    assert digest.hexdigest() == (
        "c9a73b5acd56741d4bdc82f5c7242f08834ab50515ac01a9aca99d38c471f11b")


def _random_glue_input(rng, bipartite):
    """A random graph with the hull edge (0, 1), properly colored if bipartite."""
    n = rng.randint(2, 8)
    side = [0, 1] + [rng.randint(0, 1) for _ in range(n - 2)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.5 and not (bipartite and side[u] == side[v])]
    return ConvexGraph(n, edges + [(0, 1)], side if bipartite else None)


def test_concatenate_properties_on_random_inputs():
    """Sizes add up, each input edge keeps its crossing count under the
    relabeling, and proper colorings glue to a proper coloring.  The
    relabeling is read off the layout: g2's other vertices fill g1's gap
    (after the top vertex for the wrap edge (0, n1-1), else after a),
    walked from the vertex identified with a, and g1's vertices keep
    their order around the rest."""
    rng = random.Random(18)
    for trial in range(300):
        bipartite = trial % 2 == 1
        g1, g2 = (_random_glue_input(rng, bipartite) for _ in range(2))
        (a, b), (p, q) = rng.choice(_hull_edges(g1)), rng.choice(_hull_edges(g2))
        g = concatenate(g1, rng.choice(((a, b), (b, a))), g2, (p, q))
        n = g1.n + g2.n - 2
        assert (g.n, g.m) == (n, g1.m + g2.m - 1)

        wrap = (a, b) == (0, g1.n - 1)
        gap = list(range(g1.n, n))[::-1] if wrap else list(range(a + 1, a + g2.n - 1))
        map1 = [v for v in range(n) if v not in gap]
        step = 1 if (p, q) == (0, g2.n - 1) else -1
        map2 = {p: map1[a], q: map1[b]}
        map2.update({(p + step * t) % g2.n: label for t, label in enumerate(gap, 1)})

        counts = crossing_counts(g)
        for src, relabel in ((g1, map1), (g2, map2)):
            for (u, v), c in crossing_counts(src).items():
                e = tuple(sorted((relabel[u], relabel[v])))
                assert counts[e] == c, (trial, src, (u, v))
        if bipartite:
            assert g.coloring is not None
            assert all(g.coloring[u] != g.coloring[v] for u, v in g.edges), trial


def test_concatenate_rejects_bad_edges():
    g = complete_graph(5)
    with pytest.raises(ValueError, match="not an edge"):
        concatenate(g, (0, 1), cycle_graph(4), (0, 2))
    with pytest.raises(ValueError, match="not a hull edge"):
        concatenate(g, (0, 2), cycle_graph(4), (0, 1))


def test_kx_chain_counts():
    for x in (3, 4, 5, 6, 8):
        for blocks in (1, 2, 3):
            g = kx_chain(x, blocks)
            assert g.n == blocks * (x - 2) + 2
            assert g.m == blocks * math.comb(x, 2) - (blocks - 1)
            # chaining along hull edges never raises the crossing cap
            assert max_crossing(g) == max_crossing(complete_graph(x)), (x, blocks)


def test_kx_chain_fixed_points():
    g = kx_chain(4, 3)
    assert (g.n, g.m) == (8, 16)
    assert is_outer_k_planar(g, 1)
    h = kx_chain(6, 2)
    assert (h.n, h.m) == (10, 29)
    assert max_crossing(h) == 4
    k = kx_chain(5, 2)
    assert (k.n, k.m) == (8, 19)
    assert max_crossing(k) == 2
    with pytest.raises(ValueError):
        kx_chain(2, 3)
    with pytest.raises(ValueError):
        kx_chain(4, 0)


def test_constructions_stay_within_proven_optima():
    """No construction on n <= 11 points with maximum crossing k <= 6 has
    more edges than the search's frozen optimum at (n, k), and none that
    is coloured more than the bipartite_free optimum; cells off the table
    are skipped.  Several constructions meet the optimum."""
    graphs = [*map(complete_graph, range(2, 12)), *map(cycle_graph, range(3, 12)),
              *map(kxx_alternating, range(1, 6)),
              *(kx_chain(x, blocks) for x in range(3, 12) for blocks in range(1, 10)),
              # x = 1 gives the single edge at every block count
              *(kxx_chain(x, blocks) for x in range(2, 6) for blocks in range(1, 10))]
    checked = 0
    for g in graphs:
        k = max_crossing(g)
        if g.n > 11 or k > 6:
            continue
        for mode in ("general",) if g.coloring is None else ("general", "bipartite_free"):
            row = _PROVEN_OPTIMA[mode, g.n]
            if k < len(row):
                checked += 1
                assert g.m <= row[k], (mode, g.n, k, g.m, g.sorted_edges())
    assert checked == 56
    # tight: two glued K_6 meet opt(10, 4) = 29, and four glued alternating
    # K_{2,2} the bipartite_free opt(10, 0) = 13
    g, h = kx_chain(6, 2), kxx_chain(2, 4)
    assert (max_crossing(g), g.m) == (4, _PROVEN_OPTIMA["general", 10][4]) == (4, 29)
    assert (max_crossing(h), h.m) == (0, _PROVEN_OPTIMA["bipartite_free", 10][0]) == (0, 13)


def test_kxx_alternating():
    g = kxx_alternating(3)
    assert (g.n, g.m) == (6, 9)
    assert g.coloring == (0, 1, 0, 1, 0, 1)
    assert max_crossing(g) == 2
    assert is_bipartite(g)
    assert all((a + b) % 2 == 1 for a, b in g.edges)
    h = kxx_alternating(4)
    assert h.m == 16 and max_crossing(h) == 4
    tiny = kxx_alternating(1)
    assert (tiny.n, tiny.m) == (2, 1)
    with pytest.raises(ValueError):
        kxx_alternating(0)


def test_kxx_alternating_max_crossing_formula():
    for x in range(1, 7):
        g = kxx_alternating(x)
        want = 2 * ((x - 1) // 2) * (x // 2)
        assert max_crossing(g) == want, x


def test_kxx_chain_counts_and_coloring():
    for x in (2, 3, 4):
        for blocks in (1, 2, 4):
            g = kxx_chain(x, blocks)
            assert g.n == blocks * (2 * x - 2) + 2
            assert g.m == blocks * x * x - (blocks - 1)
            assert g.coloring == tuple(i % 2 for i in range(g.n))
            assert all(g.coloring[a] != g.coloring[b] for a, b in g.edges)
            assert max_crossing(g) == max_crossing(kxx_alternating(x))


def _alternating_block(x):
    n = 2 * x
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if (i + j) % 2]
    return ConvexGraph(n, pairs, coloring=[i % 2 for i in range(n)])


@pytest.mark.parametrize("chain, block, xs", [
    (kx_chain, complete_graph, range(3, 13)),
    (kxx_chain, _alternating_block, range(1, 8)),
])
def test_chain_equals_iterated_concatenation(chain, block, xs):
    for x in xs:
        g = block(x)
        for blocks in range(1, 12):
            got = chain(x, blocks)
            assert (got.n, got.edges, got.coloring) == (g.n, g.edges, g.coloring), (x, blocks)
            g = concatenate(g, (g.n - 2, g.n - 1), block(x), (0, 1))


def test_kxx_chain_fixed_points():
    g = kxx_chain(3, 4)
    assert (g.n, g.m) == (18, 33)
    assert is_bipartite(g) and is_outer_k_planar(g, 2)
    h = kxx_chain(2, 5)
    assert (h.n, h.m) == (12, 16)
    assert max_crossing(h) == 0


def test_outercopy_k4():
    oc = outercopy(complete_graph(4))
    assert len(oc.inside_edges) == 6
    assert len(oc.outside_edges) == 2
    assert oc.total_edges == 8
    assert oc.multiplicity((0, 2)) == 2
    assert oc.multiplicity((0, 1)) == 1
    assert oc.multiplicity((1, 3)) == 2


def test_outercopy_edge_count_identity():
    for g in (complete_graph(5), kx_chain(4, 2), cycle_graph(6),
              kxx_alternating(3)):
        oc = outercopy(g)
        hull = sum(1 for e in g.sorted_edges()
                   if min(e[1] - e[0], g.n - (e[1] - e[0])) == 1)
        assert oc.total_edges == 2 * g.m - hull
        assert oc.total_edges >= 2 * g.m - g.n


def test_outercopy_crossing_counts():
    base = kx_chain(4, 2)
    oc = outercopy(base)
    counts = outercopy_crossing_counts(oc)
    # base is outer 1-planar, so both pages stay within one crossing
    assert max(counts.values()) <= 1
    # inside page replicates the base profile exactly
    base_counts = crossing_counts(base)
    for e, c in base_counts.items():
        assert counts[("in", e)] == c
    # outside page has only the diagonals
    assert set(k for k in counts if k[0] == "out") == {
        ("out", e) for e in oc.outside_edges
    }


def test_outercopy_crossing_counts_per_page_oracle():
    """Each page is counted on its own by the pairwise oracle, in page order."""
    for g in (complete_graph(7), kx_chain(5, 3), kxx_chain(3, 3), cycle_graph(6),
              ConvexGraph(5, [(0, 2)]), ConvexGraph(4, [(0, 1)])):
        oc = outercopy(g)
        expect = {}
        for page, edges in (("in", oc.inside_edges), ("out", oc.outside_edges)):
            for e, c in crossing_counts_by_subsets(g.n, edges).items():
                expect[(page, e)] = c
        counts = outercopy_crossing_counts(oc)
        assert list(counts.items()) == list(expect.items()), g


def test_large_chain_against_vectorized_counter():
    g = kx_chain(8, 4)
    fast = crossing_counts_np(g.n, g.sorted_edges())
    assert fast == crossing_counts(g)
    assert max(fast.values()) == 9  # floor(6/2) * ceil(6/2)
