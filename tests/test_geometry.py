import itertools
import json
import math
import re

import pytest

from outerkplanar import (
    ConvexGraph,
    bipartition,
    chord_length,
    chords_cross,
    crossing_counts,
    degeneracy_order,
    graph_from_json,
    graph_to_json,
    greedy_color,
    is_bipartite,
    is_outer_k_planar,
    kx_chain,
    max_crossing,
    to_json_dict,
)
from outerkplanar.geometry import _crossing_pairs
from conftest import (
    crossing_counts_by_subsets,
    crossing_counts_np,
    crossing_pairs_by_subsets,
    degeneracy_order_by_rescan,
    greedy_color_by_sets,
    random_graph,
)


def test_cross_basic():
    assert chords_cross(4, (0, 2), (1, 3))
    assert not chords_cross(4, (0, 1), (2, 3))
    # sharing an endpoint never counts as a crossing
    assert not chords_cross(5, (0, 2), (2, 4))
    assert not chords_cross(5, (0, 2), (0, 3))
    # symmetric
    assert chords_cross(6, (1, 4), (3, 5)) == chords_cross(6, (3, 5), (1, 4))


def test_cross_matches_subset_oracle():
    """Predicate agrees with the 4-subset definition on every chord pair,
    and _crossing_pairs lists each crossing pair once, as the predicate says."""
    for n in range(4, 9):
        edge_set = {(a, b) for a in range(n) for b in range(a + 1, n)}
        expected = crossing_pairs_by_subsets(n, edge_set)
        for e1, e2 in itertools.combinations(sorted(edge_set), 2):
            want = (e1, e2) in expected or (e2, e1) in expected
            assert chords_cross(n, e1, e2) == want, (n, e1, e2)
        pairs = list(_crossing_pairs(n))
        assert len(pairs) == math.comb(n, 4)
        assert sorted(pairs) == [(e1, e2) for e1, e2 in itertools.combinations(
            sorted(edge_set), 2) if chords_cross(n, e1, e2)], n


def test_complete_graph_crossing_totals():
    for n in range(5, 11):
        g = ConvexGraph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
        counts = crossing_counts(g)
        assert sum(counts.values()) == 2 * math.comb(n, 4)


def test_normalized_tuples_are_shared():
    from outerkplanar.geometry import _normalize_edge
    edge = (2, 5)
    assert _normalize_edge(6, edge) is edge
    # anything else gets a fresh normalized tuple
    for other, want in [([2, 5], (2, 5)), ((5, 2), (2, 5))]:
        got = _normalize_edge(6, other)
        assert got == want and got is not other and type(got) is tuple
        assert all(type(v) is int for v in got)
    for bad in [(2, 6), (-1, 3), (3, 3), (False, True), (2, 5.0), (2, 5, 1), (2,), 5, "25"]:
        with pytest.raises(ValueError):
            _normalize_edge(6, bad)
    assert ConvexGraph(6, [edge]).sorted_edges()[0] is edge


def test_chord_length_and_hull():
    assert chord_length(6, (0, 1)) == 0
    assert chord_length(6, (5, 0)) == 0
    assert chord_length(6, (0, 2)) == 1
    assert chord_length(6, (0, 3)) == 2
    assert chord_length(7, (0, 3)) == 2
    # length is symmetric in the two arcs
    for n in range(3, 10):
        for a in range(n):
            for b in range(a + 1, n):
                gap = b - a
                assert chord_length(n, (a, b)) == min(gap - 1, n - gap - 1)


def test_graph_validation():
    with pytest.raises(ValueError):
        ConvexGraph(1, [])
    with pytest.raises(ValueError):
        ConvexGraph(4, [(0, 0)])
    with pytest.raises(ValueError):
        ConvexGraph(4, [(0, 4)])
    with pytest.raises(ValueError):
        ConvexGraph(4, [(0, 1)], coloring=[0, 1, 2, 0])
    with pytest.raises(ValueError):
        ConvexGraph(4, [(0, 1)], coloring=[0, 1])
    # duplicates collapse, edges normalize to a < b
    g = ConvexGraph(4, [(2, 0), (0, 2), (1, 3)])
    assert g.m == 2
    assert g.sorted_edges() == [(0, 2), (1, 3)]


def test_first_bad_edge_sets_the_message():
    """The constructor and the JSON loader report the first bad entry, with
    a loop checked before the range; good pairs normalise and deduplicate."""
    for n, edges, message in (
        (4, [(0, 1), (0, 9), (2, 2)], "edge (0, 9) has an endpoint outside 0..3"),
        (4, [(1, 1), (0, 9)], "loop edge (1, 1) is not allowed"),
        (4, [(5, 5), (0, 9)], "loop edge (5, 5) is not allowed"),
        (4, [(3, -1), (2, 2)], "edge (3, -1) has an endpoint outside 0..3"),
        (4, [(4, 0)], "edge (4, 0) has an endpoint outside 0..3"),
    ):
        for build in (lambda: ConvexGraph(n, edges),
                      lambda: graph_from_json(json.dumps({"n": n, "edges": edges}))):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message
    for edges, message in (
        ([[0, 1], [0, 1, 2], [0, 1.5]], "edge entry [0, 1, 2] is not a pair"),
        ([[0, 1.5], [0]], "edge entry [0, 1.5] has an endpoint that is not an integer"),
    ):
        with pytest.raises(ValueError) as info:
            graph_from_json(json.dumps({"n": 4, "edges": edges}))
        assert str(info.value) == message
    messy = [(3, 1), (1, 3), (4, 0), (0, 4), (2, 3), (3, 2), (3, 1)]
    expect = [(0, 4), (1, 3), (2, 3)]
    assert ConvexGraph(5, messy).sorted_edges() == expect
    assert graph_from_json(json.dumps({"n": 5, "edges": messy})).sorted_edges() == expect


def test_graph_immutable_and_hashable():
    g = ConvexGraph(4, [(0, 1)])
    with pytest.raises(AttributeError):
        g.n = 5
    h = ConvexGraph(4, [(1, 0)])
    assert g == h and hash(g) == hash(h)
    assert g != ConvexGraph(5, [(0, 1)])
    # a graph is no other type's equal: __eq__ returns NotImplemented
    assert g.__eq__(3) is NotImplemented
    assert (ConvexGraph(3) == 3) is False and (3 == ConvexGraph(3)) is False


def test_outer_k_planar_k5():
    g = ConvexGraph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    assert max_crossing(g) == 2
    assert is_outer_k_planar(g, 2)
    assert not is_outer_k_planar(g, 1)
    # k is an integer: a numpy int passes, a float or a string is refused
    import numpy as np

    assert is_outer_k_planar(g, np.int64(2)) and not is_outer_k_planar(g, True)
    for k in (0.5, 2.0, "1", None):
        with pytest.raises(TypeError):
            is_outer_k_planar(g, k)
    with pytest.raises(ValueError):
        is_outer_k_planar(g, -1)


def test_degeneracy_small_exhaustive(rng):
    """Removal-order degeneracy equals max over subgraphs of min degree."""
    for trial in range(25):
        n = rng.randrange(4, 8)
        edges = random_graph(rng, n, p=0.5)
        g = ConvexGraph(n, edges)
        _, d = degeneracy_order(g)
        best = 0
        for r in range(1, n + 1):
            for sub in itertools.combinations(range(n), r):
                ss = set(sub)
                deg = {v: 0 for v in sub}
                for a, b in edges:
                    if a in ss and b in ss:
                        deg[a] += 1
                        deg[b] += 1
                best = max(best, min(deg.values()))
        assert d == best, (n, sorted(edges))


def test_degeneracy_order_is_valid_elimination():
    g = kx_chain(4, 3)
    order, d = degeneracy_order(g)
    assert d == 3
    assert sorted(order) == list(range(g.n))
    # every vertex has at most d neighbors later in the order
    pos = {v: i for i, v in enumerate(order)}
    adj = g._neighbours()
    for v in order:
        assert sum(1 for u in adj[v] if pos[u] > pos[v]) <= d


def test_greedy_color_kx_chain():
    g = kx_chain(4, 3)
    colors, ncolors = greedy_color(g)
    assert ncolors == 4  # K4 blocks force 4; degeneracy+1 allows no more
    assert all(colors[a] != colors[b] for a, b in g.edges)


def test_greedy_color_random(rng):
    for trial in range(30):
        n = rng.randrange(3, 10)
        g = ConvexGraph(n, random_graph(rng, n, p=0.45))
        colors, ncolors = greedy_color(g)
        order, d = degeneracy_order(g)
        assert all(colors[a] != colors[b] for a, b in g.edges)
        assert ncolors <= d + 1
        assert greedy_color(g, order) == (colors, ncolors)


def test_greedy_color_matches_the_set_rule(rng):
    """Same colors, in the same dict order, and the same count, under the
    degeneracy order and under a shuffled order of the vertices.  An order
    that is not a permutation of 0..n-1 (partial, with a duplicate, or out
    of range) would leave vertices uncoloured, so it is refused."""
    graphs = [ConvexGraph(n, random_graph(rng, n, p=rng.random()))
              for n in (rng.randrange(2, 40) for _ in range(40))]
    graphs += [_sparse_graph_with_isolated_vertices(rng, rng.randrange(31, 120))
               for _ in range(6)]
    graphs += [kx_chain(6, 5), *_kernel_cases()]
    for g in graphs:
        order, _ = degeneracy_order(g)
        shuffled = rng.sample(range(g.n), g.n)
        for o in (order, shuffled):
            got = greedy_color(g, o)
            want = greedy_color_by_sets(g.edges, o)
            assert got == want and list(got[0].items()) == list(want[0].items()), (g, o)
        for o in (shuffled[: g.n // 2], [*shuffled, shuffled[0]], [*shuffled[1:], shuffled[1]],
                  [*shuffled[1:], g.n], [*shuffled[1:], -1]):
            with pytest.raises(ValueError):
                greedy_color(g, o)


def test_bipartition():
    even = ConvexGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    side = bipartition(even)
    assert side is not None
    assert all(side[a] != side[b] for a, b in even.edges)
    odd = ConvexGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert bipartition(odd) is None
    assert is_bipartite(even) and not is_bipartite(odd)
    # isolated vertices are fine
    assert is_bipartite(ConvexGraph(3, []))


def test_adjacency_copy_does_not_reach_the_shared_neighbours():
    # crossing_counts, degeneracy_order, greedy_color and bipartition share
    # one neighbour structure built from the graph, of tuples; a caller's
    # set copy of it, made before those functions ran and after, is its own
    def adjacency(g):
        return [set(nb) for nb in g._neighbours()]

    def scramble(adj):
        for nb in adj:
            nb.clear()
        adj[0].update(range(1, len(adj)))
        adj.append({0})

    def read(h):
        return degeneracy_order(h), greedy_color(h), bipartition(h), crossing_counts(h)

    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    chain = kx_chain(4, 3)
    for n, edges in ((6, hexagon), (chain.n, chain.edges)):
        g = ConvexGraph(n, edges)
        scramble(adjacency(g))
        first = read(g)
        scramble(adjacency(g))
        assert read(g) == first == read(ConvexGraph(n, edges))
        assert adjacency(g) == [{u for e in edges for u in e if v in e and u != v}
                                 for v in range(n)]
    assert read(ConvexGraph(6, hexagon))[2] == (0, 1, 0, 1, 0, 1)


def test_json_round_trip():
    g = ConvexGraph(6, [(0, 3), (1, 2), (0, 5)], coloring=[0, 1, 0, 1, 0, 1])
    text = graph_to_json(g)
    assert graph_from_json(text) == g
    d = to_json_dict(g)
    assert d["edges"] == [[0, 3], [0, 5], [1, 2]]  # a < b, lex sorted
    assert d["coloring"] == [0, 1, 0, 1, 0, 1]
    # coloring key absent when not set
    assert "coloring" not in to_json_dict(ConvexGraph(3, [(0, 1)]))


def test_json_rejects_garbage():
    with pytest.raises(ValueError, match="malformed JSON"):
        graph_from_json("{not json")
    with pytest.raises(ValueError, match="malformed JSON"):
        graph_from_json("[" * 200_000)  # deeper than the decoder recurses
    with pytest.raises(ValueError):
        graph_from_json(json.dumps({"n": 4, "edges": [[0, 1]], "extra": 1}))
    with pytest.raises(ValueError):
        graph_from_json(json.dumps({"edges": [[0, 1]]}))
    with pytest.raises(ValueError):
        graph_from_json(json.dumps({"n": 4, "edges": [[0, 1, 2]]}))
    with pytest.raises(ValueError):
        graph_from_json(json.dumps({"n": 4, "edges": "nope"}))
    with pytest.raises(ValueError):
        graph_from_json(json.dumps({"n": "4", "edges": []}))
    with pytest.raises(ValueError):
        graph_from_json(json.dumps({"n": 4, "edges": [], "coloring": [2, 0, 0, 0]}))
    with pytest.raises(ValueError):
        graph_from_json(json.dumps([1, 2, 3]))


@pytest.mark.parametrize("doc", [
    {"n": 5, "edges": [[0, 1.7]]},
    {"n": 5, "edges": [[0, 1.0]]},
    {"n": 5, "edges": [[0, True]]},
    {"n": 5, "edges": [[False, 1]]},
    {"n": 5, "edges": [[0, "1"]]},
    {"n": 5, "edges": [[0, None]]},
    {"n": 3, "edges": [], "coloring": [0, 0.5, 1]},
    {"n": 3, "edges": [], "coloring": [0, True, 0]},
    {"n": 3, "edges": [], "coloring": [0, "1", 0]},
    {"n": 3, "edges": [], "coloring": "010"},
    {"n": 3, "edges": [], "coloring": {"0": 0}},
])
def test_json_rejects_non_integer_values(doc):
    with pytest.raises(ValueError, match="integer"):
        graph_from_json(json.dumps(doc))


def test_constructor_refuses_what_the_loader_refuses():
    """ConvexGraph and the JSON loader apply one rule with one message per
    fault; nothing is coerced, so a float is refused, not truncated."""
    import numpy as np

    for n, edges, coloring, message in (
        (5, [[0, 1.7]], None, "edge entry [0, 1.7] has an endpoint that is not an integer"),
        (5, [[False, 1]], None, "edge entry [False, 1] has an endpoint that is not an integer"),
        (5, [[0, "1"]], None, "edge entry [0, '1'] has an endpoint that is not an integer"),
        (4, [[0, 1, 2]], None, "edge entry [0, 1, 2] is not a pair"),
        (4, [5], None, "edge entry 5 is not a pair"),
        (4, ["01"], None, "edge entry '01' is not a pair"),
        (4.0, [], None, "'n' must be an integer"),
        (True, [], None, "'n' must be an integer"),
        (3, [], "010", "'coloring' must be a list of integers"),
        (3, [], [0, 0.5, 1], "'coloring' must be a list of integers"),
        (3, [], [0, True, 0], "'coloring' must be a list of integers"),
    ):
        doc = {"n": n, "edges": edges, "coloring": coloring}
        for build in (lambda: ConvexGraph(n, edges, coloring),
                      lambda: graph_from_json(json.dumps(doc))):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message
    # forms JSON cannot spell get the same messages from the constructor
    for edges, message in (
        ([(0, 1, 2)], "edge entry (0, 1, 2) is not a pair"),
        ([{0, 1}], "edge entry {0, 1} is not a pair"),
        ([(np.int64(0), 1)], "has an endpoint that is not an integer"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            ConvexGraph(4, edges)
    with pytest.raises(ValueError, match="'n' must be an integer"):
        ConvexGraph(np.int64(4), [])
    with pytest.raises(ValueError, match="'coloring' must be a list of integers"):
        ConvexGraph(4, [], coloring=np.array([0, 1, 0, 1]))
    assert ConvexGraph(4, [], coloring=[0, 1, 0, 1]).coloring == (0, 1, 0, 1)


def test_crossing_counts_random_against_oracle(rng):
    for trial in range(40):
        n = rng.randrange(4, 10)
        edges = random_graph(rng, n, p=0.5)
        g = ConvexGraph(n, edges)
        assert crossing_counts(g) == crossing_counts_by_subsets(n, g.edges)


def _kernel_cases():
    yield ConvexGraph(2, [])
    yield ConvexGraph(2, [(0, 1)])
    for n in (3, 7, 12):
        yield ConvexGraph(n, [])
        yield ConvexGraph(n, [(i, (i + 1) % n) for i in range(n)])  # hull only
        for centre in (0, n // 2, n - 1):
            yield ConvexGraph(n, [(centre, v) for v in range(n) if v != centre])
        yield ConvexGraph(n, itertools.combinations(range(n), 2))  # K_n


def test_crossing_counts_edge_cases():
    """n = 2, empty, hull-only, stars and K_n against both oracles."""
    for g in _kernel_cases():
        counts = crossing_counts(g)
        expect = crossing_counts_by_subsets(g.n, g.sorted_edges())
        assert list(counts.items()) == list(expect.items()), g
        assert counts == crossing_counts_np(g.n, g.sorted_edges()), g


def test_crossing_counts_scale_against_vectorized_counter(rng):
    """kx_chain(10, 40) and random graphs with 50 <= n <= 150; the keys must
    come in sorted-edge order, which the `verify` writer relies on."""
    graphs = [kx_chain(10, 40)]
    for trial in range(12):
        n = rng.randrange(50, 151)
        graphs.append(ConvexGraph(n, random_graph(rng, n, p=rng.uniform(0.02, 0.2))))
    for g in graphs:
        counts = crossing_counts(g)
        assert list(counts) == g.sorted_edges()
        assert counts == crossing_counts_np(g.n, g.sorted_edges())
    assert max(crossing_counts(graphs[0]).values()) == 16


def _sparse_graph_with_isolated_vertices(rng, n):
    """Up to 2n random chords among a random 60-95 % of the vertices, so at
    least one vertex is isolated."""
    active = rng.sample(range(n), int(n * rng.uniform(0.6, 0.95)))
    edges = set()
    for _ in range(rng.randrange(0, 2 * n)):
        a, b = rng.sample(active, 2)
        edges.add((min(a, b), max(a, b)))
    return ConvexGraph(n, edges)


def test_degeneracy_order_matches_rescan(rng):
    """degeneracy_order removes the vertices in the rescan oracle's order,
    smallest current degree first and then smallest index; the
    greedy_colors that `verify` prints depends on that exact order."""
    for trial in range(200):
        n = rng.randrange(2, 31)
        edges = random_graph(rng, n, p=rng.random())
        g = ConvexGraph(n, edges)
        assert degeneracy_order(g) == degeneracy_order_by_rescan(n, g.edges)
    for trial in range(12):
        g = _sparse_graph_with_isolated_vertices(rng, rng.randrange(31, 301))
        assert not all(g._neighbours())
        assert degeneracy_order(g) == degeneracy_order_by_rescan(g.n, g.edges)
    for g in _kernel_cases():
        assert degeneracy_order(g) == degeneracy_order_by_rescan(g.n, g.edges)
