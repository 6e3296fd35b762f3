import hashlib
import json
import math

import numpy as np
import pytest

from conftest import (
    brute_best_completion,
    brute_max_edges,
    canonical_colorings_by_tuples,
    node_state_by_definition,
)
from outerkplanar import (
    BudgetExceededError,
    ConvexGraph,
    SEARCH_MODES,
    SearchResult,
    canonical_form,
    complete_graph,
    crossing_counts,
    is_outer_k_planar,
    kxx_alternating,
    max_edges,
    upper_prune,
)
from outerkplanar import search
from outerkplanar.geometry import _crossing_pairs, chord_length, chords_cross
from outerkplanar.search import (
    _canonical_colorings,
    _MODE_COLORINGS,
    _PROVEN_OPTIMA,
    _state,
    _view,
)


def check_witness(res: SearchResult, n, k, mode):
    g = res.witness
    assert g.n == n and g.m == res.max_edges
    assert is_outer_k_planar(g, k)
    if mode != "general":
        assert g.coloring is not None
        assert all(g.coloring[a] != g.coloring[b] for a, b in g.edges)


def test_known_grid_n8():
    got = [max_edges(8, k).max_edges for k in range(4)]
    assert got == [13, 16, 19, 19]


def test_known_grid_n6():
    got = [max_edges(6, k).max_edges for k in range(4)]
    # 14 at k = 3: K_6 minus one long diagonal; 3.25n - 6 = 13 is no bound
    assert got == [9, 11, 12, 14]
    assert max_edges(6, 4).max_edges == 15  # K6 is outer 4-planar


def test_tiny_cases():
    assert max_edges(2, 0).max_edges == 1
    assert max_edges(3, 0).max_edges == 3
    assert max_edges(4, 0).max_edges == 5
    assert max_edges(4, 1).max_edges == 6


def test_witnesses_are_valid():
    for n, k, mode in [(8, 2, "general"), (6, 2, "bipartite_alternating"),
                       (7, 1, "bipartite_free"), (6, 2, "bipartite_consecutive")]:
        res = max_edges(n, k, mode)
        assert res.proven_optimal
        check_witness(res, n, k, mode)


def test_agrees_with_reference_search():
    for n in range(2, 9):
        for k in range(5):
            assert max_edges(n, k).max_edges == brute_max_edges(n, k), (n, k)


def test_bipartite_agrees_with_reference_search():
    for n in (4, 6):
        for k in range(3):
            coloring = tuple(i % 2 for i in range(n))
            want = brute_max_edges(n, k, coloring=coloring)
            assert max_edges(n, k, "bipartite_alternating").max_edges == want


def test_monotone_in_n_and_k():
    vals = {(n, k): max_edges(n, k).max_edges
            for n in range(3, 9) for k in range(4)}
    for (n, k), v in vals.items():
        if (n + 1, k) in vals:
            assert vals[(n + 1, k)] >= v
        if (n, k + 1) in vals:
            assert vals[(n, k + 1)] >= v


def test_mode_hierarchy():
    for n in (6, 8):
        for k in range(3):
            free = max_edges(n, k, "bipartite_free").max_edges
            alt = max_edges(n, k, "bipartite_alternating").max_edges
            cons = max_edges(n, k, "bipartite_consecutive").max_edges
            general = max_edges(n, k).max_edges
            assert alt <= free <= general
            assert cons <= free


def test_alternating_needs_even_n():
    with pytest.raises(ValueError, match="even"):
        max_edges(5, 1, "bipartite_alternating")


def test_six_two_alternating_matches_construction():
    res = max_edges(6, 2, "bipartite_alternating")
    assert res.max_edges == 9
    assert canonical_form(res.witness) == canonical_form(kxx_alternating(3))


def test_input_validation():
    with pytest.raises(ValueError):
        max_edges(13, 1)
    with pytest.raises(ValueError):
        max_edges(1, 1)
    with pytest.raises(ValueError):
        max_edges(6, -1)
    with pytest.raises(ValueError, match=r"^unknown mode 'fastest'; choose one of \('general', "
                       r"'bipartite_free', 'bipartite_alternating', 'bipartite_consecutive'\)$"):
        max_edges(6, 1, "fastest")
    # no silent truncation to (8, 2); numpy ints are integers and pass
    for n, k in [(8.7, 2.9), (8, 2.0), ("8", "2")]:
        with pytest.raises(TypeError):
            max_edges(n, k)
    res = max_edges(np.int64(8), np.uint8(2))
    assert res == max_edges(8, 2) and type(res.settings["n"]) is type(res.settings["k"]) is int
    assert set(SEARCH_MODES) == {
        "general", "bipartite_free", "bipartite_alternating",
        "bipartite_consecutive"}


@pytest.mark.parametrize("mode", SEARCH_MODES)
def test_k_too_large_for_a_float(mode):
    # above floor((n-2)^2/4) no chord can be crossed k times, so every graph
    # qualifies and a huge k searches exactly as the first such k does
    for n in (4, 5, 6, 7):
        if mode == "bipartite_alternating" and n % 2:
            continue
        huge = max_edges(n, 10**400, mode)
        least = max_edges(n, (n - 2) ** 2 // 4 + 1, mode)
        assert (huge.max_edges, huge.nodes_explored, huge.witness) == (
            least.max_edges, least.nodes_explored, least.witness), (mode, n)
        assert huge.proven_optimal and huge.settings["k"] == 10**400

def test_determinism():
    a = max_edges(7, 2)
    b = max_edges(7, 2)
    assert a == b
    assert a.witness.sorted_edges() == b.witness.sorted_edges()


def test_node_budget_partial_result():
    full = max_edges(8, 2)
    assert full.nodes_explored > 20
    with pytest.raises(BudgetExceededError) as info:
        max_edges(8, 2, node_budget=20)
    partial = info.value.result
    assert not partial.proven_optimal
    assert partial.nodes_explored == 21  # budget + the node that tripped it
    assert 0 <= partial.max_edges <= full.max_edges
    assert is_outer_k_planar(partial.witness, 2)


def test_zero_budget_still_returns_something():
    with pytest.raises(BudgetExceededError) as info:
        max_edges(6, 0, node_budget=1)
    assert info.value.result.max_edges >= 0
    # the root already holds the candidates that cross nothing: for the
    # general search on 8 points, the 8 hull edges
    with pytest.raises(BudgetExceededError) as info:
        max_edges(8, 2, node_budget=0)
    partial = info.value.result
    assert partial.nodes_explored == 1 and not partial.proven_optimal
    assert partial.witness.sorted_edges() == sorted(
        tuple(sorted((i, (i + 1) % 8))) for i in range(8))


def test_warm_start_seeds_incumbent():
    seed = complete_graph(5)  # outer 2-planar with 10 edges
    res = max_edges(5, 2, warm_start=seed)
    assert res.max_edges == 10
    cold = max_edges(5, 2)
    assert res.max_edges == cold.max_edges
    # a good seed can only shrink the tree
    assert res.nodes_explored <= cold.nodes_explored


def test_warm_start_rejections():
    with pytest.raises(ValueError, match="n="):
        max_edges(6, 2, warm_start=complete_graph(5))
    with pytest.raises(ValueError, match="not outer"):
        max_edges(6, 1, warm_start=complete_graph(6))
    triangle = ConvexGraph(6, [(0, 2), (2, 4), (0, 4)])
    with pytest.raises(ValueError, match="parity"):
        max_edges(6, 2, "bipartite_alternating", warm_start=triangle)
    with pytest.raises(ValueError, match="not bipartite"):
        max_edges(6, 2, "bipartite_free", warm_start=triangle)
    # the hull 6-cycle forces the alternating bipartition, which no
    # two-arc coloring can realize
    hexagon = ConvexGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(ValueError, match="consecutive"):
        max_edges(6, 2, "bipartite_consecutive", warm_start=hexagon)


def test_warm_start_rotated_consecutive_accepted():
    # blocks {1, 2} vs the rest: a rotation of an anchored split
    g = ConvexGraph(6, [(1, 3), (2, 3), (1, 0), (2, 0), (1, 5), (2, 4)])
    res = max_edges(6, 2, "bipartite_consecutive", warm_start=g)
    assert res.max_edges >= g.m


def test_upper_prune_examples():
    hull6 = [(i, (i + 1) % 6) for i in range(6)]
    chords6 = [(a, b) for a in range(6) for b in range(a + 2, 6)
               if (a, b) != (0, 5)]
    assert upper_prune(6, 0, [], hull6 + chords6) == 9
    k5 = complete_graph(5)
    assert upper_prune(5, 2, list(k5.edges), []) == 10
    # every candidate crosses one state edge; the state has 2 crossings left
    assert upper_prune(6, 2, [(0, 3), (1, 4)], [(1, 5), (2, 4), (0, 2), (3, 5)]) == 4
    # (2, 4) would cross (0, 3), which is already crossed k = 1 times
    assert upper_prune(6, 1, [(0, 3), (1, 4), (4, 5)], [(2, 4)]) == 3
    with pytest.raises(ValueError, match="not outer"):
        upper_prune(5, 1, list(k5.edges), [])
    # a huge k costs no more than a small one: no candidate's cost exceeds
    # the number of candidates, so the node state holds at most one more
    # cost layer than that
    assert upper_prune(6, 10**12, [(0, 3)], [(1, 4), (2, 5)]) == 3
    # vertex 6 keeps one candidate: the 16 candidates and the closed form
    # 2n - 3 = 11 give way to opt(6, 0) + 1 = 10, which (0, 6) attains
    off6 = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    assert upper_prune(7, 0, [], off6 + [(0, 6)]) == 10
    # n and k are checked as max_edges checks them
    for k in (2.5, 2.0, "2"):
        with pytest.raises(TypeError):
            upper_prune(8, k, [], [(0, 1)])
    with pytest.raises(TypeError):
        upper_prune(8.0, 2, [], [(0, 1)])
    with pytest.raises(ValueError, match="^k must be non-negative$"):
        upper_prune(8, -1, [], [(0, 1)])
    cached = _view.cache_info().currsize
    for n in (1, 0, -1, 13, 40):
        with pytest.raises(ValueError, match=r"^upper_prune supports 2 <= n <= 12 \(got n="):
            upper_prune(n, 0, [], [])
    assert _view.cache_info().currsize == cached
    assert upper_prune(np.int64(6), np.int64(0), [], hull6 + chords6) == 9


def test_upper_prune_is_admissible(rng, monkeypatch):
    # Groups of (cases, largest n, largest k, bipartite, largest min_cost,
    # isolate).  The first 200 cases leave every other edge undecided.  The
    # next ones leave only edges that cross at least min_cost state edges,
    # as deep search nodes do, so that with k up to 4 the capacity bound is
    # reached with c_min > 1.  Bipartite cases draw all edges from the
    # bichromatic edges of the alternating coloring.  The isolate cases keep
    # at most two edges at one vertex, where the vertex term binds.
    binding = 0
    for cases, n_max, k_max, bipartite, max_min_cost, isolate in [
            (200, 7, 2, False, 0, False), (150, 8, 4, False, 2, False),
            (150, 8, 4, True, 2, False), (100, 8, 4, False, 0, True),
            (100, 8, 4, True, 1, True)]:
        for _ in range(cases):
            n = rng.randint(4, n_max)
            k = rng.randint(0, k_max)
            all_edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                         if not bipartite or (a + b) % 2]
            if isolate:
                v = rng.randrange(n)
                at_v = [e for e in all_edges if v in e]
                kept = rng.sample(at_v, rng.randint(0, 2))
                all_edges = [e for e in all_edges if v not in e or e in kept]
            rng.shuffle(all_edges)
            state = []
            for e in all_edges:
                if rng.random() < 0.3:
                    trial = ConvexGraph(n, state + [e])
                    if max(crossing_counts(trial).values(), default=0) <= k:
                        state.append(e)
            min_cost = rng.randint(0, max_min_cost) if max_min_cost else 0
            remaining = [e for e in all_edges if e not in state
                         and sum(chords_cross(n, e, f) for f in state) >= min_cost]
            bound = upper_prune(n, k, state, remaining, bipartite=bipartite)
            true_best = brute_best_completion(n, k, state, remaining)
            assert bound >= true_best, (n, k, bipartite, state, remaining)
            with monkeypatch.context() as m:
                m.setattr(search, "_PROVEN_OPTIMA", {})
                binding += bound < upper_prune(n, k, state, remaining, bipartite=bipartite)
    assert binding >= 50  # the vertex term was tested where it decides


def test_ceiling_only_stops_the_search(monkeypatch):
    # The closed-form ceiling may end a search early but never changes its
    # answer: lifted to C(n, 2), it leaves every value, proof flag and
    # witness as they were.  A ceiling below the optimum fails here, as the
    # k = 3 small_k row did while it was marked valid: general (10,3)
    # printed 26, proven, and the optimum is 27.
    cells = [(mode, n, k) for mode in SEARCH_MODES for n in range(3, 11)
             if not (mode == "bipartite_alternating" and n % 2) for k in range(4)]
    want = [max_edges(n, k, mode) for mode, n, k in cells]
    monkeypatch.setattr(search, "_least_upper", lambda n, k, bipartite: math.comb(n, 2))
    for cell, res in zip(cells, want):
        lifted = max_edges(cell[1], cell[2], cell[0])
        assert (lifted.max_edges, lifted.proven_optimal, lifted.witness) \
            == (res.max_edges, res.proven_optimal, res.witness), cell


def test_canonical_form_examples():
    g = ConvexGraph(4, [(0, 1)])
    for e in [(1, 2), (2, 3), (0, 3)]:
        assert canonical_form(ConvexGraph(4, [e])) == canonical_form(g)
    # a chord is not a hull edge
    assert canonical_form(ConvexGraph(4, [(0, 2)])) != canonical_form(g)


def test_canonical_form_dihedral_invariance(rng):
    from conftest import random_graph
    for _ in range(150):
        n = rng.randint(3, 9)
        g = ConvexGraph(n, random_graph(rng, n, 0.4))
        base = canonical_form(g)
        s = rng.randrange(n)
        rot = ConvexGraph(n, [((a + s) % n, (b + s) % n) for a, b in g.edges])
        ref = ConvexGraph(n, [((-a) % n, (-b) % n) for a, b in g.edges])
        assert canonical_form(rot) == base
        assert canonical_form(ref) == base


def test_search_result_settings():
    res = max_edges(6, 1, "bipartite_free")
    assert res.settings == {"n": 6, "k": 1, "mode": "bipartite_free"}


def test_canonical_colorings_match_tuple_oracle():
    for n in range(2, 13):
        assert _canonical_colorings(n) == tuple(canonical_colorings_by_tuples(n)), n


def test_crossing_bitsets_match_pairwise_rule():
    # the general view's table, and each coloring's view re-indexed from
    # it, against the pairwise rule on its chords in candidate order
    for _, n, coloring in every_search_coloring(range(2, 13)):
        chords = sorted(((a, b) for a in range(n) for b in range(a + 1, n)),
                        key=lambda e: (chord_length(n, e), e))
        cands = [e for e in chords if coloring is None or coloring[e[0]] != coloring[e[1]]]
        want = [sum(1 << j for j, f in enumerate(cands) if chords_cross(n, e, f))
                for e in cands]
        view = _view(n, coloring)
        assert (view.cands, view.cross) == (tuple(cands), tuple(want)), (n, coloring)


def every_search_coloring(n_values):
    for n in n_values:
        for mode in SEARCH_MODES:
            if mode == "bipartite_alternating" and n % 2:
                continue
            for coloring in _MODE_COLORINGS[mode](n):
                yield mode, n, coloring


def test_symmetry_group_preserves_candidates_and_crossings():
    for mode, n, coloring in every_search_coloring(range(3, 13)):
        cands, cross, *_, maps, _ = _view(n, coloring)
        m = len(cands)
        index = {e: i for i, e in enumerate(cands)}
        # every dihedral map that keeps the candidate set, as an index map
        want = set()
        for sign in (1, -1):
            for t in range(n):
                image = [tuple(sorted(((sign * a + t) % n, (sign * b + t) % n)))
                         for a, b in cands]
                if set(image) == set(cands):
                    want.add(tuple(index[e] for e in image))
        want.discard(tuple(range(m)))
        assert set(maps) == want and len(maps) == len(want), (n, coloring)
        for p in maps:
            for i in range(m):
                moved = sum(1 << p[j] for j in range(m) if cross[i] >> j & 1)
                assert moved == cross[p[i]], (n, coloring, p, i)
        if mode == "general":
            assert len(maps) == 2 * n - 1


def test_candidates_crossing_nothing_come_first():
    # the search's root includes these and keeps the whole group, which is
    # sound because they are a prefix of the candidates that every map of
    # the group sends onto itself
    for _, n, coloring in every_search_coloring(range(3, 13)):
        view = _view(n, coloring)
        free = [i for i, x in enumerate(view.cross) if not x]
        assert free == list(range(view.free)), (n, coloring)
        for p in view.group:
            assert sorted(p[i] for i in free) == free, (n, coloring, p)



def test_general_10_4_proves_29():
    # left unproven at 3M nodes before orbital branching; the MILP agrees
    res = max_edges(10, 4, node_budget=3_000_000)
    assert res.proven_optimal and res.max_edges == 29
    check_witness(res, 10, 4, "general")


def test_memoized_records_survive_a_k_grid():
    # A k-grid at fixed n reads the same cached records for every k; a
    # search that changed them would change a later cell's result.
    grid = [("general", 8, k) for k in range(5)] + [("bipartite_free", 8, k) for k in range(4)]
    shared = [max_edges(n, k, mode) for mode, n, k in grid]
    fresh = []
    for mode, n, k in grid:
        _view.cache_clear()
        fresh.append(max_edges(n, k, mode))
    assert shared == fresh
    for coloring in (None, *_canonical_colorings(8)):
        cands, cross, words, ones, guard, group, free = _view(8, coloring)
        assert type(cands) is type(cross) is type(words) is type(group) is tuple
        assert type(ones) is type(guard) is type(free) is int


def test_one_crossing_table_per_n(monkeypatch):
    # a bipartite_free search builds the 4-subset table once, in the
    # general view, and each coloring's view from it; upper_prune reads its
    # n's general view and no other
    tables = []
    monkeypatch.setattr(search, "_crossing_pairs",
                        lambda n: tables.append(n) or _crossing_pairs(n))
    _view.cache_clear()
    max_edges(10, 2, "bipartite_free")
    assert tables == [10]
    assert _view.cache_info().misses == 1 + len(_canonical_colorings(10))
    upper_prune(11, 3, [(0, 5), (1, 7)], [(2, 9), (3, 10)])
    assert tables == [10, 11]
    assert _view.cache_info().misses == 2 + len(_canonical_colorings(10))
    _view(11, None)
    assert _view.cache_info().misses == 2 + len(_canonical_colorings(10))


def test_budget_exceeded_bipartite_witness():
    # the partial witness is decoded from the incumbent's bitset over the
    # candidates of its own coloring; the cell proves in 3,060 nodes
    for budget in (50, 500, 3000):
        with pytest.raises(BudgetExceededError) as info:
            max_edges(10, 2, "bipartite_free", node_budget=budget)
        partial = info.value.result
        assert not partial.proven_optimal
        check_witness(partial, 10, 2, "bipartite_free")


def test_unbeaten_warm_start_is_returned():
    for n, k, mode in [(8, 2, "general"), (8, 2, "bipartite_free")]:
        cold = max_edges(n, k, mode)
        g = cold.witness
        # a rotation of the optimum: as good, but not the graph the search finds
        warm = ConvexGraph(n, [((a + 1) % n, (b + 1) % n) for a, b in g.edges],
                           g.coloring and g.coloring[-1:] + g.coloring[:-1])
        assert warm.edges != g.edges
        res = max_edges(n, k, mode, warm_start=warm)
        assert res.proven_optimal and res.max_edges == cold.max_edges
        assert res.witness == warm  # its edges and its coloring
        check_witness(res, n, k, mode)


def test_beaten_warm_start_gives_the_cold_witness():
    # The first optimal graph in search order is never pruned, whatever
    # worse incumbent the search starts from.
    for n, k, mode in [(8, 2, "general"), (8, 2, "bipartite_free")]:
        cold = max_edges(n, k, mode)
        hull = ConvexGraph(n, [(i, (i + 1) % n) for i in range(n)],
                           [i % 2 for i in range(n)] if mode != "general" else None)
        res = max_edges(n, k, mode, warm_start=hull)
        assert res.max_edges == cold.max_edges > hull.m
        assert res.witness == cold.witness  # edges and coloring


# Every mode at n <= 9, k <= 4, except general (9,3) and (9,4), which
# take seconds rather than milliseconds to prove.
DIGEST_CELLS = [
    (mode, n, k)
    for mode in SEARCH_MODES
    for n in range(2, 10)
    if not (mode == "bipartite_alternating" and n % 2)
    for k in range(5)
    if (mode, n, k) not in {("general", 9, 3), ("general", 9, 4)}
]
# sha256 over those cells of (mode, n, k, max_edges, witness edges,
# coloring), as the search printed them before dominance pruning, the
# 4-subset crossing table and integer colorings came in (with the k = 3
# small-k row already conditional).
SEARCH_DIGEST = "472df695ed2e555956851c6032b962c8ce7e3a53861f03de5131733d2e086924"
# sha256 over the same cells of (mode, n, k, nodes_explored), frozen when
# the search's root came to hold the candidates that cross nothing
# (117,772 nodes over the cells before orbital branching, 55,024 after
# it, 39,508 with the vertex term, 37,818 with that root): a change that
# keeps the traversal node for node keeps this digest.
SEARCH_NODES_DIGEST = "4d5d08efe94e2a686c8ea835cbd82324491b4722c9fe16ec34a04512a512177b"


def test_search_results_frozen():
    h = hashlib.sha256()
    h_nodes = hashlib.sha256()
    for mode, n, k in DIGEST_CELLS:
        res = max_edges(n, k, mode)
        assert res.proven_optimal
        row = [mode, n, k, res.max_edges, res.witness.sorted_edges(), res.witness.coloring]
        h.update(json.dumps(row).encode())
        h_nodes.update(json.dumps([mode, n, k, res.nodes_explored]).encode())
    assert h.hexdigest() == SEARCH_DIGEST
    assert h_nodes.hexdigest() == SEARCH_NODES_DIGEST


def test_nodes_explored_frozen():
    # nodes_explored is printed output too: a pruning change that moves
    # these counts updates them and lists the change in CHANGES.md.
    # (bipartite_consecutive, 10, 4) is one of the few cells where the
    # exclude branch's cost layers decide a capacity prune.  Each count is
    # the one from before the root held the candidates that cross nothing,
    # less their number for each coloring whose root is not cut.
    want = {("general", 8, 3): 4841 - 8, ("bipartite_free", 8, 3): 547 - 67,
            ("bipartite_alternating", 10, 2): 161 - 10,
            ("bipartite_consecutive", 10, 4): 3260 - 17,
            # cells at n >= 10, where the candidate sets are widest
            ("general", 11, 2): 6658 - 11, ("general", 12, 1): 41 - 12,
            ("bipartite_free", 10, 0): 1425 - 225, ("bipartite_free", 10, 2): 3261 - 201,
            ("bipartite_alternating", 10, 4): 841 - 10,
            ("bipartite_consecutive", 11, 2): 4553 - 18,
            ("bipartite_consecutive", 12, 1): 8643 - 21}
    got = {cell: max_edges(cell[1], cell[2], cell[0]).nodes_explored for cell in want}
    assert got == want


# sha256 over the budget-cut runs below of (mode, n, k, budget, max_edges,
# nodes_explored, witness edges, coloring), frozen when the search's root
# came to hold the candidates that cross nothing: a search that stops
# early must stop at the same node with the same incumbent.
BUDGET_CUT_DIGEST = "bbdfcc3d3cdffe7f49cce9092e455db659e7a6036be8d84aeb8a746bb0d5147e"


def test_budget_cut_incumbents_frozen():
    h = hashlib.sha256()
    for mode, n, k in [("general", 11, 2), ("general", 10, 4), ("bipartite_free", 10, 2),
                       ("bipartite_consecutive", 12, 1), ("bipartite_alternating", 10, 4)]:
        for budget in (0, 1, 7, 100, 1000, 5000):
            try:
                res = max_edges(n, k, mode, node_budget=budget)
            except BudgetExceededError as exc:
                res = exc.result
            h.update(json.dumps([mode, n, k, budget, res.max_edges, res.nodes_explored,
                                 res.witness.sorted_edges(), res.witness.coloring]).encode())
    assert h.hexdigest() == BUDGET_CUT_DIGEST


def test_packed_live_degrees_match_popcounts(rng):
    # the search's guard-bit test prunes exactly where the vertex term, on
    # per-vertex popcounts, is at most the incumbent: with th1 = best -
    # opt(n - 1) + 1, some live degree is below th1
    for _, n, coloring in every_search_coloring(range(2, 13)):
        cands, _, words, ones, guard, *_ = _view(n, coloring)
        f = (n - 1).bit_length() + 1
        vmask = [sum(1 << i for i, e in enumerate(cands) if v in e) for v in range(n)]
        for trial in range(6):
            live = (1 << len(cands)) - 1 if trial == 0 else rng.getrandbits(len(cands))
            deg = sum(w for i, w in enumerate(words) if live >> i & 1)
            degrees = [(live & mask).bit_count() for mask in vmask]
            assert [deg >> f * v & (1 << f) - 1 for v in range(n)] == degrees
            for th1 in range(1, 2 ** (f - 1) + 1):  # best - opt(n - 1) <= n - 1 < 2^(f-1)
                cut = ((deg | guard) - th1 * ones) & guard != guard
                assert cut == (min(degrees) <= th1 - 1), (n, coloring, live, th1)


def test_node_state_matches_definitions(rng):
    # _state against conftest's oracle, on random included and undecided
    # sets over every view with n <= 9, at small k and at a huge one
    for _, n, coloring in every_search_coloring(range(2, 10)):
        cands, cross, *_, free = _view(n, coloring)
        m = len(cands)
        for k in (0, 1, 2, 3, 4, 10**12):
            # the root, as _solve once built it by hand: the candidates
            # that cross no candidate included, the others addable at cost 0
            rest = (1 << m) - (1 << free)
            assert _state(cross, k, (1 << free) - 1, (1 << m) - 1) \
                == (rest, [rest] + [0] * min(k, m), k * free, free), (n, coloring, k)
            for _ in range(4):
                p = rng.random() / 2
                included = sum(1 << i for i in range(m) if rng.random() < p)
                undecided = rng.getrandbits(m) if m else 0
                want = node_state_by_definition(
                    n, k, {e for i, e in enumerate(cands) if included >> i & 1},
                    {e for i, e in enumerate(cands) if undecided >> i & 1})
                if want is None:
                    with pytest.raises(ValueError, match="^state is not outer k-planar$"):
                        _state(cross, k, included, undecided)
                    continue
                feas, layers, cap, m_inc = _state(cross, k, included, undecided)
                addable, costs, headroom, edges = want
                assert feas == sum(1 << cands.index(e) for e in addable)
                assert len(layers) == min(k, m) + 1
                assert layers == [sum(1 << cands.index(e) for e in addable if costs[e] == c)
                                  for c in range(len(layers))]
                assert (cap, m_inc) == (headroom, edges)


def test_proven_optima_reprove():
    # every entry of the table, re-proven row by row from n = 2, each row
    # with the rows just proven: the table checks itself by induction
    assert prove_optima({key: range(len(row)) for key, row in _PROVEN_OPTIMA.items()}) \
        == _PROVEN_OPTIMA


def test_bipartite_free_12_3_proves_24():
    # left unproven at 3M nodes before the vertex term; the MILP agrees
    res = max_edges(12, 3, "bipartite_free", node_budget=3_000_000)
    assert res.proven_optimal and res.max_edges == 24
    check_witness(res, 12, 3, "bipartite_free")


def prove_optima(rows, budget=3_000_000):
    """Prove max_edges on the cells ``rows`` names, {(mode, n): ks}, in
    increasing n and k, with the search reading the rows proven so far as
    its ``_PROVEN_OPTIMA``; a row stops at its first k not proven within
    ``budget`` nodes.  Returns the proven rows, {(mode, n): values}."""
    proven = {}
    frozen = search._PROVEN_OPTIMA
    search._PROVEN_OPTIMA = proven
    try:
        for mode, n in sorted(rows, key=lambda key: (key[1], key[0])):
            row = []
            for k in rows[mode, n]:
                try:
                    row.append(max_edges(n, k, mode, node_budget=budget).max_edges)
                except BudgetExceededError:
                    break
            proven[mode, n] = tuple(row)
    finally:
        search._PROVEN_OPTIMA = frozen
    return proven


if __name__ == "__main__":
    # prints the rows of outerkplanar/_optima.py, rebuilt from nothing
    table = prove_optima({(mode, n): range(7) for n in range(2, 12)
                          for mode in ("general", "bipartite_free", "bipartite_consecutive")})
    for (mode, n), row in sorted(table.items()):
        print(f"    ({mode!r}, {n}): {row},")
