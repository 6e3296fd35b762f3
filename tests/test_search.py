import hashlib
import json

import pytest

from conftest import brute_best_completion, brute_max_edges, canonical_colorings_by_tuples
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
from outerkplanar.geometry import chords_cross
from outerkplanar.search import (
    _candidate_list,
    _canonical_colorings,
    _cross_table,
    _MODE_COLORINGS,
    _tables,
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
    assert set(SEARCH_MODES) == {
        "general", "bipartite_free", "bipartite_alternating",
        "bipartite_consecutive"}


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
    # the state's size, so the node state holds that many cost layers
    assert upper_prune(6, 10**12, [(0, 3)], [(1, 4), (2, 5)]) == 3


def test_upper_prune_is_admissible(rng):
    # Groups of (cases, largest n, largest k, bipartite, largest min_cost).
    # The first 200 cases leave every other edge undecided.  The later ones
    # leave only edges that cross at least min_cost state edges, as deep
    # search nodes do, so that with k up to 4 the capacity bound is reached
    # with c_min > 1.  Bipartite cases draw all edges from the bichromatic
    # edges of the alternating coloring.
    for cases, n_max, k_max, bipartite, max_min_cost in [
            (200, 7, 2, False, 0), (150, 8, 4, False, 2), (150, 8, 4, True, 2)]:
        for _ in range(cases):
            n = rng.randint(4, n_max)
            k = rng.randint(0, k_max)
            all_edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                         if not bipartite or (a + b) % 2]
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


def test_cross_table_matches_pairwise_rule():
    for n in range(2, 13):
        for mode in SEARCH_MODES:
            if mode == "bipartite_alternating" and n % 2:
                continue
            for coloring in _MODE_COLORINGS[mode](n):
                cands = _candidate_list(n, coloring)
                want = [sum(1 << j for j, f in enumerate(cands) if chords_cross(n, e, f))
                        for e in cands]
                assert _cross_table(n, cands) == want, (n, coloring)
                # the memoized tables the search reads
                assert _tables(n, coloring) == (tuple(cands), tuple(want)), (n, coloring)


def test_memoized_tables_survive_a_k_grid():
    # A k-grid at fixed n reads the same cached tables for every k; a
    # search that changed them would change a later cell's result.
    grid = [("general", 8, k) for k in range(5)] + [("bipartite_free", 8, k) for k in range(4)]
    shared = [max_edges(n, k, mode) for mode, n, k in grid]
    fresh = []
    for mode, n, k in grid:
        _tables.cache_clear()
        fresh.append(max_edges(n, k, mode))
    assert shared == fresh
    for coloring in (None, *_canonical_colorings(8)):
        cands, cross = _tables(8, coloring)
        assert type(cands) is tuple and type(cross) is tuple


def test_budget_exceeded_bipartite_witness():
    # the partial witness is decoded from the incumbent's bitset over the
    # candidates of its own coloring
    for budget in (50, 500, 5000):
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
# sha256 over the same cells of (mode, n, k, nodes_explored), frozen before
# the pruning bound was folded into one function: a change that keeps the
# traversal node for node keeps this digest.
SEARCH_NODES_DIGEST = "ef3fd80240235912ee63e154ff76aa3f6f9cb7893c257e519591be1bf605dce9"


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
    # exclude branch's cost layers decide a capacity prune.
    want = {("general", 8, 3): 18479, ("bipartite_free", 8, 3): 647,
            ("bipartite_alternating", 10, 2): 1113,
            ("bipartite_consecutive", 10, 4): 38706,
            # cells at n >= 10, where the candidate sets are widest
            ("general", 11, 2): 7496, ("general", 12, 1): 41,
            ("bipartite_free", 10, 0): 7747, ("bipartite_free", 10, 2): 34531,
            ("bipartite_alternating", 10, 4): 1961,
            ("bipartite_consecutive", 11, 2): 31227,
            ("bipartite_consecutive", 12, 1): 39559}
    got = {cell: max_edges(cell[1], cell[2], cell[0]).nodes_explored for cell in want}
    assert got == want


# sha256 over the budget-cut runs below of (mode, n, k, budget, max_edges,
# nodes_explored, witness edges, coloring), frozen before the addable
# candidates were kept as bitsets: a search that stops early must stop at
# the same node with the same incumbent.
BUDGET_CUT_DIGEST = "777baccc3308d09420252d24fb54a62dcc0384ec200b3bbe1d1dbabede89da52"


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
