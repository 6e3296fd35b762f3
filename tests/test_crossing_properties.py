"""Property tests of the crossing kernel and of the `verify` report
against the conftest oracles."""

import io
import itertools
import json
import sys
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from outerkplanar import (  # noqa: E402
    ConvexGraph,
    complete_graph,
    crossing_counts,
    degeneracy_order,
    graph_to_json,
    greedy_color,
    is_bipartite,
)
from outerkplanar.cli import run  # noqa: E402
from conftest import crossing_counts_by_subsets, crossing_counts_np  # noqa: E402


@st.composite
def convex_graphs(draw, max_n):
    """A vertex count in 2..max_n and any chord set; half the time the
    complement of the drawn set, so that near-complete graphs come up too."""
    n = draw(st.integers(2, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    if draw(st.booleans()):
        chosen = set(pairs) - chosen
    return ConvexGraph(n, chosen)


@settings(max_examples=300, deadline=None)
@given(convex_graphs(12))
def test_crossing_counts_match_subset_oracle(g):
    counts = crossing_counts(g)
    expect = crossing_counts_by_subsets(g.n, g.sorted_edges())
    assert list(counts.items()) == list(expect.items())


@settings(max_examples=100, deadline=None)
@given(convex_graphs(60))
def test_crossing_counts_match_vectorized_oracle(g):
    counts = crossing_counts(g)
    assert list(counts) == g.sorted_edges()
    assert counts == crossing_counts_np(g.n, g.sorted_edges())


def verify_reference(g, k):
    """The `verify` payload built as a list of dicts and dumped whole."""
    counts = crossing_counts(g)
    order, degeneracy = degeneracy_order(g)
    payload = {"n": g.n, "m": g.m}
    if k is not None:
        payload["k"] = k
        payload["outer_k_planar"] = max(counts.values(), default=0) <= k
    payload["max_crossing"] = max(counts.values(), default=0)
    payload["bipartite"] = is_bipartite(g)
    payload["degeneracy"] = degeneracy
    payload["greedy_colors"] = greedy_color(g, order)[1]
    payload["per_edge_crossings"] = [
        {"edge": list(e), "crossings": counts[e]} for e in g.sorted_edges()
    ]
    return json.dumps(payload, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(convex_graphs(12), st.one_of(st.none(), st.integers(0, 8)))
@example(ConvexGraph(2, []), None)
@example(ConvexGraph(2, [(0, 1)]), 0)
@example(ConvexGraph(9, []), 3)
@example(complete_graph(12), None)
@example(complete_graph(12), 3)
def test_verify_output_matches_json_dumps(g, k):
    argv = ["verify", "-"] + ([] if k is None else ["--k", str(k)])
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(graph_to_json(g))):
        assert run(argv, out) == 0
    assert out.getvalue() == verify_reference(g, k)
    assert list(crossing_counts(g)) == g.sorted_edges()
    rows = json.loads(out.getvalue())["per_edge_crossings"]
    expect = crossing_counts_by_subsets(g.n, g.sorted_edges())
    assert [(tuple(r["edge"]), r["crossings"]) for r in rows] == list(expect.items())
