"""Property tests of the crossing kernel against the conftest oracles."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from outerkplanar import ConvexGraph, crossing_counts  # noqa: E402
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
