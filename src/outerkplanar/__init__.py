"""Edge-density bounds and exact search for graphs on convex point sets.

A graph lives on n points in convex position, labeled 0..n-1 clockwise;
edges are chords and two chords cross iff their endpoints interleave.
The package provides the crossing predicate and graph type (geometry),
extremal generators (constructions), closed-form upper and lower bounds
(bounds), exact branch-and-bound search for small n (search), max-cut
machinery for circulant graphs C_n^{1..r} (circulant), and a CLI (cli).

The circulant names are resolved on first access (PEP 562), so that
importing the package, or running a CLI subcommand other than
``circulant`` and ``xorsum``, loads neither that module nor numpy.
"""

from .bounds import (
    BIPARTITE_UPPER_VARIANTS,
    CROSSING_LEMMA_FLAVORS,
    DEFAULT_K_MIN,
    GENERAL_UPPER_VARIANTS,
    BoundEntry,
    BoundReport,
    LowerBoundValue,
    MaxMinDegreeBounds,
    bipartite_lower,
    bipartite_upper,
    bound_report,
    crossing_lemma_lower,
    epsilon_for,
    general_lower,
    general_lower_closed_form,
    general_upper,
    maxmindeg_bound,
)
from .constructions import (
    OuterCopyGraph,
    complete_graph,
    concatenate,
    cycle_graph,
    kx_chain,
    kxx_alternating,
    kxx_chain,
    outercopy,
    outercopy_crossing_counts,
)
from .errors import BudgetExceededError, NotApplicableError
from .geometry import (
    ConvexGraph,
    bipartition,
    chord_length,
    chords_cross,
    crossing_counts,
    degeneracy_order,
    diagonals,
    graph_from_json,
    graph_to_json,
    greedy_color,
    hull_edges,
    is_bipartite,
    is_outer_k_planar,
    max_crossing,
    to_json_dict,
)
from .search import (
    MAX_SEARCH_N,
    SEARCH_MODES,
    SearchResult,
    canonical_form,
    max_edges,
    upper_prune,
)

__version__ = "0.1.0"

_CIRCULANT_EXPORTS = (
    "MAXCUT_WORK_BUDGET",
    "CirculantSpec",
    "Cut",
    "dirichlet_kernel",
    "dirichlet_kernel_closed",
    "adjacency_eigenvalue",
    "adjacency_eigenvalues",
    "laplacian_lambda_max",
    "mohar_bound",
    "mercer_inner",
    "mercer_min_bound",
    "lemma_maxcut_bound",
    "cut_value",
    "exact_maxcut",
    "xor_sum",
)

__all__ = [
    "__version__",
    # geometry
    "ConvexGraph",
    "chord_length",
    "chords_cross",
    "crossing_counts",
    "max_crossing",
    "is_outer_k_planar",
    "hull_edges",
    "diagonals",
    "degeneracy_order",
    "greedy_color",
    "bipartition",
    "is_bipartite",
    "to_json_dict",
    "graph_to_json",
    "graph_from_json",
    # constructions
    "complete_graph",
    "cycle_graph",
    "concatenate",
    "kx_chain",
    "kxx_alternating",
    "kxx_chain",
    "OuterCopyGraph",
    "outercopy",
    "outercopy_crossing_counts",
    # bounds
    "GENERAL_UPPER_VARIANTS",
    "BIPARTITE_UPPER_VARIANTS",
    "CROSSING_LEMMA_FLAVORS",
    "DEFAULT_K_MIN",
    "BoundEntry",
    "BoundReport",
    "LowerBoundValue",
    "MaxMinDegreeBounds",
    "epsilon_for",
    "general_upper",
    "general_lower",
    "general_lower_closed_form",
    "bipartite_upper",
    "bipartite_lower",
    "crossing_lemma_lower",
    "maxmindeg_bound",
    "bound_report",
    # circulant
    *_CIRCULANT_EXPORTS,
    # search
    "MAX_SEARCH_N",
    "SEARCH_MODES",
    "SearchResult",
    "max_edges",
    "upper_prune",
    "canonical_form",
    # errors
    "NotApplicableError",
    "BudgetExceededError",
]


def __getattr__(name):
    if name == "circulant" or name in _CIRCULANT_EXPORTS:
        # not `from . import circulant`: that asks this hook for the name again
        from importlib import import_module

        module = import_module(f"{__name__}.circulant")
        return module if name == "circulant" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_CIRCULANT_EXPORTS})
