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

from . import bounds, constructions, errors, geometry, search
from .bounds import *  # noqa: F403
from .constructions import *  # noqa: F403
from .errors import *  # noqa: F403
from .geometry import *  # noqa: F403
from .search import *  # noqa: F403

__version__ = "0.1.0"

# circulant.__all__, written out because reading it would import the module
_CIRCULANT_EXPORTS = (
    "MAXCUT_WORK_BUDGET",
    "MERCER_C0",
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
    *geometry.__all__,
    *constructions.__all__,
    *bounds.__all__,
    *_CIRCULANT_EXPORTS,
    *search.__all__,
    *errors.__all__,
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
