"""Edge-density bounds and exact search for graphs on convex point sets.

A graph lives on n points in convex position, labeled 0..n-1 clockwise;
edges are chords and two chords cross iff their endpoints interleave.
The package provides the crossing predicate and graph type (geometry),
extremal generators (constructions), closed-form upper and lower bounds
(bounds), exact branch-and-bound search for small n (search), max-cut
machinery for circulant graphs C_n^{1..r} (circulant), and a CLI (cli).

Importing the package loads none of its modules.  Every name resolves on
first access (PEP 562): a submodule name imports that submodule, and a
public name such as ``max_edges`` imports the submodules in turn until
one lists it in its ``__all__``.  So each CLI subcommand loads only the
modules it calls, and only ``circulant``'s array functions load numpy.
"""

__version__ = "0.1.0"

# the modules whose __all__ make up the package's, in that order
_EXPORTING = ("geometry", "constructions", "bounds", "circulant", "search", "errors")


def _submodule(name):
    # not `from . import name`: that asks __getattr__ below for the name again
    from importlib import import_module

    return import_module(f"{__name__}.{name}")


def __getattr__(name):
    if name in _EXPORTING or name == "cli":
        return _submodule(name)
    if name == "__all__":
        value = ["__version__",
                 *(public for mod in _EXPORTING for public in _submodule(mod).__all__)]
    else:
        owner = not name.startswith("_") and next(
            (module for module in map(_submodule, _EXPORTING) if name in module.__all__),
            None)
        if not owner:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTING, *__getattr__("__all__")})
