"""Command-line front end.

Subcommands
-----------
bounds     closed-form upper/lower bounds for one (n, k), as a report or a
           single variant value
construct  emit a generated graph as JSON
verify     read graph JSON and report crossing statistics
search     exact maximum edge count by branch and bound
circulant  max-cut values and bounds for C_n^{1..r}
xorsum     the cyclic / bounded xor double sum of a bit string
sweep      evaluate all bounds over an (n, k) grid as plot-ready rows

All failures exit nonzero and print a structured record
``{"error": {"code": ..., "message": ...}}`` so callers can dispatch on
the code without parsing prose.  Exit codes: invalid-flags 2,
malformed-json 3, not-applicable 4, budget-exceeded 5, invalid-input 6.

Real-valued outputs are rounded to ``--precision`` significant digits
(default 6).  All output is deterministic: the same invocation produces
byte-identical bytes on every run.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from importlib import import_module

from .errors import BudgetExceededError, NotApplicableError

__all__ = ["main", "run", "build_parser", "CliError", "ENV_NODE_BUDGET"]

ENV_NODE_BUDGET = "OUTERKPLANAR_NODE_BUDGET"

_EXIT_CODES = {
    "invalid-flags": 2,
    "malformed-json": 3,
    "not-applicable": 4,
    "budget-exceeded": 5,
    "invalid-input": 6,
}

# library exception -> error code, for every refusal a handler lets pass;
# the first match wins, so NotApplicableError (a ValueError) comes first
_LIBRARY_ERRORS = {
    NotApplicableError: "not-applicable",
    BudgetExceededError: "budget-exceeded",
    ValueError: "invalid-input",
    OverflowError: "invalid-input",
}


# The modules whose public names the handlers call.  A handler loads its
# modules with _load on first use, which binds each module's __all__ into
# this module's globals; a name already set here, such as a wrapper a test
# or the benchmark put on cli.crossing_counts, is kept, and is what the
# handler calls.  Before any command has run, the module __getattr__ below
# loads a name on request, so it can be read and replaced from outside.
_MODULES = ("bounds", "constructions", "geometry", "search")


def _load(*modules: str) -> None:
    for module in modules:
        loaded = import_module(f"{__package__}.{module}")
        for name in loaded.__all__:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name):
    if not name.startswith("_"):
        for module in _MODULES:
            _load(module)
            if name in globals():
                return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CliError(Exception):
    """A failure with a machine-readable code; its message is str(err)."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # Argparse wants to print usage and die; we want a structured record.
    def error(self, message):
        raise CliError("invalid-flags", message)


def _at_least(value: int, low: int, flag: str) -> None:
    """Refuse ``value`` below ``low`` as an invalid ``flag``."""
    if value < low:
        floor = "non-negative" if low == 0 else f"at least {low}"
        raise CliError("invalid-flags", f"{flag} must be {floor}")


def _check_precision(args) -> None:
    # from 767 digits up every double prints the same bytes; far above that
    # format() runs out of memory or refuses the format string
    _at_least(args.precision, 1, "--precision")
    if args.precision > 1000:
        raise CliError("invalid-flags", "--precision must be at most 1000")


def _fmt(value: float | None, precision: int) -> str:
    """A real rounded to `precision` significant digits, as text; "" for no
    value.  A non-finite real raises OverflowError: no output prints one."""
    if value is None:
        return ""
    if not math.isfinite(value):
        raise OverflowError("the result lies outside the float range")
    return format(value, f".{precision}g")


def _num(value: float | None, precision: int) -> float | None:
    """_fmt's rounding as a JSON number; None (null) for no value."""
    return None if value is None else float(_fmt(value, precision))


def _dump(payload: dict | list) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _load_graph(path: str):
    try:
        if path == "-":
            # decode the bytes strictly, as a file is; a text-only stdin
            # (no .buffer) is read as it is
            stdin = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if stdin is None else stdin.read().decode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise CliError("invalid-input", f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError("malformed-json", f"malformed JSON: {exc}") from exc
    try:
        return graph_from_json(text)
    except ValueError as exc:
        raise CliError("malformed-json", str(exc)) from exc


# ---------------------------------------------------------------- bounds


def _csv(header, rows) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _k_min(args) -> int:
    if args.k_threshold is None:
        return DEFAULT_K_MIN
    _at_least(args.k_threshold, 0, "--k-threshold")
    return args.k_threshold


def _cmd_bounds(args) -> str:
    _load("bounds")
    _check_precision(args)
    _at_least(args.n, 2, "--n")
    _at_least(args.k, 0, "--k")
    if args.variant is not None:
        table = BIPARTITE_UPPER_VARIANTS if args.bipartite else GENERAL_UPPER_VARIANTS
        if args.variant not in table:
            family = "bipartite" if args.bipartite else "general"
            raise CliError(
                "invalid-flags",
                f"unknown {family} variant {args.variant!r}; choose from {sorted(table)}",
            )
        upper = bipartite_upper if args.bipartite else general_upper
        value = upper(args.n, args.k, args.variant, k_min=_k_min(args))
        return _fmt(value, args.precision) + "\n"
    report = bound_report(args.n, args.k, bipartite=args.bipartite,
                          k_min=_k_min(args))
    if args.format == "csv":
        return _csv(["name", "kind", "value", "valid", "source"],
                    ([e.name, e.kind, _fmt(e.value, args.precision), e.valid, e.source]
                     for e in report.entries))
    entries = [{**e._asdict(), "value": _num(e.value, args.precision)} for e in report.entries]
    return _dump({**report._asdict(), "entries": entries})


# ------------------------------------------------------------- construct

# kind -> (the builder's name in this module, its flags in argument order);
# the builder is looked up when called, so a wrapper put on cli is used
_CONSTRUCT = {
    "complete": ("complete_graph", ("x",)),
    "cycle": ("cycle_graph", ("n",)),
    "kx-chain": ("kx_chain", ("x", "blocks")),
    "kxx-alternating": ("kxx_alternating", ("x",)),
    "kxx-chain": ("kxx_chain", ("x", "blocks")),
}


def _cmd_construct(args) -> str:
    _load("constructions", "geometry")
    builder, wanted = _CONSTRUCT[args.kind]
    for flag in ("x", "n", "blocks"):
        have = getattr(args, flag) is not None
        if have and flag not in wanted:
            raise CliError("invalid-flags",
                           f"construct {args.kind} does not take --{flag}")
        if not have and flag in wanted:
            raise CliError("invalid-flags",
                           f"construct {args.kind} requires --{flag}")
    g = globals()[builder](*(getattr(args, flag) for flag in wanted))
    return _dump(to_json_dict(g))


# ---------------------------------------------------------------- verify


_EDGE_ROW = ('    {\n      "edge": [\n        %d,\n        %d\n      ],\n'
             '      "crossings": %d\n    }')


def _cmd_verify(args) -> str:
    _load("geometry")
    g = _load_graph(args.file)
    if args.k is not None:
        _at_least(args.k, 0, "--k")
    if g.n > _VERIFY_MAX_N:  # the message names no n: it may be too long to print
        raise CliError("budget-exceeded", "the graph has more vertices than the cap of "
                                          f"{_VERIFY_MAX_N}")
    # A vertex without edges crosses nothing, is removed first at degree 0,
    # takes colour 0 last and leaves bipartiteness alone, so the statistics
    # may walk only the vertices that carry an edge, relabelled in
    # increasing order: that keeps every crossing and the (degree, index)
    # tie order.  With no edges, two vertices answer as any number do.
    # Relabelling costs about what walking m/2 isolated vertices does
    # (timed at m = 100..1,800), and n > 5m/2 leaves more than that many,
    # as at most 2m vertices carry an edge.
    h = g
    if 2 * g.n > 5 * g.m:
        labels = sorted(set().union(*g.edges))
        rank = {v: i for i, v in enumerate(labels)}
        h = ConvexGraph(max(len(labels), 2), [(rank[a], rank[b]) for a, b in g.edges])
    counts = crossing_counts(h)
    if h is not g:
        counts = {(labels[a], labels[b]): c for (a, b), c in counts.items()}
    worst = max(counts.values(), default=0)
    order, degeneracy = degeneracy_order(h)
    _, ncolors = greedy_color(h, order)
    payload = {"n": g.n, "m": g.m}
    if args.k is not None:
        payload["k"] = args.k
        payload["outer_k_planar"] = worst <= args.k
    payload["max_crossing"] = worst
    payload["bipartite"] = is_bipartite(h)
    payload["degeneracy"] = degeneracy
    payload["greedy_colors"] = ncolors
    # The per-edge list is most of the output, and json.dumps with indent
    # runs its pure-Python encoder, so the rows are written from a template
    # that reproduces its bytes; counts is keyed in sorted-edge order.
    head = json.dumps(payload, indent=2)[:-2]  # drop the closing "\n}"
    if not counts:
        return head + ',\n  "per_edge_crossings": []\n}\n'
    rows = ",\n".join([_EDGE_ROW % (a, b, c) for (a, b), c in counts.items()])
    return head + ',\n  "per_edge_crossings": [\n' + rows + "\n  ]\n}\n"


# ---------------------------------------------------------------- search


def _search_payload(result) -> dict:
    return {
        "max_edges": result.max_edges,
        "proven_optimal": result.proven_optimal,
        "nodes_explored": result.nodes_explored,
        "settings": result.settings,
        "witness": to_json_dict(result.witness),
    }


def _node_budget(args) -> int | None:
    if args.budget_nodes is not None:
        _at_least(args.budget_nodes, 0, "--budget-nodes")
        return args.budget_nodes
    raw = os.environ.get(ENV_NODE_BUDGET)
    if raw is None or raw == "":
        return None
    try:
        budget = int(raw)
    except ValueError as exc:
        raise CliError("invalid-flags",
                       f"{ENV_NODE_BUDGET} must be an integer, got {raw!r}") from exc
    _at_least(budget, 0, ENV_NODE_BUDGET)
    return budget


def _cmd_search(args) -> str:
    _load("search", "geometry")
    mode = "general" if args.bipartite is None else f"bipartite_{args.bipartite}"
    warm = _load_graph(args.warm_start) if args.warm_start else None
    budget = _node_budget(args)
    result = max_edges(args.n, args.k, mode, node_budget=budget, warm_start=warm)
    return _dump(_search_payload(result))


# ------------------------------------------------------------- circulant


# method -> its bound, given the circulant module and the spec
_CIRCULANT_BOUNDS = {
    "mohar": lambda circ, spec: circ.mohar_bound(spec),
    "lemma": lambda circ, spec: circ.lemma_maxcut_bound(spec),
    "lemma-refined": lambda circ, spec: circ.lemma_maxcut_bound(spec, refined=True),
}


def _cmd_circulant(args) -> str:
    from . import circulant as circ

    _check_precision(args)
    spec = circ.CirculantSpec(args.n, args.r)
    payload = {"n": args.n, "r": args.r, "method": args.method}
    if args.method == "exact":
        cut = circ.exact_maxcut(spec)
        payload["value"] = cut.value
        payload["sides"] = list(cut.sides)
    else:
        payload["value"] = _num(_CIRCULANT_BOUNDS[args.method](circ, spec), args.precision)
    return _dump(payload)


# ---------------------------------------------------------------- xorsum


def _cmd_xorsum(args) -> str:
    bits = args.bits
    if not bits or any(ch not in "01" for ch in bits):
        raise CliError("invalid-input",
                       "--bits must be a nonempty string over {0,1}")
    _at_least(args.r, 1, "--r")
    from . import circulant as circ

    mode = "bounded" if args.bounded else "cyclic"
    value = circ.xor_sum(bits, args.r, mode=mode)
    return _dump({"n": len(bits), "r": args.r, "mode": mode, "value": value})


# ----------------------------------------------------------------- sweep

# The most cells a sweep evaluates: it admits the full n 2..498 by k 0..200 grid
# (99,897 cells) and bounds a JSON sweep, which holds every row before writing.
_SWEEP_MAX_CELLS = 100_000
# The most vertices verify reads.  Its work follows the edges, not n (a graph
# with more than 5m/2 vertices is walked on those that carry an edge), so the
# cap is a stated limit on the input, not a guard on memory.
_VERIFY_MAX_N = 1 << 20


def _cmd_sweep(args) -> str:
    _load("bounds")
    _check_precision(args)
    _at_least(args.n_from, 2, "--n-from")
    if args.n_to < args.n_from or args.k_to < args.k_from:
        raise CliError("invalid-flags", "grid is empty: check --n-to / --k-to")
    if args.n_step < 1 or args.k_step < 1:
        raise CliError("invalid-flags", "steps must be at least 1")
    _at_least(args.k_from, 0, "--k-from")
    cells = (((args.n_to - args.n_from) // args.n_step + 1)
             * ((args.k_to - args.k_from) // args.k_step + 1))
    if cells > _SWEEP_MAX_CELLS:  # the message names no count: it may be too long to print
        raise CliError("budget-exceeded", "the grid has more cells than the cap of "
                                          f"{_SWEEP_MAX_CELLS}")
    k_min = _k_min(args)
    # one bound_report per cell, in grid order, whichever format writes the
    # entries: the benchmark's traced bounds.sweep_s times those calls
    entries = ((n, k, e) for n in range(args.n_from, args.n_to + 1, args.n_step)
               for k in range(args.k_from, args.k_to + 1, args.k_step)
               for e in bound_report(n, k, bipartite=args.bipartite, k_min=k_min).entries)
    if args.format == "json":
        return _dump([{"n": n, "k": k, "bound_name": e.name,
                       "value": _num(e.value, args.precision), "valid": e.valid}
                      for n, k, e in entries])
    return _csv(["n", "k", "bound_name", "value", "valid"],
                ([n, k, e.name, _fmt(e.value, args.precision), e.valid]
                 for n, k, e in entries))


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="outerkplanar",
                     description="Edge bounds, constructions, and exact search "
                                 "for graphs on convex point sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    k_threshold_help = ("smallest k at which the k-threshold-gated variants are "
                        "reported valid (default bounds.DEFAULT_K_MIN)")

    p = sub.add_parser("bounds", help="closed-form bounds for one (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bipartite", action="store_true",
                   help="report the bipartite family instead of the general one")
    p.add_argument("--variant", default=None,
                   help="print a single upper-bound value instead of the report")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--precision", type=int, default=6, metavar="DIGITS")
    p.add_argument("--k-threshold", type=int, default=None, metavar="K",
                   help=k_threshold_help)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("construct", help="emit a generated graph as JSON")
    p.add_argument("kind", choices=sorted(_CONSTRUCT))
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--blocks", type=int, default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="crossing statistics of a graph JSON file")
    p.add_argument("file", help="path to graph JSON, or - for stdin")
    p.add_argument("--k", type=int, default=None,
                   help="also report whether every edge is crossed at most k times")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="exact maximum edge count "
                                      "(n <= search.MAX_SEARCH_N)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    # search.SEARCH_MODES without "general"; importing search here would load
    # it on every command
    p.add_argument("--bipartite", choices=("free", "alternating", "consecutive"),
                   default=None)
    p.add_argument("--budget-nodes", type=int, default=None,
                   help=f"search node budget (default: ${ENV_NODE_BUDGET} "
                        "if set, else unbounded)")
    p.add_argument("--warm-start", default=None, metavar="FILE",
                   help="graph JSON used to seed the incumbent")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("circulant", help="max-cut of C_n^{1..r}: exact or bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--method", required=True,
                   choices=("exact", *_CIRCULANT_BOUNDS))
    p.add_argument("--precision", type=int, default=6, metavar="DIGITS")
    p.set_defaults(func=_cmd_circulant)

    p = sub.add_parser("xorsum", help="xor double sum of a bit string")
    p.add_argument("--bits", required=True)
    p.add_argument("--r", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--cyclic", action="store_true", default=True,
                       help="wrap indices modulo n (default)")
    group.add_argument("--bounded", action="store_true", default=False,
                       help="drop index pairs that leave 0..n-1")
    p.set_defaults(func=_cmd_xorsum)

    p = sub.add_parser("sweep", help="evaluate all bounds over an (n, k) grid")
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--n-step", type=int, default=1)
    p.add_argument("--k-from", type=int, required=True)
    p.add_argument("--k-to", type=int, required=True)
    p.add_argument("--k-step", type=int, default=1)
    p.add_argument("--bipartite", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--precision", type=int, default=6, metavar="DIGITS")
    p.add_argument("--k-threshold", type=int, default=None, metavar="K",
                   help=k_threshold_help)
    p.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state in the parser, so one serves every run()
    return build_parser()


def _overflow_message(args, exc: OverflowError) -> str:
    """The message led by the flags whose value no float can hold."""
    flags = [f"--{name.replace('_', '-')}" for name, value in vars(args).items()
             if type(value) is int and abs(value) > sys.float_info.max]
    return f"{', '.join(flags)}: {exc}" if flags else str(exc)


def run(argv=None, out=None) -> int:
    """Parse argv, execute, write the result; return the exit code."""
    stream = sys.stdout if out is None else out
    try:
        args = _parser().parse_args(argv)
        text = args.func(args)
    except (CliError, *_LIBRARY_ERRORS) as exc:
        code = exc.code if isinstance(exc, CliError) else next(
            c for kind, c in _LIBRARY_ERRORS.items() if isinstance(exc, kind))
        message = _overflow_message(args, exc) if isinstance(exc, OverflowError) else str(exc)
        record = {"error": {"code": code, "message": message}}
        if getattr(exc, "result", None) is not None:  # a search cut off by its budget
            record["result"] = _search_payload(exc.result)
        stream.write(_dump(record))
        return _EXIT_CODES[code]
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else 0
    stream.write(text)
    return 0


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
