"""Benchmark of outerkplanar: four workloads, every output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: search_grid, verify_large, maxcut_exact, cli_batch (see
bench/README.md).  The run builds its inputs from the seed, runs whole
rounds of the workload's operations until the next round would end after
S seconds (cli_batch runs at least five rounds), checks every output
against computations made apart from the package, and prints a summary
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
calls into the package are timed from this side and the metrics are the
per-layer ones.  Results and spans are written under bench/out/.
"""

from __future__ import annotations

import os
import sys
import time

PROCESS_START = time.perf_counter()

# One process, no added threads: keep numpy's BLAS pools at one thread,
# here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
# Set-up is timed in fresh processes, half of them before the rounds and
# half after, since slow spells of the machine last for seconds.
SETUP_REPEATS = 6
# Stop starting rounds after this long, whatever --seconds says, so that
# a run ends well inside three minutes.
HARD_LIMIT_S = 120.0

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s", "op_geomean_s": "s"}


def import_package():
    """Import the package from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import outerkplanar
    except ImportError as exc:
        sys.exit(f"bench: cannot import outerkplanar from {SRC}: {exc}")
    where = Path(outerkplanar.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"bench: outerkplanar was imported from {where}, not from {SRC}")


def install_patches(tracer):
    """Time the calls into each module, from the benchmark's side.

    Functions that the benchmark calls directly are wrapped in their own
    module; the CLI imported the names it uses, so those are wrapped in
    the CLI module's namespace.  Nothing is wrapped that another wrapped
    function calls, so spans of one layer never nest in the same layer.
    The search layer needs no wrapper: the benchmark times each
    max_edges call as an operation.
    """
    from outerkplanar import circulant, cli, constructions, geometry

    def size(args):
        return args[0].m

    def spec(args):
        return [args[0].n, args[0].r]

    tracer.patch(circulant, "exact_maxcut", "circulant.exact_maxcut", spec)
    tracer.patch(circulant, "mohar_bound", "circulant.mohar_bound")
    tracer.patch(constructions, "kx_chain", "constructions.build")
    tracer.patch(constructions, "kxx_chain", "constructions.build")
    tracer.patch(geometry, "graph_to_json", "geometry.json_dump")
    for attr, name, arg in (
            ("crossing_counts", "geometry.crossing_counts", size),
            ("degeneracy_order", "geometry.degeneracy_order", None),
            ("greedy_color", "geometry.greedy_color", None),
            ("is_bipartite", "geometry.bipartition", None),
            ("graph_from_json", "geometry.json_parse", None),
            ("to_json_dict", "geometry.json_dump", None),
            ("bound_report", "bounds.bound_report", None),
            ("complete_graph", "constructions.build", None),
            ("cycle_graph", "constructions.build", None),
            ("kx_chain", "constructions.build", None),
            ("kxx_alternating", "constructions.build", None),
            ("kxx_chain", "constructions.build", None)):
        tracer.patch(cli, attr, name, arg)


def per_layer_names():
    from workloads import CLI_SUBCOMMANDS, MAXCUT_CELLS, SEARCH_CELLS, cell_name
    units = {"search.nodes": "count", "search.nodes_per_s": "1/s"}
    for cell in SEARCH_CELLS:
        units[f"search.cell_s.{cell_name(*cell)}"] = "s"
        units[f"search.nodes.{cell_name(*cell)}"] = "count"
    for name in ("crossing_counts", "degeneracy", "greedy_color", "bipartition",
                 "json_parse", "json_dump"):
        units[f"geometry.{name}_s"] = "s"
    units["geometry.crossing_edges_per_s"] = "edges/s"
    units["constructions.build_s"] = "s"
    for n, r in MAXCUT_CELLS:
        units[f"circulant.exact_maxcut_s.{n}-{r}"] = "s"
    units["circulant.assignments_per_s"] = "1/s"
    units["circulant.mohar_bound_s"] = "s"
    units["bounds.bound_report_s"] = "s"
    units["bounds.sweep_s"] = "s"
    units["cli.interpreter_start_s"] = "s"
    units["cli.import_s"] = "s"
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.run_s.{sub}"] = "s"
    units["cli.run_self_s.verify"] = "s"
    return units


def layer_metrics(wl, tracer, records, rounds):
    """Every per-layer metric; a layer this workload never calls reads 0."""
    from workloads import CLI_SUBCOMMANDS
    values = dict.fromkeys(per_layer_names(), 0)

    def ratio(work, seconds):
        return work / seconds if seconds else 0

    per_round = tracer.per_round
    for name in ("crossing_counts", "greedy_color", "bipartition", "json_parse",
                 "json_dump"):
        values[f"geometry.{name}_s"] = per_round(f"geometry.{name}", rounds)
    values["geometry.degeneracy_s"] = per_round("geometry.degeneracy_order", rounds)
    cc = tracer.spans_named("geometry.crossing_counts")
    values["geometry.crossing_edges_per_s"] = ratio(
        sum(s["arg"] for s in cc), sum(s["end"] - s["start"] for s in cc))
    values["constructions.build_s"] = per_round("constructions.build", rounds)
    exact = tracer.spans_named("circulant.exact_maxcut")
    by_cell = {}
    for s in exact:
        by_cell.setdefault(tuple(s["arg"]), []).append(s["end"] - s["start"])
    for (n, r), secs in by_cell.items():
        key = f"circulant.exact_maxcut_s.{n}-{r}"
        if key in values:
            values[key] = statistics.median(secs)
    # exact_maxcut pins vertex 0, so it scores 2^(n-1) assignments
    values["circulant.assignments_per_s"] = ratio(
        sum(2 ** (s["arg"][0] - 1) for s in exact),
        sum(s["end"] - s["start"] for s in exact))
    values["circulant.mohar_bound_s"] = per_round("circulant.mohar_bound", rounds)
    values["bounds.bound_report_s"] = per_round("bounds.bound_report", rounds,
                                                "cli.run.bounds")
    values["bounds.sweep_s"] = per_round("bounds.bound_report", rounds, "cli.run.sweep")
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.run_s.{sub}"] = per_round(f"cli.run.{sub}", rounds)
    values["cli.run_self_s.verify"] = tracer.self_per_round("cli.run.verify", rounds)
    values.update(wl.layer_metrics(records, rounds))
    return values


def run_rounds(wl, seconds, tracer):
    """Run whole rounds; return (records, rounds, problems by op id)."""
    records, walls, problems = [], [], {}
    tracer.phase = "rounds"
    start = time.perf_counter()
    rounds = 0
    while True:
        t_round = time.perf_counter()
        for op in wl.ops():
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # an operation that raises counts as failed
                dt = time.perf_counter() - t0
                out, found = None, [traceback.format_exc()]
            else:
                dt = time.perf_counter() - t0
                try:
                    found = op.check(out)
                except Exception:  # a malformed output the checker chokes on
                    found = [traceback.format_exc()]
            if found:
                problems.setdefault(op.id, found)
            records.append({"id": op.id, "round": rounds, "s": dt, "failed": bool(found),
                            "output": out if wl.keep_output else None})
        rounds += 1
        walls.append(time.perf_counter() - t_round)
        elapsed = time.perf_counter() - start
        if rounds >= wl.min_rounds and (
                elapsed + statistics.median(walls) > seconds or elapsed > HARD_LIMIT_S):
            return records, rounds, problems


def time_setups(args, repeats):
    """(wall, CPU) seconds of fresh processes that only import and set up."""
    from workloads import child_times
    return child_times([sys.executable, str(Path(__file__).resolve()),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--setup-only"], repeats)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("search_grid", "verify_large", "maxcut_exact", "cli_batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    import numpy
    import selftest
    from speed import REFERENCE_S, SpeedProbe
    from tracing import NullTracer, Tracer
    from workloads import KNOWN_FAULTS, WORKLOADS, op_geomean, round_totals

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, workdir, NullTracer(), False).setup()
            return 0
        accepted, rejected = selftest.run(workdir)
        if accepted:
            sys.exit("bench: a checker accepted a doctored output:\n" + "\n".join(accepted))
        for line in rejected:
            print(f"selftest: {line}", file=sys.stderr)
        tracer = Tracer() if args.trace else NullTracer()
        if args.trace:
            install_patches(tracer)
        # end-to-end times are scaled by the machine's speed over the
        # same span; the per-layer times of a traced run are not
        with nullcontext() if args.trace else SpeedProbe() as probe:
            setups = [] if args.trace else time_setups(args, SETUP_REPEATS // 2)
            wl = WORKLOADS[args.workload](args.seed, workdir, tracer, bool(args.trace))
            wl.setup()
            wl.prepare()
            records, rounds, problems = run_rounds(wl, args.seconds, tracer)
            if args.trace:
                tracer.restore()
            else:
                setups += time_setups(args, SETUP_REPEATS - len(setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r["failed"] for r in records)
    unexpected = {i: p for i, p in problems.items() if (wl.name, i) not in KNOWN_FAULTS}
    raw = {}
    if args.trace:
        metrics = layer_metrics(wl, tracer, records, rounds)
        units = per_layer_names()
        named = {}  # the named figures are end-to-end ones, not shown when traced
    else:
        # The wall time of a set-up process jumps by steps of 50-90 ms on
        # this machine, which its CPU time does not, so setup_s is the
        # CPU time; like the other times it is scaled by the probe.
        raw = {"round_s": statistics.median(round_totals(records)),
               "op_geomean_s": op_geomean(records),
               "setup_s": statistics.median(cpu for _, cpu in setups),
               "setup_wall_s": statistics.median(wall for wall, _ in setups)}
        scale = probe.scale()
        metrics = {"setup_s": raw["setup_s"] * scale,
                   "peak_rss_mb": wl.peak_rss_kib(records) / 1024.0,
                   "round_s": raw["round_s"] * scale,
                   "op_geomean_s": raw["op_geomean_s"] * scale}
        units = E2E_UNITS
        named = {name: (value * scale if unit == "s" else value / scale, unit)
                 for name, (value, unit) in wl.summary(records, rounds).items()}

    for op_id, found in sorted(problems.items()):
        tag = "FAILED" if op_id in unexpected else "known fault"
        print(f"{tag}: {wl.name} {op_id}: {found[0].strip()}", file=sys.stderr)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  rounds {rounds}  "
          f"operations attempted {len(records)}  failed {failed}")
    idle = [name for name, value in metrics.items() if args.trace and value == 0]
    for name, value in metrics.items():
        if name not in idle:
            print(f"  {name:42s} {value:.6g} {units[name]}")
    for name, (value, unit) in named.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    if idle:
        print(f"  ({len(idle)} per-layer metrics read 0: this workload does not call them)")
    if raw:
        print(f"  times are scaled by {scale:.4f}: the speed probe took "
              f"{probe.median_s() * 1e6:.1f} us against {REFERENCE_S * 1e6:.0f} us; unscaled "
              + ", ".join(f"{name} {value:.6g} s" for name, value in raw.items()))
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": wl.name, "seed": args.seed, "rounds": rounds,
                   "round_s": statistics.median(round_totals(records)),
                   "named": {name: value for name, (value, _) in named.items()},
                   "unscaled": raw, "probe_median_s": probe.median_s() if raw else None,
                   "problems": problems, "python": platform.python_version(),
                   "numpy": numpy.__version__,
                   "wall_s": time.perf_counter() - PROCESS_START}, fh, indent=1)
    if args.trace:
        tracer.write(f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
