"""The four workloads: their inputs, operations, checks and layer metrics.

A workload builds its inputs from the seed in ``setup`` (timed as set-up),
computes what it will check against in ``prepare`` (untimed, independent
of the package), and hands out one round of operations in ``ops``.  Every
round runs the same operations, so a known fault fails the same share of
operations in every run.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import resource
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import oracles
from outerkplanar import circulant, cli, constructions, geometry, search

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference_optima.json"

# Operations that fail every run because of a fault in the program: the
# small-k row 3.25n - 6 for k = 3 is reported valid, and the search prunes
# with it, yet the chain of K_6-minus-an-edge blocks has 3.25n - 5.5 edges
# whenever n = 2 (mod 4).
KNOWN_FAULTS = {
    ("search_grid", "general-6-3"),
    ("cli_batch", "bounds --n 10 --k 3"),
}

# (mode, n, k); every cell is proven by max_edges without a node budget.
SEARCH_CELLS = [
    ("general", 6, 3), ("general", 7, 3), ("general", 8, 2), ("general", 8, 3),
    ("general", 8, 4), ("general", 9, 1), ("general", 9, 2), ("general", 10, 1),
    ("general", 11, 2), ("general", 12, 0), ("general", 12, 1),
    ("bipartite_free", 8, 3), ("bipartite_free", 9, 2),
    ("bipartite_free", 10, 0), ("bipartite_free", 10, 2),
    ("bipartite_alternating", 8, 3), ("bipartite_alternating", 10, 2),
    ("bipartite_alternating", 10, 4),
    ("bipartite_consecutive", 10, 2), ("bipartite_consecutive", 10, 4),
    ("bipartite_consecutive", 11, 2), ("bipartite_consecutive", 12, 0),
    ("bipartite_consecutive", 12, 1),
]

# (n, r) of C_n^{1..r}; exact_maxcut enumerates 2^(n-1) assignments.
MAXCUT_CELLS = [
    (18, 5), (20, 1), (20, 3), (20, 5), (22, 2), (22, 4), (23, 5),
    (24, 1), (24, 3), (25, 2), (25, 4), (26, 1), (26, 3), (27, 2),
]

CLI_SUBCOMMANDS = ("bounds", "construct", "verify", "search", "circulant",
                   "xorsum", "sweep")

CLI_CHILD = ("import sys; from outerkplanar.cli import main; "
             "sys.argv[0] = 'outerkplanar'; sys.exit(main())")


def cell_name(mode, n, k):
    return f"{mode}-{n}-{k}"


def load_optima():
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {(c["mode"], c["n"], c["k"]): c["optimum"] for c in doc["cells"]}


def search_payload(res):
    """A SearchResult reduced to the plain values the CLI would print."""
    w = res.witness
    return {"max_edges": res.max_edges, "proven_optimal": res.proven_optimal,
            "nodes_explored": res.nodes_explored,
            "witness": {"n": w.n, "edges": w.sorted_edges(),
                        "coloring": None if w.coloring is None else list(w.coloring)}}


@dataclass
class Op:
    """One operation: `run` is timed, `check(output)` is not."""

    id: str
    run: Callable[[], object]
    check: Callable[[object], list]


class Workload:
    name = ""
    min_rounds = 1
    keep_output = False  # whether records keep the outputs (layer metrics, peak RSS)

    def __init__(self, seed, workdir, tracer, traced):
        self.rng = random.Random(seed)
        self.workdir = Path(workdir)
        self.tracer = tracer
        self.traced = traced

    def setup(self):
        """Build the inputs the program is given (timed as set-up)."""

    def prepare(self):
        """Compute the expected values independently (untimed)."""

    def ops(self):
        raise NotImplementedError

    def summary(self, records, rounds):
        """Named figures for the report, beside the end-to-end metrics."""
        return {}

    def layer_metrics(self, records, rounds):
        """Per-layer figures only this workload can measure, in a traced run."""
        return {}

    def peak_rss_kib(self, records):
        """Peak RSS of the process that ran the operations."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ------------------------------------------------------------- search_grid


class SearchGrid(Workload):
    """max_edges on every cell of SEARCH_CELLS, in a seeded order."""

    name = "search_grid"
    keep_output = True

    def setup(self):
        self.cells = self.rng.sample(SEARCH_CELLS, len(SEARCH_CELLS))

    def prepare(self):
        self.optima = load_optima()

    def ops(self):
        def make(mode, n, k):
            def run():
                return search_payload(search.max_edges(n, k, mode))

            def check(out):
                return checks.search(out, n, k, mode, self.optima[(mode, n, k)])
            return Op(cell_name(mode, n, k), run, check)
        return [make(*c) for c in self.cells]

    def summary(self, records, rounds):
        return {"search_s": (statistics.median(round_totals(records)), "s")}

    def layer_metrics(self, records, rounds):
        out = {}
        done = [r for r in records if r["output"] is not None]
        for mode, n, k in SEARCH_CELLS:
            name = cell_name(mode, n, k)
            mine = [r for r in done if r["id"] == name]
            if not mine:
                continue
            out[f"search.cell_s.{name}"] = statistics.median(r["s"] for r in mine)
            out[f"search.nodes.{name}"] = mine[0]["output"]["nodes_explored"]
        out["search.nodes"] = sum(r["output"]["nodes_explored"] for r in done) // rounds
        out["search.nodes_per_s"] = (sum(r["output"]["nodes_explored"] for r in done)
                                     / sum(r["s"] for r in done))
        return out


# ------------------------------------------------------------ verify_large


class VerifyLarge(Workload):
    """In-process `verify` on large chain and random graphs."""

    name = "verify_large"

    def setup(self):
        rng = self.rng
        specs = [
            ("kx_chain", lambda: constructions.kx_chain(10, 40),
             {"max_crossing": 16, "m": 40 * 45 - 39, "bipartite": False}),
            ("kxx_chain", lambda: constructions.kxx_chain(6, 50),
             {"max_crossing": 12, "m": 50 * 36 - 49, "bipartite": True}),
        ]
        self.graphs = []
        for label, build, expect in specs:
            g = build()
            # a seeded rotation and reflection keeps every crossing count
            shift, sign = rng.randrange(g.n), rng.choice((1, -1))
            perm = [(sign * v + shift) % g.n for v in range(g.n)]
            coloring = None
            if g.coloring is not None:
                coloring = [0] * g.n
                for v in range(g.n):
                    coloring[perm[v]] = g.coloring[v]
            g = geometry.ConvexGraph(g.n, [(perm[a], perm[b]) for a, b in g.edges],
                                     coloring)
            k = expect["max_crossing"] - rng.randint(0, 1)
            self.graphs.append((label, g, k, expect))
        for label, n, m in (("random_a", 300, 1800), ("random_b", 400, 1600)):
            chords = set()
            while len(chords) < m:
                a, b = rng.sample(range(n), 2)
                chords.add((min(a, b), max(a, b)))
            g = geometry.ConvexGraph(n, sorted(chords))
            self.graphs.append((label, g, rng.randint(n // 2, 2 * n), {}))
        self.files = []
        for label, g, _, _ in self.graphs:
            path = self.workdir / f"{label}.json"
            path.write_text(geometry.graph_to_json(g), encoding="utf-8")
            self.files.append(str(path))

    def prepare(self):
        self.expect = []
        for label, g, k, closed in self.graphs:
            edges = g.sorted_edges()
            exp = {"crossings": oracles.crossing_counts(g.n, edges),
                   "degeneracy": oracles.degeneracy(g.n, edges),
                   "bipartite": oracles.two_coloring(g.n, edges) is not None}
            problems = []
            if "m" in closed:
                exp["max_crossing"] = closed["max_crossing"]
                if len(edges) != closed["m"] or exp["bipartite"] != closed["bipartite"]:
                    problems.append(f"{label} has {len(edges)} edges, bipartite "
                                    f"{exp['bipartite']}; wanted {closed}")
            self.expect.append((exp, problems))

    def ops(self):
        def make(i):
            label, g, k, _ = self.graphs[i]
            argv = ["verify", self.files[i], "--k", str(k)]

            def run():
                return run_cli_in_process(argv, self.tracer)

            def check(out):
                code, text = out
                exp, problems = self.expect[i]
                if code != 0:
                    return problems + [f"verify exited {code}"]
                return problems + checks.verify(text, g.n, g.sorted_edges(), k, exp)
            return Op(label, run, check)
        return [make(i) for i in self.rng.sample(range(len(self.graphs)),
                                                 len(self.graphs))]

    def summary(self, records, rounds):
        edges = {label: g.m for label, g, _, _ in self.graphs}
        return {"verify_edges_per_s": (sum(edges[r["id"]] for r in records)
                                       / sum(r["s"] for r in records), "edges/s")}


# ------------------------------------------------------------ maxcut_exact


class MaxcutExact(Workload):
    """exact_maxcut and mohar_bound on every (n, r) of MAXCUT_CELLS."""

    name = "maxcut_exact"

    def setup(self):
        order = self.rng.sample(MAXCUT_CELLS, len(MAXCUT_CELLS))
        self.specs = [circulant.CirculantSpec(n, r) for n, r in order]

    def prepare(self):
        self.optimum = {(s.n, s.r): oracles.maxcut_dp(s.n, s.r) for s in self.specs}
        self.lam = {(s.n, s.r): oracles.laplacian_lambda_max(s.n, s.r)
                    for s in self.specs}

    def ops(self):
        def make(spec):
            n, r = spec.n, spec.r

            def run():
                cut = circulant.exact_maxcut(spec)
                return cut.value, cut.sides, circulant.mohar_bound(spec)

            def check(out):
                value, sides, bound = out
                return (checks.maxcut(n, r, value, sides, self.optimum[(n, r)], bound)
                        + checks.mohar(n, r, bound, self.lam[(n, r)]))
            return Op(f"{n}-{r}", run, check)
        return [make(s) for s in self.specs]

    def summary(self, records, rounds):
        return {"maxcut_s": (statistics.median(round_totals(records)), "s")}


# --------------------------------------------------------------- cli_batch


class CliBatch(Workload):
    """Fresh-interpreter CLI calls, one at a time.

    In a traced run the same calls go through cli.run in-process, so that
    the calls into each module can be timed.
    """

    name = "cli_batch"
    keep_output = True
    # 20 calls a round: five rounds give the 100 calls that a 90th
    # percentile with ten calls beyond it needs.
    min_rounds = 5

    def setup(self):
        rng, wd = self.rng, self.workdir
        self.kx = (rng.choice((4, 6, 8)), rng.randint(2, 6))
        self.kxx = (rng.choice((2, 3, 4)), rng.randint(2, 5))
        self.complete_x = rng.choice((7, 9, 11))
        self.cycle_n = rng.randint(20, 40)
        self.sweep_from = rng.randint(3, 12)
        self.mohar_nr = (rng.randint(20, 60), rng.randint(1, 4))
        self.bits = "".join(rng.choice("01") for _ in range(32))
        n = 14
        chords = sorted(rng.sample([(a, b) for a in range(n) for b in range(a + 1, n)], 40))
        self.random_graph = (n, chords)
        self.chain_graph = oracles.glued_chain(oracles.k6_minus_long_diagonal(), 6, 2)
        self.warm = (7, greedy_outer_k_planar(7, 2, rng))
        self.verify_k = rng.randint(5, 15)
        self.paths = {}
        for label, (n, edges) in (("random", self.random_graph),
                                  ("chain", self.chain_graph), ("warm", self.warm)):
            path = wd / f"{label}.json"
            path.write_text(json.dumps({"n": n, "edges": [list(e) for e in edges]}),
                            encoding="utf-8")
            self.paths[label] = str(path)

    def prepare(self):
        self.optima = load_optima()
        self.verify_expect = {}
        for label, (n, edges) in (("random", self.random_graph),
                                  ("chain", self.chain_graph)):
            self.verify_expect[label] = {
                "crossings": oracles.crossing_counts(n, edges),
                "degeneracy": oracles.degeneracy(n, edges),
                "bipartite": oracles.two_coloring(n, edges) is not None}
        n, r = self.mohar_nr
        self.mohar_value = n * oracles.laplacian_lambda_max(n, r) / 4.0
        self.exact16 = (oracles.maxcut_dp(16, 3),
                        16 * oracles.laplacian_lambda_max(16, 3) / 4.0)
        self.first_stdout = {}
        self.calls = self.round_calls()

    def round_calls(self):
        """(argv, checker of stdout) for each call of a round."""
        c = []

        def report(n, k, family="general", fmt="json"):
            argv = ["bounds", "--n", str(n), "--k", str(k)]
            argv += ["--bipartite"] if family == "bipartite" else []
            argv += ["--format", "csv"] if fmt == "csv" else []
            best = best_witness(n, k, family)
            c.append((argv, lambda t: checks.bounds_report(t, fmt, n, k, family, best)))

        report(10, 3)
        report(42, 4)
        report(50, 9, fmt="csv")
        report(26, 2, family="bipartite")
        c.append((["bounds", "--n", "100", "--k", "1", "--variant", "small_k"],
                  lambda t: checks.single_value(t, 2.5 * 100 - 4)))
        lo = self.sweep_from
        grid = [(n, k) for n in range(lo, lo + 491, 10) for k in range(31)]
        c.append((["sweep", "--n-from", str(lo), "--n-to", str(lo + 490), "--n-step", "10",
                   "--k-from", "0", "--k-to", "30"],
                  lambda t: checks.sweep(t, "csv", "general", grid)))
        bgrid = [(n, k) for n in range(4, 101, 8) for k in range(13)]
        c.append((["sweep", "--n-from", "4", "--n-to", "100", "--n-step", "8", "--k-from",
                   "0", "--k-to", "12", "--bipartite", "--format", "json"],
                  lambda t: checks.sweep(t, "json", "bipartite", bgrid)))
        x, b = self.kx
        c.append((["construct", "kx-chain", "--x", str(x), "--blocks", str(b)],
                  lambda t: checks.construct(t, b * (x - 2) + 2,
                                             b * math.comb(x, 2) - (b - 1),
                                             ((x - 2) // 2) ** 2, False)))
        y, b2 = self.kxx
        c.append((["construct", "kxx-chain", "--x", str(y), "--blocks", str(b2)],
                  lambda t: checks.construct(t, b2 * (2 * y - 2) + 2,
                                             b2 * y * y - (b2 - 1),
                                             2 * ((y - 1) // 2) * ((y - 1) - (y - 1) // 2),
                                             True)))
        xc = self.complete_x
        c.append((["construct", "complete", "--x", str(xc)],
                  lambda t: checks.construct(t, xc, math.comb(xc, 2),
                                             ((xc - 2) // 2) * ((xc - 1) // 2), False)))
        cn = self.cycle_n
        c.append((["construct", "cycle", "--n", str(cn)],
                  lambda t: checks.construct(t, cn, cn, 0, False)))
        for label, k in (("random", self.verify_k), ("chain", 3)):
            n, edges = self.random_graph if label == "random" else self.chain_graph
            exp = self.verify_expect[label]
            c.append((["verify", self.paths[label], "--k", str(k)],
                      lambda t, n=n, edges=edges, k=k, exp=exp:
                      checks.verify(t, n, edges, k, exp)))
        for argv, mode, n, k in (
                (["search", "--n", "8", "--k", "2"], "general", 8, 2),
                (["search", "--n", "8", "--k", "1", "--bipartite", "alternating"],
                 "bipartite_alternating", 8, 1),
                (["search", "--n", "7", "--k", "2", "--warm-start", self.paths["warm"]],
                 "general", 7, 2)):
            opt = self.optima[(mode, n, k)]
            c.append((argv, lambda t, n=n, k=k, mode=mode, opt=opt:
                      checks.search(json.loads(t), n, k, mode, opt)))
        n, r = self.mohar_nr
        c.append((["circulant", "--n", str(n), "--r", str(r), "--method", "mohar"],
                  lambda t: checks.json_value(t, "value", self.mohar_value,
                                              checks.PRINT_RTOL)))
        opt16, mohar16 = self.exact16

        def exact(text):
            doc = json.loads(text)
            return checks.maxcut(16, 3, doc["value"], doc["sides"], opt16, mohar16)
        c.append((["circulant", "--n", "16", "--r", "3", "--method", "exact"], exact))
        bits = [int(ch) for ch in self.bits]
        cyclic = oracles.xor_double_sum(bits, 3)
        bounded = oracles.xor_double_sum(bits, 2, cyclic=False)
        c.append((["xorsum", "--bits", self.bits, "--r", "3"],
                  lambda t: checks.json_value(t, "value", cyclic)))
        c.append((["xorsum", "--bits", self.bits, "--r", "2", "--bounded"],
                  lambda t: checks.json_value(t, "value", bounded)))
        return c

    def ops(self):
        def make(argv, check_text):
            op_id = " ".join(Path(a).name if a.endswith(".json") else a for a in argv)

            def run():
                if self.traced:
                    return run_cli_in_process(argv, self.tracer) + (None,)
                return run_cli_child(argv)

            def check(out):
                code, text, _ = out
                if code != 0:
                    return [f"exit code {code}"]
                first = self.first_stdout.setdefault(op_id, text)
                return check_text(text) + checks.rerun(first, text)
            return Op(op_id, run, check)
        return [make(*self.calls[i])
                for i in self.rng.sample(range(len(self.calls)), len(self.calls))]

    def layer_metrics(self, records, rounds):
        start = statistics.median(
            wall for wall, _ in child_times([sys.executable, "-c", "pass"], 5))
        imported = statistics.median(
            wall for wall, _ in child_times([sys.executable, "-c", "import outerkplanar.cli"], 5))
        return {"cli.interpreter_start_s": start, "cli.import_s": imported - start}

    def peak_rss_kib(self, records):
        """The largest peak RSS of any CLI child."""
        return max(r["output"][2] for r in records if r["output"])

    def summary(self, records, rounds):
        times = sorted(r["s"] for r in records)
        out = {"cli_call_median_s": (statistics.median(times), "s")}
        rank = math.ceil(0.9 * len(times))
        if len(times) - rank >= 10:
            out["cli_call_tail_s"] = (times[rank - 1], "s")
        return out


# ------------------------------------------------------------------ helpers


def op_geomean(records):
    """Geometric mean over the operations of each one's median time.

    The operations of a round differ in size by orders of magnitude, so
    each counts by its relative speed, not by its share of the round.
    """
    times = {}
    for r in records:
        times.setdefault(r["id"], []).append(r["s"])
    logs = [math.log(statistics.median(t)) for t in times.values()]
    return math.exp(sum(logs) / len(logs))


def round_totals(records):
    totals = {}
    for r in records:
        totals[r["round"]] = totals.get(r["round"], 0.0) + r["s"]
    return list(totals.values())


def run_cli_in_process(argv, tracer):
    out = io.StringIO()
    with tracer.span(f"cli.run.{argv[0]}"):
        code = cli.run(argv, out)
    return code, out.getvalue()


def child_env():
    env = dict(os.environ)
    src = str(BENCH_DIR.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def child_times(cmd, repeats, timeout=120):
    """(wall, CPU) seconds of `repeats` fresh processes running `cmd` to their end.

    CPU is user plus system time of the child, from the rusage of reaped
    children before and after it.
    """
    times = []
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, env=child_env(), timeout=timeout,
                       stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append((wall, after.ru_utime - before.ru_utime
                      + after.ru_stime - before.ru_stime))
    return times


def run_cli_child(argv, timeout=120):
    """Run one CLI call in a fresh interpreter.

    Returns (exit code, stdout, peak RSS of the child in KiB).  The child
    is reaped with wait4 so that its own peak RSS can be read.
    """
    proc = subprocess.Popen([sys.executable, "-c", CLI_CHILD, *argv], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    chunks = []
    deadline = time.monotonic() + timeout
    with proc.stdout, selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            if not sel.select(max(deadline - time.monotonic(), 0)):
                proc.kill()
                proc.wait()
                raise TimeoutError(f"CLI call {argv} ran over {timeout} s")
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, b"".join(chunks).decode("utf-8"), usage.ru_maxrss


def greedy_outer_k_planar(n, k, rng):
    """A random maximal outer k-planar graph, grown one chord at a time."""
    edges = []
    for e in rng.sample([(a, b) for a in range(n) for b in range(a + 1, n)],
                        n * (n - 1) // 2):
        if oracles.max_crossing(n, edges + [e]) <= k:
            edges.append(e)
    return sorted(edges)


def best_witness(n, k, family):
    """Most edges among the benchmark's own checked constructions at (n, k).

    Candidates are chains of K_x, of K_6 less a long diagonal, or (for the
    bipartite family) of alternating K_{x,x}; each is checked with the
    benchmark's crossing counter (and 2-coloring) before it counts.
    """
    if family == "general":
        blocks = [(oracles.complete_block(x), x) for x in range(3, 13)]
        blocks.append((oracles.k6_minus_long_diagonal(), 6))
    else:
        blocks = [(oracles.alternating_biclique(x), 2 * x) for x in range(2, 7)]
    best = 0
    for edges, size in blocks:
        if (n - 2) % (size - 2):
            continue
        nn, chain = oracles.glued_chain(edges, size, (n - 2) // (size - 2))
        if nn != n or oracles.max_crossing(nn, chain) > k:
            continue
        if family == "bipartite" and oracles.two_coloring(nn, chain) is None:
            continue
        best = max(best, len(chain))
    return best


WORKLOADS = {w.name: w for w in (SearchGrid, VerifyLarge, MaxcutExact, CliBatch)}
