"""Checkers for the program's outputs.

Each checker takes an output (a library result reduced to plain values,
or a CLI stdout) together with what the benchmark computed on its own,
and returns a list of problems; an empty list means the output passed.
The expected values come from ``oracles`` or from closed forms written
here, never from a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math

import oracles

GENERAL_UPPER = {"small_k", "lazy", "common", "local", "direct"}
GENERAL_LOWER = {"chain", "chain_closed_form"}
BIPARTITE_UPPER = {"small_k", "lazy", "common", "local"}
BIPARTITE_LOWER = {"alternating", "consecutive"}

# Relative tolerance for reals the CLI rounds to 6 significant digits.
PRINT_RTOL = 5e-6


def witness(n, k, edges, mode, coloring=None):
    """Problems with a claimed outer k-planar witness of the given mode."""
    problems = []
    edges = [tuple(e) for e in edges]
    if any(not (0 <= a < b < n) for a, b in edges) or len(set(edges)) != len(edges):
        return [f"witness edges are not distinct chords a < b of 0..{n - 1}"]
    worst = oracles.max_crossing(n, edges)
    if worst > k:
        problems.append(f"witness has an edge crossed {worst} > k={k} times")
    if mode == "general":
        return problems
    if coloring is None or len(coloring) != n:
        return problems + ["bipartite witness carries no coloring of all n vertices"]
    if not oracles.is_proper(coloring, edges):
        problems.append("witness has an edge inside a color class")
    parity = [i % 2 for i in range(n)]
    if mode == "bipartite_alternating" and list(coloring) not in (
            parity, [1 - c for c in parity]):
        problems.append("alternating witness is not colored by parity")
    if mode == "bipartite_consecutive":
        changes = sum(coloring[i] != coloring[(i + 1) % n] for i in range(n))
        if changes != 2:
            problems.append("consecutive witness coloring is not two arcs")
    return problems


def search(result, n, k, mode, optimum):
    """`result`: dict with max_edges, proven_optimal, witness {n, edges, coloring}."""
    problems = []
    if result["max_edges"] != optimum:
        problems.append(f"max_edges({n},{k},{mode}) = {result['max_edges']}, "
                        f"reference optimum {optimum}")
    if result["proven_optimal"] is not True:
        problems.append("result is not flagged proven_optimal")
    w = result["witness"]
    if w["n"] != n:
        problems.append(f"witness has n={w['n']}, wanted {n}")
        return problems
    if len(w["edges"]) != result["max_edges"]:
        problems.append(f"witness has {len(w['edges'])} edges, "
                        f"max_edges says {result['max_edges']}")
    return problems + witness(n, k, w["edges"], mode, w.get("coloring"))


def maxcut(n, r, value, sides, optimum, mohar):
    problems = []
    if value != optimum:
        problems.append(f"maxcut({n},{r}) = {value}, transfer matrix gives {optimum}")
    if len(sides) != n or any(s not in (0, 1) for s in sides) or sides[0] != 0:
        problems.append("sides is not a 0/1 vector of length n with sides[0] == 0")
    elif oracles.cut_size(n, r, sides) != value:
        problems.append(f"sides cut {oracles.cut_size(n, r, sides)} edges, "
                        f"value says {value}")
    if value > mohar * (1 + 1e-12):
        problems.append(f"maxcut {value} exceeds the Mohar bound {mohar}")
    return problems


def mohar(n, r, value, lam_max, rtol=1e-9):
    want = n * lam_max / 4.0
    if not math.isclose(value, want, rel_tol=rtol, abs_tol=1e-9):
        return [f"mohar_bound({n},{r}) = {value}, dense eigensolver gives {want}"]
    return []


def verify(text, n, edges, k, expect):
    """CLI `verify` stdout against reference counts and graph invariants.

    `expect` holds crossings {edge: count}, degeneracy, bipartite, and
    optionally max_crossing (a closed form for the chain families).
    """
    try:
        out = json.loads(text)
    except ValueError:
        return ["verify output is not JSON"]
    problems = []
    counts = expect["crossings"]
    worst = max(counts.values(), default=0)
    want = {"n": n, "m": len(edges), "max_crossing": worst,
            "bipartite": expect["bipartite"], "degeneracy": expect["degeneracy"]}
    if k is not None:
        want["k"] = k
        want["outer_k_planar"] = worst <= k
    for key, value in want.items():
        if out.get(key) != value:
            problems.append(f"verify {key} = {out.get(key)!r}, wanted {value!r}")
    if "max_crossing" in expect and worst != expect["max_crossing"]:
        problems.append(f"reference max crossing {worst} differs from the closed "
                        f"form {expect['max_crossing']}")
    colors = out.get("greedy_colors")
    low = 1 if not edges else (2 if expect["bipartite"] else 3)
    if not isinstance(colors, int) or not low <= colors <= expect["degeneracy"] + 1:
        problems.append(f"greedy_colors {colors!r} outside [{low}, degeneracy + 1]")
    got = out.get("per_edge_crossings", [])
    if [tuple(row["edge"]) for row in got] != sorted(counts):
        problems.append("per_edge_crossings does not list the sorted edges")
    else:
        bad = [row for row in got if row["crossings"] != counts[tuple(row["edge"])]]
        if bad:
            problems.append(f"{len(bad)} per-edge crossing counts differ, "
                            f"first {bad[0]}")
    return problems


def rerun(first, again):
    if first != again:
        return ["rerun stdout differs from the first run's"]
    return []


def _bound_consistency(rows, family, witness_edges):
    """rows: (n, k, name, value, valid) with value a float or None."""
    upper_names = BIPARTITE_UPPER if family == "bipartite" else GENERAL_UPPER
    lower_names = BIPARTITE_LOWER if family == "bipartite" else GENERAL_LOWER
    cells = {}
    for n, k, name, value, valid in rows:
        if valid == "yes" and value is not None:
            side = "upper" if name in upper_names else "lower" if name in lower_names else None
            if side:
                cells.setdefault((n, k), {"upper": [], "lower": []})[side].append((name, value))
    problems = []
    for (n, k), got in sorted(cells.items()):
        floor = [(f"lower bound {name}", v) for name, v in got["lower"]]
        if (n, k) in witness_edges:
            floor.append(("checked witness", witness_edges[(n, k)]))
        for uname, u in got["upper"]:
            for what, v in floor:
                if u < v:
                    problems.append(f"({n},{k}) valid upper bound {uname} = {u} "
                                    f"is below the {what} = {v}")
    return problems


def bounds_report(text, fmt, n, k, family, witness_edges):
    """`bounds` report stdout (json or csv) for one (n, k)."""
    try:
        if fmt == "json":
            doc = json.loads(text)
            if (doc["n"], doc["k"], doc["family"]) != (n, k, family):
                return [f"report header {doc['n'], doc['k'], doc['family']} "
                        f"is not {(n, k, family)}"]
            entries = [(e["name"], e["value"], e["valid"]) for e in doc["entries"]]
        else:
            entries = [(row["name"], float(row["value"]) if row["value"] else None,
                        row["valid"]) for row in csv.DictReader(io.StringIO(text))]
    except (ValueError, KeyError, TypeError):
        return ["bounds output does not parse"]
    if not entries:
        return ["bounds report has no entries"]
    rows = [(n, k, name, value, valid) for name, value, valid in entries]
    return _bound_consistency(rows, family, {(n, k): witness_edges})


def sweep(text, fmt, family, cells):
    """`sweep` stdout: yes-upper >= yes-lower at every (n, k) of the grid."""
    try:
        if fmt == "json":
            raw = [(r["n"], r["k"], r["bound_name"], r["value"], r["valid"])
                   for r in json.loads(text)]
        else:
            raw = [(int(r["n"]), int(r["k"]), r["bound_name"],
                    float(r["value"]) if r["value"] else None, r["valid"])
                   for r in csv.DictReader(io.StringIO(text))]
    except (ValueError, KeyError, TypeError):
        return ["sweep output does not parse"]
    problems = []
    if {(n, k) for n, k, *_ in raw} != set(cells):
        problems.append("sweep rows do not cover exactly the requested grid")
    return problems + _bound_consistency(raw, family, {})


def single_value(text, want):
    try:
        got = float(text)
    except ValueError:
        return ["bounds --variant output is not a number"]
    if not math.isclose(got, want, rel_tol=PRINT_RTOL):
        return [f"bounds --variant printed {got}, closed form gives {want}"]
    return []


def construct(text, n, m, max_cross, coloring_needed):
    try:
        doc = json.loads(text)
        edges = [tuple(e) for e in doc["edges"]]
    except (ValueError, KeyError, TypeError):
        return ["construct output does not parse"]
    problems = []
    if doc["n"] != n or len(edges) != m:
        problems.append(f"construct gave n={doc['n']}, m={len(edges)}; "
                        f"wanted n={n}, m={m}")
    worst = oracles.max_crossing(doc["n"], edges)
    if worst != max_cross:
        problems.append(f"construct output has max crossing {worst}, wanted {max_cross}")
    if coloring_needed:
        coloring = doc.get("coloring")
        if coloring is None or not oracles.is_proper(coloring, edges):
            problems.append("construct output lacks a proper coloring")
    return problems


def json_value(text, key, want, rtol=0.0):
    try:
        got = json.loads(text)[key]
    except (ValueError, KeyError, TypeError):
        return [f"output has no {key!r}"]
    if rtol:
        ok = math.isclose(got, want, rel_tol=rtol)
    else:
        ok = got == want
    return [] if ok else [f"{key} = {got!r}, wanted {want!r}"]
