"""Regenerate reference_optima.json with the independent reference searcher.

    python3 bench/make_reference.py

Covers every search cell the benchmark runs: the search_grid cells and
the cells of cli_batch's `search` calls.  It does not import the package;
the optima come from oracles.reference_max_edges, which prunes by
counting only.  It takes a few minutes; general (12, 1) alone takes
about a minute.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import oracles

CELLS = [
    ("general", 6, 3), ("general", 7, 2), ("general", 7, 3), ("general", 8, 2),
    ("general", 8, 3), ("general", 8, 4), ("general", 9, 1), ("general", 9, 2),
    ("general", 10, 1), ("general", 11, 2), ("general", 12, 0), ("general", 12, 1),
    ("bipartite_free", 8, 3), ("bipartite_free", 9, 2),
    ("bipartite_free", 10, 0), ("bipartite_free", 10, 2),
    ("bipartite_alternating", 8, 1), ("bipartite_alternating", 8, 3),
    ("bipartite_alternating", 10, 2), ("bipartite_alternating", 10, 4),
    ("bipartite_consecutive", 10, 2), ("bipartite_consecutive", 10, 4),
    ("bipartite_consecutive", 11, 2), ("bipartite_consecutive", 12, 0),
    ("bipartite_consecutive", 12, 1),
]


def main():
    rows = []
    for mode, n, k in CELLS:
        t0 = time.perf_counter()
        optimum = oracles.reference_max_edges(n, k, mode)
        print(f"{mode} n={n} k={k}: {optimum} ({time.perf_counter() - t0:.1f} s)",
              flush=True)
        rows.append({"mode": mode, "n": n, "k": k, "optimum": optimum})
    doc = {"generated_by": "python3 bench/make_reference.py", "cells": rows}
    path = Path(__file__).resolve().parent / "reference_optima.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
