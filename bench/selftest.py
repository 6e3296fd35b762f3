"""Self-tests of the checkers: each must pass a genuine output of the
package and reject the same output doctored in one place.

    python3 bench/selftest.py

run.py runs these before every run and stops if a checker accepts a
doctored output.
"""

from __future__ import annotations

import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

import checks
import oracles


def _cases(workdir):
    """(what, genuine problems, doctored problems) for each checker."""
    from outerkplanar import circulant, cli, search
    from workloads import search_payload

    # a search witness with one more crossing than k allows
    n, k = 6, 2
    genuine = search_payload(search.max_edges(n, k))
    optimum = oracles.reference_max_edges(n, k, "general")
    edges = genuine["witness"]["edges"]
    extra = next(e for e in itertools.combinations(range(n), 2) if e not in edges
                 and oracles.max_crossing(n, edges + [e]) == k + 1)
    doctored = json.loads(json.dumps(genuine))
    doctored["witness"]["edges"] = sorted(edges + [extra])
    doctored["max_edges"] += 1
    yield ("search witness with one crossing too many",
           checks.search(genuine, n, k, "general", optimum),
           checks.search(doctored, n, k, "general", optimum + 1))

    # a max-cut value off by one, either way
    spec = circulant.CirculantSpec(13, 3)
    cut = circulant.exact_maxcut(spec)
    bound = circulant.mohar_bound(spec)
    opt = oracles.maxcut_dp(13, 3)
    for delta in (1, -1):
        yield (f"max-cut value off by {delta:+d}",
               checks.maxcut(13, 3, cut.value, cut.sides, opt, bound),
               checks.maxcut(13, 3, cut.value + delta, cut.sides, opt, bound))

    # a verify count changed on one edge
    n, edges = oracles.glued_chain(oracles.k6_minus_long_diagonal(), 6, 2)
    path = Path(workdir) / "selftest-graph.json"
    path.write_text(json.dumps({"n": n, "edges": edges}), encoding="utf-8")
    out = io.StringIO()
    cli.run(["verify", str(path), "--k", "3"], out)
    text = out.getvalue()
    doc = json.loads(text)
    doc["per_edge_crossings"][len(edges) // 2]["crossings"] += 1
    expect = {"crossings": oracles.crossing_counts(n, edges),
              "degeneracy": oracles.degeneracy(n, edges),
              "bipartite": oracles.two_coloring(n, edges) is not None}
    yield ("verify count changed on one edge",
           checks.verify(text, n, edges, 3, expect),
           checks.verify(json.dumps(doc), n, edges, 3, expect))

    # a rerun whose stdout differs by one byte
    out = io.StringIO()
    cli.run(["bounds", "--n", "20", "--k", "2"], out)
    first = out.getvalue()
    i = first.index("2")
    yield ("rerun differing by one byte",
           checks.rerun(first, first),
           checks.rerun(first, first[:i] + "3" + first[i + 1:]))


def run(workdir):
    """(doctored outputs accepted, genuine outputs rejected), as descriptions.

    A doctored output that passes is a fault of the checker.  A genuine
    output that fails is a fault of the package, which the workloads
    count as failed operations.
    """
    accepted, rejected = [], []
    for what, genuine, doctored in _cases(workdir):
        if genuine:
            rejected.append(f"{what}: the genuine output was rejected: {genuine}")
        if not doctored:
            accepted.append(f"{what}: the doctored output was accepted")
    return accepted, rejected


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    with tempfile.TemporaryDirectory(dir=here) as tmp:
        accepted, rejected = run(tmp)
    for line in accepted + rejected:
        print(line)
    print("selftest:", "FAILED" if accepted or rejected
          else "all checkers reject doctored outputs")
    sys.exit(1 if accepted or rejected else 0)
