import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest

import outerkplanar
from outerkplanar.cli import _EXIT_CODES, ENV_NODE_BUDGET, run


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out)
    return code, out.getvalue()


def _no_constant(name):
    raise ValueError(f"{name} is not valid JSON (RFC 8259)")


def invoke_json(*argv):
    code, text = invoke(*argv)
    return code, json.loads(text, parse_constant=_no_constant)


def test_bounds_single_variant():
    code, text = invoke("bounds", "--n", "100", "--k", "1", "--variant", "small_k")
    assert (code, text) == (0, "246\n")


def test_bounds_report_json():
    code, payload = invoke_json("bounds", "--n", "100", "--k", "1")
    assert code == 0
    assert (payload["n"], payload["k"], payload["family"]) == (100, 1, "general")
    names = [e["name"] for e in payload["entries"]]
    assert names == ["small_k", "lazy", "common", "local", "direct", "chain"]
    by_name = {e["name"]: e for e in payload["entries"]}
    assert by_name["small_k"]["value"] == 246
    assert by_name["lazy"]["valid"] == "no" and by_name["lazy"]["value"] is None

    code, payload = invoke_json("bounds", "--n", "100", "--k", "1", "--bipartite")
    assert code == 0 and payload["family"] == "bipartite"


def test_bounds_report_csv():
    code, text = invoke("bounds", "--n", "100", "--k", "1", "--format", "csv")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "name,kind,value,valid,source"
    assert len(lines) == 7  # header + 6 entries
    assert text.endswith("\n")


def test_bounds_not_applicable():
    code, payload = invoke_json("bounds", "--n", "100", "--k", "1",
                                "--variant", "common")
    assert code == 4
    assert payload["error"]["code"] == "not-applicable"
    assert "k >= 5" in payload["error"]["message"]


def test_k_threshold_flag():
    code, _ = invoke("bounds", "--n", "1000", "--k", "5", "--variant", "direct")
    assert code == 4
    code, text = invoke("bounds", "--n", "1000", "--k", "5", "--variant", "direct",
                        "--k-threshold", "3")
    assert code == 0 and float(text) > 0


def test_invalid_flags():
    for argv in (
        ["bounds", "--n", "100", "--k", "1", "--variant", "newest"],
        ["bounds", "--k", "1"],
        ["bounds", "--n", "100", "--k", "1", "--precision", "0"],
        ["bounds", "--n", "1", "--k", "1"],
        ["frobnicate"],
        [],
    ):
        code, payload = invoke_json(*argv)
        assert code == 2, argv
        assert payload["error"]["code"] == "invalid-flags"


def test_help_exits_zero(capsys):
    code, _ = invoke("--help")
    assert code == 0
    capsys.readouterr()  # swallow argparse's direct stdout write


def test_byte_stability():
    argv = ("sweep", "--n-from", "10", "--n-to", "14", "--k-from", "0",
            "--k-to", "3")
    assert invoke(*argv) == invoke(*argv)


# sha256 of sweep stdout over n 2..60, k 0..40 with --k-threshold 3, per
# (family, format).  A deliberate change to a bound (a value, window or
# status) changes these digests; update them in the same change and say so
# in CHANGES.md.  The general ones were last regenerated when small_k at
# k = 3 was reported refuted, from the previous output with that row's
# valid "conditional" relabelled "refuted".
SWEEP_DIGESTS = {
    ("general", "json"): "c78b0902060d4f30591ad8b33ae0eaf406ef6a7d1a11b4c9125d9f255eb950e6",
    ("general", "csv"): "31faf43b31d75dda0bffd8ea41a860e999926bdc9efb76d61160aae3dd2fefbb",
    ("bipartite", "json"): "a88e1aeb2f48036896050b9393886e5df4d78fa00ebe3083a05f7cc973f12734",
    ("bipartite", "csv"): "cea6235c0771a3377d7a6406e8cc083aff9711fd6bb2abebf250d3ff825508cd",
}


@pytest.mark.parametrize("family,fmt", sorted(SWEEP_DIGESTS))
def test_sweep_bytes_frozen(family, fmt):
    argv = ["sweep", "--n-from", "2", "--n-to", "60", "--k-from", "0",
            "--k-to", "40", "--k-threshold", "3", "--format", fmt]
    if family == "bipartite":
        argv.append("--bipartite")
    code, text = invoke(*argv)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_DIGESTS[family, fmt]


def test_precision_flag():
    _, lo = invoke_json("circulant", "--n", "5", "--r", "1", "--method", "mohar")
    _, hi = invoke_json("circulant", "--n", "5", "--r", "1", "--method", "mohar",
                        "--precision", "12")
    assert lo["value"] == 4.52254
    assert hi["value"] == 4.52254248594


def test_construct():
    code, payload = invoke_json("construct", "complete", "--x", "5")
    assert code == 0
    assert payload["n"] == 5 and len(payload["edges"]) == 10

    code, payload = invoke_json("construct", "complete", "--x", "5",
                                "--blocks", "2")
    assert code == 2 and "does not take" in payload["error"]["message"]

    code, payload = invoke_json("construct", "kx-chain", "--x", "4")
    assert code == 2 and "requires --blocks" in payload["error"]["message"]

    code, payload = invoke_json("construct", "complete", "--x", "1")
    assert code == 6
    assert payload["error"]["code"] == "invalid-input"


# every construct kind, its flags in the builder's argument order, a
# valid invocation's values, and the (n, m) of the graph they build
CONSTRUCT_KINDS = {
    "complete": (("x",), (5,), (5, 10)),
    "cycle": (("n",), (7,), (7, 7)),
    "kx-chain": (("x", "blocks"), (6, 3), (14, 43)),
    "kxx-alternating": (("x",), (4,), (8, 16)),
    "kxx-chain": (("x", "blocks"), (3, 2), (10, 17)),
}


def test_construct_every_kind():
    from outerkplanar import constructions, geometry

    builders = {"complete": constructions.complete_graph,
                "cycle": constructions.cycle_graph,
                "kx-chain": constructions.kx_chain,
                "kxx-alternating": constructions.kxx_alternating,
                "kxx-chain": constructions.kxx_chain}
    for kind, (flags, values, (n, m)) in CONSTRUCT_KINDS.items():
        argv = [a for f, v in zip(flags, values) for a in (f"--{f}", str(v))]
        code, text = invoke("construct", kind, *argv)
        g = builders[kind](*values)
        assert (g.n, g.m) == (n, m), kind
        assert (code, text) == (0, json.dumps(geometry.to_json_dict(g), indent=2) + "\n")
    code, payload = invoke_json("construct", "nope")
    assert code == 2 and payload["error"]["message"] == (
        "argument kind: invalid choice: 'nope' (choose from 'complete', 'cycle', "
        "'kx-chain', 'kxx-alternating', 'kxx-chain')")


def test_construct_flag_errors_for_every_kind():
    given = {"x": "4", "n": "6", "blocks": "2"}
    for kind, (flags, _, _) in CONSTRUCT_KINDS.items():
        for flag in given:
            if flag in flags:
                argv = [a for f in flags if f != flag for a in (f"--{f}", given[f])]
                message = f"construct {kind} requires --{flag}"
            else:
                argv = [a for f in (*flags, flag) for a in (f"--{f}", given[f])]
                message = f"construct {kind} does not take --{flag}"
            code, payload = invoke_json("construct", kind, *argv)
            assert (code, payload) == (2, {"error": {"code": "invalid-flags",
                                                     "message": message}}), argv


def test_construct_verify_round_trip(tmp_path):
    code, text = invoke("construct", "complete", "--x", "5")
    assert code == 0
    path = tmp_path / "k5.json"
    path.write_text(text)
    code, payload = invoke_json("verify", str(path), "--k", "2")
    assert code == 0
    assert list(payload) == ["n", "m", "k", "outer_k_planar", "max_crossing",
                             "bipartite", "degeneracy", "greedy_colors",
                             "per_edge_crossings"]
    assert payload["m"] == 10
    assert payload["outer_k_planar"] is True
    assert payload["max_crossing"] == 2
    assert payload["bipartite"] is False
    assert len(payload["per_edge_crossings"]) == 10

    code, payload = invoke_json("verify", str(path), "--k", "1")
    assert code == 0 and payload["outer_k_planar"] is False


def test_verify_bytes_ignore_edge_order_and_duplicates(tmp_path):
    g = outerkplanar.kx_chain(10, 40)
    canonical = tmp_path / "canonical.json"
    canonical.write_text(outerkplanar.graph_to_json(g))
    edges = [[b, a] if i % 3 else [a, b] for i, (a, b) in enumerate(g.sorted_edges())]
    edges += edges[::7]
    random.Random(15).shuffle(edges)
    messy = tmp_path / "messy.json"
    messy.write_text(json.dumps({"n": g.n, "edges": edges}))
    for k in ([], ["--k", "16"]):
        code, text = invoke("verify", str(canonical), *k)
        assert code == 0
        assert invoke("verify", str(messy), *k) == (0, text)


def test_verify_stdin(monkeypatch):
    _, text = invoke("construct", "cycle", "--n", "6")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, payload = invoke_json("verify", "-")
    assert code == 0
    assert payload["m"] == 6 and payload["bipartite"] is True
    assert "k" not in payload


def test_verify_stdin_decodes_strictly(monkeypatch, tmp_path):
    # stdin's bytes are decoded as strict UTF-8, as a file's are, whatever
    # error handler the text stream was opened with
    raw = b'\xff\xfe{"n": 3}'
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8",
                                                       errors="surrogateescape"))
    from_stdin = invoke_json("verify", "-")
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert from_stdin == invoke_json("verify", str(path))
    assert from_stdin[0] == 3 and from_stdin[1]["error"]["code"] == "malformed-json"
    assert "can't decode byte 0xff" in from_stdin[1]["error"]["message"]


def test_verify_bad_inputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, payload = invoke_json("verify", str(bad))
    assert code == 3 and payload["error"]["code"] == "malformed-json"

    code, payload = invoke_json("verify", str(tmp_path / "missing.json"))
    assert code == 6 and payload["error"]["code"] == "invalid-input"

    schema = tmp_path / "schema.json"
    schema.write_text('{"n": 4, "edges": [[0, 9]]}')
    code, payload = invoke_json("verify", str(schema))
    assert code == 3

    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b'\xff\xfe{"n": 3}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    for argv in (["verify", str(undecodable)], ["verify", str(deep)],
                 ["search", "--n", "3", "--k", "0", "--warm-start", str(undecodable)]):
        code, payload = invoke_json(*argv)
        assert code == 3 and payload["error"]["code"] == "malformed-json", argv
        assert payload["error"]["message"].startswith("malformed JSON: "), argv


def test_loader_rejects_non_integer_values(tmp_path):
    for name, text in (("float", '{"n": 5, "edges": [[0, 1.7]]}'),
                       ("bool", '{"n": 5, "edges": [[0, true]]}'),
                       ("string", '{"n": 5, "edges": [[0, "1"]]}'),
                       ("color", '{"n": 3, "edges": [], "coloring": [0, 0.5, 1]}'),
                       ("colors", '{"n": 3, "edges": [], "coloring": "010"}')):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        for argv in (["verify", str(path)],
                     ["search", "--n", "5", "--k", "1", "--warm-start", str(path)]):
            code, payload = invoke_json(*argv)
            assert code == 3 and payload["error"]["code"] == "malformed-json", argv
            assert "integer" in payload["error"]["message"]


def test_verify_checks_k_before_counting(tmp_path, monkeypatch):
    import outerkplanar.cli as cli

    def refuse(g):
        raise AssertionError("verify counted crossings before checking --k")

    monkeypatch.setattr(cli, "crossing_counts", refuse)
    monkeypatch.setattr(cli, "degeneracy_order", refuse)
    good = tmp_path / "good.json"
    good.write_text('{"n": 4, "edges": [[0, 2], [1, 3]]}')
    code, payload = invoke_json("verify", str(good), "--k", "-1")
    assert code == 2 and payload["error"]["code"] == "invalid-flags"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, payload = invoke_json("verify", str(bad), "--k", "-1")
    assert code == 3 and payload["error"]["code"] == "malformed-json"


def test_verify_refuses_a_graph_above_its_cap(tmp_path, monkeypatch):
    # a document of a few bytes can name any n; the refusal comes before any
    # work, and prints no n
    import outerkplanar.cli as cli

    assert cli._VERIFY_MAX_N == 1 << 20
    small = tmp_path / "small.json"
    small.write_text('{"n": 5, "edges": [[0, 2], [1, 3]]}')
    assert invoke("verify", str(small))[0] == 0  # loads the modules verify uses
    refusal = (5, {"error": {"code": "budget-exceeded",
                             "message": "the graph has more vertices than the cap of "
                                        f"{cli._VERIFY_MAX_N}"}})
    for n in (10**9, int("9" * 4300)):
        big = tmp_path / "big.json"
        big.write_text(f'{{"n": {n}, "edges": [[0, 1]]}}')
        tracemalloc.start()
        try:
            answer = invoke_json("verify", str(big), "--k", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answer == refusal
        assert peak < 1 << 20, (len(str(n)), peak)

    def refuse(g):
        raise AssertionError("verify counted crossings above its cap")

    monkeypatch.setattr(cli, "_VERIFY_MAX_N", 4)
    at_cap = tmp_path / "at_cap.json"
    at_cap.write_text('{"n": 4, "edges": [[0, 2], [1, 3]]}')
    code, payload = invoke_json("verify", str(at_cap))
    assert code == 0 and payload["max_crossing"] == 1
    monkeypatch.setattr(cli, "crossing_counts", refuse)
    assert invoke_json("verify", str(small))[1]["error"]["message"] == (
        "the graph has more vertices than the cap of 4")


def test_construct_refuses_a_graph_above_its_cap(monkeypatch):
    # refused after the flags are checked and before any graph is built,
    # with no number from the input in the message
    from outerkplanar import constructions

    assert constructions._MAX_EDGES == 1 << 20
    refusal = (5, {"error": {"code": "budget-exceeded",
                             "message": "the graph has more edges than the cap of "
                                        f"{constructions._MAX_EDGES}"}})

    def refuse(*args, **kwargs):
        raise AssertionError("construct builds a graph above its cap")

    huge = str(10**400)
    with monkeypatch.context() as m:
        m.setattr(constructions, "ConvexGraph", refuse)
        m.setattr(constructions, "_chain_blocks", refuse)
        for argv in (["complete", "--x", huge], ["cycle", "--n", huge],
                     ["kx-chain", "--x", huge, "--blocks", "1"],
                     ["kx-chain", "--x", "3", "--blocks", huge],
                     ["kxx-alternating", "--x", huge],
                     ["kxx-chain", "--x", huge, "--blocks", "1"],
                     # K_{1,1} blocks all share one edge, but each is still walked
                     ["kxx-chain", "--x", "1", "--blocks", huge]):
            assert invoke_json("construct", *argv) == refusal, argv
        # invalid flags keep their code and message
        assert invoke_json("construct", "kx-chain", "--x", "1", "--blocks", huge) == (
            6, {"error": {"code": "invalid-input", "message": "kx_chain needs x >= 3"}})
        assert invoke_json("construct", "kxx-chain", "--x", huge, "--blocks", "0") == (
            6, {"error": {"code": "invalid-input",
                          "message": "kxx_chain needs at least one block"}})
    # at the cap the graph is built, one edge past it is refused
    monkeypatch.setattr(constructions, "_MAX_EDGES", 12)
    for at_cap, past in ((["complete", "--x", "5"], ["complete", "--x", "6"]),  # 10, 15
                         (["cycle", "--n", "12"], ["cycle", "--n", "13"]),
                         (["kx-chain", "--x", "4", "--blocks", "2"],  # 2 * 6, 3 * 6
                          ["kx-chain", "--x", "4", "--blocks", "3"]),
                         (["kxx-alternating", "--x", "3"], ["kxx-alternating", "--x", "4"]),
                         (["kxx-chain", "--x", "2", "--blocks", "3"],  # 3 * 4, 4 * 4
                          ["kxx-chain", "--x", "2", "--blocks", "4"])):
        assert invoke("construct", *at_cap)[0] == 0, at_cap
        assert invoke_json("construct", *past)[1]["error"]["message"] == (
            "the graph has more edges than the cap of 12"), past


def test_verify_cost_follows_the_edges(tmp_path):
    # one edge at the cap: the statistics walk the two vertices that carry it
    small = tmp_path / "small.json"
    small.write_text('{"n": 5, "edges": [[0, 2], [1, 3]]}')
    assert invoke("verify", str(small))[0] == 0  # loads the modules verify uses
    big = tmp_path / "big.json"
    big.write_text(f'{{"n": {1 << 20}, "edges": [[0, 1]]}}')
    tracemalloc.start()
    try:
        code, payload = invoke_json("verify", str(big), "--k", "0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert (code, payload) == (0, {
        "n": 1 << 20, "m": 1, "k": 0, "outer_k_planar": True, "max_crossing": 0,
        "bipartite": True, "degeneracy": 1, "greedy_colors": 2,
        "per_edge_crossings": [{"edge": [0, 1], "crossings": 0}]})


def test_verify_with_isolated_vertices_matches_the_oracles(tmp_path, rng):
    from conftest import (crossing_counts_by_subsets, degeneracy_order_by_rescan,
                          greedy_color_by_sets)

    # sparse graphs take the relabelled path (n > 5m/2) and denser ones the
    # direct path; both keep isolated vertices, often at 0 and n - 1
    cases = [(2, []), (9, []), (9, [(0, 8)]), (12, [(3, 7)]), (10, [(0, 5), (2, 9)])]
    for _ in range(40):
        n = rng.randint(4, 13)
        live = rng.sample(range(n), rng.randint(2, n - 1))
        edges = sorted({tuple(sorted(rng.sample(live, 2)))
                        for _ in range(rng.randint(1, len(live) + 2))})
        cases.append((n, edges))
    assert {2 * n > 5 * len(edges) for n, edges in cases} == {True, False}
    path = tmp_path / "g.json"
    for n, edges in cases:
        path.write_text(json.dumps({"n": n, "edges": edges}))
        code, payload = invoke_json("verify", str(path))
        counts = crossing_counts_by_subsets(n, edges)
        order, degeneracy = degeneracy_order_by_rescan(n, edges)
        bipartite = any(all((side >> a & 1) != (side >> b & 1) for a, b in edges)
                        for side in range(1 << (n - 1)))
        assert code == 0 and payload == {
            "n": n, "m": len(edges), "max_crossing": max(counts.values(), default=0),
            "bipartite": bipartite, "degeneracy": degeneracy,
            "greedy_colors": greedy_color_by_sets(edges, order)[1],
            "per_edge_crossings": [{"edge": list(e), "crossings": c}
                                   for e, c in counts.items()]}, (n, edges)


def test_cached_parser_keeps_no_state(tmp_path, monkeypatch, capsys):
    import outerkplanar.cli as cli

    _, text = invoke("construct", "complete", "--x", "5")
    path = tmp_path / "k5.json"
    path.write_text(text)
    calls = (["verify", str(path), "--k", "two"],
             ["--help"],
             ["verify", str(path), "--k", "2"],
             ["verify", str(path)],
             ["search", "--n", "5", "--k", "2", "--warm-start", str(path)],
             ["search", "--n", "5", "--k", "2"])

    def outputs():
        got = []
        for argv in calls:
            code, text = invoke(*argv)
            got.append((code, text + capsys.readouterr().out))  # --help prints itself
        return got

    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    cached = outputs()
    assert cached[0][0] == 2 and cached[1][0] == 0
    assert "k" not in json.loads(cached[3][1])
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outputs() == cached


def test_search_basic():
    code, payload = invoke_json("search", "--n", "6", "--k", "2")
    assert code == 0
    assert payload["max_edges"] == 12
    assert payload["proven_optimal"] is True
    assert payload["settings"] == {"n": 6, "k": 2, "mode": "general"}
    assert payload["witness"]["n"] == 6
    assert len(payload["witness"]["edges"]) == 12


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_bounds_example():
    """The README's `bounds` examples show exactly what the commands print."""
    readme = README.read_text(encoding="utf-8")
    for command in ("$ outerkplanar bounds --n 100 --k 2 --format csv\n",
                    "$ outerkplanar bounds --n 100 --k 1 --variant small_k\n"):
        shown = readme[readme.index(command) + len(command):].split("\n\n", 1)[0]
        assert invoke(*command[len("$ outerkplanar "):].split()) == (0, shown + "\n")


def test_readme_library_tour():
    """The README's library tour runs, and each line gives the value its
    comment states."""
    from outerkplanar import Cut

    readme = README.read_text(encoding="utf-8")
    fence = "```python\n"
    start = readme.index(fence, readme.index("## Library quick tour")) + len(fence)
    namespace = {}
    shown = []
    comments = {}
    for line in readme[start:readme.index("```", start)].splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        try:
            shown.append((comment, eval(code, namespace)))
        except SyntaxError:  # an import or an assignment
            exec(code, namespace)
            comments[code.partition(" = ")[0]] = comment
    g, res = namespace["g"], namespace["res"]
    assert (g.n, g.m) == (8, 16) and "n=8, m=16" in comments["g"]
    assert res.max_edges == 19 and "19 edges" in comments["res"]
    stated = [("True", True), ("1", 1), ("295.0", 295.0), ("337", 337), ("True", True),
              ("0.4243", pytest.approx(0.4243, abs=5e-5)),
              ("Cut(sides=(0,0,1,1,0,0,1,1), value=12)", Cut((0, 0, 1, 1, 0, 0, 1, 1), 12))]
    assert len(shown) == len(stated)
    for (comment, value), (text, expected) in zip(shown, stated):
        assert comment.startswith(text) and value == expected, (comment, value)


def test_readme_search_example():
    """The README's `search` example prints what the command prints; the
    lines the README elides with "..." are not compared."""
    readme = README.read_text(encoding="utf-8")
    command = "$ outerkplanar search --n 8 --k 2\n"
    block = readme[readme.index(command) + len(command):].split("\n}\n", 1)[0]
    code, payload = invoke_json(*command[len("$ outerkplanar "):].split())
    assert code == 0
    shown = {}
    for line in block.splitlines()[1:]:
        key, sep, value = line.strip().partition(": ")
        if sep and "..." not in value:
            shown[json.loads(key)] = json.loads(value.rstrip(","))
    assert list(shown) == ["max_edges", "proven_optimal", "nodes_explored"]
    assert shown == {key: payload[key] for key in shown}


def test_search_bipartite_mode():
    code, payload = invoke_json("search", "--n", "6", "--k", "2",
                                "--bipartite", "alternating")
    assert code == 0
    assert payload["max_edges"] == 9
    assert payload["settings"]["mode"] == "bipartite_alternating"
    assert payload["witness"]["coloring"] == [0, 1, 0, 1, 0, 1]


def test_search_witness_round_trip(tmp_path):
    _, payload = invoke_json("search", "--n", "8", "--k", "2")
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(payload["witness"]))
    code, check = invoke_json("verify", str(path), "--k", "2")
    assert code == 0
    assert check["m"] == 19 and check["outer_k_planar"] is True


def test_search_budget_flag():
    code, payload = invoke_json("search", "--n", "8", "--k", "2",
                                "--budget-nodes", "20")
    assert code == 5
    assert payload["error"]["code"] == "budget-exceeded"
    partial = payload["result"]
    assert partial["proven_optimal"] is False
    assert partial["nodes_explored"] == 21
    assert partial["max_edges"] >= 0


def test_search_budget_env(monkeypatch):
    monkeypatch.setenv(ENV_NODE_BUDGET, "20")
    code, payload = invoke_json("search", "--n", "8", "--k", "2")
    assert code == 5 and payload["error"]["code"] == "budget-exceeded"
    # an explicit flag wins over the environment
    code, _ = invoke_json("search", "--n", "8", "--k", "2",
                          "--budget-nodes", "100000")
    assert code == 0
    monkeypatch.setenv(ENV_NODE_BUDGET, "soon")
    code, payload = invoke_json("search", "--n", "8", "--k", "2")
    assert code == 2 and "integer" in payload["error"]["message"]
    monkeypatch.setenv(ENV_NODE_BUDGET, "-1")
    code, payload = invoke_json("search", "--n", "8", "--k", "2")
    assert code == 2 and payload["error"] == {
        "code": "invalid-flags", "message": f"{ENV_NODE_BUDGET} must be non-negative"}


def test_search_warm_start(tmp_path):
    _, text = invoke("construct", "complete", "--x", "5")
    path = tmp_path / "k5.json"
    path.write_text(text)
    code, payload = invoke_json("search", "--n", "5", "--k", "2",
                                "--warm-start", str(path))
    assert code == 0 and payload["max_edges"] == 10


def test_search_invalid_input():
    code, payload = invoke_json("search", "--n", "13", "--k", "1")
    assert code == 6 and payload["error"]["code"] == "invalid-input"
    code, payload = invoke_json("search", "--n", "5", "--k", "1",
                                "--bipartite", "alternating")
    assert code == 6  # odd n has no alternating coloring


def test_circulant_exact():
    code, payload = invoke_json("circulant", "--n", "8", "--r", "2",
                                "--method", "exact")
    assert code == 0
    assert payload["value"] == 12
    assert payload["sides"] == [0, 0, 1, 1, 0, 0, 1, 1]


def test_circulant_errors():
    # just past the work cap n*4^r <= 2^22
    code, payload = invoke_json("circulant", "--n", "257", "--r", "7",
                                "--method", "exact")
    assert code == 5 and payload["error"]["code"] == "budget-exceeded"
    # an r past the cap at every n, and an n too long to print, give the
    # same record instead of a failed int-to-str conversion
    for argv in (["--n", "100000", "--r", "10000", "--method", "exact"],
                 ["--n", "9" * 4300, "--r", "1", "--method", "exact"],
                 ["--n", "9" * 4300, "--r", "1", "--method", "mohar"]):
        code, payload = invoke_json("circulant", *argv)
        assert code == 5 and payload["error"]["code"] == "budget-exceeded", argv[1:4]
    code, payload = invoke_json("circulant", "--n", "8", "--r", "0",
                                "--method", "exact")
    assert code == 6
    code, payload = invoke_json("circulant", "--n", "8", "--r", "2",
                                "--method", "magic")
    assert code == 2 and payload["error"]["message"] == (
        "argument --method: invalid choice: 'magic' "
        "(choose from 'exact', 'mohar', 'lemma', 'lemma-refined')")


def test_circulant_bound_methods():
    expected = {"mohar": (24.0, 15.5902), "lemma": (934.5, 772.5),
                "lemma-refined": (36.0, 20.0)}
    for method, values in expected.items():
        for (n, r), value in zip(((12, 3), (10, 2)), values):
            code, payload = invoke_json("circulant", "--n", str(n), "--r", str(r),
                                        "--method", method)
            assert (code, payload) == (0, {"n": n, "r": r, "method": method,
                                           "value": value}), method


def test_search_bipartite_choices_match_the_search_modes():
    # the parser cannot import search without loading it on every command,
    # so its --bipartite choices are written out; they must name every mode
    import argparse

    from outerkplanar.cli import build_parser
    from outerkplanar.search import SEARCH_MODES

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    choices = sub.choices["search"]._option_string_actions["--bipartite"].choices
    assert {"general", *(f"bipartite_{c}" for c in choices)} == set(SEARCH_MODES)
    assert len(choices) + 1 == len(SEARCH_MODES)


def test_xorsum():
    code, payload = invoke_json("xorsum", "--bits", "0101", "--r", "1")
    assert code == 0
    assert payload == {"n": 4, "r": 1, "mode": "cyclic", "value": 8}
    code, payload = invoke_json("xorsum", "--bits", "0011", "--r", "1",
                                "--bounded")
    assert code == 0 and payload["value"] == 2

    code, payload = invoke_json("xorsum", "--bits", "0101", "--r", "1",
                                "--cyclic", "--bounded")
    assert code == 2
    code, payload = invoke_json("xorsum", "--bits", "01a1", "--r", "1")
    assert code == 6
    code, payload = invoke_json("xorsum", "--bits", "0101", "--r", "0")
    assert code == 2


def test_sweep_csv():
    code, text = invoke("sweep", "--n-from", "10", "--n-to", "12",
                        "--n-step", "2", "--k-from", "1", "--k-to", "1")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "n,k,bound_name,value,valid"
    assert len(lines) == 1 + 2 * 6  # two n values, six entries each
    assert lines[1].startswith("10,1,small_k,")


def test_sweep_json():
    code, payload = invoke_json("sweep", "--n-from", "10", "--n-to", "10",
                                "--k-from", "0", "--k-to", "1",
                                "--format", "json", "--bipartite")
    assert code == 0
    assert len(payload) == 2 * 6
    assert set(payload[0]) == {"n", "k", "bound_name", "value", "valid"}


def test_sweep_bad_grid():
    code, payload = invoke_json("sweep", "--n-from", "10", "--n-to", "5",
                                "--k-from", "0", "--k-to", "1")
    assert code == 2 and "grid is empty" in payload["error"]["message"]
    code, _ = invoke_json("sweep", "--n-from", "10", "--n-to", "12",
                          "--k-from", "0", "--k-to", "1", "--n-step", "0")
    assert code == 2


def test_sweep_refuses_a_grid_above_its_cap(monkeypatch):
    # refused before any cell is evaluated, as circulant --method exact is
    import outerkplanar.cli as cli

    assert cli._SWEEP_MAX_CELLS >= 299 * 201  # the full n 2..300, k 0..200 grid
    called = []
    original = cli.bound_report

    def recorder(*args, **kwargs):
        # a sweep past its cap fails here at once instead of running on
        assert len(called) < 6, "sweep evaluates a grid above its cap"
        called.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "bound_report", recorder)
    refusal = (5, {"error": {"code": "budget-exceeded",
                             "message": "the grid has more cells than the cap of "
                                        f"{cli._SWEEP_MAX_CELLS}"}})
    assert invoke_json("sweep", "--n-from", "2", "--n-to", "100000000",
                       "--k-from", "0", "--k-to", "0") == refusal
    # a cell count too long to print gives the same record instead of a
    # failed int-to-str conversion
    assert invoke_json("sweep", "--n-from", "2", "--n-to", "9" * 4300,
                       "--k-from", "0", "--k-to", "9" * 4300) == refusal
    assert called == []
    # the cells are counted with the steps: n 10, 13, 16 (19) by k 0, 1
    monkeypatch.setattr(cli, "_SWEEP_MAX_CELLS", 6)
    grid = ["--n-from", "10", "--n-step", "3", "--k-from", "0", "--k-to", "1"]
    assert invoke("sweep", "--n-to", "16", *grid)[0] == 0 and len(called) == 6
    called.clear()
    assert invoke_json("sweep", "--n-to", "19", *grid)[1]["error"]["message"] == (
        "the grid has more cells than the cap of 6")
    assert called == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_reports_each_cell_once_in_grid_order(monkeypatch, fmt):
    # the benchmark's traced bounds.sweep_s times bound_report under a sweep,
    # so a grid walked twice, or once per format, would move it
    import outerkplanar.cli as cli

    called = []
    original = cli.bound_report

    def recorder(n, k, **kwargs):
        called.append((n, k))
        return original(n, k, **kwargs)

    monkeypatch.setattr(cli, "bound_report", recorder)
    assert invoke("sweep", "--n-from", "10", "--n-to", "16", "--n-step", "3",
                  "--k-from", "1", "--k-to", "5", "--k-step", "2", "--format", fmt)[0] == 0
    assert called == [(n, k) for n in (10, 13, 16) for k in (1, 3, 5)]


# Failing invocations whose records are pinned: they cover every subcommand,
# the parser itself and every error code, including a budget cut-off that
# carries a partial result and one that does not.  The
# files are named relative to the working directory, so no message holds a
# temporary path.  Argparse's "invalid choice" wording differs between
# Python versions, so no case here depends on it.
FAILURE_BATTERY = (
    (["bounds", "--n", "100", "--k", "1", "--variant", "common"], "not-applicable"),
    (["bounds", "--n", "1000", "--k", "5", "--variant", "direct"], "not-applicable"),
    (["bounds", "--n", "10", "--k", "3", "--bipartite", "--variant", "common"],
     "not-applicable"),
    (["bounds", "--n", "100", "--k", "1", "--variant", "newest"], "invalid-flags"),
    (["bounds", "--n", "10", "--k", "0", "--bipartite", "--variant", "newest"],
     "invalid-flags"),
    (["bounds", "--n", "100", "--k", "1", "--precision", "0"], "invalid-flags"),
    (["bounds", "--n", "1", "--k", "1"], "invalid-flags"),
    (["bounds", "--n", "10", "--k", "-1"], "invalid-flags"),
    (["bounds", "--k", "1"], "invalid-flags"),
    (["bounds", "--n", "x", "--k", "1"], "invalid-flags"),
    (["construct", "complete"], "invalid-flags"),
    (["construct", "complete", "--x", "3", "--n", "4"], "invalid-flags"),
    (["construct", "cycle", "--n", "2"], "invalid-input"),
    (["construct", "kx-chain", "--x", "1", "--blocks", "2"], "invalid-input"),
    (["verify", "bad.json"], "malformed-json"),
    (["verify", "schema.json"], "malformed-json"),
    (["verify", "undecodable.json"], "malformed-json"),
    (["verify", "missing.json"], "invalid-input"),
    (["verify", "k5.json", "--k", "-1"], "invalid-flags"),
    (["search", "--n", "13", "--k", "1"], "invalid-input"),
    (["search", "--n", "3", "--k", "-1"], "invalid-input"),
    (["search", "--n", "5", "--k", "1", "--bipartite", "alternating"], "invalid-input"),
    (["search", "--n", "6", "--k", "1", "--warm-start", "k5.json"], "invalid-input"),
    (["search", "--n", "5", "--k", "0", "--warm-start", "k5.json"], "invalid-input"),
    (["search", "--n", "5", "--k", "2", "--bipartite", "free", "--warm-start", "k5.json"],
     "invalid-input"),
    (["search", "--n", "5", "--k", "2", "--warm-start", "bad.json"], "malformed-json"),
    (["search", "--n", "5", "--k", "2", "--warm-start", "missing.json"], "invalid-input"),
    (["search", "--n", "8", "--k", "2", "--budget-nodes", "-1"], "invalid-flags"),
    (["search", "--n", "8", "--k", "2", "--budget-nodes", "20"], "budget-exceeded"),
    (["search", "--n", "8", "--k", "2", "--bipartite", "free", "--budget-nodes", "5"],
     "budget-exceeded"),
    (["circulant", "--n", "257", "--r", "7", "--method", "exact"], "budget-exceeded"),
    (["circulant", "--n", "8", "--r", "0", "--method", "exact"], "invalid-input"),
    (["circulant", "--n", "8", "--r", "4", "--method", "lemma"], "invalid-input"),
    (["circulant", "--n", "5", "--r", "1", "--method", "mohar", "--precision", "0"],
     "invalid-flags"),
    (["xorsum", "--bits", "012", "--r", "1"], "invalid-input"),
    (["xorsum", "--bits", "0101", "--r", "0"], "invalid-flags"),
    (["sweep", "--n-from", "10", "--n-to", "5", "--k-from", "0", "--k-to", "1"],
     "invalid-flags"),
    (["sweep", "--n-from", "1", "--n-to", "5", "--k-from", "0", "--k-to", "1"],
     "invalid-flags"),
    (["sweep", "--n-from", "5", "--n-to", "6", "--k-from", "-1", "--k-to", "1"],
     "invalid-flags"),
    (["sweep", "--n-from", "5", "--n-to", "6", "--k-from", "0", "--k-to", "1",
      "--k-step", "0"], "invalid-flags"),
    ([], "invalid-flags"),
)

# sha256 over json.dumps of every (argv, exit code, stdout) in the battery
FAILURE_BATTERY_DIGEST = "216dcbdedd704933eee20b5133dc985763cc5759e4d44175f0fa8448594b3629"


def test_failure_records_frozen(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_NODE_BUDGET, raising=False)
    Path("bad.json").write_text("{not json")
    Path("schema.json").write_text('{"n": 4, "edges": [[0, 9]]}')
    Path("undecodable.json").write_bytes(b'\xff\xfe{"n": 3}')
    Path("k5.json").write_text(invoke("construct", "complete", "--x", "5")[1])
    seen = []
    for argv, name in FAILURE_BATTERY:
        code, text = invoke(*argv)
        assert (code, json.loads(text)["error"]["code"]) == (_EXIT_CODES[name], name), argv
        seen.append([argv, code, text])
    assert set(_EXIT_CODES) == {name for _, name in FAILURE_BATTERY}
    digest = hashlib.sha256(json.dumps(seen).encode()).hexdigest()
    assert digest == FAILURE_BATTERY_DIGEST


def test_hostile_numbers_give_records():
    # Calls whose work does not grow with the value, or that a cap refuses
    # before any work, as circulant --method mohar refuses n/2 evaluations.
    # construct and a wide sweep grid are refused past their caps in tests
    # of their own, which trip on any work done above the cap.
    huge = str(10**400)  # an integer too large for a float
    for argv in (
        ["bounds", "--n", "10", "--k", huge],
        ["bounds", "--n", "10", "--k", huge, "--format", "csv"],
        ["bounds", "--n", "10", "--k", huge, "--variant", "small_k"],
        ["bounds", "--n", huge, "--k", "0"],
        ["bounds", "--n", huge, "--k", "0", "--bipartite"],
        ["bounds", "--n", huge, "--k", "3", "--variant", "small_k"],
        ["sweep", "--n-from", "10", "--n-to", "10", "--k-from", huge, "--k-to", huge],
        ["sweep", "--n-from", huge, "--n-to", huge, "--k-from", "0", "--k-to", "0"],
        ["circulant", "--n", huge, "--r", "1", "--method", "lemma"],
        ["circulant", "--n", huge, "--r", "1", "--method", "lemma-refined"],
        ["circulant", "--n", "10", "--r", huge, "--method", "lemma"],
        ["circulant", "--n", huge, "--r", "1", "--method", "mohar"],
    ):
        code, payload = invoke_json(*argv)
        assert code == _EXIT_CODES[payload["error"]["code"]], argv
    # a value past the float range, from n and k that fit in a float, is
    # refused as a value: no output prints Infinity, NaN or inf
    n, k = str(10**300), str(10**16)
    for argv in (
        ["bounds", "--n", n, "--k", k],
        ["bounds", "--n", n, "--k", k, "--format", "csv"],
        ["bounds", "--n", n, "--k", k, "--variant", "common"],
        ["sweep", "--n-from", n, "--n-to", n, "--k-from", k, "--k-to", k],
        ["sweep", "--n-from", n, "--n-to", n, "--k-from", k, "--k-to", k, "--format", "json"],
        ["circulant", "--n", str(10**307), "--r", "1", "--method", "lemma"],
    ):
        assert invoke_json(*argv) == (6, {"error": {
            "code": "invalid-input",
            "message": "the result lies outside the float range"}}), argv
    # an overflow inside a bound's evaluation is refused the same way
    assert invoke_json("bounds", "--n", n, "--k", str(10**20)) == (6, {"error": {
        "code": "invalid-input", "message": "int too large to convert to float"}})
    # the refined value fits even where r*n does not
    assert invoke_json("circulant", "--n", str(10**306), "--r", "200",
                       "--method", "lemma-refined")[1]["value"] == 1.2525e308
    assert invoke_json("circulant", "--n", huge, "--r", "1",
                       "--method", "mohar")[1]["error"]["code"] == "budget-exceeded"
    # a value too large for a float is named by its flag
    for argv, flags in (
        (["bounds", "--n", huge, "--k", "0"], "--n"),
        (["bounds", "--n", "10", "--k", huge], "--k"),
        (["bounds", "--n", huge, "--k", huge], "--n, --k"),
        (["sweep", "--n-from", huge, "--n-to", huge, "--k-from", "0", "--k-to", "0"],
         "--n-from, --n-to"),
        (["circulant", "--n", huge, "--r", "1", "--method", "lemma"], "--n"),
        (["circulant", "--n", huge + "0", "--r", huge, "--method", "lemma-refined"],
         "--n, --r"),
    ):
        assert invoke_json(*argv) == (6, {"error": {
            "code": "invalid-input",
            "message": f"{flags}: int too large to convert to float"}}), argv
    for argv, message in (
        (["bounds", "--n", "10", "--k", "5", "--precision", "1001"],
         "--precision must be at most 1000"),
        (["bounds", "--n", "10", "--k", "5", "--precision", str(10**10)],
         "--precision must be at most 1000"),
        (["circulant", "--n", "5", "--r", "1", "--method", "lemma",
          "--precision", str(2**31 - 1)], "--precision must be at most 1000"),
        (["sweep", "--n-from", "5", "--n-to", "6", "--k-from", "0", "--k-to", "1",
          "--precision", str(10**20)], "--precision must be at most 1000"),
        (["bounds", "--n", "10", "--k", "0", "--bipartite", "--k-threshold", "-5"],
         "--k-threshold must be non-negative"),
        (["sweep", "--n-from", "5", "--n-to", "6", "--k-from", "0", "--k-to", "1",
          "--k-threshold", "-1"], "--k-threshold must be non-negative"),
    ):
        assert invoke_json(*argv) == (2, {"error": {"code": "invalid-flags",
                                                     "message": message}}), argv
    code, payload = invoke_json("search", "--n", "3", "--k", huge)
    assert (code, payload["max_edges"], payload["proven_optimal"]) == (0, 3, True)
    # the largest precision still prints a double's exact decimal expansion
    code, text = invoke("bounds", "--n", "10", "--k", "5", "--variant", "local",
                        "--precision", "1000")
    assert code == 0 and Decimal(text.strip()) == Decimal(float(text)) > 0

BOUNDS_ARGV = ["bounds", "--n", "100", "--k", "1", "--variant", "small_k"]


def declared_console_script():
    """The ``module:attr`` target of the ``outerkplanar`` script in
    pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["outerkplanar"]


def package_env():
    """The environment with PYTHONPATH led by the directory that holds the
    imported outerkplanar package (``src`` in the source tree)."""
    package_root = str(Path(outerkplanar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_console_script():
    # Runs the declared target the way pip's generated wrapper does, in a
    # fresh interpreter that imports the same outerkplanar package as this
    # test, so the check holds with or without the package installed.
    module, attr = declared_console_script().split(":")
    wrapper = (f"import sys\n"
               f"from {module} import {attr}\n"
               f"sys.argv[0] = 'outerkplanar'\n"
               f"sys.exit({attr}())\n")
    proc = subprocess.run([sys.executable, "-c", wrapper, *BOUNDS_ARGV],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "246\n", proc.stderr


def test_module_entry_points():
    # python -m outerkplanar.cli runs the same front end as python -m outerkplanar
    argv = ["bounds", "--n", "10", "--k", "3"]
    via_package, via_cli = (
        subprocess.run([sys.executable, "-m", module, *argv],
                       capture_output=True, env=package_env())
        for module in ("outerkplanar", "outerkplanar.cli"))
    assert via_package.returncode == 0, via_package.stderr
    assert via_package.stdout  # a report, not silence
    assert via_cli.returncode == 0, via_cli.stderr
    assert via_cli.stdout == via_package.stdout
    bad = subprocess.run([sys.executable, "-m", "outerkplanar.cli", "--nonsense"],
                         capture_output=True, env=package_env())
    assert bad.returncode != 0


def test_circulant_mohar_matches_the_numpy_spectrum():
    from outerkplanar.circulant import CirculantSpec, adjacency_eigenvalues

    for n in range(3, 201):
        for r in range(1, min(20, (n - 1) // 2) + 1):
            ref = float((2.0 * r - adjacency_eigenvalues(CirculantSpec(n, r))).max())
            value = float(format(n * ref / 4.0, ".6g"))
            expected = json.dumps({"n": n, "r": r, "method": "mohar", "value": value},
                                  indent=2) + "\n"
            assert invoke("circulant", "--n", str(n), "--r", str(r),
                          "--method", "mohar") == (0, expected), (n, r)


# Runs in a fresh interpreter: after each step it records which of numpy and
# the package's modules that a subcommand may load are loaded.
IMPORT_PROBE = """
import contextlib, io, json, sys

def loaded():
    return [m for m in ("bounds", "constructions", "geometry", "search", "circulant")
            if "outerkplanar." + m in sys.modules] + ["numpy"] * ("numpy" in sys.modules)

steps = {"start": loaded()}
import outerkplanar
steps["import outerkplanar"] = loaded()
import outerkplanar.cli
steps["import outerkplanar.cli"] = loaded()
sys.argv[1:] = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = outerkplanar.cli.main()
steps["run"] = [code] + loaded()
print(json.dumps(steps))
"""


def test_numpy_stays_off_the_import_path(tmp_path):
    graph = tmp_path / "k5.json"
    graph.write_text(invoke("construct", "complete", "--x", "5")[1])
    expected = [
        (["bounds", "--n", "10", "--k", "2"], ["bounds"]),
        (["sweep", "--n-from", "6", "--n-to", "8", "--k-from", "0", "--k-to", "2"],
         ["bounds"]),
        (["construct", "kx-chain", "--x", "6", "--blocks", "2"],
         ["constructions", "geometry"]),
        (["verify", str(graph), "--k", "2"], ["geometry"]),
        (["search", "--n", "6", "--k", "1"], ["bounds", "geometry", "search"]),
        (["xorsum", "--bits", "0110101", "--r", "2"], ["circulant"]),
        # the spectral bound is pure Python: no subcommand loads numpy
        *((["circulant", "--n", "12", "--r", "2", "--method", method], ["circulant"])
          for method in ("exact", "lemma-refined", "mohar")),
    ]
    for argv, modules in expected:
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(argv)],
                              capture_output=True, text=True, env=package_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "start": [], "import outerkplanar": [], "import outerkplanar.cli": [],
            "run": [0, *modules]}, argv


# Runs in a fresh interpreter in which importing numpy fails, as it does
# without the optional extra: every subcommand and the pure-Python circulant
# functions work, and an array function names the extra.
NO_NUMPY_PROBE = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from outerkplanar import circulant, cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.run(argv))
spec = circulant.CirculantSpec(12, 2)
values = [round(circulant.mohar_bound(spec), 6), circulant.exact_maxcut(spec).value,
          circulant.xor_sum("0110101", 2)]
try:
    circulant.dirichlet_kernel(2, 0.5)
except ImportError as exc:
    values.append(str(exc))
print(json.dumps([codes, values]))
"""


def test_every_subcommand_runs_without_numpy(tmp_path):
    from outerkplanar.circulant import CirculantSpec, exact_maxcut, mohar_bound, xor_sum
    from outerkplanar.cli import _CONSTRUCT

    graph = tmp_path / "k5.json"
    graph.write_text(invoke("construct", "complete", "--x", "5")[1])
    calls = [
        ["bounds", "--n", "10", "--k", "2"],
        ["sweep", "--n-from", "6", "--n-to", "8", "--k-from", "0", "--k-to", "2"],
        *(["construct", kind, *(arg for flag in wanted for arg in (f"--{flag}", "4"))]
          for kind, (_, wanted) in _CONSTRUCT.items()),
        ["verify", str(graph), "--k", "2"],
        ["search", "--n", "6", "--k", "1", "--bipartite", "free"],
        ["xorsum", "--bits", "0110101", "--r", "2"],
        *(["circulant", "--n", "12", "--r", "2", "--method", method]
          for method in ("exact", "mohar", "lemma", "lemma-refined")),
    ]
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_PROBE, json.dumps(calls)],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    spec = CirculantSpec(12, 2)
    assert json.loads(proc.stdout) == [[0] * len(calls), [
        round(mohar_bound(spec), 6), exact_maxcut(spec).value, xor_sum("0110101", 2),
        "the array functions need numpy: pip install 'outerkplanar[arrays]'"]]


# dataclasses pulls in inspect, ast, dis and tokenize: about 10 ms of CPU in
# a fresh process, which a one-shot CLI call pays in full
HEAVY_IMPORT_PROBE = """
import contextlib, io, json, sys
import outerkplanar.cli
sys.argv[1:] = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = outerkplanar.cli.main()
print(json.dumps([code, *(m for m in ("dataclasses", "inspect") if m in sys.modules)]))
"""


def test_no_subcommand_loads_dataclasses_or_inspect(tmp_path):
    graph = tmp_path / "k5.json"
    graph.write_text(invoke("construct", "complete", "--x", "5")[1])
    for argv in (
        ["bounds", "--n", "10", "--k", "2"],
        ["sweep", "--n-from", "6", "--n-to", "8", "--k-from", "0", "--k-to", "2"],
        ["construct", "kx-chain", "--x", "6", "--blocks", "2"],
        ["verify", str(graph), "--k", "2"],
        ["search", "--n", "6", "--k", "1"],
        ["xorsum", "--bits", "0110101", "--r", "2"],
        *(["circulant", "--n", "12", "--r", "2", "--method", method]
          for method in ("exact", "lemma-refined", "mohar")),
    ):
        proc = subprocess.run([sys.executable, "-c", HEAVY_IMPORT_PROBE, json.dumps(argv)],
                              capture_output=True, text=True, env=package_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0], argv


# every name bench/run.py::install_patches wraps in the CLI's namespace, by
# the module that defines it
PATCHED_NAMES = {
    "geometry": ("crossing_counts", "degeneracy_order", "greedy_color", "is_bipartite",
                 "graph_from_json", "to_json_dict"),
    "bounds": ("bound_report",),
    "constructions": ("complete_graph", "cycle_graph", "kx_chain", "kxx_alternating",
                      "kxx_chain"),
}


def test_patched_names_are_readable_before_any_command():
    names = [name for group in PATCHED_NAMES.values() for name in group]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, outerkplanar.cli as cli; "
         "print(' '.join(getattr(cli, name).__module__ for name in sys.argv[1:]))",
         *names],
        capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [f"outerkplanar.{module}"
                                   for module, group in PATCHED_NAMES.items()
                                   for _ in group]


def test_private_names_on_cli_load_nothing():
    # probes for private and dunder names (hasattr(cli, "__wrapped__") is
    # one inspect makes) fail at once, and an unknown public name says so
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, outerkplanar.cli as cli\n"
         "def loaded():\n"
         "    return sorted(m for m in sys.modules if m.startswith('outerkplanar.'))\n"
         "print(hasattr(cli, '__wrapped__'), hasattr(cli, '_nope'), loaded())\n"
         "try:\n"
         "    cli.no_such_name\n"
         "except AttributeError as exc:\n"
         "    print(exc)\n"],
        capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False False ['outerkplanar.cli', 'outerkplanar.errors']",
        "module 'outerkplanar.cli' has no attribute 'no_such_name'"]


def test_handlers_call_the_names_patched_on_cli(tmp_path, monkeypatch):
    import outerkplanar.cli as cli

    called = []
    for name in ("bound_report", "kx_chain", "crossing_counts"):
        def recorder(*args, _name=name, _original=getattr(cli, name), **kwargs):
            called.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, recorder)
    graph = tmp_path / "chain.json"
    for argv, name in (
            (["bounds", "--n", "10", "--k", "2"], "bound_report"),
            (["sweep", "--n-from", "6", "--n-to", "6", "--k-from", "1", "--k-to", "1"],
             "bound_report"),
            (["construct", "kx-chain", "--x", "4", "--blocks", "2"], "kx_chain"),
            (["verify", str(graph)], "crossing_counts")):
        called.clear()
        code, text = invoke(*argv)
        assert code == 0 and called == [name], argv
        graph.write_text(text)


# Runs in a fresh interpreter: the package and its CLI load no module until a
# name needs it, and a public name resolves to the object its module defines.
SURFACE_PROBE = """
import sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("outerkplanar."))

import outerkplanar as o
print(loaded())
from outerkplanar import cli
print(loaded())
print(all(getattr(o, name) is getattr(getattr(o, module), name) for module, name in (
    ("search", "max_edges"), ("geometry", "crossing_counts"),
    ("constructions", "kx_chain"), ("bounds", "bound_report"),
    ("circulant", "mohar_bound"), ("errors", "BudgetExceededError"))))
"""


def test_package_names_resolve_lazily():
    proc = subprocess.run([sys.executable, "-c", SURFACE_PROBE],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "['outerkplanar.cli', 'outerkplanar.errors']", "True"]
    assert set(outerkplanar.__all__) <= set(dir(outerkplanar))
    namespace = {}
    exec("from outerkplanar import *", namespace)
    assert set(outerkplanar.__all__) <= set(namespace)
    with pytest.raises(AttributeError,
                       match="^module 'outerkplanar' has no attribute 'no_such_name'$"):
        outerkplanar.no_such_name  # noqa: B018


def test_package_exports_what_its_modules_export():
    from outerkplanar import bounds, circulant, constructions, errors, geometry, search

    modules = (geometry, constructions, bounds, circulant, search, errors)
    assert set(outerkplanar.__all__) == {"__version__"}.union(
        *(module.__all__ for module in modules))
    assert len(outerkplanar.__all__) == len(set(outerkplanar.__all__))


def test_python_dash_m():
    proc = subprocess.run([sys.executable, "-m", "outerkplanar", *BOUNDS_ARGV],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "246\n", proc.stderr


@pytest.mark.skipif(shutil.which("outerkplanar") is None,
                    reason="the outerkplanar executable is not on PATH "
                           "(the package is not installed)")
def test_installed_executable():
    proc = subprocess.run(["outerkplanar", *BOUNDS_ARGV],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "246\n", proc.stderr
