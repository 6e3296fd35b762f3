import math
import re

import pytest

from outerkplanar import (
    BIPARTITE_UPPER_VARIANTS,
    CROSSING_LEMMA_FLAVORS,
    DEFAULT_K_MIN,
    GENERAL_UPPER_VARIANTS,
    NotApplicableError,
    bipartite_lower,
    bipartite_upper,
    bound_report,
    crossing_lemma_lower,
    epsilon_for,
    general_lower,
    general_upper,
    maxmindeg_bound,
)
from outerkplanar._optima import _PROVEN_OPTIMA


def test_small_k_table_values():
    assert general_upper(100, 0, "small_k") == 197.0
    assert general_upper(100, 1, "small_k") == 246.0
    assert general_upper(100, 2, "small_k") == 295.0
    assert general_upper(100, 3, "small_k") == 319.0
    # k = 3 is refuted: (6,3) and (10,3) have 14 and 27 edges, one more than
    # 3.25n - 6 allows; k = 4 is conditional, and (10,4) = 29 meets it
    assert general_upper(100, 4, "small_k") == 344.0
    assert {e.name: e.valid for e in bound_report(10, 3).entries}["small_k"] == "refuted"
    assert {e.name: e.valid for e in bound_report(10, 4).entries}["small_k"] == "conditional"
    with pytest.raises(NotApplicableError):
        general_upper(100, 5, "small_k")
    # at n = 2 the affine forms undercut the single edge
    with pytest.raises(NotApplicableError):
        general_upper(2, 3, "small_k")
    with pytest.raises(NotApplicableError):
        bipartite_upper(2, 0, "small_k")
    assert {e.name: e.valid for e in bound_report(2, 3).entries}["small_k"] == "no"


def test_validity_windows():
    for variant in ("lazy", "common"):
        for k in range(5):
            with pytest.raises(NotApplicableError):
                general_upper(50, k, variant)
        general_upper(50, 5, variant)  # no raise
    # local holds for every k
    assert general_upper(10, 0, "local") == pytest.approx(40.0)
    # direct is gated high by default, overridable down to k >= 3
    with pytest.raises(NotApplicableError):
        general_upper(1000, 100, "direct")
    general_upper(1000, 176, "direct")
    general_upper(1000, 3, "direct", k_min=3)
    with pytest.raises(NotApplicableError):
        general_upper(1000, 2, "direct", k_min=0)
    with pytest.raises(ValueError):
        general_upper(10, 1, "newest")
    with pytest.raises(ValueError, match="^n must be positive$"):
        bound_report(0, 1)
    with pytest.raises(ValueError, match="^k must be non-negative$"):
        general_upper(5, -1)
    # a negative k_min is refused, as the CLI refuses --k-threshold -1
    for call in (lambda: general_upper(1000, 200, "direct", k_min=-1),
                 lambda: bipartite_upper(10, 3, "local", k_min=-5),
                 lambda: bound_report(10, 3, bipartite=True, k_min=-5),
                 lambda: bound_report(10, 3, k_min=-1)):
        with pytest.raises(ValueError, match="k_min"):
            call()
    # counts must be integers: numpy ints pass as plain ints, nothing is truncated
    import numpy as np

    report = bound_report(np.int64(10), np.int64(2))
    assert report == bound_report(10, 2) and type(report.n) is type(report.k) is int
    assert crossing_lemma_lower(np.int64(10), np.int64(50)) == crossing_lemma_lower(10, 50)
    for call in (lambda: general_upper(100.9, 25.7), lambda: general_upper(100, 25.0),
                 lambda: bipartite_upper("100", 25), lambda: bound_report(10.5, 2),
                 lambda: crossing_lemma_lower(10.5, 50.5), lambda: crossing_lemma_lower(10, "50"),
                 lambda: maxmindeg_bound(1.5), lambda: maxmindeg_bound("1"),
                 lambda: bound_report(10, 3, bipartite=True, k_min=2.5),
                 lambda: general_upper(1000, 200, "direct", k_min="3")):
        with pytest.raises(TypeError):
            call()


def test_frozen_upper_values():
    assert general_upper(100, 9, "local") == pytest.approx(832.455532033676, rel=1e-12)
    assert general_upper(100, 100, "common") == pytest.approx(2341.513933334585, rel=1e-9)
    assert general_upper(100, 5, "lazy") == pytest.approx(2.85 * math.sqrt(5) * 100, rel=1e-12)
    assert general_upper(1000, 200, "direct") == pytest.approx(23722.222222222226, rel=1e-9)
    assert bipartite_upper(100, 100, "common") == pytest.approx(2296.3966338592295, rel=1e-9)


def test_epsilon():
    e50 = epsilon_for(50)
    assert 0.42 < e50 <= 0.43
    assert e50 == pytest.approx(0.42426406871192857, rel=1e-12)
    # the same quantity in its reduced form
    assert e50 == pytest.approx(24 / (math.sqrt(2) * 50 - 2 * math.sqrt(50)), rel=1e-12)
    assert epsilon_for(5000) == pytest.approx(0.03593256908478579, rel=1e-9)
    with pytest.raises(NotApplicableError):
        epsilon_for(2)
    assert epsilon_for(50.0) == e50 and epsilon_for(2.5) > 0
    for k in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^k must be finite$"):
            epsilon_for(k)
    for k in ("50", "nan", b"50"):
        with pytest.raises(TypeError):
            epsilon_for(k)
    ks = [3, 5, 10, 50, 176, 1000, 10**4, 10**5, 10**6]
    vals = [epsilon_for(k) for k in ks]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0


def test_general_lower_chain():
    lo = general_lower(8, 1)
    assert (lo.value, lo.exact, lo.kind) == (16, True, "chain")
    lo = general_lower(10, 4)
    assert (lo.value, lo.exact) == (29, True)
    # inadmissible n rounds down and is flagged
    lo = general_lower(9, 1)
    assert lo.value == 16 and lo.n_used == 8 and not lo.exact
    # inadmissible k rounds down to the largest square
    lo = general_lower(10, 2)
    assert lo.k_used == 1 and lo.value == 21 and not lo.exact
    # a huge k is capped by the block that fits, without stepping down to it
    lo = general_lower(10, 10**18)
    assert (lo.value, lo.n_used, lo.k_used) == (45, 10, 16)
    with pytest.raises(NotApplicableError):
        general_lower(3, 1)
    with pytest.raises(NotApplicableError):
        general_lower(100, 0)


def _general_lower_by_stepping(n, k):
    """general_lower's block half-size found by stepping down from isqrt(k)."""
    if k < 1:
        raise NotApplicableError("general_lower requires k >= 1")
    s = math.isqrt(k)
    while s >= 1 and n < 2 * s + 2:
        s -= 1
    if s < 1:
        raise NotApplicableError(
            f"n={n} is too small for even a single block at any k' <= {k}"
        )
    x = 2 * s + 2
    blocks = (n - 2) // (x - 2)
    n_used, k_used = blocks * (x - 2) + 2, s * s
    value = blocks * (x * (x - 1) // 2) - (blocks - 1)
    return (value, n_used, k_used, n_used == n and k_used == k, "chain")


def test_general_lower_matches_stepping_down():
    for n in range(1, 81):
        for k in range(401):
            try:
                want = _general_lower_by_stepping(n, k)
            except NotApplicableError as exc:
                with pytest.raises(NotApplicableError) as got:
                    general_lower(n, k)
                assert str(got.value) == str(exc), (n, k)
                continue
            lo = general_lower(n, k)
            assert (lo.value, lo.n_used, lo.k_used, lo.exact, lo.kind) == want, (n, k)


def test_general_lower_formula_at_admissible_cells():
    # general_lower's docstring: at k = s*s with n - 2 a positive multiple
    # of 2s, the chain has exactly (sqrt(k) + 3/2)*n - 2*sqrt(k) - 2 edges
    for s in range(1, 12):
        for blocks in range(1, 60):
            n, k = blocks * 2 * s + 2, s * s
            lo = general_lower(n, k)
            assert lo.exact and 2 * lo.value == (2 * s + 3) * n - 4 * s - 4, (n, k)


def test_crossing_lemma_values():
    assert crossing_lemma_lower(10, 50, "outer") == pytest.approx(
        8000 / 87723 * 50**3 / 100, rel=1e-12)
    assert crossing_lemma_lower(10, 50, "outer") == pytest.approx(113.9951894030072, rel=1e-9)
    assert crossing_lemma_lower(10, 40, "outer_bipartite") == pytest.approx(
        60.68148148148148, rel=1e-9)
    assert crossing_lemma_lower(10, 68, "multigraph_m2") == pytest.approx(
        68**3 / (27.48 * 2 * 100), rel=1e-12)
    assert crossing_lemma_lower(10, 68, "multigraph_m2_bipartite") == pytest.approx(
        1024 / 16875 * 68**3 / 200, rel=1e-12)


def test_crossing_lemma_windows():
    with pytest.raises(NotApplicableError):
        crossing_lemma_lower(10, 42, "outer")  # below 42.75
    crossing_lemma_lower(10, 43, "outer")
    with pytest.raises(NotApplicableError):
        crossing_lemma_lower(10, 37, "outer_bipartite")  # below 37.5
    crossing_lemma_lower(10, 38, "outer_bipartite")
    for flavor in ("multigraph_m2", "multigraph_m2_bipartite"):
        with pytest.raises(NotApplicableError):
            crossing_lemma_lower(10, 67, flavor)  # needs m > 67.7
        crossing_lemma_lower(10, 68, flavor)
    with pytest.raises(ValueError):
        crossing_lemma_lower(10, 50, "fastest")


def test_crossing_lemma_windows_at_their_edges():
    """At m exactly on a window's edge, with the float expressions as
    written: 171.0 * n / 40.0 is exact at n = 40j, while a precomputed
    171/40 (4.275) times 40j lands above 171j for these j; 6.77 * 100j falls
    below 677j for the j in `below` and equals it for the j in `equal`."""
    for j in (1, 5, 9, 10, 11, 17, 1000, 99999):
        assert crossing_lemma_lower(40 * j, 171 * j) == (
            8000.0 / 87723.0 * (171 * j)**3 / (40 * j)**2)
        with pytest.raises(NotApplicableError,
                           match=rf"^outer flavor requires m >= 171n/40 = {re.escape(f'{171 * j:g}')}$"):
            crossing_lemma_lower(40 * j, 171 * j - 1)
    for j in (1, 2, 7, 1000):
        assert crossing_lemma_lower(4 * j, 15 * j, "outer_bipartite") == (
            64.0 / 675.0 * (15 * j)**3 / (4 * j)**2)
        with pytest.raises(NotApplicableError,
                           match=rf"^outer_bipartite flavor requires m >= 3\.75n = {15 * j}$"):
            crossing_lemma_lower(4 * j, 15 * j - 1, "outer_bipartite")
    below, equal = (3, 6, 11, 12, 22), (1, 2, 4, 5, 7)
    for flavor in ("multigraph_m2", "multigraph_m2_bipartite"):
        for j in below:
            crossing_lemma_lower(100 * j, 677 * j, flavor)
        for j in equal:
            with pytest.raises(NotApplicableError,
                               match=rf"^{flavor} flavor requires m > 6\.77n = {677 * j}$"):
                crossing_lemma_lower(100 * j, 677 * j, flavor)
    with pytest.raises(ValueError, match=r"^unknown flavor 'fastest'$"):
        crossing_lemma_lower(10, 50, "fastest")
    with pytest.raises(ValueError, match=r"^need n >= 1 and m >= 0$"):
        crossing_lemma_lower(0, 50, "fastest")
    assert CROSSING_LEMMA_FLAVORS == (
        "outer", "outer_bipartite", "multigraph_m2", "multigraph_m2_bipartite")


def test_bipartite_upper_small_k():
    assert bipartite_upper(100, 1, "small_k") == 221.0
    assert bipartite_upper(100, 1, "small_k", strict_statement=True) == 221.5
    # flag shifts the constant by exactly 1/2 for every k
    for k in range(5):
        lo = bipartite_upper(60, k, "small_k")
        hi = bipartite_upper(60, k, "small_k", strict_statement=True)
        assert hi - lo == pytest.approx(0.5)
    with pytest.raises(NotApplicableError):
        bipartite_upper(100, 5, "small_k")
    with pytest.raises(NotApplicableError):
        bipartite_upper(100, 100, "local")  # gated until k_min
    bipartite_upper(100, 176, "local")
    assert bipartite_upper(100, 176, "local", k_min=5) == pytest.approx(
        2 * math.sqrt(8 / 11 * 176) * 100, rel=1e-12)


def test_bipartite_lower_alternating():
    lo = bipartite_lower(18, 2, "alternating")
    assert (lo.value, lo.exact) == (33, True)
    lo = bipartite_lower(6, 2, "alternating")
    assert lo.value == 9  # a single K_{3,3} block
    with pytest.raises(NotApplicableError):
        bipartite_lower(17, 2, "alternating")  # 15 not divisible by 4
    with pytest.raises(NotApplicableError):
        bipartite_lower(18, 3, "alternating")  # sqrt(6) not integral
    with pytest.raises(ValueError):
        bipartite_lower(18, 2, "stacked")


def test_bipartite_lower_consecutive():
    lo = bipartite_lower(100, 8, "consecutive")
    assert lo.value == 200
    assert lo.kind == "asymptotic" and not lo.exact
    assert bipartite_lower(50, 1, "consecutive").value == 0  # isqrt(0) = 0


def test_maxmindeg():
    b = maxmindeg_bound(1)
    assert b.general == pytest.approx(4.82842712474619, rel=1e-12)
    b = maxmindeg_bound(11)
    assert b.bipartite == pytest.approx(7.656854249492381, rel=1e-12)
    assert b.bipartite == pytest.approx(2 * math.sqrt(8) + 2, rel=1e-12)
    with pytest.raises(ValueError, match="^k must be non-negative$"):
        maxmindeg_bound(-1)


def test_report_structure():
    rep = bound_report(100, 4)
    assert rep.family == "general"
    names = [e.name for e in rep.entries]
    assert names == ["small_k", "lazy", "common", "local", "direct", "chain"]
    by_name = {e.name: e for e in rep.entries}
    assert by_name["small_k"].valid == "conditional"
    assert by_name["small_k"].value == 344.0
    # a refuted row keeps its value in the report
    small3 = bound_report(100, 3).entries[0]
    assert (small3.name, small3.valid, small3.value) == ("small_k", "refuted", 319.0)
    assert by_name["direct"].valid == "no" and by_name["direct"].value is None
    assert by_name["chain"].valid == "yes"

    rep = bound_report(102, 2, bipartite=True)
    assert rep.family == "bipartite"
    names = [e.name for e in rep.entries]
    assert names == ["small_k", "lazy", "common", "local",
                     "alternating", "consecutive"]
    by_name = {e.name: e for e in rep.entries}
    assert by_name["small_k"].valid == "yes"
    assert by_name["alternating"].valid == "yes"  # 100 divisible by the span 4
    assert by_name["consecutive"].valid == "reference"
    rep = bound_report(100, 2, bipartite=True)
    assert {e.name: e.valid for e in rep.entries}["alternating"] == "no"


def test_report_family_consistency():
    """Within one family, every settled upper dominates every settled lower."""
    for bipartite in (False, True):
        for n in (10, 40, 100, 200):
            for k in (0, 1, 2, 3, 4, 5, 8, 50, 176, 500):
                rep = bound_report(n, k, bipartite=bipartite)
                ups = [e.value for e in rep.entries
                       if e.kind == "upper" and e.valid == "yes"]
                lows = [e.value for e in rep.entries
                        if e.kind == "lower" and e.valid == "yes"]
                for lo in lows:
                    for up in ups:
                        assert lo <= up + 1e-9, (bipartite, n, k, lo, up)


def test_variant_tuples_exported():
    assert set(GENERAL_UPPER_VARIANTS) == {"small_k", "lazy", "common", "local", "direct"}
    assert set(BIPARTITE_UPPER_VARIANTS) == {"small_k", "lazy", "common", "local"}


def test_evaluators_agree_with_report():
    """An evaluator raises exactly where the report says "no" and otherwise
    returns the report's value; the variant tuples list the report's upper
    rows in order."""
    for bipartite, upper, variants in ((False, general_upper, GENERAL_UPPER_VARIANTS),
                                       (True, bipartite_upper, BIPARTITE_UPPER_VARIANTS)):
        for k_min in (3, DEFAULT_K_MIN):
            for n in range(2, 41):
                for k in [*range(13), 100, 175, 176, 177, 500]:
                    rep = bound_report(n, k, bipartite=bipartite, k_min=k_min)
                    ups = [e for e in rep.entries if e.kind == "upper"]
                    assert tuple(e.name for e in ups) == variants
                    for e in ups:
                        where = (bipartite, k_min, n, k, e.name)
                        if e.valid == "no":
                            with pytest.raises(NotApplicableError):
                                upper(n, k, e.name, k_min=k_min)
                        else:
                            assert upper(n, k, e.name, k_min=k_min) == e.value, where


# The rows a proven optimum is known to contradict, each with the status
# that keeps it out of the consistency claims: (family, name) -> (status,
# the cells (n, k) it is allowed to contradict).
_KNOWN_CONTRADICTIONS = {
    ("general", "small_k"): ("refuted", lambda n, k: (n, k) in ((6, 3), (10, 3))),
    ("bipartite", "consecutive"): ("reference", lambda n, k: n == 3 and k >= 2),
}


def test_proven_optima_audit_the_bound_table():
    """No upper row sits below, and no lower row above, a proven optimum,
    except the rows named above, which must contradict every proven cell
    they are named for and keep their status.  The optima are the search's
    frozen table (general and bipartite_free, n 3..11), which
    ``test_proven_optima_reprove`` checks against the search."""
    cells = 0
    for (mode, n), row in _PROVEN_OPTIMA.items():
        if mode not in ("general", "bipartite_free") or n < 3:
            continue
        for k, opt in enumerate(row):
            cells += 1
            report = bound_report(n, k, bipartite=mode == "bipartite_free")
            for e in report.entries:
                if e.value is None:
                    continue
                cell = (report.family, e.name, n, k, e.value, opt)
                status, named = _KNOWN_CONTRADICTIONS.get(
                    (report.family, e.name), (None, lambda n, k: False))
                wrong = e.value < opt if e.kind == "upper" else e.value > opt
                assert wrong == named(n, k), cell
                if wrong:
                    assert e.valid == status, cell
    assert cells == 120
