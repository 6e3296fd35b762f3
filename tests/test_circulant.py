import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import circulant_adjacency, maxcut_by_enumeration
from outerkplanar import (
    MAXCUT_WORK_BUDGET,
    BudgetExceededError,
    CirculantSpec,
    Cut,
    adjacency_eigenvalue,
    adjacency_eigenvalues,
    cut_value,
    dirichlet_kernel,
    dirichlet_kernel_closed,
    exact_maxcut,
    laplacian_lambda_max,
    lemma_maxcut_bound,
    mercer_inner,
    mercer_min_bound,
    mohar_bound,
    xor_sum,
)


def test_spec_validation():
    spec = CirculantSpec(9, 2)
    assert spec.edge_count == 18
    assert hash(CirculantSpec(20, 3)) == hash((20, 3))
    # counts must be integers: numpy ints pass as plain ints, nothing is truncated
    from_numpy = CirculantSpec(np.int64(20), np.int64(3))
    assert from_numpy == (20, 3) and type(from_numpy.n) is type(from_numpy.r) is int
    for call in (lambda: CirculantSpec(20.9, 3), lambda: CirculantSpec(20, 3.2),
                 lambda: CirculantSpec(20.0, 3), lambda: CirculantSpec("20", 3),
                 lambda: spec._replace(n=30.0), lambda: dirichlet_kernel(2.0, 0.5),
                 lambda: dirichlet_kernel_closed("2", 0.5),
                 lambda: adjacency_eigenvalue(spec, 1.0), lambda: mercer_inner(2.5),
                 lambda: mercer_min_bound("2"), lambda: xor_sum("0110", 1.5)):
        with pytest.raises(TypeError):
            call()
    assert adjacency_eigenvalue(spec, np.int64(1)) == adjacency_eigenvalue(spec, 1)
    assert mercer_min_bound(np.int64(5)) == mercer_min_bound(5)
    with pytest.raises(ValueError, match=r"^r must be at least 1$"):
        CirculantSpec(9, 0)
    with pytest.raises(ValueError, match=r"^need 2r < n \(got n=8, r=4\)$"):
        CirculantSpec(8, 4)
    # _replace goes through the same checks
    with pytest.raises(ValueError, match=r"^r must be at least 1$"):
        spec._replace(r=0)
    assert spec._replace(n=30) == CirculantSpec(30, 2)


def test_dirichlet_sum_form():
    # D_0's sum is empty, so it is exactly 1 at every angle, finite or not
    for theta in (1.234, 0.0, math.nan, math.inf, -math.inf):
        assert dirichlet_kernel(0, theta) == 1.0
    angles = np.array([[1.234, 0.0], [math.nan, math.inf]])
    out = dirichlet_kernel(0, angles)
    assert out.shape == angles.shape and (out == 1.0).all()
    for r in range(6):
        assert dirichlet_kernel(r, 0.0) == pytest.approx(2 * r + 1, abs=1e-12)
    # known root: theta = 2*pi/7 kills D_3
    assert abs(dirichlet_kernel(3, 2 * math.pi / 7)) < 1e-12
    with pytest.raises(ValueError):
        dirichlet_kernel(-1, 0.5)


def test_dirichlet_closed_matches_sum():
    grid = np.linspace(0.01, 2 * math.pi - 0.01, 400)
    for r in range(9):
        diff = np.abs(dirichlet_kernel(r, grid) - dirichlet_kernel_closed(r, grid))
        assert float(diff.max()) < 1e-10, r


def test_dirichlet_closed_singularities():
    with pytest.raises(ValueError):
        dirichlet_kernel_closed(3, 0.0)
    with pytest.raises(ValueError):
        dirichlet_kernel_closed(3, 2 * math.pi)
    with pytest.raises(ValueError):
        dirichlet_kernel_closed(3, np.array([0.5, 0.0]))


def test_dirichlet_shapes():
    out = dirichlet_kernel(2, np.array([0.1, 0.2]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)
    assert isinstance(dirichlet_kernel(2, 0.1), float)


def test_adjacency_eigenvalue_frozen():
    assert adjacency_eigenvalue(CirculantSpec(8, 2), 1) == pytest.approx(
        math.sqrt(2), abs=1e-12)
    with pytest.raises(ValueError):
        adjacency_eigenvalue(CirculantSpec(8, 2), 8)


def test_eigenvalues_match_dense_solver():
    for n in range(3, 17):
        for r in range(1, (n - 1) // 2 + 1):
            spec = CirculantSpec(n, r)
            lam = np.sort(adjacency_eigenvalues(spec))
            ref = np.linalg.eigvalsh(circulant_adjacency(n, r))
            assert float(np.abs(lam - ref).max()) < 1e-9, (n, r)


def test_eigenvector_residuals():
    # cos(2*pi*j*m/n) is a real eigenvector for frequency j
    for n in range(3, 17):
        for r in range(1, (n - 1) // 2 + 1):
            spec = CirculantSpec(n, r)
            a = circulant_adjacency(n, r)
            for j in range(n):
                lam = adjacency_eigenvalue(spec, j)
                x = np.cos(2 * math.pi * j * np.arange(n) / n)
                assert float(np.abs(a @ x - lam * x).max()) < 1e-9, (n, r, j)


def test_laplacian_lambda_max():
    assert laplacian_lambda_max(CirculantSpec(5, 1)) == pytest.approx(
        3.618033988749895, abs=1e-12)
    assert laplacian_lambda_max(CirculantSpec(9, 2)) == pytest.approx(6.0, abs=1e-9)
    for n in range(3, 15):
        for r in range(1, (n - 1) // 2 + 1):
            spec = CirculantSpec(n, r)
            a = circulant_adjacency(n, r)
            lap = 2 * r * np.eye(n) - a
            ref = float(np.linalg.eigvalsh(lap)[-1])
            assert laplacian_lambda_max(spec) == pytest.approx(ref, abs=1e-9)


def test_spectral_bound_matches_numpy_eigenvalues():
    # laplacian_lambda_max is pure Python; the reference is the numpy spectrum
    for n in range(3, 131):
        for r in range(1, min(40, (n - 1) // 2) + 1):
            spec = CirculantSpec(n, r)
            ref = float((2.0 * r - adjacency_eigenvalues(spec)).max())
            assert laplacian_lambda_max(spec) == pytest.approx(ref, rel=1e-12), (n, r)
            assert mohar_bound(spec) == pytest.approx(n * ref / 4.0, rel=1e-12), (n, r)


def test_spectral_bound_work_cap():
    # n//2 closed-form evaluations at most; past the cap nothing is
    # evaluated, and the refusal names no n, which may be too long for a str
    for n in (2 * MAXCUT_WORK_BUDGET + 2, 10**400, int("9" * 4300)):
        for bound in (laplacian_lambda_max, mohar_bound):
            with pytest.raises(BudgetExceededError, match="exceeds the budget") as info:
                bound(CirculantSpec(n, 1))
            assert str(info.value) == ("laplacian_lambda_max does n//2 evaluations; at this n "
                                       "that exceeds the budget n//2 <= 4194304")


def test_mohar_values():
    assert mohar_bound(CirculantSpec(5, 1)) == pytest.approx(4.522542485937368, abs=1e-12)
    # the even cycle and C_12^{1,2} are tight cases
    assert mohar_bound(CirculantSpec(6, 1)) == pytest.approx(6.0, abs=1e-9)
    assert exact_maxcut(CirculantSpec(6, 1)).value == 6
    assert mohar_bound(CirculantSpec(12, 2)) == pytest.approx(18.0, abs=1e-9)
    assert exact_maxcut(CirculantSpec(12, 2)).value == 18


def test_mercer_branches():
    assert mercer_inner(2) == pytest.approx(-4.123190204786391, abs=1e-12)
    assert mercer_min_bound(2) == pytest.approx(-8.246380409572781, abs=1e-12)
    inner176 = mercer_inner(176)
    assert inner176 == pytest.approx(-0.4997146259671037, abs=1e-12)
    assert -0.5 < inner176 < -0.49
    for r in (2, 5, 50, 176, 400):
        assert mercer_min_bound(r) == pytest.approx(
            min(-5.0 / 12.0, mercer_inner(r)) * r, abs=1e-12)
    with pytest.raises(ValueError):
        mercer_inner(1)
    with pytest.raises(ValueError):
        mercer_min_bound(1)


def test_mercer_bounds_kernel_minimum():
    grid = np.linspace(0.0, 2 * math.pi, 4001)
    for r in range(2, 21):
        kernel_min = float(dirichlet_kernel(r, grid).min())
        assert kernel_min >= mercer_min_bound(r) - 1e-9, r


def test_lemma_maxcut_bound():
    assert lemma_maxcut_bound(CirculantSpec(10, 2)) == pytest.approx(772.5)
    # refinement only kicks in from r = 176; below it falls back to rn
    assert lemma_maxcut_bound(CirculantSpec(10, 2), refined=True) == 20.0
    assert lemma_maxcut_bound(CirculantSpec(400, 175), refined=True) == 175 * 400
    assert lemma_maxcut_bound(CirculantSpec(400, 176), refined=True) == (5 * 176 / 8 + 0.25) * 400
    big = CirculantSpec(1000, 200)
    assert lemma_maxcut_bound(big, refined=True) == pytest.approx(125250.0)
    assert lemma_maxcut_bound(big, refined=True) < lemma_maxcut_bound(big)


def test_cut_value_checks():
    spec = CirculantSpec(8, 2)
    with pytest.raises(ValueError):
        cut_value(spec, (0, 1, 0))
    with pytest.raises(ValueError):
        cut_value(spec, (0, 1, 2, 0, 1, 0, 1, 0))
    # entries are integers: a float is refused, never truncated to 0 or 1
    assert cut_value(spec, "01010101") == cut_value(spec, np.array([0, 1] * 4)) == 8
    for sides in ([0.9, 1.7, 0, 1, 0, 1, 0, 1], [0.0, 1.0] * 4, np.array([0.0, 1.0] * 4)):
        with pytest.raises(TypeError):
            cut_value(spec, sides)


def test_exact_maxcut_frozen():
    cut = exact_maxcut(CirculantSpec(8, 2))
    assert cut == Cut(sides=(0, 0, 1, 1, 0, 0, 1, 1), value=12)
    assert cut_value(CirculantSpec(8, 2), cut.sides) == cut.value
    cut = exact_maxcut(CirculantSpec(12, 3))
    assert cut.value == 24
    assert cut.sides == (0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1)


def test_exact_maxcut_matches_enumeration():
    # value and witness (the lexicographically smallest maximizing side
    # vector) must both agree with scoring every side vector
    for r in range(1, 7):
        for n in range(2 * r + 1, 21):
            value, sides = maxcut_by_enumeration(n, r)
            assert exact_maxcut(CirculantSpec(n, r)) == Cut(sides=sides, value=value), (n, r)


def test_exact_maxcut_against_itertools():
    spec = CirculantSpec(7, 2)
    best = max(
        cut_value(spec, (0,) + rest)
        for rest in itertools.product((0, 1), repeat=6)
    )
    assert exact_maxcut(spec).value == best


def test_exact_maxcut_budget():
    # the cap is on the work n*4^r: r = 7 fits up to n = 256
    assert 256 * 4**7 == MAXCUT_WORK_BUDGET
    with pytest.raises(BudgetExceededError):
        exact_maxcut(CirculantSpec(257, 7))
    with pytest.raises(BudgetExceededError):
        exact_maxcut(CirculantSpec(19, 9))
    assert exact_maxcut(CirculantSpec(29, 3)).value == 58
    assert exact_maxcut(CirculantSpec(400, 3)).value == 800
    # every r >= 11 is over the cap (4^11 = 2^22), and is refused before
    # n << 2r builds an n*4^r-bit int; the refusal names neither n nor r,
    # which may be too long for a str
    for n, r in ((100_000, 10_000), (2 * 10**7 + 1, 10**7), (int("9" * 4300), 1)):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as info:
                exact_maxcut(CirculantSpec(n, r))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (r, peak)  # an n*4^r-bit int at r = 10^7 takes 2.5 MB
        assert str(info.value) == ("exact_maxcut does n*4^r steps; at this n and r that "
                                   "exceeds the budget n*4^r <= 4194304")


def test_exact_maxcut_at_large_n():
    # the exact <= mohar <= lemma sandwich and xor duality at n in the hundreds
    for n in (100, 250, 400):
        for r in range(1, 5):
            spec = CirculantSpec(n, r)
            cut = exact_maxcut(spec)
            assert cut.value <= mohar_bound(spec) + 1e-9 <= lemma_maxcut_bound(spec) + 1e-9
            assert cut_value(spec, cut.sides) == cut.value
            assert xor_sum(cut.sides, r) == 2 * cut.value
            assert cut.sides[0] == 0
            if r == 1:  # the even cycle is bipartite: every edge is cut
                assert cut.value == n


def test_xor_sum_examples():
    assert xor_sum("0101", 1) == 8
    assert xor_sum("0011", 1, mode="bounded") == 2
    assert xor_sum([0, 1, 0, 1], 1) == 8
    # whole periods of the n shifts add up without visiting each one
    assert xor_sum("0101", 10**18) == 4 * 10**18
    q, t = divmod(10**18, 7)
    assert xor_sum("0110100", 10**18) == q * xor_sum("0110100", 7) + xor_sum("0110100", t)
    with pytest.raises(ValueError):
        xor_sum("0101", 0)
    with pytest.raises(ValueError):
        xor_sum("", 1)
    with pytest.raises(ValueError):
        xor_sum("0102", 1)
    with pytest.raises(ValueError):
        xor_sum("0101", 1, mode="torus")


def test_xor_sum_duality_and_caps(rng):
    for _ in range(200):
        n = rng.randint(5, 40)
        r = rng.randint(1, (n - 1) // 2)
        bits = "".join(rng.choice("01") for _ in range(n))
        spec = CirculantSpec(n, r)
        cyc = xor_sum(bits, r)
        sides = [int(b) for b in bits]
        # cut_value counts through xor_sum, so count the cut edge by edge too
        cut = sum(sides[i] != sides[(i + d) % n] for d in range(1, r + 1) for i in range(n))
        assert cyc == 2 * cut_value(spec, sides) == 2 * cut
        bounded = xor_sum(bits, r, mode="bounded")
        assert bounded <= cyc <= 2 * r * n


def test_xor_sum_bounded_truncates_r():
    # r past the string length only drops already-absent pairs
    assert xor_sum("01", 5, mode="bounded") == xor_sum("01", 1, mode="bounded")


def xor_sum_by_double_sum(s, r, cyclic):
    """sum_i sum_{j=-r..r} s_i xor s_{i+j}, term by term."""
    n = len(s)
    total = 0
    for i in range(n):
        for j in range(-r, r + 1):
            if cyclic:
                total += s[i] ^ s[(i + j) % n]
            elif 0 <= i + j < n:
                total += s[i] ^ s[i + j]
    return total


def test_xor_sum_matches_double_sum(rng):
    # r runs past n - 1 in both modes: cyclic offsets then wrap more than once,
    # and r = q*n + t sums q whole periods of the n shifts and then t shifts
    for _ in range(300):
        n = rng.randint(1, 30)
        r = rng.randint(1, 3 * n + 3)
        s = [rng.randint(0, 1) for _ in range(n)]
        bits = "".join(map(str, s))
        q, t = divmod(r, n)
        periods = q * xor_sum(bits, n) + (xor_sum(bits, t) if t else 0)
        assert xor_sum(bits, r) == periods == xor_sum_by_double_sum(s, r, True)
        assert xor_sum(bits, r, mode="bounded") == xor_sum_by_double_sum(s, r, False)


def test_xor_sum_input_forms(rng):
    for n in (1, 2, 7, 64, 65, 200):
        s = [rng.randint(0, 1) for _ in range(n)]
        for r in (1, 3, max(n - 1, 1), n, n + 2):
            for mode in ("cyclic", "bounded"):
                want = xor_sum("".join(map(str, s)), r, mode=mode)
                for form in (s, tuple(s), [bool(b) for b in s], tuple(bool(b) for b in s),
                             np.array(s, dtype=np.int64), np.array(s, dtype=np.uint8)):
                    got = xor_sum(form, r, mode=mode)
                    assert type(got) is int and got == want


def test_xor_sum_rejects_bad_input():
    for bits in ("", [], (), np.array([], dtype=np.int64), "0120", [0, 1, 2],
                 (1, -1), np.array([0, 3])):
        with pytest.raises(ValueError):
            xor_sum(bits, 1)
    for r in (0, -1):
        with pytest.raises(ValueError):
            xor_sum("0101", r)
    with pytest.raises(ValueError):
        xor_sum([0, 1, 1], 1, mode="torus")
    for bits in ([0.5, 1, 1, 0], [0.0, 1.0], np.array([0.0, 1.0, 1.0]), ["0", "1"]):
        with pytest.raises(TypeError):
            xor_sum(bits, 1)
