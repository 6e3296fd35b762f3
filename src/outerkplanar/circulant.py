"""Circulant graphs C_n^{1..r}: spectra, max-cut bounds, and XOR sums.

The graph C_n^{1..r} connects i and j whenever their cyclic distance is at
most r; with 2r < n it is 2r-regular with rn edges.  Its adjacency
eigenvalues come straight from the circulant structure:

    lambda_j = D_r(2*pi*j/n) - 1,   j = 0..n-1,

where D_r(theta) = 1 + 2*sum_{k=1..r} cos(k*theta) is the Dirichlet
kernel (closed form sin((r+1/2)*theta)/sin(theta/2) away from multiples
of 2*pi).  Laplacian eigenvalues are 2r - lambda_j, and the classical
spectral bound says maxcut <= n/4 * max_j (2r - lambda_j).

Two cruder but closed-form max-cut bounds are provided alongside: the
additive-constant bound (5r/8 + 76)n, and its refinement that uses the
spectral constant (5r/8 + 0.25)n where the Dirichlet-kernel minimum
estimate below stays above -r/2 (which first holds at r = 176) and the
trivial rn otherwise.  That estimate,

    min_theta D_r(theta) >= min(-5/12, 1/r + C0 - 8*pi/(2*(r+1))) * r

with C0 = -0.4344, is exposed as ``mercer_min_bound``.

``exact_maxcut`` is a max-plus transfer matrix over windows of the last
r sides (C_n^{1..r} has cyclic bandwidth r), so it runs in O(n*4^r) under
the work cap n*4^r <= 2^22; ties resolve to the lexicographically
smallest side vector.

``xor_sum`` is the uncut-pair statistic sum_i sum_{|j| <= r} s_i xor
s_{i+j} over a bit-string; in cyclic mode with 2r < n it equals exactly
twice the cut value of the corresponding side assignment of C_n^{1..r}.

Only the array functions (``dirichlet_kernel``, ``dirichlet_kernel_closed``,
``adjacency_eigenvalue(s)``) load numpy, on their first call, through
``_numpy``; it is the optional extra ``outerkplanar[arrays]``.  Everything
else here is pure Python: ``laplacian_lambda_max``, and so ``mohar_bound``,
takes the largest Laplacian eigenvalue from the closed form over
j = 1..n//2, so no CLI subcommand imports numpy.  Like ``exact_maxcut``
it refuses work past MAXCUT_WORK_BUDGET steps.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, NamedTuple

from .errors import BudgetExceededError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MAXCUT_WORK_BUDGET",
    "MERCER_C0",
    "CirculantSpec",
    "Cut",
    "dirichlet_kernel",
    "dirichlet_kernel_closed",
    "adjacency_eigenvalue",
    "adjacency_eigenvalues",
    "laplacian_lambda_max",
    "mohar_bound",
    "mercer_inner",
    "mercer_min_bound",
    "lemma_maxcut_bound",
    "cut_value",
    "exact_maxcut",
    "xor_sum",
]

MAXCUT_WORK_BUDGET = 1 << 22
MERCER_C0 = -0.4344


# a subclass, because NamedTuple forbids overriding __new__ in the class body
class CirculantSpec(NamedTuple("CirculantSpec", [("n", int), ("r", int)])):
    """Parameters of C_n^{1..r}; requires 1 <= r and 2r < n."""

    __slots__ = ()

    def __new__(cls, n: int, r: int):
        n, r = operator.index(n), operator.index(r)
        if r < 1:
            raise ValueError("r must be at least 1")
        if 2 * r >= n:
            raise ValueError(f"need 2r < n (got n={n}, r={r})")
        return super().__new__(cls, n, r)

    _make = classmethod(lambda cls, values: cls(*values))  # _replace calls it: keep the checks

    @property
    def edge_count(self) -> int:
        return self.r * self.n


def _numpy():
    try:
        import numpy
    except ImportError as exc:
        raise ImportError("the array functions need numpy: "
                          "pip install 'outerkplanar[arrays]'") from exc
    return numpy


def _on_angles(r: int, theta, kernel):
    """kernel(np, r, angles) for an index r >= 0 and a scalar or ndarray of
    angles; a scalar theta gives a float."""
    np = _numpy()
    r = operator.index(r)
    if r < 0:
        raise ValueError("r must be non-negative")
    out = kernel(np, r, np.asarray(theta, dtype=float))
    return float(out) if np.ndim(theta) == 0 else out


def dirichlet_kernel(r: int, theta):
    """D_r(theta) = 1 + 2*sum_{k=1..r} cos(k*theta), by direct summation.

    Accepts a scalar or an ndarray of angles; D_r(0) = 2r + 1 and D_0 = 1 exactly.
    """
    def by_sum(np, r, th):
        ks = np.arange(1, r + 1, dtype=float)
        return 1.0 + 2.0 * np.cos(np.multiply.outer(th, ks)).sum(axis=-1)

    return _on_angles(r, theta, by_sum)


def dirichlet_kernel_closed(r: int, theta):
    """Closed form sin((r+1/2)*theta)/sin(theta/2).

    Undefined at multiples of 2*pi (where the sum form should be used) and
    at non-finite angles (inf and nan); raises ValueError there rather than
    returning inf/nan.
    """
    def closed(np, r, th):
        if not np.isfinite(th).all():
            raise ValueError("closed form is undefined at non-finite angles")
        denom = np.sin(th / 2.0)
        # sin(th/2) only hits exact 0.0 at th = 0; near other multiples of
        # 2*pi it bottoms out around 1e-16, where the quotient is pure noise
        if np.any(np.abs(denom) < 1e-12):
            raise ValueError("closed form is undefined at multiples of 2*pi")
        return np.sin((r + 0.5) * th) / denom

    return _on_angles(r, theta, closed)


def adjacency_eigenvalue(spec: CirculantSpec, j: int) -> float:
    """Eigenvalue lambda_j = D_r(2*pi*j/n) - 1 of the adjacency matrix."""
    j = operator.index(j)
    if not 0 <= j < spec.n:
        raise ValueError(f"j must be in 0..{spec.n - 1}")
    return dirichlet_kernel(spec.r, 2.0 * math.pi * j / spec.n) - 1.0


def adjacency_eigenvalues(spec: CirculantSpec) -> np.ndarray:
    """All n adjacency eigenvalues, indexed by frequency j."""
    thetas = 2.0 * math.pi * _numpy().arange(spec.n) / spec.n
    return dirichlet_kernel(spec.r, thetas) - 1.0


def laplacian_lambda_max(spec: CirculantSpec) -> float:
    """Largest Laplacian eigenvalue max_j (2r - lambda_j); lies in [0, 4r].

    2r - lambda_j = 2r + 1 - D_r(theta_j) is 0 at j = 0, below every other
    term, and D_r is even, so j and n - j give the same value; the closed
    form is evaluated for j = 1..n//2 only, where theta_j/2 = pi*j/n lies
    in (0, pi/2] and sin(theta_j/2) stays well away from 0.  O(n) time,
    no numpy.  Budget: n//2 <= MAXCUT_WORK_BUDGET evaluations; at the cap
    a call takes about 1.6 s on one core of a shared Linux container with
    Python 3.11.  Past it BudgetExceededError is raised before any work.
    """
    n, r = spec.n, spec.r
    if n // 2 > MAXCUT_WORK_BUDGET:  # the message names no n: it may be too long to print
        raise BudgetExceededError("laplacian_lambda_max does n//2 evaluations; at this n that "
                                  f"exceeds the budget n//2 <= {MAXCUT_WORK_BUDGET}")
    return max(2.0 * r + 1.0 - math.sin((r + 0.5) * theta) / math.sin(theta / 2.0)
               for theta in (2.0 * math.pi * j / n for j in range(1, n // 2 + 1)))


def mohar_bound(spec: CirculantSpec) -> float:
    """Spectral max-cut bound n * lambda_max(L) / 4; raises
    BudgetExceededError past ``laplacian_lambda_max``'s work cap."""
    return spec.n * laplacian_lambda_max(spec) / 4.0


def mercer_inner(r: int) -> float:
    """The r-dependent branch 1/r + C0 - 8*pi/(2*(r+1)) of the kernel-minimum bound."""
    r = operator.index(r)
    if r < 2:
        raise ValueError("needs r >= 2")
    return 1.0 / r + MERCER_C0 - 8.0 * math.pi / (2.0 * (r + 1.0))


def mercer_min_bound(r: int) -> float:
    """Lower bound min(-5/12, mercer_inner(r)) * r on min_theta D_r(theta).

    The refined max-cut bound needs it above -r/2, which first holds at
    r = 176 and holds for every larger r: mercer_inner increases with r.
    """
    r = operator.index(r)
    return min(-5.0 / 12.0, mercer_inner(r)) * r


def lemma_maxcut_bound(spec: CirculantSpec, refined: bool = False) -> float:
    """Closed-form max-cut upper bound for C_n^{1..r}.

    Unrefined: (5r/8 + 76) * n.  Refined: (5r/8 + 0.25) * n where the
    kernel-minimum estimate applies, mercer_min_bound(r) > -r/2 (from
    r = 176 on), and the trivial rn elsewhere.
    """
    n, r = spec.n, spec.r
    if not refined:
        return (5.0 * r / 8.0 + 76.0) * n
    if r >= 2 and mercer_min_bound(r) > -r / 2:
        return (5.0 * r / 8.0 + 0.25) * n
    return float(r * n)


def _zero_one(bits) -> tuple[int, ...]:
    """A "01" string, or a sequence of ints, bools or numpy ints, as a tuple
    of 0s and 1s.  A float entry raises TypeError, so nothing is truncated;
    any other entry than 0 or 1 raises ValueError."""
    if isinstance(bits, str):
        seq = tuple("01".find(ch) for ch in bits)  # -1 for any other character
    else:
        seq = tuple(map(operator.index, bits))
    if any(b not in (0, 1) for b in seq):
        raise ValueError("entries must be 0 or 1")
    return seq


def cut_value(spec: CirculantSpec, sides) -> int:
    """Edges of C_n^{1..r} whose endpoints get different sides."""
    sides = _zero_one(sides)
    if len(sides) != spec.n:
        raise ValueError("side vector length must equal n")
    return xor_sum(sides, spec.r) // 2  # 2r < n: each cut edge is counted twice


class Cut(NamedTuple):
    """A side assignment and its cut value."""

    sides: tuple[int, ...]
    value: int


def exact_maxcut(spec: CirculantSpec) -> Cut:
    """Exact maximum cut of C_n^{1..r} by a cyclic max-plus transfer matrix.

    C_n^{1..r} has cyclic bandwidth r, so a side vector is scored one
    vertex at a time from a window of the last r sides: placing vertex t
    cuts the edges to those of its r predecessors on the other side.
    Vertex 0 is pinned to side 0 (the cut is invariant under swapping
    sides).  For each head, the sides of vertices 1..r-1 scanned in
    lexicographic order, a backward table V[t][window] (the best gain of
    vertices t..n-1 given the window before t) is filled from t = n down
    to r.  Its seed V[n] scores the wrap-around edges between the last
    window and the head, and is built by doubling, one window bit p at a
    time: the rows with bit p clear add the head vertices that vertex
    n-1-p reaches on side 1, those with it set the ones on side 0.  The
    head is kept only on strict improvement.  The witness is then rebuilt
    forward, taking side 0 unless side 1 is strictly better, so it is the
    lexicographically smallest maximizing side vector.

    Work and time are O(n*4^r), memory O(n*2^r).  Budget: n*4^r <= 2^22
    (MAXCUT_WORK_BUDGET).  At the cap a call takes from 0.5 s (r = 8,
    n = 64) to 1.6 s (r = 1, n = 2^20) on one core of a shared 2-core
    Linux container with Python 3.11 (fastest of five fresh processes).
    Past it, as at every r >= 11 (4^11 = 2^22 and n >= 3),
    BudgetExceededError is raised before any work.
    """
    # imported here: loading the extension costs every import of the package 0.6 ms
    from array import array

    n, r = spec.n, spec.r
    # r >= 11 is refused before n << 2r builds n*4^r bits; n and r may be too long to print
    if r >= 11 or n << (2 * r) > MAXCUT_WORK_BUDGET:
        raise BudgetExceededError("exact_maxcut does n*4^r steps; at this n and r that "
                                  f"exceeds the budget n*4^r <= {MAXCUT_WORK_BUDGET}")
    size = 1 << r
    # bit p of a window is the side of the vertex p steps back
    gain0 = [w.bit_count() for w in range(size)]
    gain1 = [r - g for g in gain0]
    lo = [(w << 1) & (size - 1) for w in range(size)]
    hi = [w | 1 for w in lo]
    best_val, best_head, best_table = -1, 0, None
    # the window of vertices 0..r-1 is the head itself, vertex 0 on top
    for head in range(1 << (r - 1)):
        # vertices 0..r-1 are pairwise adjacent
        inner = head.bit_count() * (r - head.bit_count())
        # vertex n-1-p and vertex q are adjacent across the wrap iff p + q < r;
        # the seed V[n] gains window bit p as its top bit at step p
        layer = [0]
        for p in range(r):
            near = (head >> p).bit_count()
            layer = [g + near for g in layer] + [g + r - p - near for g in layer]
        table = array("q")  # V[n], V[n-1], ..., V[r+1], one window-indexed row each
        for _ in range(n - r):
            table.extend(layer)
            layer = [max(a + layer[l], b + layer[h])
                     for a, b, l, h in zip(gain0, gain1, lo, hi)]
        if inner + layer[head] > best_val:
            best_val, best_head, best_table = inner + layer[head], head, table
    window = best_head
    sides = [(window >> (r - 1 - q)) & 1 for q in range(r)]
    for row in range(len(best_table) - size, -1, -size):
        side = int(gain1[window] + best_table[row + hi[window]]
                   > gain0[window] + best_table[row + lo[window]])
        sides.append(side)
        window = hi[window] if side else lo[window]
    return Cut(sides=tuple(sides), value=best_val)


def xor_sum(bits, r: int, mode: str = "cyclic") -> int:
    """sum_i sum_{j=-r..r} s_i xor s_{i+j} over a bit-string.

    ``bits`` may be a string like "0101" or any sequence of 0/1 integers.
    In cyclic mode indices wrap modulo the length; in bounded mode
    out-of-range pairs are simply dropped.  The j = 0 terms are always
    zero.  In cyclic mode with 2r < len(bits) the sum is exactly twice
    the cut value of the corresponding side assignment of C_n^{1..r}.
    """
    seq = _zero_one(bits)
    if not seq:
        raise ValueError("bits must be non-empty")
    r = operator.index(r)
    if r < 1:
        raise ValueError("r must be at least 1")
    # s_i is bit n-1-i of x; each shift by d lines every s_i up with s_{i+d}
    n, x = len(seq), int("".join(map(str, seq)), 2)
    if mode == "cyclic":
        # shifts repeat with period n and the shift by n adds nothing, so
        # r = q*n + t counts shifts 1..n-1 q times and then shifts 1..t
        mask = (1 << n) - 1
        per_shift = [
            (x ^ ((x << d | x >> (n - d)) & mask)).bit_count()
            for d in range(1, min(r, n - 1) + 1)
        ]
        q, t = divmod(r, n)
        return 2 * (q * sum(per_shift) + sum(per_shift[:t]))
    if mode == "bounded":
        total = 0
        for d in range(1, min(r, n - 1) + 1):
            total += ((x ^ (x >> d)) & ((1 << (n - d)) - 1)).bit_count()
        return 2 * total
    raise ValueError(f"unknown mode {mode!r}")
