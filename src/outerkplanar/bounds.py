"""Edge-density bounds for graphs drawn on points in convex position.

Everything here is a closed-form evaluator: upper bounds on the number of
edges an outer k-planar graph on n vertices can have, matching lower
bounds realized by the chain constructions, and the crossing-number lower
bounds the upper bounds rest on.  Each bound has an explicit validity
window and raises NotApplicableError outside it rather than returning a
number that nothing proves.

The edge bounds of both families (general and bipartite) are the rows of
one table, ``_BOUNDS`` below, which states each bound's window, formula,
status and source once.  ``general_upper``, ``bipartite_upper``,
``bound_report``, the variant tuples and the search's pruning bound all
read that table.  The upper variants are ``small_k``, ``lazy``,
``common``, ``local`` and, for general graphs only, ``direct``, whose
window starts at the configurable "sufficiently large k" threshold k_min.

The bipartite small-k constant deserves a note: the derivation yields
-(2k+6) while the headline statement says -(2k+5); the enumerated values
1.75n-3 .. 3.75n-7 match -(2k+6), which is therefore the default, with
``strict_statement=True`` reproducing the looser stated constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import NotApplicableError

__all__ = [
    "DEFAULT_K_MIN",
    "GENERAL_UPPER_VARIANTS",
    "BIPARTITE_UPPER_VARIANTS",
    "CROSSING_LEMMA_FLAVORS",
    "LowerBoundValue",
    "MaxMinDegreeBounds",
    "BoundEntry",
    "BoundReport",
    "general_upper",
    "epsilon_for",
    "general_lower",
    "general_lower_closed_form",
    "crossing_lemma_lower",
    "bipartite_upper",
    "bipartite_lower",
    "maxmindeg_bound",
    "bound_report",
]

SQRT2 = math.sqrt(2.0)

# Largest explicit threshold appearing anywhere in the source results;
# used as the default guard for the "sufficiently large k" statements.
DEFAULT_K_MIN = 176


def _check_nk(n: int, k: int) -> tuple[int, int]:
    n, k = int(n), int(k)
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("k must be non-negative")
    return n, k


def epsilon_for(k) -> float:
    """Smallest eps making the direct-variant bound (sqrt(2)+eps)*sqrt(k)*n + n work.

    The recursion behind the direct variant needs
    (sqrt(2)*k - 2*sqrt(k)) * eps > (5*sqrt(2)/2)*sqrt(k) - 1,
    whose infimum this returns.  The denominator is positive only for
    k > 2.  Decreases monotonically and tends to 0 like 2.5/sqrt(k).
    """
    k = float(k)
    if k <= 2:
        raise NotApplicableError("epsilon_for requires k > 2")
    num = (5.0 * SQRT2 / 2.0) * math.sqrt(k) - 1.0
    den = SQRT2 * k - 2.0 * math.sqrt(k)
    return num / den


@dataclass(frozen=True)
class LowerBoundValue:
    """A constructive (or asymptotic) lower bound.

    ``exact`` is True when the value is the exact edge count of a
    construction matching the queried (n, k); when the query had to be
    rounded down to admissible parameters, n_used/k_used record what was
    actually built and exact is False.  kind "asymptotic" marks a
    leading-term estimate that is not a proven finite-n bound.
    """

    value: int
    n_used: int
    k_used: int
    exact: bool
    kind: str


def general_lower(n: int, k: int) -> LowerBoundValue:
    """Edges of the densest complete-block chain fitting inside (n, k).

    Admissible parameters have k = ((x-2)/2)^2 for even x (k a perfect
    square) and (n-2) divisible by x-2.  Inadmissible queries fall back
    to the largest admissible k' <= k and n' <= n and are flagged
    inexact.  The count is blocks*C(x,2) - (blocks-1).
    """
    n, k = _check_nk(n, k)
    if k < 1:
        raise NotApplicableError("general_lower requires k >= 1")
    # the largest s with s*s <= k whose block K_{2s+2} fits in n points
    s = min(math.isqrt(k), (n - 2) // 2)
    if s < 1:
        raise NotApplicableError(
            f"n={n} is too small for even a single block at any k' <= {k}"
        )
    x = 2 * s + 2
    blocks = (n - 2) // (x - 2)
    n_used = blocks * (x - 2) + 2
    k_used = s * s
    value = blocks * (x * (x - 1) // 2) - (blocks - 1)
    return LowerBoundValue(
        value=value,
        n_used=n_used,
        k_used=k_used,
        exact=(n_used == n and k_used == k),
        kind="chain",
    )


def general_lower_closed_form(n: int, k: int) -> float:
    """Simplified closed form n*sqrt(k) + 3n - 2*sqrt(k) of the chain count.

    Kept for reference only: the simplification is inconsistent with the
    exact block count (already at k=1 it disagrees with the table value),
    so nothing in this package treats it as a valid bound.
    """
    n, k = _check_nk(n, k)
    return n * math.sqrt(k) + 3.0 * n - 2.0 * math.sqrt(k)


# flavor -> (bound, least admissible m as a function of n, whether m must
# exceed it, the window's text).  The float expressions stay as written:
# precomputing 171/40 moves the window's edge at many cells (40j, 171j).
_CROSSING_LEMMA = {
    "outer": (lambda n, m: 8000.0 / 87723.0 * m**3 / n**2,
              lambda n: 171.0 * n / 40.0, False, "171n/40"),
    "outer_bipartite": (lambda n, m: 64.0 / 675.0 * m**3 / n**2,
                        lambda n: 3.75 * n, False, "3.75n"),
    "multigraph_m2": (lambda n, m: m**3 / (27.48 * 2.0 * n**2),
                      lambda n: 6.77 * n, True, "6.77n"),
    "multigraph_m2_bipartite": (lambda n, m: 1024.0 / 16875.0 * m**3 / (2.0 * n**2),
                                lambda n: 6.77 * n, True, "6.77n"),
}
CROSSING_LEMMA_FLAVORS = tuple(_CROSSING_LEMMA)


def crossing_lemma_lower(n: int, m: int, flavor: str = "outer") -> float:
    """Lower bound on crossings of a (multi)graph drawn on n convex points.

    Flavors and validity windows:

    * ``outer``: 8000/87723 * m^3/n^2 for m >= 171n/40.
    * ``outer_bipartite``: 64/675 * m^3/n^2 for m >= 3.75n.
    * ``multigraph_m2``: m^3/(27.48 * 2n^2) for m > 6.77n, for
      multiplicity-two multigraphs.
    * ``multigraph_m2_bipartite``: 1024/16875 * m^3/(2n^2), same window
      as multigraph_m2 (no sharper threshold is established).
    """
    n = int(n)
    m = int(m)
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    if flavor not in _CROSSING_LEMMA:
        raise ValueError(f"unknown flavor {flavor!r}")
    bound, least, strict, window = _CROSSING_LEMMA[flavor]
    low = least(n)
    if m <= low if strict else m < low:
        raise NotApplicableError(
            f"{flavor} flavor requires m {'>' if strict else '>='} {window} = {low:g}")
    return bound(n, m)


def bipartite_lower(n: int, k: int, setting: str = "alternating") -> LowerBoundValue:
    """Constructive lower bounds for bipartite outer k-planar graphs.

    * ``alternating``: exact count l*x^2 - (l-1) of the alternating
      K_{x,x} chain, admissible when x = sqrt(2k)+1 is an integer and
      (n-2) is divisible by 2x-2; inadmissible queries raise.
    * ``consecutive``: the leading term floor(sqrt(k/2))*n of the
      two-layer construction, flagged asymptotic-only (the true count
      subtracts a lower-order correction).
    """
    n, k = _check_nk(n, k)
    if setting == "alternating":
        s = math.isqrt(2 * k)
        if s * s != 2 * k or s < 1:
            raise NotApplicableError(
                f"alternating setting needs sqrt(2k) integral (got k={k})"
            )
        x = s + 1
        span = 2 * x - 2
        if (n - 2) % span != 0 or n < 2 * x:
            raise NotApplicableError(
                f"alternating setting needs n = l*{span}+2 with l >= 1 (got n={n})"
            )
        blocks = (n - 2) // span
        return LowerBoundValue(
            value=blocks * x * x - (blocks - 1),
            n_used=n,
            k_used=k,
            exact=True,
            kind="alternating-chain",
        )
    if setting == "consecutive":
        return LowerBoundValue(
            value=math.isqrt(k // 2) * n,
            n_used=n,
            k_used=k,
            exact=False,
            kind="asymptotic",
        )
    raise ValueError(f"unknown setting {setting!r}")


class MaxMinDegreeBounds(NamedTuple):
    """Upper bounds on the minimum degree over all induced subgraphs.

    ``bipartite`` is only established for sufficiently large k (see
    DEFAULT_K_MIN); callers needing a guard should apply it themselves.
    """

    general: float
    bipartite: float


def maxmindeg_bound(k: int) -> MaxMinDegreeBounds:
    """Degree bounds 2*sqrt(k+1)+2 (general) and 2*sqrt(8/11*k)+2 (bipartite)."""
    k = int(k)
    if k < 0:
        raise ValueError("k must be non-negative")
    return MaxMinDegreeBounds(
        general=2.0 * math.sqrt(k + 1.0) + 2.0,
        bipartite=2.0 * math.sqrt(8.0 / 11.0) * math.sqrt(k) + 2.0,
    )


# ---------------------------------------------------------------------------
# The bound table
# ---------------------------------------------------------------------------

# slope, offset per k: the small-k bound is slope*n - offset.
_SMALL_K_TABLE = {0: (2.0, 3.0), 1: (2.5, 4.0), 2: (3.0, 5.0), 3: (3.25, 6.0),
                  4: (3.5, 6.0)}


def _small_k(n: int, k: int) -> float:
    slope, offset = _SMALL_K_TABLE[k]
    return slope * n - offset


class _Bound(NamedTuple):
    """One edge bound: a row of the bound table.

    The window is n >= n_from and k_from <= k <= k_to; a ``gated`` row
    also needs k >= k_min, the caller's "sufficiently large k" threshold
    (k_from None: no floor of its own).  A lower row's construction may
    narrow the window by raising NotApplicableError.  Inside the window
    the row's status holds, except at the k in ``conditional_k``.
    ``valid_when`` is the report's prose for a window that is more than a
    lower end on k, and ``stated`` the looser headline form used under
    strict_statement.
    """

    family: str  # "general" or "bipartite"
    kind: str  # "upper" or "lower"
    name: str
    formula: Callable[[int, int], float]
    source: str
    n_from: int = 1
    k_from: int | None = 0
    k_to: int | None = None
    gated: bool = False
    status: str = "yes"
    conditional_k: tuple[int, ...] = ()
    valid_when: str | None = None
    stated: Callable[[int, int], float] | None = None

    def k_low(self, k_min: int) -> int:
        """The lower end of the k window under the caller's k_min."""
        if not self.gated:
            return self.k_from
        return k_min if self.k_from is None else max(self.k_from, k_min)

    def evaluate(self, n: int, k: int, low: int, stated: bool = False) -> float:
        """The row's value at (n, k); NotApplicableError outside the window."""
        if n < self.n_from:
            raise NotApplicableError(
                f"{self.name} assumes n >= {self.n_from} (got n={n})")
        if self.k_to is not None and k > self.k_to:
            raise NotApplicableError(
                f"{self.name} covers k <= {self.k_to} only (got k={k})")
        if k < low:
            raise NotApplicableError(f"{self.name} requires k >= {low} (got k={k})")
        if stated and self.stated is not None:
            return self.stated(n, k)
        return self.formula(n, k)

    def at(self, n: int, k: int, k_min: int, stated: bool = False) -> tuple[float | None, str]:
        """The row's value and ``valid`` flag at (n, k), as reported."""
        try:
            value = self.evaluate(n, k, self.k_low(k_min), stated)
        except NotApplicableError:
            return None, "no"
        return value, "conditional" if k in self.conditional_k else self.status


# At n = 2 the small-k affine forms dip below the single realizable edge,
# so they are not upper bounds there.  Rows of a family are reported in
# table order.
_BOUNDS = (
    _Bound("general", "upper", "small_k", _small_k, "small-k table",
           n_from=3, k_to=4, conditional_k=(3, 4),
           valid_when="n >= 3 and k <= 2 (k = 3, 4 conditional)"),
    _Bound("general", "upper", "lazy", lambda n, k: 2.85 * math.sqrt(k) * n,
           "two-page doubling + multigraph crossing lemma", k_from=5),
    _Bound("general", "upper", "common",
           lambda n, k: math.sqrt(87723.0 / 16000.0 * k) * n,
           "convex-position crossing lemma", k_from=5),
    _Bound("general", "upper", "local", lambda n, k: maxmindeg_bound(k).general * n,
           "max-min-degree splitting"),
    _Bound("general", "upper", "direct",
           lambda n, k: (SQRT2 + epsilon_for(k)) * math.sqrt(k) * n + n,
           "recursive splitting", k_from=3, gated=True),
    _Bound("general", "lower", "chain",
           lambda n, k: float(general_lower(n, k).value), "complete-block chain",
           valid_when="k >= 1, n >= 4 (rounded down to admissible parameters)"),
    _Bound("general", "lower", "chain_closed_form", general_lower_closed_form,
           "complete-block chain", status="reference",
           valid_when="reference only: simplified closed form, "
                      "inconsistent with the exact count"),
    _Bound("bipartite", "upper", "small_k",
           lambda n, k: ((k + 3.5) * n - (2 * k + 6)) / 2.0,
           "small-k charging argument", n_from=3, k_to=4,
           valid_when="n >= 3 and k <= 4",
           stated=lambda n, k: ((k + 3.5) * n - (2 * k + 5)) / 2.0),
    _Bound("bipartite", "upper", "lazy", lambda n, k: 2.228 * math.sqrt(k) * n,
           "two-page doubling + bipartite multigraph crossing lemma", k_from=5),
    _Bound("bipartite", "upper", "common",
           lambda n, k: math.sqrt(675.0 / 128.0 * k) * n,
           "bipartite convex-position crossing lemma", k_from=5),
    _Bound("bipartite", "upper", "local",
           lambda n, k: 2.0 * math.sqrt(8.0 / 11.0) * math.sqrt(k) * n,
           "bipartite max-min-degree splitting", k_from=None, gated=True),
    _Bound("bipartite", "lower", "alternating",
           lambda n, k: float(bipartite_lower(n, k, "alternating").value),
           "alternating complete-bipartite chain",
           valid_when="sqrt(2k) integral and n = l*(2*sqrt(2k))+2"),
    _Bound("bipartite", "lower", "consecutive",
           lambda n, k: float(bipartite_lower(n, k, "consecutive").value),
           "two-layer blowup", status="reference",
           valid_when="asymptotic leading term only (finite-n count is smaller)"),
)

_UPPER_ROWS = {(row.family, row.name): row for row in _BOUNDS if row.kind == "upper"}
GENERAL_UPPER_VARIANTS = tuple(name for family, name in _UPPER_ROWS if family == "general")
BIPARTITE_UPPER_VARIANTS = tuple(name for family, name in _UPPER_ROWS if family == "bipartite")


def _upper(family: str, n: int, k: int, variant: str, k_min: int,
           stated: bool = False) -> float:
    n, k = _check_nk(n, k)
    row = _UPPER_ROWS.get((family, variant))
    if row is None:
        raise ValueError(f"unknown variant {variant!r}")
    return row.evaluate(n, k, row.k_low(k_min), stated)


def general_upper(n: int, k: int, variant: str = "common", *, k_min: int = DEFAULT_K_MIN) -> float:
    """Upper bound on edges of an outer k-planar graph on n vertices.

    Raises NotApplicableError when the variant's validity window excludes
    (n, k).  A conditionally established value (``small_k`` at k = 3, 4) is
    returned like the others; consumers that need unconditional bounds
    should use the ``valid`` flag of ``bound_report``.
    """
    return _upper("general", n, k, variant, k_min)


def bipartite_upper(
    n: int,
    k: int,
    variant: str = "common",
    *,
    strict_statement: bool = False,
    k_min: int = DEFAULT_K_MIN,
) -> float:
    """Upper bound on edges of a bipartite outer k-planar graph.

    ``strict_statement`` only affects ``small_k``: it switches the
    additive constant from the derived -(2k+6) to the stated -(2k+5).
    """
    return _upper("bipartite", n, k, variant, k_min, strict_statement)


# ---------------------------------------------------------------------------
# Collected reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundEntry:
    """One bound evaluation.

    ``valid`` is "yes", "no", "conditional" (value shown but resting on a
    conditional result), or "reference" (value shown for comparison only,
    excluded from any consistency claims).  Entries with valid "no" carry
    value None.
    """

    name: str
    kind: str  # "upper" or "lower"
    value: float | None
    valid: str
    valid_when: str
    source: str


@dataclass(frozen=True)
class BoundReport:
    n: int
    k: int
    family: str  # "general" or "bipartite"
    entries: tuple[BoundEntry, ...]


def bound_report(n: int, k: int, *, bipartite: bool = False, k_min: int = DEFAULT_K_MIN) -> BoundReport:
    """Evaluate every bound of one family at (n, k) with validity flags."""
    n, k = _check_nk(n, k)
    family = "bipartite" if bipartite else "general"
    entries = []
    for row in _BOUNDS:
        if row.family == family:
            value, valid = row.at(n, k, k_min)
            window = row.valid_when or f"k >= {row.k_low(k_min)}"
            entries.append(BoundEntry(row.name, row.kind, value, valid, window, row.source))
    return BoundReport(n=n, k=k, family=family, entries=tuple(entries))
