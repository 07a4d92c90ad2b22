"""Scalar bound families for weighted arithmetic, geometric, and Heinz means.

Every bound family compares the weighted arithmetic mean (1-v)*a + v*b
against the weighted geometric mean a^(1-v) * b^v plus correction terms, on
a stated admissible window for the weight v.  Evaluators return a
:class:`BoundReport` whose ``gap`` is oriented so that a satisfied
inequality always has ``gap >= 0``:

* reverse (upper-bound) families use ``gap = rhs - lhs``,
* forward refinement (lower-bound) families use ``gap = lhs - rhs``.

All real powers are evaluated in log domain, and dyadic roots use ratio
forms such as ``a * ((b/a)^(1/2^k) - 1)^2`` so that large powers of the
operands are never formed directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

REL_TOL = 1e-9
"""Relative verdict tolerance: holds iff gap >= -REL_TOL * (|lhs| + |rhs|)."""

MAX_DEPTH = 30
"""Refinement depths beyond this produce pure rounding noise (2^-k roots)."""


class DomainError(ValueError):
    """Inputs outside a function's mathematical domain."""


def _require_pair(a: float, b: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0 or b <= 0.0:
        raise DomainError(f"operands must be finite and > 0, got a={a!r}, b={b!r}")


def _require_weight(v: float) -> None:
    if not math.isfinite(v):
        raise DomainError(f"weight must be finite, got v={v!r}")


def _require_branch(branch: str) -> None:
    if branch not in ("i", "ii"):
        raise DomainError(f"branch must be 'i' or 'ii', got {branch!r}")


def _require_depth(n: int, minimum: int = 1) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"depth must be an integer, got n={n!r}")
    if n < minimum or n > MAX_DEPTH:
        raise DomainError(f"depth must satisfy {minimum} <= n <= {MAX_DEPTH}, got n={n}")


@dataclass(frozen=True)
class BoundReport:
    """One inequality evaluation with an oriented slack."""

    family: str
    branch: str
    a: float
    b: float
    v: float
    n: Optional[int]
    lhs: float
    rhs: float
    gap: float
    hypothesis_ok: bool
    holds: bool

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _report(family, branch, a, b, v, n, lhs, rhs, hypothesis_ok, upper):
    gap = (rhs - lhs) if upper else (lhs - rhs)
    if not math.isfinite(gap):
        raise OverflowError(f"{family}: gap {gap!r} at a={a!r}, b={b!r}, v={v!r} "
                            f"leaves the floating-point range")
    holds = gap >= -REL_TOL * (abs(lhs) + abs(rhs))
    return BoundReport(family, branch, a, b, v, n, lhs, rhs, gap, hypothesis_ok, holds)


def _mirrored(rep: BoundReport, a, b, v, branch: str = "ii") -> BoundReport:
    """Report rep, evaluated at the mirror point (b, a, 1-v), as taken at (a, b, v).

    Every branch-ii bound is the image of its branch i under this one map.
    """
    return BoundReport(rep.family, branch, a, b, v, rep.n, rep.lhs, rep.rhs,
                       rep.gap, rep.hypothesis_ok, rep.holds)


# ---------------------------------------------------------------------------
# Elementary means
# ---------------------------------------------------------------------------

def young_lhs(a: float, b: float, v: float) -> float:
    """Weighted arithmetic mean (1-v)*a + v*b."""
    _require_pair(a, b)
    _require_weight(v)
    lhs = (1.0 - v) * a + v * b
    if not math.isfinite(lhs):
        raise OverflowError(f"weighted arithmetic mean at a={a!r}, b={b!r}, v={v!r} "
                            f"leaves the floating-point range")
    return lhs


def weighted_geometric(a: float, b: float, v: float) -> float:
    """Weighted geometric mean a^(1-v) * b^v, via exp/log for any real v."""
    _require_pair(a, b)
    _require_weight(v)
    return math.exp((1.0 - v) * math.log(a) + v * math.log(b))


def heinz_scalar(a: float, b: float, v: float) -> float:
    """Heinz mean (a^(1-v) b^v + a^v b^(1-v)) / 2; symmetric in v <-> 1-v."""
    _require_pair(a, b)
    _require_weight(v)
    la, lb = math.log(a), math.log(b)
    return 0.5 * (math.exp((1.0 - v) * la + v * lb) + math.exp(v * la + (1.0 - v) * lb))


# ---------------------------------------------------------------------------
# Hypothesis windows (closed intervals, exact floating comparison)
# ---------------------------------------------------------------------------

def window_dyadic_high(n: int) -> tuple[float, float]:
    """Excluded window [1/2, (2^(n-1)+1)/2^n] of the low-weight dyadic branch."""
    return 0.5, (2.0 ** (n - 1) + 1.0) / 2.0 ** n


def window_dyadic_low(n: int) -> tuple[float, float]:
    """Excluded window [(2^(n-1)-1)/2^n, 1/2] of the high-weight dyadic branch."""
    return (2.0 ** (n - 1) - 1.0) / 2.0 ** n, 0.5


def window_sc_low(n: int) -> tuple[float, float]:
    """Excluded window [0, 1/2^n] of the extended one-sided family, branch i."""
    return 0.0, 0.5 ** n


def window_sc_high(n: int) -> tuple[float, float]:
    """Excluded window [(2^n-1)/2^n, 1] of the extended family, branch ii."""
    return (2.0 ** n - 1.0) / 2.0 ** n, 1.0


def _outside(v: float, window: tuple[float, float]) -> bool:
    lo, hi = window
    return not (lo <= v <= hi)


# ---------------------------------------------------------------------------
# Basic reverse inequalities
# ---------------------------------------------------------------------------

def reverse_young_basic(a: float, b: float, v: float) -> BoundReport:
    """(1-v)a + vb <= a^(1-v) b^v, valid for v outside [0, 1].

    At v in {0, 1} the two sides coincide; the hypothesis flag is false
    there but the report is still evaluated.
    """
    lhs = young_lhs(a, b, v)
    rhs = weighted_geometric(a, b, v)
    return _report("reverse-young-basic", "", a, b, v, None, lhs, rhs,
                   _outside(v, (0.0, 1.0)), upper=True)


def corollary_one_term(a: float, b: float, v: float, branch: str) -> BoundReport:
    """One-term reverse bound: geometric mean plus v or (1-v) times (sqrt a - sqrt b)^2.

    Branch "i" adds v*(sqrt a - sqrt b)^2 and requires v outside [0, 1/2];
    branch "ii" adds (1-v)*(...)^2 and requires v outside [1/2, 1].
    """
    _require_branch(branch)
    lhs = young_lhs(a, b, v)
    sq = (math.sqrt(a) - math.sqrt(b)) ** 2
    if branch == "i":
        rhs = weighted_geometric(a, b, v) + v * sq
        hyp = _outside(v, (0.0, 0.5))
    else:
        rhs = weighted_geometric(a, b, v) + (1.0 - v) * sq
        hyp = _outside(v, (0.5, 1.0))
    return _report("corollary-one-term", branch, a, b, v, None, lhs, rhs, hyp, upper=True)


# ---------------------------------------------------------------------------
# Main extended-range reverse bound (dyadic-root correction sum)
# ---------------------------------------------------------------------------

def _dyadic_tail_sum(lr: float, n: int) -> float:
    """sum_{k=2..n} 2^(k-2) * (exp(lr / 2^k) - 1)^2, empty for n = 1."""
    total = 0.0
    for k in range(2, n + 1):
        d = math.expm1(lr / 2.0 ** k)
        total += 2.0 ** (k - 2) * d * d
    return total


def gap_bound_main_reverse(a: float, b: float, v: float, n: int) -> float:
    """Branch-i correction (1-v)(sqrt a - sqrt b)^2 + (2v-1) sqrt(ab) * tail(n)."""
    la, lb = math.log(a), math.log(b)
    sq = (math.sqrt(a) - math.sqrt(b)) ** 2
    return (1.0 - v) * sq + (2.0 * v - 1.0) * math.exp(0.5 * (la + lb)) * _dyadic_tail_sum(lb - la, n)


def theorem_main_reverse(a: float, b: float, v: float, n: int, branch: str) -> BoundReport:
    """Extended-range reverse bound with an n-term dyadic-root correction.

    Branch "i" holds for v outside [1/2, (2^(n-1)+1)/2^n]; branch "ii" is
    the exact image of branch "i" under (a, b, v) -> (b, a, 1-v) and holds
    for v outside [(2^(n-1)-1)/2^n, 1/2].  With n = 1 the tail sum is
    empty and branch "i" coincides with the one-term bound, branch "ii".
    """
    _require_depth(n, 1)
    if branch == "ii":
        return _mirrored(theorem_main_reverse(b, a, 1.0 - v, n, "i"), a, b, v)
    _require_branch(branch)
    lhs = young_lhs(a, b, v)
    rhs = weighted_geometric(a, b, v) + gap_bound_main_reverse(a, b, v, n)
    return _report("theorem-main-reverse", "i", a, b, v, n, lhs, rhs,
                   _outside(v, window_dyadic_high(n)), upper=True)


# ---------------------------------------------------------------------------
# Indexed refinement machinery
# ---------------------------------------------------------------------------

class RefinementIndex(NamedTuple):
    k: int
    j: int
    r: int
    s: float


def sababheh_indices(v: float, k: int) -> RefinementIndex:
    """Indices j_k = floor(2^(k-1) v), r_k = floor(2^k v) and the alternating
    coefficient s_k = (-1)^r_k 2^(k-1) v + (-1)^(r_k+1) floor((r_k+1)/2).

    Defined for v in [0, 1] only (the floor formulas are used nowhere else).
    """
    _require_weight(v)
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"refinement indices require v in [0, 1], got v={v!r}")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1 or k > 2 * MAX_DEPTH:
        raise DomainError(f"index level must satisfy 1 <= k <= {2 * MAX_DEPTH}, got {k!r}")
    j = math.floor(2.0 ** (k - 1) * v)
    r = math.floor(2.0 ** k * v)
    sign = -1.0 if r % 2 else 1.0
    s = sign * 2.0 ** (k - 1) * v - sign * ((r + 1) // 2)
    return RefinementIndex(k, j, r, s)


def refinement_sum_s(v: float, a: float, b: float, n: int) -> float:
    """n-term sum S_n(v, a, b) with s_k coefficients and mixed dyadic roots.

    Term k is s_k(v) * ((b^(2^(k-1)-j_k) a^j_k)^(1/2^k)
                        - (a^(j_k+1) b^(2^(k-1)-j_k-1))^(1/2^k))^2,
    computed in the equivalent overflow-safe form
    b * ((a/b)^(j_k/2^k) - (a/b)^((j_k+1)/2^k))^2.
    Nonnegative on v in [0, 1] since every s_k lies in [0, 1/2] there.
    """
    _require_pair(a, b)
    _require_depth(n, 1)
    dl = math.log(a) - math.log(b)
    total = 0.0
    for k in range(1, n + 1):
        idx = sababheh_indices(v, k)
        scale = 2.0 ** k
        q1 = math.exp(dl * (idx.j / scale))
        q2 = math.exp(dl * ((idx.j + 1) / scale))
        total += idx.s * b * (q1 - q2) ** 2
    return total


def gap_bound_sm_reverse(a: float, b: float, v: float, n: int) -> float:
    """Branch-i correction (1-v)(sqrt a - sqrt b)^2 - S_n(2v, sqrt(ab), b)."""
    sq = (math.sqrt(a) - math.sqrt(b)) ** 2
    groot = math.exp(0.5 * (math.log(a) + math.log(b)))
    return (1.0 - v) * sq - refinement_sum_s(2.0 * v, groot, b, n)


def lemma_sm_reverse(a: float, b: float, v: float, n: int, branch: str) -> BoundReport:
    """Indexed-refinement reverse bound.

    Branch "i" requires v in [0, 1/2] (its inner weight 2v must lie in
    [0, 1]); branch "ii" is the exact mirror under (a, b, v) -> (b, a, 1-v)
    and requires v in [1/2, 1].  Outside those windows the refinement sum
    is undefined and a DomainError is raised.
    """
    _require_depth(n, 1)
    if branch == "ii":
        return _mirrored(lemma_sm_reverse(b, a, 1.0 - v, n, "i"), a, b, v)
    _require_branch(branch)
    _require_weight(v)
    if not 0.0 <= v <= 0.5:
        raise DomainError(f"branch i requires v in [0, 1/2], got v={v!r}")
    lhs = young_lhs(a, b, v)
    rhs = weighted_geometric(a, b, v) + gap_bound_sm_reverse(a, b, v, n)
    return _report("lemma-sm-reverse", "i", a, b, v, n, lhs, rhs, True, upper=True)


# ---------------------------------------------------------------------------
# Forward refinements
# ---------------------------------------------------------------------------

def kittaneh_manasrah(a: float, b: float, v: float) -> BoundReport:
    """One-term forward refinement with r0 = min(v, 1-v); valid on v in [0, 1]."""
    lhs = young_lhs(a, b, v)
    r0 = min(v, 1.0 - v)
    rhs = weighted_geometric(a, b, v) + r0 * (math.sqrt(a) - math.sqrt(b)) ** 2
    return _report("kittaneh-manasrah", "", a, b, v, None, lhs, rhs,
                   0.0 <= v <= 1.0, upper=False)


def zhao_wu_forward(a: float, b: float, v: float) -> BoundReport:
    """Two-term forward refinement; the branch is selected by the weight.

    For v <= 1/2 the second term is r0*(sqrt a - (ab)^(1/4))^2 with
    r0 = min(2v, 1-2v); the v >= 1/2 side is the mirror image under
    (a, b, v) -> (b, a, 1-v).  Both branches coincide at v = 1/2.
    """
    _require_weight(v)
    if v > 0.5:
        return _mirrored(zhao_wu_forward(b, a, 1.0 - v), a, b, v, branch="")
    lhs = young_lhs(a, b, v)
    r = min(v, 1.0 - v)
    r0 = min(2.0 * r, 1.0 - 2.0 * r)
    quarter = math.exp(0.25 * (math.log(a) + math.log(b)))
    rhs = (weighted_geometric(a, b, v) + v * (math.sqrt(a) - math.sqrt(b)) ** 2
           + r0 * (math.sqrt(a) - quarter) ** 2)
    return _report("zhao-wu-forward", "", a, b, v, None, lhs, rhs,
                   0.0 <= v <= 1.0, upper=False)


def sababheh_choi_forward(a: float, b: float, v: float, n: int) -> BoundReport:
    """Complete n-term forward refinement built from the indexed sum.

    Requires v in [0, 1]; the indexed machinery is undefined elsewhere.
    """
    _require_depth(n, 1)
    _require_weight(v)
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"forward refinement requires v in [0, 1], got v={v!r}")
    lhs = young_lhs(a, b, v)
    rhs = weighted_geometric(a, b, v) + refinement_sum_s(v, b, a, n)
    return _report("sababheh-choi-forward", "", a, b, v, n, lhs, rhs, True, upper=False)


# ---------------------------------------------------------------------------
# Two-term reverse bound in lemma and four-window restatement forms
# ---------------------------------------------------------------------------

def gap_bound_zw_lemma(a: float, b: float, v: float) -> float:
    sa, sb = math.sqrt(a), math.sqrt(b)
    quarter = math.exp(0.25 * (math.log(a) + math.log(b)))
    r = min(v, 1.0 - v)
    r0 = min(2.0 * r, 1.0 - 2.0 * r)
    if v <= 0.5:
        return (1.0 - v) * (sa - sb) ** 2 - r0 * (sb - quarter) ** 2
    return v * (sa - sb) ** 2 - r0 * (sa - quarter) ** 2


def gap_bound_zw_proposition(a: float, b: float, v: float) -> float:
    sa, sb = math.sqrt(a), math.sqrt(b)
    quarter = math.exp(0.25 * (math.log(a) + math.log(b)))
    if v <= 0.25:
        return (1.0 - v) * (sa - sb) ** 2 + (-2.0 * v) * (sb - quarter) ** 2
    if v <= 0.5:
        return (1.0 - v) * (sa - sb) ** 2 + (2.0 * v - 1.0) * (sb - quarter) ** 2
    if v <= 0.75:
        return v * (sa - sb) ** 2 + (-(2.0 * v - 1.0)) * (sa - quarter) ** 2
    return v * (sa - sb) ** 2 + (2.0 * v - 2.0) * (sa - quarter) ** 2


def zhao_wu_reverse(a: float, b: float, v: float, form: str = "lemma") -> BoundReport:
    """Two-term reverse bound on v in [0, 1].

    ``form="lemma"`` uses the min-coefficient r0 = min(2r, 1-2r) with two
    branches split at v = 1/2; ``form="proposition"`` spells out the four
    windows [0,1/4], [1/4,1/2], [1/2,3/4], [3/4,1] with explicit signed
    coefficients.  The two forms agree identically (bit for bit) on [0, 1];
    outside [0, 1] the nearest window is used and the hypothesis flag is
    false.
    """
    _require_weight(v)
    lhs = young_lhs(a, b, v)
    geo = weighted_geometric(a, b, v)
    if form == "lemma":
        rhs = geo + gap_bound_zw_lemma(a, b, v)
    elif form == "proposition":
        rhs = geo + gap_bound_zw_proposition(a, b, v)
    else:
        raise DomainError(f"form must be 'lemma' or 'proposition', got {form!r}")
    return _report("zhao-wu-reverse", form, a, b, v, None, lhs, rhs,
                   0.0 <= v <= 1.0, upper=True)


# ---------------------------------------------------------------------------
# Extended one-sided refinement (widened weight windows)
# ---------------------------------------------------------------------------

def gap_bound_extended_sc(a: float, b: float, v: float, n: int) -> float:
    """Branch-i correction v * sum_{k=1..n} 2^(k-1) a ((b/a)^(1/2^k) - 1)^2."""
    lr = math.log(b) - math.log(a)
    total = 0.0
    for k in range(1, n + 1):
        d = math.expm1(lr / 2.0 ** k)
        total += 2.0 ** (k - 1) * a * d * d
    return v * total


def theorem_extended_sc(a: float, b: float, v: float, n: int, branch: str) -> BoundReport:
    """One-sided n-term reverse bound with widened weight range.

    Branch "i" holds for v outside [0, 1/2^n]; branch "ii" is the exact
    mirror under (a, b, v) -> (b, a, 1-v) and holds for v outside
    [(2^n-1)/2^n, 1].
    """
    _require_depth(n, 1)
    if branch == "ii":
        return _mirrored(theorem_extended_sc(b, a, 1.0 - v, n, "i"), a, b, v)
    _require_branch(branch)
    lhs = young_lhs(a, b, v)
    rhs = weighted_geometric(a, b, v) + gap_bound_extended_sc(a, b, v, n)
    return _report("theorem-extended-sc", "i", a, b, v, n, lhs, rhs,
                   _outside(v, window_sc_low(n)), upper=True)


# ---------------------------------------------------------------------------
# Heinz-mean reverse corollaries
# ---------------------------------------------------------------------------

def heinz_reverse_main(a: float, b: float, v: float, n: int, branch: str) -> BoundReport:
    """Reverse Heinz bound with the symmetrized dyadic-root correction.

    lhs = (a+b)/2, rhs = H_v(a,b) + (1-v)(sqrt a - sqrt b)^2
        + (v - 1/2) sqrt(ab) sum_{k=2..n} 2^(k-2) [((a/b)^(1/2^k)-1)^2
                                                   + ((b/a)^(1/2^k)-1)^2]
    for branch "i" (v outside [1/2, (2^(n-1)+1)/2^n]); branch "ii" is the
    exact mirror under (a, b, v) -> (b, a, 1-v).  Requires n >= 2.
    """
    _require_depth(n, 2)
    if branch == "ii":
        return _mirrored(heinz_reverse_main(b, a, 1.0 - v, n, "i"), a, b, v)
    _require_branch(branch)
    _require_pair(a, b)
    _require_weight(v)
    la, lb = math.log(a), math.log(b)
    lr = lb - la
    total = 0.0
    for k in range(2, n + 1):
        d1 = math.expm1(-lr / 2.0 ** k)
        d2 = math.expm1(lr / 2.0 ** k)
        total += 2.0 ** (k - 2) * (d1 * d1 + d2 * d2)
    lhs = 0.5 * (a + b)
    rhs = (heinz_scalar(a, b, v) + (1.0 - v) * (math.sqrt(a) - math.sqrt(b)) ** 2
           + (v - 0.5) * math.exp(0.5 * (la + lb)) * total)
    return _report("heinz-reverse-main", "i", a, b, v, n, lhs, rhs,
                   _outside(v, window_dyadic_high(n)), upper=True)


def heinz_reverse_sc(a: float, b: float, v: float, n: int, branch: str) -> BoundReport:
    """Reverse Heinz bound from the one-sided family, symmetrized over both
    operand orders.

    Branch "i": lhs = (a+b)/2,
    rhs = H_v(a,b) + v sum_{k=1..n} 2^(k-2) [a((b/a)^(1/2^k)-1)^2
                                             + b((a/b)^(1/2^k)-1)^2],
    for v outside [0, 1/2^n]; branch "ii" is the exact mirror under
    (a, b, v) -> (b, a, 1-v), for v outside [(2^n-1)/2^n, 1].
    """
    _require_depth(n, 1)
    if branch == "ii":
        return _mirrored(heinz_reverse_sc(b, a, 1.0 - v, n, "i"), a, b, v)
    _require_branch(branch)
    _require_pair(a, b)
    _require_weight(v)
    lr = math.log(b) - math.log(a)
    total = 0.0
    for k in range(1, n + 1):
        d1 = math.expm1(lr / 2.0 ** k)
        d2 = math.expm1(-lr / 2.0 ** k)
        total += 2.0 ** (k - 2) * (a * d1 * d1 + b * d2 * d2)
    lhs = 0.5 * (a + b)
    rhs = heinz_scalar(a, b, v) + v * total
    return _report("heinz-reverse-sc", "i", a, b, v, n, lhs, rhs,
                   _outside(v, window_sc_low(n)), upper=True)


# ---------------------------------------------------------------------------
# Logarithmic limit of the dyadic roots
# ---------------------------------------------------------------------------

def log_limit_gap(a: float, b: float, n: int) -> float:
    """|2^n ((b/a)^(1/2^n) - 1) - ln(b/a)|, which decays like O(2^-n)."""
    _require_pair(a, b)
    _require_depth(n, 1)
    lr = math.log(b) - math.log(a)
    return abs(2.0 ** n * math.expm1(lr / 2.0 ** n) - lr)


def limit_inequality_slack(a: float, b: float, v: float) -> float:
    """Slack x - 1 - ln x at x = (b/a)^(v - 1/2); nonnegative for all real v."""
    _require_pair(a, b)
    _require_weight(v)
    lx = (v - 0.5) * (math.log(b) - math.log(a))
    return math.exp(lx) - 1.0 - lx


def fundamental_log_slack(x: float) -> float:
    """Slack x - 1 - ln x of the fundamental logarithm inequality, x > 0."""
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"x must be finite and > 0, got {x!r}")
    return x - 1.0 - math.log(x)


# ---------------------------------------------------------------------------
# Comparison polynomials
# ---------------------------------------------------------------------------

def comparison_poly_f(x: float, v: float) -> float:
    """Quintic (8v-4)x^5 + (3-8v)x^4 + (4-4v)x^2 + (4v-3).

    Nonnegative for x > 0 when v is in [3/4, 1]; vanishes at x = 1 for
    every v and factors as x^2 (x-1)^2 (2x+1) at v = 3/4.
    """
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"x must be finite and > 0, got {x!r}")
    _require_weight(v)
    return ((8.0 * v - 4.0) * x ** 5 + (3.0 - 8.0 * v) * x ** 4
            + (4.0 - 4.0 * v) * x ** 2 + (4.0 * v - 3.0))


def comparison_poly_g(x: float, v: float) -> float:
    """Sextic (4v-2)x^6 + (2-4v)x^5 + (2v-1)x^4 + (2-4v)x^3 + (2v-1).

    Nonnegative for x > 0 when v is in [3/4, 1]; vanishes at x = 1 and
    factors as (x-1)^2 (x^4 + x^3 + (3/2)x^2 + x + 1/2) at v = 3/4.
    """
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"x must be finite and > 0, got {x!r}")
    _require_weight(v)
    return ((4.0 * v - 2.0) * x ** 6 + (2.0 - 4.0 * v) * x ** 5
            + (2.0 * v - 1.0) * x ** 4 + (2.0 - 4.0 * v) * x ** 3
            + (2.0 * v - 1.0))


# ---------------------------------------------------------------------------
# Side-by-side gap-bound comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapBound:
    """One family's upper bound on (1-v)a + vb - a^(1-v) b^v."""

    label: str
    family: str
    branch: str
    n: Optional[int]
    value: float
    hypothesis_ok: bool

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ComparisonReport:
    """All applicable gap bounds at one point, in a common normalization.

    ``true_gap`` is the bounded quantity (1-v)a + vb - a^(1-v) b^v itself;
    ``dominance`` lists ordered pairs (tighter, looser, margin) over the
    hypothesis-valid bounds, where margin = looser - tighter >= 0.
    """

    a: float
    b: float
    v: float
    n: int
    true_gap: float
    bounds: tuple
    dominance: tuple

    def as_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "v": self.v,
            "n": self.n,
            "true_gap": self.true_gap,
            "bounds": [g.as_dict() for g in self.bounds],
            "dominance": [
                {"tighter": t, "looser": l, "margin": m} for (t, l, m) in self.dominance
            ],
        }


def compare_gap_bounds(a: float, b: float, v: float, n: int = 3) -> ComparisonReport:
    """Evaluate every applicable reverse bound at (a, b, v) in the common
    gap normalization and report pairwise dominance among valid bounds.

    Depths 2..n of the dyadic and indexed-refinement families are included
    alongside the one-term and two-term bounds.  Bounds whose formulas are
    undefined at v (the indexed family outside [0, 1]) are omitted.
    """
    _require_pair(a, b)
    _require_weight(v)
    _require_depth(n, 2)
    bounds: list[GapBound] = []

    sq = (math.sqrt(a) - math.sqrt(b)) ** 2
    bounds.append(GapBound("corollary-one-term/i", "corollary-one-term", "i", None,
                           v * sq, _outside(v, (0.0, 0.5))))
    bounds.append(GapBound("corollary-one-term/ii", "corollary-one-term", "ii", None,
                           (1.0 - v) * sq, _outside(v, (0.5, 1.0))))
    for d in range(2, n + 1):
        bounds.append(GapBound(f"theorem-main-reverse/i/n{d}", "theorem-main-reverse",
                               "i", d, gap_bound_main_reverse(a, b, v, d),
                               _outside(v, window_dyadic_high(d))))
        bounds.append(GapBound(f"theorem-main-reverse/ii/n{d}", "theorem-main-reverse",
                               "ii", d, gap_bound_main_reverse(b, a, 1.0 - v, d),
                               _outside(v, window_dyadic_low(d))))
    if 0.0 <= v <= 1.0:
        bounds.append(GapBound("zhao-wu-reverse/lemma", "zhao-wu-reverse", "lemma",
                               None, gap_bound_zw_lemma(a, b, v), True))
        bounds.append(GapBound("zhao-wu-reverse/proposition", "zhao-wu-reverse",
                               "proposition", None, gap_bound_zw_proposition(a, b, v),
                               True))
        for d in range(2, n + 1):
            if v <= 0.5:
                bounds.append(GapBound(f"lemma-sm-reverse/i/n{d}", "lemma-sm-reverse",
                                       "i", d, gap_bound_sm_reverse(a, b, v, d), True))
            if v >= 0.5:
                bounds.append(GapBound(f"lemma-sm-reverse/ii/n{d}", "lemma-sm-reverse",
                                       "ii", d, gap_bound_sm_reverse(b, a, 1.0 - v, d),
                                       True))

    true_gap = young_lhs(a, b, v) - weighted_geometric(a, b, v)
    valid = [g for g in bounds if g.hypothesis_ok]
    dominance = []
    for gi in valid:
        for gj in valid:
            if gi.label == gj.label:
                continue
            margin = gj.value - gi.value
            if margin >= 0.0:
                dominance.append((gi.label, gj.label, margin))
    values = [true_gap, *(g.value for g in bounds), *(m for _, _, m in dominance)]
    if not all(map(math.isfinite, values)):
        raise OverflowError(f"gap bounds at a={a!r}, b={b!r}, v={v!r} leave the "
                            f"floating-point range")
    return ComparisonReport(a, b, v, n, true_gap, tuple(bounds), tuple(dominance))
