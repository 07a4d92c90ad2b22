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

import inspect
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial, wraps
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

REL_TOL = 1e-9
"""Relative verdict tolerance: holds iff gap >= -REL_TOL * (|lhs| + |rhs|)."""

MAX_DEPTH = 30
"""Refinement depths beyond this produce pure rounding noise (2^-k roots)."""


class DomainError(ValueError):
    """Inputs outside a function's mathematical domain."""


def _shown(value) -> str:
    """repr(value), save that an int too long to print (sys.get_int_max_str_digits)
    shows as its bit length, also inside a list or tuple."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"
        text = ", ".join(map(_shown, value))  # a list or tuple holding such an int
        return f"[{text}]" if isinstance(value, list) else f"({text}{',' * (len(value) == 1)})"


def _finite(x) -> bool:
    """math.isfinite(x), False for an int past the float range, where it raises
    OverflowError; the checks of every evaluation inline it."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _require_pair(a: float, b: float) -> None:
    try:
        if math.isfinite(a) and math.isfinite(b) and a > 0.0 and b > 0.0:
            return
    except OverflowError:
        pass
    raise DomainError(f"operands must be finite and > 0, got a={_shown(a)}, b={_shown(b)}")


def _require_weight(v: float) -> None:
    try:
        if math.isfinite(v):
            return
    except OverflowError:
        pass
    raise DomainError(f"weight must be finite, got v={_shown(v)}")


def _require_positive(x: float) -> None:
    if not (_finite(x) and x > 0.0):
        raise DomainError(f"x must be finite and > 0, got {_shown(x)}")


def _named_overflow(fn: Callable) -> Callable:
    """fn, raising an OverflowError that names fn and its point, in
    _young's form, where fn's value leaves the floating-point range: by
    an OverflowError of the arithmetic or by an infinite or NaN result."""

    @wraps(fn)
    def ranged(*args, **kwargs):
        try:
            value = fn(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
        point = inspect.signature(fn).bind(*args, **kwargs).arguments.items()
        raise OverflowError(f"{fn.__name__}: value at "
                            f"{', '.join(f'{k}={x!r}' for k, x in point)} "
                            f"leaves the floating-point range")

    return ranged


def _require_point(a: float, b: float, v: float) -> None:
    _require_pair(a, b)
    _require_weight(v)


def _require_depth(n: int, minimum: int = 1) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"depth must be an integer, got n={n!r}")
    if n < minimum or n > MAX_DEPTH:
        raise DomainError(f"depth must satisfy {minimum} <= n <= {MAX_DEPTH}, got n={_shown(n)}")


class BoundReport(NamedTuple):
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

    @property
    def tol(self) -> float:
        """The verdict tolerance: the report holds iff gap >= -tol."""
        return _tol(self.lhs, self.rhs)

    def as_dict(self) -> dict:
        return self._asdict()


def _tol(lhs: float, rhs: float) -> float:
    """BoundReport.tol of a report with sides lhs and rhs."""
    return REL_TOL * (abs(lhs) + abs(rhs))


def _report(fam, branch, a, b, v, n, lhs, rhs, upper, mirrored=False):
    """The report at (a, b, v) of lhs against rhs, evaluated at (a, b, v) or,
    ``mirrored``, at (b, a, 1 - v) as branch i: the one mirror rule of every
    branch-ii bound.  An overflowing gap names the point evaluated; the
    hypothesis flag is fam's rule for the branch at the caller's v, mirrored
    or not.  The verdict reads the expression of ``BoundReport.tol``, and the
    report is built once, its verdict in place.
    """
    gap = (rhs - lhs) if upper else (lhs - rhs)
    if not math.isfinite(gap):
        x, y, w = (b, a, 1.0 - v) if mirrored else (a, b, v)
        raise OverflowError(f"{fam.key}: gap {gap!r} at a={x!r}, b={y!r}, v={w!r} "
                            f"leaves the floating-point range")
    hyp = fam.hypothesis(branch, v, n)
    # tol >= 0, so only a negative gap needs it
    holds = gap >= 0.0 or gap >= -_tol(lhs, rhs)
    return tuple.__new__(BoundReport, (fam.key, branch, a, b, v, n, lhs, rhs, gap, hyp, holds))


# ---------------------------------------------------------------------------
# Elementary means
# ---------------------------------------------------------------------------

# The unchecked forms below serve evaluators that have checked their
# arguments once already.

def _young(a, b, v):
    lhs = (1.0 - v) * a + v * b
    if not math.isfinite(lhs):
        raise OverflowError(f"weighted arithmetic mean at a={a!r}, b={b!r}, v={v!r} "
                            f"leaves the floating-point range")
    return lhs


def _geometric(a, b, v):
    return math.exp((1.0 - v) * math.log(a) + v * math.log(b))


def _heinz(la, lb, v):
    """The Heinz mean at v of the operands with logs la and lb."""
    return 0.5 * (math.exp((1.0 - v) * la + v * lb) + math.exp(v * la + (1.0 - v) * lb))


def young_lhs(a: float, b: float, v: float) -> float:
    """Weighted arithmetic mean (1-v)*a + v*b."""
    _require_point(a, b, v)
    return _young(a, b, v)


@_named_overflow
def weighted_geometric(a: float, b: float, v: float) -> float:
    """Weighted geometric mean a^(1-v) * b^v, via exp/log for any real v."""
    _require_point(a, b, v)
    return _geometric(a, b, v)


@_named_overflow
def heinz_scalar(a: float, b: float, v: float) -> float:
    """Heinz mean (a^(1-v) b^v + a^v b^(1-v)) / 2; symmetric in v <-> 1-v."""
    _require_point(a, b, v)
    return _heinz(math.log(a), math.log(b), v)


# ---------------------------------------------------------------------------
# Hypothesis windows (closed intervals, exact floating comparison) and the
# family record, scalar and operator, that names them
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


BRANCHES = ("i", "ii")


@dataclass(frozen=True)
class Family:
    """One bound family, scalar or operator: the one place its suite rows,
    CLI entry, least depth and hypothesis window come from.

    ``window`` is branch i's (lo, hi) or a function of the depth; branch ii
    takes its mirror (see ``bounds``), a form or "" branch takes it as is.
    The suite samples its complement for an "outside" ``kind`` and the
    window for an "inside" one.  ``probe`` lists the boundary-probe weights
    (None: the window endpoints); coverage counts the evaluator's name,
    ``ops`` and the table's base means.
    """

    key: str
    evaluate: Callable
    branches: tuple
    min_depth: Optional[int]  # None: the family takes no depth
    kind: str
    window: Union[tuple, Callable]
    name: Optional[str] = None
    probe: Optional[tuple] = None
    ops: tuple = ()
    # (branch, n) -> bounds(branch, n), filled as hypothesis meets them
    _spans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def bounds(self, branch: str, n: Optional[int]) -> tuple[float, float]:
        """The branch's window at depth n; branch ii's is the image (1 - hi,
        1 - lo) under (a, b, v) -> (b, a, 1 - v), exact up to MAX_DEPTH."""
        lo, hi = self.window(n) if callable(self.window) else self.window
        return (1.0 - hi, 1.0 - lo) if branch == "ii" else (lo, hi)

    def hypothesis(self, branch: str, v: float, n: Optional[int]) -> bool:
        """Whether v is inside the branch's depth-n window ("inside") or outside
        it; for an array of weights, the flag of each."""
        key = (branch, n)
        span = self._spans.get(key)
        if span is None:
            span = self._spans[key] = self.bounds(branch, n)
        lo, hi = span
        return ((lo <= v) & (v <= hi)) == (self.kind == "inside")


def _check(key: str, n: Optional[int], branch: str) -> Family:
    """Scalar family key's record, once n and the branch (or form) fit it."""
    fam = SCALAR_BY_KEY[key]
    if fam.min_depth is not None:
        _require_depth(n, fam.min_depth)
    if branch not in fam.branches:
        word = "branch" if fam.branches == BRANCHES else "form"
        raise DomainError(f"{word} must be {' or '.join(map(repr, fam.branches))}, got {branch!r}")
    return fam


def _branch_point(key: str, a: float, b: float, v: float, n: int, branch: str) -> tuple:
    """A root-sum family's record and the point branch i's formula reads, (a, b, v)
    or branch ii's mirror (b, a, 1 - v), once depth, branch and point are checked."""
    fam = _check(key, n, branch)
    _require_point(a, b, v)
    return (fam, b, a, 1.0 - v) if branch == "ii" else (fam, a, b, v)


# ---------------------------------------------------------------------------
# Basic reverse inequalities
# ---------------------------------------------------------------------------

def reverse_young_basic(a: float, b: float, v: float) -> BoundReport:
    """(1-v)a + vb <= a^(1-v) b^v, valid for v outside [0, 1].

    At v in {0, 1} the two sides coincide; the hypothesis flag is false
    there but the report is still evaluated.
    """
    _require_point(a, b, v)
    fam = SCALAR_BY_KEY["reverse-young-basic"]
    lhs = _young(a, b, v)
    return _report(fam, "", a, b, v, None, lhs, _geometric(a, b, v), True)


def corollary_one_term(a: float, b: float, v: float, branch: str) -> BoundReport:
    """One-term reverse bound: geometric mean plus v or (1-v) times (sqrt a - sqrt b)^2.

    Branch "i" adds v*(sqrt a - sqrt b)^2 and requires v outside [0, 1/2];
    branch "ii" adds (1-v)*(...)^2 and requires v outside [1/2, 1].
    """
    fam = _check("corollary-one-term", None, branch)
    _require_point(a, b, v)
    lhs = _young(a, b, v)
    sq = (math.sqrt(a) - math.sqrt(b)) ** 2
    rhs = _geometric(a, b, v) + (v if branch == "i" else 1.0 - v) * sq
    return _report(fam, branch, a, b, v, None, lhs, rhs, True)


# ---------------------------------------------------------------------------
# Main extended-range reverse bound (dyadic-root correction sum)
# ---------------------------------------------------------------------------

# The two root sums of every dyadic correction, over d_k = (b/a)^(1/2^k) - 1
# at lr = ln(b/a); a factor stays inside the sum, where it was stated.

def _root_sum(lr: float, n: int, first: int, c: float) -> float:
    """sum_{k=first..n} 2^(k-first) * c * d_k^2, empty for n < first."""
    total = 0.0
    for k in range(first, n + 1):
        d = math.expm1(lr / 2.0 ** k)
        total += 2.0 ** (k - first) * c * d * d
    return total


def _two_sided_root_sum(lr: float, n: int, first: int, p: float, q: float) -> float:
    """sum_{k=first..n} 2^(k-2) * (p * d_k^2 + q * e_k^2), e_k being d_k at a/b."""
    total = 0.0
    for k in range(first, n + 1):
        d = math.expm1(lr / 2.0 ** k)
        e = math.expm1(-lr / 2.0 ** k)
        total += 2.0 ** (k - 2) * (p * d * d + q * e * e)
    return total


def gap_bound_main_reverse(a: float, b: float, v: float, n: int) -> float:
    """Branch-i correction (1-v)(sqrt a - sqrt b)^2 + (2v-1) sqrt(ab) * tail(n)."""
    la, lb = math.log(a), math.log(b)
    sq = (math.sqrt(a) - math.sqrt(b)) ** 2
    return ((1.0 - v) * sq
            + (2.0 * v - 1.0) * math.exp(0.5 * (la + lb)) * _root_sum(lb - la, n, 2, 1.0))


def theorem_main_reverse(a: float, b: float, v: float, n: int, branch: str) -> BoundReport:
    """Extended-range reverse bound with an n-term dyadic-root correction.

    Branch "i" holds for v outside [1/2, (2^(n-1)+1)/2^n]; branch "ii" is
    the exact image of branch "i" under (a, b, v) -> (b, a, 1-v) and holds
    for v outside [(2^(n-1)-1)/2^n, 1/2].  With n = 1 the tail sum is
    empty and branch "i" coincides with the one-term bound, branch "ii".
    """
    fam, x, y, w = _branch_point("theorem-main-reverse", a, b, v, n, branch)
    lhs = _young(x, y, w)
    rhs = _geometric(x, y, w) + gap_bound_main_reverse(x, y, w, n)
    return _report(fam, branch, a, b, v, n, lhs, rhs, True, branch == "ii")


# ---------------------------------------------------------------------------
# Indexed refinement machinery
# ---------------------------------------------------------------------------

class RefinementIndex(NamedTuple):
    k: int
    j: int
    r: int
    s: float


def _require_unit_weight(v: float) -> None:
    _require_weight(v)
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"refinement indices require v in [0, 1], got v={v!r}")


def _indices(v: float, k: int) -> tuple:
    """(j_k, r_k, s_k) of sababheh_indices, unchecked; _refinement_sum reads it too."""
    half = 2.0 ** (k - 1)
    j = math.floor(half * v)
    r = math.floor(2.0 ** k * v)
    sign = -1.0 if r % 2 else 1.0
    return j, r, sign * half * v - sign * ((r + 1) // 2)


def sababheh_indices(v: float, k: int) -> RefinementIndex:
    """Indices j_k = floor(2^(k-1) v), r_k = floor(2^k v) and the alternating
    coefficient s_k = (-1)^r_k 2^(k-1) v + (-1)^(r_k+1) floor((r_k+1)/2),
    for v in [0, 1] only."""
    _require_unit_weight(v)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1 or k > 2 * MAX_DEPTH:
        raise DomainError(f"index level must satisfy 1 <= k <= {2 * MAX_DEPTH}, got {_shown(k)}")
    return RefinementIndex(k, *_indices(v, k))


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
    _require_unit_weight(v)
    return _refinement_sum(v, a, b, n)


def _refinement_sum(v: float, a: float, b: float, n: int) -> float:
    """refinement_sum_s for arguments its caller has checked."""
    dl = math.log(a) - math.log(b)
    total = 0.0
    for k in range(1, n + 1):
        j, _, s = _indices(v, k)
        scale = 2.0 ** k
        q1 = math.exp(dl * (j / scale))
        q2 = math.exp(dl * ((j + 1) / scale))
        total += s * b * (q1 - q2) ** 2
    return total


def gap_bound_sm_reverse(a: float, b: float, v: float, n: int) -> float:
    """Branch-i correction (1-v)(sqrt a - sqrt b)^2 - S_n(2v, sqrt(ab), b)."""
    sq = (math.sqrt(a) - math.sqrt(b)) ** 2
    groot = math.exp(0.5 * (math.log(a) + math.log(b)))
    return (1.0 - v) * sq - _refinement_sum(2.0 * v, groot, b, n)


def lemma_sm_reverse(a: float, b: float, v: float, n: int, branch: str) -> BoundReport:
    """Indexed-refinement reverse bound.

    Branch "i" requires v in [0, 1/2] (its inner weight 2v must lie in
    [0, 1]); branch "ii" is the exact mirror under (a, b, v) -> (b, a, 1-v)
    and requires v in [1/2, 1].  Outside those windows the refinement sum
    is undefined and a DomainError is raised.
    """
    fam = _check("lemma-sm-reverse", n, branch)
    _require_weight(v)
    if not fam.hypothesis(branch, v, n):
        window = "[0, 1/2]" if branch == "i" else "[1/2, 1]"
        raise DomainError(f"branch {branch} requires v in {window}, got v={v!r}")
    _require_pair(a, b)
    x, y, w = (b, a, 1.0 - v) if branch == "ii" else (a, b, v)
    lhs = _young(x, y, w)
    rhs = _geometric(x, y, w) + gap_bound_sm_reverse(x, y, w, n)
    return _report(fam, branch, a, b, v, n, lhs, rhs, True, branch == "ii")


# ---------------------------------------------------------------------------
# Forward refinements
# ---------------------------------------------------------------------------

def kittaneh_manasrah(a: float, b: float, v: float) -> BoundReport:
    """One-term forward refinement with r0 = min(v, 1-v); valid on v in [0, 1]."""
    _require_point(a, b, v)
    fam = SCALAR_BY_KEY["kittaneh-manasrah"]
    lhs = _young(a, b, v)
    r0 = min(v, 1.0 - v)
    rhs = _geometric(a, b, v) + r0 * (math.sqrt(a) - math.sqrt(b)) ** 2
    return _report(fam, "", a, b, v, None, lhs, rhs, False)


def zhao_wu_forward(a: float, b: float, v: float) -> BoundReport:
    """Two-term forward refinement; the branch is selected by the weight.

    For v <= 1/2 the second term is r0*(sqrt a - (ab)^(1/4))^2 with
    r0 = min(2v, 1-2v); the v >= 1/2 side is the mirror image under
    (a, b, v) -> (b, a, 1-v).  Both branches coincide at v = 1/2.
    """
    _require_weight(v)
    _require_pair(a, b)
    fam = SCALAR_BY_KEY["zhao-wu-forward"]
    mirrored = v > 0.5
    x, y, w = (b, a, 1.0 - v) if mirrored else (a, b, v)
    lhs = _young(x, y, w)
    r = min(w, 1.0 - w)
    r0 = min(2.0 * r, 1.0 - 2.0 * r)
    quarter = math.exp(0.25 * (math.log(x) + math.log(y)))
    rhs = (_geometric(x, y, w) + w * (math.sqrt(x) - math.sqrt(y)) ** 2
           + r0 * (math.sqrt(x) - quarter) ** 2)
    return _report(fam, "", a, b, v, None, lhs, rhs, False, mirrored)


def sababheh_choi_forward(a: float, b: float, v: float, n: int) -> BoundReport:
    """Complete n-term forward refinement built from the indexed sum.

    Requires v in [0, 1]; the indexed machinery is undefined elsewhere.
    """
    fam = _check("sababheh-choi-forward", n, "")
    _require_weight(v)
    if not fam.hypothesis("", v, n):
        raise DomainError(f"forward refinement requires v in [0, 1], got v={v!r}")
    _require_pair(a, b)
    lhs = _young(a, b, v)
    rhs = _geometric(a, b, v) + _refinement_sum(v, b, a, n)
    return _report(fam, "", a, b, v, n, lhs, rhs, False)


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
    _require_pair(a, b)
    lhs = _young(a, b, v)
    geo = _geometric(a, b, v)
    fam = _check("zhao-wu-reverse", None, form)
    gap_bound = gap_bound_zw_lemma if form == "lemma" else gap_bound_zw_proposition
    return _report(fam, form, a, b, v, None, lhs, geo + gap_bound(a, b, v), True)


# ---------------------------------------------------------------------------
# Extended one-sided refinement (widened weight windows)
# ---------------------------------------------------------------------------

def gap_bound_extended_sc(a: float, b: float, v: float, n: int) -> float:
    """Branch-i correction v * sum_{k=1..n} 2^(k-1) a ((b/a)^(1/2^k) - 1)^2."""
    return v * _root_sum(math.log(b) - math.log(a), n, 1, a)


def theorem_extended_sc(a: float, b: float, v: float, n: int, branch: str) -> BoundReport:
    """One-sided n-term reverse bound with widened weight range.

    Branch "i" holds for v outside [0, 1/2^n]; branch "ii" is the exact
    mirror under (a, b, v) -> (b, a, 1-v) and holds for v outside
    [(2^n-1)/2^n, 1].
    """
    fam, x, y, w = _branch_point("theorem-extended-sc", a, b, v, n, branch)
    lhs = _young(x, y, w)
    rhs = _geometric(x, y, w) + gap_bound_extended_sc(x, y, w, n)
    return _report(fam, branch, a, b, v, n, lhs, rhs, True, branch == "ii")


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
    fam, x, y, w = _branch_point("heinz-reverse-main", a, b, v, n, branch)
    la, lb = math.log(x), math.log(y)
    lhs = 0.5 * (x + y)
    rhs = (_heinz(la, lb, w) + (1.0 - w) * (math.sqrt(x) - math.sqrt(y)) ** 2
           + (w - 0.5) * math.exp(0.5 * (la + lb)) * _two_sided_root_sum(lb - la, n, 2, 1.0, 1.0))
    return _report(fam, branch, a, b, v, n, lhs, rhs, True, branch == "ii")


def heinz_reverse_sc(a: float, b: float, v: float, n: int, branch: str) -> BoundReport:
    """Reverse Heinz bound from the one-sided family, symmetrized over both
    operand orders.

    Branch "i": lhs = (a+b)/2,
    rhs = H_v(a,b) + v sum_{k=1..n} 2^(k-2) [a((b/a)^(1/2^k)-1)^2
                                             + b((a/b)^(1/2^k)-1)^2],
    for v outside [0, 1/2^n]; branch "ii" is the exact mirror under
    (a, b, v) -> (b, a, 1-v), for v outside [(2^n-1)/2^n, 1].
    """
    fam, x, y, w = _branch_point("heinz-reverse-sc", a, b, v, n, branch)
    la, lb = math.log(x), math.log(y)
    lhs = 0.5 * (x + y)
    rhs = _heinz(la, lb, w) + w * _two_sided_root_sum(lb - la, n, 1, x, y)
    return _report(fam, branch, a, b, v, n, lhs, rhs, True, branch == "ii")


# ---------------------------------------------------------------------------
# Logarithmic limit of the dyadic roots
# ---------------------------------------------------------------------------

def log_limit_gap(a: float, b: float, n: int) -> float:
    """|2^n ((b/a)^(1/2^n) - 1) - ln(b/a)|, which decays like O(2^-n)."""
    _require_pair(a, b)
    _require_depth(n, 1)
    lr = math.log(b) - math.log(a)
    return abs(2.0 ** n * math.expm1(lr / 2.0 ** n) - lr)


@_named_overflow
def limit_inequality_slack(a: float, b: float, v: float) -> float:
    """Slack x - 1 - ln x at x = (b/a)^(v - 1/2); nonnegative for all real v."""
    _require_point(a, b, v)
    lx = (v - 0.5) * (math.log(b) - math.log(a))
    return math.exp(lx) - 1.0 - lx


def fundamental_log_slack(x: float) -> float:
    """Slack x - 1 - ln x of the fundamental logarithm inequality, x > 0."""
    _require_positive(x)
    return x - 1.0 - math.log(x)


# ---------------------------------------------------------------------------
# Comparison polynomials
# ---------------------------------------------------------------------------

@_named_overflow
def comparison_poly_f(x: float, v: float) -> float:
    """Quintic (8v-4)x^5 + (3-8v)x^4 + (4-4v)x^2 + (4v-3).

    Nonnegative for x > 0 when v is in [3/4, 1]; vanishes at x = 1 for
    every v and factors as x^2 (x-1)^2 (2x+1) at v = 3/4.
    """
    _require_positive(x)
    _require_weight(v)
    return ((8.0 * v - 4.0) * x ** 5 + (3.0 - 8.0 * v) * x ** 4
            + (4.0 - 4.0 * v) * x ** 2 + (4.0 * v - 3.0))


@_named_overflow
def comparison_poly_g(x: float, v: float) -> float:
    """Sextic (4v-2)x^6 + (2-4v)x^5 + (2v-1)x^4 + (2-4v)x^3 + (2v-1).

    Nonnegative for x > 0 when v is in [3/4, 1]; vanishes at x = 1 and
    factors as (x-1)^2 (x^4 + x^3 + (3/2)x^2 + x + 1/2) at v = 3/4.
    """
    _require_positive(x)
    _require_weight(v)
    return ((4.0 * v - 2.0) * x ** 6 + (2.0 - 4.0 * v) * x ** 5
            + (2.0 * v - 1.0) * x ** 4 + (2.0 - 4.0 * v) * x ** 3
            + (2.0 * v - 1.0))


# ---------------------------------------------------------------------------
# Side-by-side gap-bound comparison
# ---------------------------------------------------------------------------

class GapBound(NamedTuple):
    """One family's upper bound on (1-v)a + vb - a^(1-v) b^v."""

    label: str
    family: str
    branch: str
    n: Optional[int]
    value: float
    hypothesis_ok: bool

    def as_dict(self) -> dict:
        return self._asdict()


class ComparisonReport(NamedTuple):
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
        return {**self._asdict(), "bounds": [g.as_dict() for g in self.bounds],
                "dominance": [{"tighter": t, "looser": l, "margin": m}
                              for (t, l, m) in self.dominance]}


@lru_cache(maxsize=None)  # n is checked first: at most MAX_DEPTH - 1 tables
def _gap_slots(n: int) -> dict:
    """label -> (label, lo, hi, inside, bound, (label, family, branch, depth))
    of each bound gap_bounds lists at depth n, in order: bound(a, b, v) is
    the branch-i gap bound at its depth, or for branch ii that bound at
    (b, a, 1 - v), and [lo, hi] is the window Family.hypothesis reads."""
    one, main, zw, sm = (SCALAR_BY_KEY[key] for key in (
        "corollary-one-term", "theorem-main-reverse", "zhao-wu-reverse", "lemma-sm-reverse"))
    depths = range(2, n + 1)
    one_term = lambda a, b, v: v * (math.sqrt(a) - math.sqrt(b)) ** 2
    rows = ([(one, branch, None, one_term) for branch in BRANCHES]
            + [(main, branch, d, gap_bound_main_reverse) for d in depths for branch in BRANCHES]
            + [(zw, "lemma", None, gap_bound_zw_lemma),
               (zw, "proposition", None, gap_bound_zw_proposition)]
            + [(sm, branch, d, gap_bound_sm_reverse) for d in depths for branch in BRANCHES])
    table = {}
    for fam, branch, d, fn in rows:
        label = f"{fam.key}/{branch}" if d is None else f"{fam.key}/{branch}/n{d}"
        if d is not None:  # one call a bound, fn and d bound now, not at the loop's end
            fn = ((lambda a, b, v, f=fn, d=d: f(b, a, 1.0 - v, d)) if branch == "ii"
                  else (lambda a, b, v, f=fn, d=d: f(a, b, v, d)))
        elif branch == "ii":
            fn = lambda a, b, v, f=fn: f(b, a, 1.0 - v)
        table[label] = (label, *fam.bounds(branch, d), fam.kind == "inside", fn,
                        (label, fam.key, branch, d))
    return table


def _require_finite_gaps(a, b, v, values) -> None:
    if not all(map(math.isfinite, values)):
        raise OverflowError(f"gap bounds at a={a!r}, b={b!r}, v={v!r} leave the "
                            f"floating-point range")


def gap_bounds(a: float, b: float, v: float, n: int = 3) -> tuple:
    """The true gap (1-v)a + vb - a^(1-v) b^v at (a, b, v) and, as a list of
    (label, value, hypothesis_ok), every bound compare_gap_bounds lists there.

    A branch-ii bound is its branch-i formula at (b, a, 1-v).  A bound that
    holds outside a window is listed at every v; one that holds inside it
    (the two-term and indexed bounds) only there, where the indexed
    formulas are defined.
    """
    _require_point(a, b, v)
    _require_depth(n, 2)
    bounds, values = [], []
    for label, lo, hi, inside, bound, _ in _gap_slots(n).values():
        ok = (lo <= v <= hi) == inside  # Family.hypothesis, its window read once
        if ok or not inside:
            values.append(value := bound(a, b, v))
            bounds.append((label, value, ok))
    true_gap = _young(a, b, v) - _geometric(a, b, v)
    _require_finite_gaps(a, b, v, [true_gap, *values])
    return true_gap, bounds


def compare_gap_bounds(a: float, b: float, v: float, n: int = 3) -> ComparisonReport:
    """Evaluate every applicable reverse bound at (a, b, v) in the common
    gap normalization (see gap_bounds) and report pairwise dominance among
    valid bounds: depths 2..n of the dyadic and indexed-refinement families
    alongside the one-term and two-term bounds."""
    true_gap, listed = gap_bounds(a, b, v, n)
    valid = [(label, value) for label, value, ok in listed if ok]
    dominance = [(tighter, looser, margin)
                 for tighter, low in valid for looser, high in valid
                 if tighter != looser and (margin := high - low) >= 0.0]
    _require_finite_gaps(a, b, v, [m for _, _, m in dominance])
    slots = _gap_slots(n)
    bounds = tuple(GapBound(*slots[label][-1], value, ok) for label, value, ok in listed)
    return ComparisonReport(a, b, v, n, true_gap, bounds, tuple(dominance))


# ---------------------------------------------------------------------------
# Row pass: every family's formula on arrays of points
# ---------------------------------------------------------------------------

# The evaluators' formulas on numpy arrays, operation for operation, each with
# its error scale M: the sum of the absolute values of the terms the formula
# adds, an exp or expm1 term weighted by 1 + the absolute sum of its argument's
# summands (an ulp of ln a is multiplied by |w| before exp).  numpy's exp, expm1
# and log may differ from math's in the last bit; delta = PASS_REL_ERROR * M.
PASS_REL_ERROR = 2.0 ** -40
PASS_SCALE_MAX = 2.0 ** 1000  # the largest M at which a suite reads a row_gaps gap


def _np_means(x, y, w):
    """_young and _geometric at arrays (x, y, w), and their part of M."""
    s, t = (1.0 - w) * np.log(x), w * np.log(y)
    p, q = (1.0 - w) * x, w * y
    geo = np.exp(s + t)
    return p + q, geo, abs(p) + abs(q) + geo * (1.0 + abs(s) + abs(t))


def _np_heinz(x, y, w):
    """The lhs (x + y) / 2 and _heinz at arrays (x, y, w), and their part of M."""
    la, lb = np.log(x), np.log(y)
    s1, t1, s2, t2 = (1.0 - w) * la, w * lb, w * la, (1.0 - w) * lb
    e1, e2 = np.exp(s1 + t1), np.exp(s2 + t2)
    return (0.5 * (x + y), 0.5 * (e1 + e2), 0.5 * (x + y)
            + 0.5 * (e1 * (1.0 + abs(s1) + abs(t1)) + e2 * (1.0 + abs(s2) + abs(t2))))


def _np_root(x, y, power: float):
    """exp(power * (ln x + ln y)) at arrays, and its weight in M."""
    lx, ly = np.log(x), np.log(y)
    return np.exp(power * (lx + ly)), 1.0 + power * (abs(lx) + abs(ly))


def _np_depth_sum(k, n, terms, sizes) -> tuple:
    """Column sums of terms and sizes over the rows k <= each column's depth n."""
    on = k <= n
    return np.where(on, terms, 0.0).sum(axis=0), np.where(on, sizes, 0.0).sum(axis=0)


def _np_root_sum(x, y, n, first: int, p, q=None) -> tuple:
    """_root_sum (q None: c = p) or _two_sided_root_sum at arrays, at lr = ln y - ln x."""
    lx, ly = np.log(x), np.log(y)
    k = np.arange(first, int(n.max()) + 1)[:, None]
    d, weight = np.expm1((ly - lx) / 2.0 ** k), 1.0 + (abs(lx) + abs(ly)) / 2.0 ** k
    if q is None:
        terms = 2.0 ** (k - first) * p * d * d
        return _np_depth_sum(k, n, terms, abs(terms) * weight)
    e = np.expm1(-(ly - lx) / 2.0 ** k)
    pd, qe = p * d * d, q * e * e
    return _np_depth_sum(k, n, 2.0 ** (k - 2) * (pd + qe),
                         2.0 ** (k - 2) * (abs(pd) + abs(qe)) * weight)


def _np_refinement_sum(v, a, b, n) -> tuple:
    """_refinement_sum at arrays, _indices read elementwise."""
    la, lb = np.log(a), np.log(b)
    dl, spread = la - lb, abs(la) + abs(lb)
    k = np.arange(1, int(n.max()) + 1)[:, None]
    half, scale = 2.0 ** (k - 1), 2.0 ** k
    j, r = np.floor(half * v), np.floor(scale * v)
    sign = np.where(r % 2, -1.0, 1.0)
    s = sign * half * v - sign * ((r + 1) // 2)
    terms = s * b * (np.exp(dl * (j / scale)) - np.exp(dl * ((j + 1) / scale))) ** 2
    return _np_depth_sum(k, n, terms, abs(terms) * (1.0 + spread * abs(j + 1) / scale))


# A form maps the point (x, y, w) that its family's formula reads, and the
# depths n, to the terms the rhs adds to the anchor mean, in order, and
# their part of M.

def _np_one_term(branch, x, y, w, n, r0):
    """The bound adding r0(branch, w) * (sqrt x - sqrt y)^2."""
    corr = r0(branch, w) * (np.sqrt(x) - np.sqrt(y)) ** 2
    return (corr,), abs(corr)


def _np_main(branch, x, y, w, n, heinz=False):
    """theorem-main-reverse, or heinz-reverse-main (two-sided, w - 1/2 for 2w - 1)."""
    lead = (1.0 - w) * (np.sqrt(x) - np.sqrt(y)) ** 2
    root, weight = _np_root(x, y, 0.5)
    g = ((w - 0.5) if heinz else (2.0 * w - 1.0)) * root
    tail, tail_m = _np_root_sum(x, y, n, 2, 1.0, 1.0 if heinz else None)
    return (lead, g * tail) if heinz else (lead + g * tail,), abs(lead) + abs(g) * weight * tail_m


def _np_sm(branch, x, y, w, n):
    lead = (1.0 - w) * (np.sqrt(x) - np.sqrt(y)) ** 2
    tail, tail_m = _np_refinement_sum(2.0 * w, _np_root(x, y, 0.5)[0], y, n)
    return (lead - tail,), abs(lead) + tail_m


def _np_sc_forward(branch, x, y, w, n):
    tail, tail_m = _np_refinement_sum(w, y, x, n)
    return (tail,), tail_m


def _np_zw_forward(branch, x, y, w, n):
    r = np.minimum(w, 1.0 - w)
    quarter, weight = _np_root(x, y, 0.25)
    one = w * (np.sqrt(x) - np.sqrt(y)) ** 2
    two = np.minimum(2.0 * r, 1.0 - 2.0 * r) * (np.sqrt(x) - quarter) ** 2
    return (one, two), abs(one) + abs(two) * weight


def _np_zw_reverse(form, x, y, w, n):
    quarter, weight = _np_root(x, y, 0.25)
    low = w <= 0.5
    one = np.where(low, 1.0 - w, w) * (np.sqrt(x) - np.sqrt(y)) ** 2
    if form == "lemma":  # one - r0 * two, as one + (-r0) * two
        r = np.minimum(w, 1.0 - w)
        coef = -np.minimum(2.0 * r, 1.0 - 2.0 * r)
    else:
        coef = np.select([w <= 0.25, low, w <= 0.75],
                         [-2.0 * w, 2.0 * w - 1.0, -(2.0 * w - 1.0)], 2.0 * w - 2.0)
    two = coef * np.where(low, np.sqrt(y) - quarter, np.sqrt(x) - quarter) ** 2
    return (one + two,), abs(one) + abs(two) * weight


def _np_extended_sc(branch, x, y, w, n, heinz=False):
    """theorem-extended-sc, or heinz-reverse-sc: its two-sided sum."""
    tail, tail_m = _np_root_sum(x, y, n, 1, x, y if heinz else None)
    return (w * tail,), abs(w) * tail_m


def row_gaps(key: str, branch: str, a, b, v, n=None) -> tuple:
    """lhs, rhs, oriented gap and error scale M of family ``key``'s branch (or
    form) at float64 arrays a, b, v and, if it takes a depth, int array n:
    the evaluator's formula, unchecked; a point outside its domain or range
    gets inf or NaN.  Where all four are finite, the gap is within
    PASS_REL_ERROR * M of the evaluator's."""
    form, anchor, upper, mirror = _ROW_FORMS[key]
    with np.errstate(all="ignore"):
        flip = v > 0.5 if mirror == "v > 1/2" else mirror == "ii" and branch == "ii"
        x, y, w = np.where(flip, b, a), np.where(flip, a, b), np.where(flip, 1.0 - v, v)
        lhs, rhs, scale = anchor(x, y, w)
        terms, size = form(branch, x, y, w, n)
        for term in terms:
            rhs = rhs + term
        return lhs, rhs, (rhs - lhs) if upper else (lhs - rhs), scale + size


_INDEX_OPS = ("sababheh_indices", "refinement_sum_S")
# Every scalar family in suite order, read by the evaluators, the suite rows
# and the CLI: the one statement of its branches, least depth and window.
SCALAR_TABLE = (
    Family("reverse-young-basic", reverse_young_basic, ("",), None,
           "outside", (0.0, 1.0)),
    Family("corollary-one-term", corollary_one_term, BRANCHES, None,
           "outside", (0.0, 0.5)),
    Family("theorem-main-reverse", theorem_main_reverse, BRANCHES, 1,
           "outside", window_dyadic_high),
    Family("lemma-sm-reverse", lemma_sm_reverse, BRANCHES, 1,
           "inside", (0.0, 0.5), probe=(0.5,), ops=_INDEX_OPS),
    Family("kittaneh-manasrah", kittaneh_manasrah, ("",), None,
           "inside", (0.0, 1.0)),
    Family("zhao-wu-forward", zhao_wu_forward, ("",), None,
           "inside", (0.0, 1.0)),
    Family("zhao-wu-reverse", zhao_wu_reverse, ("lemma", "proposition"), None,
           "inside", (0.0, 1.0), probe=()),
    Family("sababheh-choi-forward", sababheh_choi_forward, ("",), 1,
           "inside", (0.0, 1.0), ops=_INDEX_OPS),
    Family("theorem-extended-sc", theorem_extended_sc, BRANCHES, 1,
           "outside", window_sc_low),
    Family("heinz-reverse-main", heinz_reverse_main, BRANCHES, 2,
           "outside", window_dyadic_high, ops=("heinz_scalar",)),
    Family("heinz-reverse-sc", heinz_reverse_sc, BRANCHES, 1,
           "outside", window_sc_low, ops=("heinz_scalar",)),
)
SCALAR_BY_KEY = {family.key: family for family in SCALAR_TABLE}
# key: (row-pass form, anchor mean, upper bound, where the point is mirrored)
_ROW_FORMS = {
    "reverse-young-basic": (lambda *point: ((), 0.0), _np_means, True, ""),
    "corollary-one-term": (partial(_np_one_term, r0=lambda branch, w: (
        w if branch == "i" else 1.0 - w)), _np_means, True, ""),
    "theorem-main-reverse": (_np_main, _np_means, True, "ii"),
    "lemma-sm-reverse": (_np_sm, _np_means, True, "ii"),
    "kittaneh-manasrah": (partial(_np_one_term, r0=lambda branch, w: np.minimum(w, 1.0 - w)),
                          _np_means, False, ""),
    "zhao-wu-forward": (_np_zw_forward, _np_means, False, "v > 1/2"),
    "zhao-wu-reverse": (_np_zw_reverse, _np_means, True, ""),
    "sababheh-choi-forward": (_np_sc_forward, _np_means, False, ""),
    "theorem-extended-sc": (_np_extended_sc, _np_means, True, "ii"),
    "heinz-reverse-main": (partial(_np_main, heinz=True), _np_heinz, True, "ii"),
    "heinz-reverse-sc": (partial(_np_extended_sc, heinz=True), _np_heinz, True, "ii"),
}
