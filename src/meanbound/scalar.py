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
from dataclasses import dataclass
from functools import lru_cache, wraps
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
    OverflowError."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _require_pair(a: float, b: float) -> None:
    if not (_finite(a) and _finite(b) and a > 0.0 and b > 0.0):
        raise DomainError(f"operands must be finite and > 0, got a={_shown(a)}, b={_shown(b)}")


def _require_weight(v: float) -> None:
    if not _finite(v):
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


def _report(fam, branch, a, b, v, n, mirrored=False):
    """The report at (a, b, v) of fam's float body, whose overflowing gap names
    the point evaluated, (b, a, 1 - v) where ``mirrored``, flagged by fam's
    rule at v."""
    lhs, rhs, gap, _ = _BODIES[fam.key](_Floats, a, b, v, n, branch)
    if not math.isfinite(gap):
        x, y, w = _mirror(_Floats, mirrored, a, b, v)
        raise OverflowError(f"{fam.key}: gap {gap!r} at a={x!r}, b={y!r}, v={w!r} "
                            f"leaves the floating-point range")
    return BoundReport(fam.key, branch, a, b, v, n, lhs, rhs, gap,
                       fam.hypothesis(branch, v, n), gap >= -_tol(lhs, rhs))


# ---------------------------------------------------------------------------
# Two arithmetics for one body, and the elementary means
# ---------------------------------------------------------------------------

# Each family's formula is written once, as a body over a numeric context c:
# _Floats reads it at one point, _Arrays at arrays of points.  For arrays only
# (``c.arrays and ...``), a body also gives its part of the error scale M: the
# sum of the absolute values of the terms a formula adds, an exp or expm1 term
# weighted by 1 + the absolute sum of its argument's summands (an ulp of ln a
# is multiplied by |w| before exp), and a squared difference of such terms by
# the square of its own M, which keeps their error where they cancel (x near
# y).  numpy's exp, expm1 and log may differ from math's in the last bit, and
# x ** 2 from libm's pow; delta = PASS_REL_ERROR * M.
PASS_REL_ERROR = 2.0 ** -40
PASS_SCALE_MAX = 2.0 ** 1000  # the largest M at which a suite reads an array pass value


class _Floats:
    """One point: math's functions, Python's choices, a depth loop term by term."""

    arrays = False
    exp, expm1, log, sqrt, floor, minimum = (
        math.exp, math.expm1, math.log, math.sqrt, math.floor, min)
    where = staticmethod(lambda cond, x, y: x if cond else y)
    depths = range


class _Arrays:
    """Arrays of points: numpy's functions, elementwise choices, and a depth loop
    run once over the column k = first..max(n), whose rows fold sums to each n."""

    arrays = True
    exp, expm1, log, sqrt, floor, minimum, where = (
        np.exp, np.expm1, np.log, np.sqrt, np.floor, np.minimum, np.where)
    depths = staticmethod(lambda first, stop: (np.arange(first, int(np.max(stop)))[:, None],))

    @staticmethod
    def fold(k, n, *rows) -> tuple:
        return tuple(np.where(k <= n, row, 0.0).sum(axis=0) for row in rows)


def _mirror(c, flip, a, b, v) -> tuple:
    """(b, a, 1 - v) where flip holds, else (a, b, v): the one mirror rule."""
    return c.where(flip, b, a), c.where(flip, a, b), c.where(flip, 1.0 - v, v)


def _sides(c, x, y, w, upper, correction, arg=None, heinz=False) -> tuple:
    """lhs, rhs, oriented gap and M at (x, y, w) of the arithmetic mean against the geometric
    or, ``heinz``, Heinz mean plus the terms correction(c, x, y, w, arg) returns before its M."""
    if heinz:
        lhs = lhs_m = 0.5 * (x + y)
        mean, mean_m = _heinz(c, c.log(x), c.log(y), w)
    else:
        lhs, lhs_m = _young(c, x, y, w)
        mean, mean_m = _geometric(c, x, y, w)
    *terms, size = correction(c, x, y, w, arg)
    rhs = mean
    for term in terms:
        rhs = rhs + term
    return lhs, rhs, (rhs - lhs) if upper else (lhs - rhs), c.arrays and lhs_m + mean_m + size


def _young(c, a, b, v) -> tuple:
    """(1-v)a + vb and its part of M; a float mean past the range raises."""
    p, q = (1.0 - v) * a, v * b
    lhs = p + q
    if not (c.arrays or math.isfinite(lhs)):
        raise OverflowError(f"weighted arithmetic mean at a={a!r}, b={b!r}, v={v!r} "
                            f"leaves the floating-point range")
    return lhs, c.arrays and abs(p) + abs(q)


def _geometric(c, a, b, v) -> tuple:
    s, t = (1.0 - v) * c.log(a), v * c.log(b)
    geo = c.exp(s + t)
    return geo, c.arrays and geo * (1.0 + abs(s) + abs(t))


def _heinz(c, la, lb, v) -> tuple:
    """The Heinz mean at v of the operands with logs la and lb, and its part of M."""
    s1, t1, s2, t2 = (1.0 - v) * la, v * lb, v * la, (1.0 - v) * lb
    e1, e2 = c.exp(s1 + t1), c.exp(s2 + t2)
    return 0.5 * (e1 + e2), c.arrays and 0.5 * (e1 * (1.0 + abs(s1) + abs(t1))
                                                + e2 * (1.0 + abs(s2) + abs(t2)))


def young_lhs(a: float, b: float, v: float) -> float:
    """Weighted arithmetic mean (1-v)*a + v*b."""
    _require_point(a, b, v)
    return _young(_Floats, a, b, v)[0]


@_named_overflow
def weighted_geometric(a: float, b: float, v: float) -> float:
    """Weighted geometric mean a^(1-v) * b^v, via exp/log for any real v."""
    _require_point(a, b, v)
    return _geometric(_Floats, a, b, v)[0]


@_named_overflow
def heinz_scalar(a: float, b: float, v: float) -> float:
    """Heinz mean (a^(1-v) b^v + a^v b^(1-v)) / 2; symmetric in v <-> 1-v."""
    _require_point(a, b, v)
    return _heinz(_Floats, math.log(a), math.log(b), v)[0]


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

    def bounds(self, branch: str, n: Optional[int]) -> tuple[float, float]:
        """The branch's window at depth n; branch ii's is the image (1 - hi,
        1 - lo) under (a, b, v) -> (b, a, 1 - v), exact up to MAX_DEPTH."""
        lo, hi = self.window(n) if callable(self.window) else self.window
        return (1.0 - hi, 1.0 - lo) if branch == "ii" else (lo, hi)

    def hypothesis(self, branch: str, v: float, n: Optional[int]) -> bool:
        """Whether v is inside the branch's depth-n window ("inside") or outside
        it; for arrays of weights and depths, the flag of each."""
        lo, hi = self.bounds(branch, n)
        return ((lo <= v) & (v <= hi)) == (self.kind == "inside")


def _check(key: str, n: Optional[int], branch: str, *point) -> Family:
    """Scalar family key's record, once n, the branch (or form) and any point fit it."""
    fam = SCALAR_BY_KEY[key]
    if fam.min_depth is not None:
        _require_depth(n, fam.min_depth)
    if branch not in fam.branches:
        word = "branch" if fam.branches == BRANCHES else "form"
        raise DomainError(f"{word} must be {' or '.join(map(repr, fam.branches))}, got {branch!r}")
    if point:
        _require_point(*point)
    return fam


# ---------------------------------------------------------------------------
# Basic reverse inequalities
# ---------------------------------------------------------------------------

def _one_term(c, x, y, w, coef) -> tuple:
    """The correction term coef * (sqrt x - sqrt y)^2 and its part of M."""
    corr = coef * (c.sqrt(x) - c.sqrt(y)) ** 2
    return corr, c.arrays and abs(corr)


def reverse_young_basic(a: float, b: float, v: float) -> BoundReport:
    """(1-v)a + vb <= a^(1-v) b^v, valid for v outside [0, 1].

    At v in {0, 1} the two sides coincide; the hypothesis flag is false
    there but the report is still evaluated.
    """
    return _report(_check("reverse-young-basic", None, "", a, b, v), "", a, b, v, None)


def corollary_one_term(a: float, b: float, v: float, branch: str) -> BoundReport:
    """One-term reverse bound: geometric mean plus v or (1-v) times (sqrt a - sqrt b)^2.

    Branch "i" adds v*(sqrt a - sqrt b)^2 and requires v outside [0, 1/2];
    branch "ii" adds (1-v)*(...)^2 and requires v outside [1/2, 1].
    """
    return _report(_check("corollary-one-term", None, branch, a, b, v), branch, a, b, v, None)


# ---------------------------------------------------------------------------
# Main extended-range reverse bound (dyadic-root correction sum)
# ---------------------------------------------------------------------------

def _root_sum(c, lx, ly, n, first, p, q=None) -> tuple:
    """sum_{k=first..n} 2^(k-first) p d_k^2, or 2^(k-2) (p d_k^2 + q e_k^2) given q,
    over d_k = (y/x)^(1/2^k) - 1 and e_k, d_k at x/y, at logs lx and ly."""
    lr = ly - lx
    total = 0.0
    for k in c.depths(first, n + 1):
        d = c.expm1(lr / 2.0 ** k)
        if q is None:
            total += 2.0 ** (k - first) * p * d * d
        else:
            e = c.expm1(-lr / 2.0 ** k)
            total += 2.0 ** (k - 2) * (p * d * d + q * e * e)
    if not c.arrays:
        return total, False
    # the loop ran once, over the depth column: each row holds one depth's
    # term, whose d_k = e^z - 1 moves by (1 + d_k) (|lx| + |ly|) / 2^k
    spread = (abs(lx) + abs(ly)) / 2.0 ** k
    size = abs(p) * (abs(d) + (1.0 + d) * spread) ** 2
    if q is not None:
        size = size + abs(q) * (abs(e) + (1.0 + e) * spread) ** 2
    return c.fold(k, n, total, 2.0 ** (k - (first if q is None else 2)) * size)


def _dyadic(c, x, y, w, n, heinz=False) -> tuple:
    """gap_bound_main_reverse's correction or, ``heinz``, heinz-reverse-main's
    two terms, (w - 1/2) for 2w - 1 and the two-sided sum; and their M."""
    lx, ly = c.log(x), c.log(y)
    lead = (1.0 - w) * (c.sqrt(x) - c.sqrt(y)) ** 2
    g = ((w - 0.5) if heinz else (2.0 * w - 1.0)) * c.exp(0.5 * (lx + ly))
    tail, tail_m = _root_sum(c, lx, ly, n, 2, 1.0, 1.0 if heinz else None)
    size = c.arrays and abs(lead) + abs(g) * (1.0 + 0.5 * (abs(lx) + abs(ly))) * tail_m
    return (lead, g * tail, size) if heinz else (lead + g * tail, size)


def gap_bound_main_reverse(a: float, b: float, v: float, n: int) -> float:
    """Branch-i correction (1-v)(sqrt a - sqrt b)^2 + (2v-1) sqrt(ab) * tail(n)."""
    return _dyadic(_Floats, a, b, v, n)[0]


def theorem_main_reverse(a: float, b: float, v: float, n: int, branch: str) -> BoundReport:
    """Extended-range reverse bound with an n-term dyadic-root correction.

    Branch "i" holds for v outside [1/2, (2^(n-1)+1)/2^n]; branch "ii" is
    the exact image of branch "i" under (a, b, v) -> (b, a, 1-v) and holds
    for v outside [(2^(n-1)-1)/2^n, 1/2].  With n = 1 the tail sum is
    empty and branch "i" coincides with the one-term bound, branch "ii".
    """
    fam = _check("theorem-main-reverse", n, branch, a, b, v)
    return _report(fam, branch, a, b, v, n, branch == "ii")


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


def _indices(c, v, k) -> tuple:
    """(j_k, r_k, s_k) of sababheh_indices, unchecked; _refinement_sum reads it too."""
    half = 2.0 ** (k - 1)
    j = c.floor(half * v)
    r = c.floor(2.0 ** k * v)
    sign = 1.0 - 2.0 * (r % 2)  # (-1)^r_k
    return j, r, sign * half * v - sign * ((r + 1) // 2)


def sababheh_indices(v: float, k: int) -> RefinementIndex:
    """Indices j_k = floor(2^(k-1) v), r_k = floor(2^k v) and the alternating
    coefficient s_k = (-1)^r_k 2^(k-1) v + (-1)^(r_k+1) floor((r_k+1)/2),
    for v in [0, 1] only."""
    _require_unit_weight(v)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1 or k > 2 * MAX_DEPTH:
        raise DomainError(f"index level must satisfy 1 <= k <= {2 * MAX_DEPTH}, got {_shown(k)}")
    return RefinementIndex(k, *_indices(_Floats, v, k))


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
    return _refinement_sum(_Floats, v, a, b, n)[0]


def _refinement_sum(c, v, a, b, n) -> tuple:
    """refinement_sum_s for arguments its caller has checked, and its part of
    M, which weights the two roots of term k by 1 + (|ln a| + |ln b|) (|j_k| +
    1) / 2^k."""
    la, lb = c.log(a), c.log(b)
    dl = la - lb
    total = 0.0
    for k in c.depths(1, n + 1):
        j, _, s = _indices(c, v, k)
        scale = 2.0 ** k
        q1 = c.exp(dl * (j / scale))
        q2 = c.exp(dl * ((j + 1) / scale))
        total += s * b * (q1 - q2) ** 2
    if not c.arrays:
        return total, False
    spread = (abs(la) + abs(lb)) * (abs(j) + 1.0) / scale
    return c.fold(k, n, total, abs(s * b) * ((q1 + q2) * (1.0 + spread)) ** 2)


def _sm_correction(c, x, y, w, n) -> tuple:
    lead = (1.0 - w) * (c.sqrt(x) - c.sqrt(y)) ** 2
    tail, tail_m = _refinement_sum(c, 2.0 * w, c.exp(0.5 * (c.log(x) + c.log(y))), y, n)
    return lead - tail, c.arrays and abs(lead) + tail_m


def gap_bound_sm_reverse(a: float, b: float, v: float, n: int) -> float:
    """Branch-i correction (1-v)(sqrt a - sqrt b)^2 - S_n(2v, sqrt(ab), b)."""
    return _sm_correction(_Floats, a, b, v, n)[0]


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
    return _report(fam, branch, a, b, v, n, branch == "ii")


# ---------------------------------------------------------------------------
# Forward refinements
# ---------------------------------------------------------------------------

def kittaneh_manasrah(a: float, b: float, v: float) -> BoundReport:
    """One-term forward refinement with r0 = min(v, 1-v); valid on v in [0, 1]."""
    return _report(_check("kittaneh-manasrah", None, "", a, b, v), "", a, b, v, None)


def _zw_forward(c, x, y, w, arg) -> tuple:
    """zhao-wu-forward's two terms at (x, y, w), w <= 1/2, and their part of M."""
    lx, ly = c.log(x), c.log(y)
    r = c.minimum(w, 1.0 - w)
    one = w * (c.sqrt(x) - c.sqrt(y)) ** 2
    coef, quarter = c.minimum(2.0 * r, 1.0 - 2.0 * r), c.exp(0.25 * (lx + ly))
    two = coef * (c.sqrt(x) - quarter) ** 2
    return one, two, c.arrays and abs(one) + abs(coef) * (
        c.sqrt(x) + quarter * (1.0 + 0.25 * (abs(lx) + abs(ly)))) ** 2


def zhao_wu_forward(a: float, b: float, v: float) -> BoundReport:
    """Two-term forward refinement; the branch is selected by the weight.

    For v <= 1/2 the second term is r0*(sqrt a - (ab)^(1/4))^2 with
    r0 = min(2v, 1-2v); the v >= 1/2 side is the mirror image under
    (a, b, v) -> (b, a, 1-v).  Both branches coincide at v = 1/2.
    """
    _require_weight(v)
    _require_pair(a, b)
    return _report(SCALAR_BY_KEY["zhao-wu-forward"], "", a, b, v, None, v > 0.5)


def sababheh_choi_forward(a: float, b: float, v: float, n: int) -> BoundReport:
    """Complete n-term forward refinement built from the indexed sum.

    Requires v in [0, 1]; the indexed machinery is undefined elsewhere.
    """
    fam = _check("sababheh-choi-forward", n, "")
    _require_weight(v)
    if not fam.hypothesis("", v, n):
        raise DomainError(f"forward refinement requires v in [0, 1], got v={v!r}")
    _require_pair(a, b)
    return _report(fam, "", a, b, v, n)


# ---------------------------------------------------------------------------
# Two-term reverse bound in lemma and four-window restatement forms
# ---------------------------------------------------------------------------

def _zw_reverse(c, x, y, w, form) -> tuple:
    """The zhao-wu-reverse correction of the lemma or, any other form, the
    proposition at (x, y, w); and its part of M."""
    sx, sy = c.sqrt(x), c.sqrt(y)
    lx, ly = c.log(x), c.log(y)
    quarter = c.exp(0.25 * (lx + ly))
    low = w <= 0.5
    one = c.where(low, 1.0 - w, w) * (sx - sy) ** 2
    if form == "lemma":  # one - r0 * two, as one + (-r0) * two
        r = c.minimum(w, 1.0 - w)
        coef = -c.minimum(2.0 * r, 1.0 - 2.0 * r)
    else:
        coef = c.where(w <= 0.25, -2.0 * w, c.where(low, 2.0 * w - 1.0, c.where(
            w <= 0.75, -(2.0 * w - 1.0), 2.0 * w - 2.0)))
    two = coef * c.where(low, sy - quarter, sx - quarter) ** 2
    return one + two, c.arrays and abs(one) + abs(coef) * (
        c.where(low, sy, sx) + quarter * (1.0 + 0.25 * (abs(lx) + abs(ly)))) ** 2


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
    return _report(_check("zhao-wu-reverse", None, form), form, a, b, v, None)


# ---------------------------------------------------------------------------
# Extended one-sided refinement (widened weight windows)
# ---------------------------------------------------------------------------

def _one_sided(c, x, y, w, n, heinz=False) -> tuple:
    """gap_bound_extended_sc's correction or, ``heinz``, heinz-reverse-sc's
    (its two-sided sum); and its part of M."""
    tail, tail_m = _root_sum(c, c.log(x), c.log(y), n, 1, x, y if heinz else None)
    return w * tail, c.arrays and abs(w) * tail_m


def gap_bound_extended_sc(a: float, b: float, v: float, n: int) -> float:
    """Branch-i correction v * sum_{k=1..n} 2^(k-1) a ((b/a)^(1/2^k) - 1)^2."""
    return _one_sided(_Floats, a, b, v, n)[0]


def theorem_extended_sc(a: float, b: float, v: float, n: int, branch: str) -> BoundReport:
    """One-sided n-term reverse bound with widened weight range.

    Branch "i" holds for v outside [0, 1/2^n]; branch "ii" is the exact
    mirror under (a, b, v) -> (b, a, 1-v) and holds for v outside
    [(2^n-1)/2^n, 1].
    """
    fam = _check("theorem-extended-sc", n, branch, a, b, v)
    return _report(fam, branch, a, b, v, n, branch == "ii")


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
    fam = _check("heinz-reverse-main", n, branch, a, b, v)
    return _report(fam, branch, a, b, v, n, branch == "ii")


def heinz_reverse_sc(a: float, b: float, v: float, n: int, branch: str) -> BoundReport:
    """Reverse Heinz bound from the one-sided family, symmetrized over both
    operand orders.

    Branch "i": lhs = (a+b)/2,
    rhs = H_v(a,b) + v sum_{k=1..n} 2^(k-2) [a((b/a)^(1/2^k)-1)^2
                                             + b((a/b)^(1/2^k)-1)^2],
    for v outside [0, 1/2^n]; branch "ii" is the exact mirror under
    (a, b, v) -> (b, a, 1-v), for v outside [(2^n-1)/2^n, 1].
    """
    fam = _check("heinz-reverse-sc", n, branch, a, b, v)
    return _report(fam, branch, a, b, v, n, branch == "ii")


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
    """label -> (record, branch or form, depth, correction, arg) of each bound
    gap_bounds lists at depth n, in order; _slot reads its value, and the
    record's hypothesis(branch, v, depth) its flag."""
    one, main, zw, sm = (SCALAR_BY_KEY[key] for key in (
        "corollary-one-term", "theorem-main-reverse", "zhao-wu-reverse", "lemma-sm-reverse"))
    depths = range(2, n + 1)
    weighted = lambda c, x, y, w, arg: _one_term(c, x, y, w, w)  # coefficient: the weight
    rows = ([(one, branch, None, weighted) for branch in BRANCHES]
            + [(main, branch, d, _dyadic) for d in depths for branch in BRANCHES]
            + [(zw, form, None, _zw_reverse) for form in ("lemma", "proposition")]
            + [(sm, branch, d, _sm_correction) for d in depths for branch in BRANCHES])
    return {f"{fam.key}/{branch}" if d is None else f"{fam.key}/{branch}/n{d}":
            (fam, branch, d, correction, branch if fam is zw else d)
            for fam, branch, d, correction in rows}


def _slot(c, slot, a, b, v) -> tuple:
    """The value at (a, b, v) of a _gap_slots bound, read in arithmetic c, and
    its M: its correction at (a, b, v), or at (b, a, 1 - v) on branch ii."""
    _, branch, _, correction, arg = slot
    return correction(c, *_mirror(c, branch == "ii", a, b, v), arg)


def gap_bound(label: str, a: float, b: float, v: float) -> float:
    """The bound gap_bounds lists as ``label`` (at any depth) at (a, b, v),
    unchecked, as the gap_bound_* functions."""
    return _slot(_Floats, _gap_slots(MAX_DEPTH)[label], a, b, v)[0]


def slot_gaps(a, b, v, n: int, labels=None) -> tuple:
    """The twin of gap_bounds over float64 arrays a, b, v, unchecked: the true
    gap and its error scale M, and label -> (bound, M, hypothesis flag) of
    every bound gap_bounds may list at depth n, or of those in ``labels``.  A
    point outside a formula's domain or range gets inf or NaN; where a value
    and its M are finite, the value is within PASS_REL_ERROR * M of the float
    one (see row_gaps)."""
    slots = _gap_slots(n)
    with np.errstate(all="ignore"):
        lhs, lhs_m = _young(_Arrays, a, b, v)
        mean, mean_m = _geometric(_Arrays, a, b, v)
        bounds = {}
        for label in slots if labels is None else labels:
            fam, branch, d, *_ = slot = slots[label]
            bounds[label] = (*_slot(_Arrays, slot, a, b, v), fam.hypothesis(branch, v, d))
        return lhs - mean, lhs_m + mean_m, bounds


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
    for label, slot in _gap_slots(n).items():
        fam, branch, d, *_ = slot
        ok = fam.hypothesis(branch, v, d)
        if ok or fam.kind == "outside":
            values.append(value := _slot(_Floats, slot, a, b, v)[0])
            bounds.append((label, value, ok))
    true_gap = _young(_Floats, a, b, v)[0] - _geometric(_Floats, a, b, v)[0]
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
    bounds = tuple(GapBound(label, fam.key, branch, d, value, ok)
                   for label, value, ok in listed for fam, branch, d, *_ in (slots[label],))
    return ComparisonReport(a, b, v, n, true_gap, bounds, tuple(dominance))


# ---------------------------------------------------------------------------
# One body per family, read by its evaluator and by the row pass
# ---------------------------------------------------------------------------

def _mirrored(correction, *, heinz=False):
    """The body of a branch family whose branch i adds correction's terms and
    whose branch ii is branch i at (b, a, 1 - v)."""
    return lambda c, a, b, v, n, branch: _sides(
        c, *_mirror(c, branch == "ii", a, b, v), True, correction, n, heinz)


# key: (c, a, b, v, n, branch) -> lhs, rhs, oriented gap and M at the caller's
# point; _report reads the float sides, row_gaps the array sides and M
_BODIES = {
    "reverse-young-basic": lambda c, a, b, v, n, branch: _sides(
        c, a, b, v, True, lambda *point: (0.0,)),
    "corollary-one-term": lambda c, a, b, v, n, branch: _sides(
        c, a, b, v, True, _one_term, v if branch == "i" else 1.0 - v),
    "theorem-main-reverse": _mirrored(_dyadic),
    "lemma-sm-reverse": _mirrored(_sm_correction),
    "kittaneh-manasrah": lambda c, a, b, v, n, branch: _sides(
        c, a, b, v, False, _one_term, c.minimum(v, 1.0 - v)),
    "zhao-wu-forward": lambda c, a, b, v, n, branch: _sides(
        c, *_mirror(c, v > 0.5, a, b, v), False, _zw_forward),
    "zhao-wu-reverse": lambda c, a, b, v, n, form: _sides(c, a, b, v, True, _zw_reverse, form),
    "sababheh-choi-forward": lambda c, a, b, v, n, branch: _sides(
        c, a, b, v, False, lambda c, x, y, w, n: _refinement_sum(c, w, y, x, n), n),
    "theorem-extended-sc": _mirrored(_one_sided),
    "heinz-reverse-main": _mirrored(lambda *point: _dyadic(*point, heinz=True), heinz=True),
    "heinz-reverse-sc": _mirrored(lambda *point: _one_sided(*point, heinz=True), heinz=True),
}


def row_gaps(key: str, branch: str, a, b, v, n=None) -> tuple:
    """lhs, rhs, oriented gap and error scale M of family ``key``'s branch (or
    form) at float64 arrays a, b, v and, if it takes a depth, int array n:
    the evaluator's formula, unchecked; a point outside its domain or range
    gets inf or NaN.  Where all four are finite, the gap is within
    PASS_REL_ERROR * M of the evaluator's."""
    with np.errstate(all="ignore"):
        return _BODIES[key](_Arrays, a, b, v, n, branch)


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
