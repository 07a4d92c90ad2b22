"""Independent high-precision oracles for the scalar bound families, the
weighted operator geometric mean and the operator families' verdicts.

Everything here is computed with mpmath at 50 significant digits, straight
from the defining formulas (direct power form, not the library's
ratio-and-root rearrangements), so agreement with the float64 library path
is meaningful evidence and not an echo.
"""

import functools

from mpmath import mp, mpf, exp, floor, log, sqrt

mp.dps = 50


def wg(a, b, v):
    a, b, v = mpf(a), mpf(b), mpf(v)
    return exp((1 - v) * log(a) + v * log(b))


def heinz(a, b, v):
    return (wg(a, b, v) + wg(a, b, 1 - mpf(v))) / 2


def lhs_young(a, b, v):
    a, b, v = mpf(a), mpf(b), mpf(v)
    return (1 - v) * a + v * b


def j_k(v, k):
    return int(floor(2 ** (k - 1) * mpf(v)))


def r_k(v, k):
    return int(floor(2 ** k * mpf(v)))


def s_k(v, k):
    r = r_k(v, k)
    return (-1) ** r * 2 ** (k - 1) * mpf(v) + (-1) ** (r + 1) * ((r + 1) // 2)


def refinement_sum(v, a, b, n):
    """S_n(v, a, b) in the direct mixed-power form."""
    a, b = mpf(a), mpf(b)
    total = mpf(0)
    for k in range(1, n + 1):
        j = j_k(v, k)
        lead = exp(((2 ** (k - 1) - j) * log(b) + j * log(a)) / 2 ** k)
        trail = exp(((j + 1) * log(a) + (2 ** (k - 1) - j - 1) * log(b)) / 2 ** k)
        total += s_k(v, k) * (lead - trail) ** 2
    return total


def forward_refinement_sum(v, a, b, n):
    a, b = mpf(a), mpf(b)
    total = mpf(0)
    for k in range(1, n + 1):
        j = j_k(v, k)
        lead = exp(((2 ** (k - 1) - j) * log(a) + j * log(b)) / 2 ** k)
        trail = exp(((2 ** (k - 1) - j - 1) * log(a) + (j + 1) * log(b)) / 2 ** k)
        total += s_k(v, k) * (lead - trail) ** 2
    return total


def rhs_main_reverse(a, b, v, n, branch):
    a, b, v = mpf(a), mpf(b), mpf(v)
    if branch == "ii":
        return rhs_main_reverse(b, a, 1 - v, n, "i")
    tail = mpf(0)
    for k in range(2, n + 1):
        tail += 2 ** (k - 2) * (exp(log(b / a) / 2 ** k) - 1) ** 2
    return wg(a, b, v) + (1 - v) * (sqrt(a) - sqrt(b)) ** 2 + (2 * v - 1) * sqrt(a * b) * tail


def rhs_sm_reverse(a, b, v, n, branch):
    a, b, v = mpf(a), mpf(b), mpf(v)
    if branch == "ii":
        return rhs_sm_reverse(b, a, 1 - v, n, "i")
    return (wg(a, b, v) + (1 - v) * (sqrt(a) - sqrt(b)) ** 2
            - refinement_sum(2 * v, sqrt(a * b), b, n))


def rhs_extended_sc(a, b, v, n, branch):
    a, b, v = mpf(a), mpf(b), mpf(v)
    if branch == "ii":
        return rhs_extended_sc(b, a, 1 - v, n, "i")
    total = mpf(0)
    for k in range(1, n + 1):
        total += 2 ** (k - 1) * (sqrt(a) - exp(((2 ** (k - 1) - 1) * log(a) + log(b)) / 2 ** k)) ** 2
    return wg(a, b, v) + v * total


def rhs_heinz_main(a, b, v, n, branch):
    a, b, v = mpf(a), mpf(b), mpf(v)
    if branch == "ii":
        return rhs_heinz_main(b, a, 1 - v, n, "i")
    total = mpf(0)
    for k in range(2, n + 1):
        total += 2 ** (k - 2) * ((exp(log(a / b) / 2 ** k) - 1) ** 2
                                 + (exp(log(b / a) / 2 ** k) - 1) ** 2)
    return (heinz(a, b, v) + (1 - v) * (sqrt(a) - sqrt(b)) ** 2
            + (v - mpf(1) / 2) * sqrt(a * b) * total)


def rhs_heinz_sc(a, b, v, n, branch):
    a, b, v = mpf(a), mpf(b), mpf(v)
    if branch == "ii":
        return rhs_heinz_sc(b, a, 1 - v, n, "i")
    total = mpf(0)
    for k in range(1, n + 1):
        lead = (sqrt(a) - exp(((2 ** (k - 1) - 1) * log(a) + log(b)) / 2 ** k)) ** 2
        trail = (sqrt(b) - exp((log(a) + (2 ** (k - 1) - 1) * log(b)) / 2 ** k)) ** 2
        total += 2 ** (k - 2) * (lead + trail)
    return heinz(a, b, v) + v * total


def delta_log_limit(a, b, n):
    a, b = mpf(a), mpf(b)
    return abs(2 ** n * (exp(log(b / a) / 2 ** n) - 1) - log(b / a))


def _spectral(m, fn):
    """Q diag(fn(lam)) Q^T for a symmetric mpmath matrix."""
    lam, q = mp.eigsy(m)
    return q * mp.diag([fn(x) for x in lam]) * q.T


def _mp_matrix(m):
    return mp.matrix([[mpf(x) for x in row] for row in m])


def operator_sharp(a, b):
    """Weighted geometric mean of an SPD pair as a function of the weight,
    A^(1/2) (A^(-1/2) B A^(-1/2))^w A^(1/2) in the direct square-root form.

    ``a`` and ``b`` are nested lists or arrays of floats; the returned
    function maps w to the mean as nested lists of mpf.
    """
    a, b = _mp_matrix(a), _mp_matrix(b)
    root = _spectral(a, sqrt)
    iroot = _spectral(a, lambda x: 1 / sqrt(x))
    inner = iroot * b * iroot
    lam, q = mp.eigsy((inner + inner.T) / 2)

    def sharp(w):
        w = mpf(w)
        mid = q * mp.diag([x ** w for x in lam]) * q.T
        out = root * mid * root
        return [[out[i, j] for j in range(out.cols)] for i in range(out.rows)]

    return sharp


@functools.lru_cache(maxsize=64)
def _pencil(a, b):
    """Eigenvalues of A^(-1/2) B A^(-1/2), the spectrum of the pencil (B, A),
    for a pair of nested tuples of floats; memoized per pair."""
    a, b = _mp_matrix(a), _mp_matrix(b)
    iroot = _spectral(a, lambda x: 1 / sqrt(x))
    inner = iroot * b * iroot
    return tuple(mp.eigsy((inner + inner.T) / 2, eigvals_only=True))


def _unweighted(a, b, v):
    return (mpf(a) + mpf(b)) / 2


# the scalar twin of each operator family: its rhs and its lhs
OPERATOR_TWINS = {
    "t6": (rhs_main_reverse, lhs_young),
    "t66": (rhs_extended_sc, lhs_young),
    "c3": (rhs_heinz_main, _unweighted),
    "c33": (rhs_heinz_sc, _unweighted),
}


def operator_verdict(a, b, v, n, key, branch):
    """Whether operator family ``key`` holds in Loewner order at (A, B, v, n).

    Write A = LL^T and L^(-1) B L^(-T) = Q diag(lam) Q^T.  Each side of the
    family is a sum of weighted means, and W = LQ takes every mean of (A, B)
    to the same mean of (I, diag(lam)), so rhs - lhs = W diag(g_i) W^T with
    g_i the scalar twin's gap at (1, lam_i, v, n).  By Sylvester's law of
    inertia rhs - lhs is positive semidefinite iff every g_i >= 0.  The lam_i
    are taken as the (same) spectrum of A^(-1/2) B A^(-1/2); ``a`` and ``b``
    are nested lists or arrays of floats.
    """
    rhs, lhs = OPERATOR_TWINS[key]
    spectrum = _pencil(tuple(map(tuple, a)), tuple(map(tuple, b)))
    return min(rhs(1, lam, v, n, branch) - lhs(1, lam, v) for lam in spectrum) >= 0
