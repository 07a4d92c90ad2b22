"""Independent high-precision oracles for the scalar bound families and the
weighted operator geometric mean.

Everything here is computed with mpmath at 50 significant digits, straight
from the defining formulas (direct power form, not the library's
ratio-and-root rearrangements), so agreement with the float64 library path
is meaningful evidence and not an echo.
"""

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


def operator_sharp(a, b):
    """Weighted geometric mean of an SPD pair as a function of the weight,
    A^(1/2) (A^(-1/2) B A^(-1/2))^w A^(1/2) in the direct square-root form.

    ``a`` and ``b`` are nested lists or arrays of floats; the returned
    function maps w to the mean as nested lists of mpf.
    """
    a = mp.matrix([[mpf(x) for x in row] for row in a])
    b = mp.matrix([[mpf(x) for x in row] for row in b])
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
