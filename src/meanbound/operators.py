"""Reverse Young and Heinz inequalities in Loewner order on SPD pairs.

Each family builds the two sides of an operator inequality from weighted
means of one SPD pair and compares them through the smallest eigenvalue
of RHS - LHS.  The correction weights come from the family's window, its
moving edge at depths k and k - 1 (exact dyadic weights such as
(2^(k-1)+1)/2^k).  The terms are summed from k = n down to the first before
the weighted-geometric-mean term is added, so results repeat bit for bit.

The first correction term of the dyadic families is the operator image of
(1-v)(sqrt a - sqrt b)^2, namely 2(1-v)(A nabla B - A # B) with the
unweighted arithmetic mean; using the v-weighted mean there is provably
wrong (the 1x1 case already fails), so the unweighted form is used.

Note the weighted geometric mean of an SPD pair with v outside [0, 1] can
exceed both operands in Loewner order; no clamping is applied anywhere.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, NamedTuple

import numpy as np

from .matrices import (
    LOEWNER_REL_TOL,
    MatrixError,
    MeanCalculator,
    SpdMatrix,
    _check_dims,
    _fro,
    jacobi_eigh,
)
from .scalar import (
    BRANCHES,
    Family,
    _require_depth,
    _require_weight,
    window_dyadic_high,
    window_sc_low,
)

DEGENERATE_REL_TOL = 1e-13  # ||A - B||_F below this of ||A||_F short-circuits


class OperatorBoundReport(NamedTuple):
    """Loewner verdict for one operator bound instance."""

    family: str
    branch: str
    dim: int
    v: float
    n: int
    min_eig_gap: float
    tol: float
    hypothesis_ok: bool
    holds: bool
    degenerate: bool
    fingerprint_a: str
    fingerprint_b: str

    def as_dict(self) -> dict:
        return self._asdict()


def matrix_fingerprint(m: SpdMatrix) -> str:
    digest = hashlib.sha256()
    digest.update(str(m.dim).encode())
    digest.update(np.ascontiguousarray(m.entries).tobytes())
    return digest.hexdigest()[:16]


def _finish(family, branch, a, b, v, n, lhs, rhs, hypothesis_ok) -> OperatorBoundReport:
    tol = LOEWNER_REL_TOL * (_fro(lhs) + _fro(rhs))
    # a side out of range makes tol non-finite; its spectrum is not formed
    gap = float(jacobi_eigh(rhs - lhs).lam[0]) if math.isfinite(tol) else math.nan
    if not (math.isfinite(gap) and math.isfinite(tol)):
        raise OverflowError(f"{family}: the Loewner gap at v={v!r} leaves the "
                            f"floating-point range (tol={tol!r})")
    return OperatorBoundReport(family, branch, a.dim, v, n, gap, tol,
                               hypothesis_ok, gap >= -tol, False,
                               matrix_fingerprint(a), matrix_fingerprint(b))


def _prepare(key, a, b, v, n, branch) -> tuple:
    """Check the arguments against the family's table row; return the
    hypothesis flag and, for a degenerate pair, its finished report."""
    family = OPERATOR_BY_NAME[key]
    _require_weight(v)
    _require_depth(n, family.min_depth)
    if branch not in BRANCHES:
        raise MatrixError(f"branch must be 'i' or 'ii', got {branch!r}")
    hyp = family.hypothesis(branch, v, n)
    if not isinstance(a, SpdMatrix) or not isinstance(b, SpdMatrix):
        raise MatrixError("operator bounds require SpdMatrix operands")
    _check_dims(a, b)
    if _fro(a.entries - b.entries) <= DEGENERATE_REL_TOL * a.fro():
        tol = LOEWNER_REL_TOL * 2.0 * a.fro()
        return hyp, OperatorBoundReport(key, branch, a.dim, v, n, 0.0, tol, hyp, True,
                                        True, matrix_fingerprint(a), matrix_fingerprint(b))
    return hyp, None


def _ladder(record, branch, n, first) -> list:
    """The (k, w_in, w_out) correction terms of a branch, k = n down to first:
    the moving edge of the record's window at depths k and k - 1, its upper
    edge for branch i and, for branch ii, the lower edge ``bounds`` mirrors."""
    side = 1 if branch == "i" else 0
    edges = [record.bounds(branch, k)[side] for k in range(n, first - 2, -1)]
    return list(zip(range(n, first - 1, -1), edges, edges[1:]))


def _mean_pass(mc, heinz, head, ladder, v) -> Callable:
    """Compute every mean an evaluation uses in one stacked pass, listed in
    first-use order (a Heinz mean at w uses w, then 1 - w); return the
    mean the correction reads, now served from the cache."""
    weights = [*head, *(w for _, w_in, w_out in ladder for w in (w_in, w_out)), v]
    if heinz:
        weights = [x for w in weights for x in (w, 1.0 - w)]
    mc.prime(weights)
    return mc.heinz_entries if heinz else mc.sharp_entries


def _dyadic_sum(key, a, b, v, n, branch, heinz) -> OperatorBoundReport:
    """Shared body of theorem_t6 and, with ``heinz``, corollary_c3.

    ``heinz`` puts Heinz means in place of the geometric means of the
    correction and the unweighted A nabla B in place of the lhs A nabla_v B.
    """
    hyp, short = _prepare(key, a, b, v, n, branch)
    if short is not None:
        return short
    ladder = _ladder(OPERATOR_BY_NAME[key], branch, n, 2)
    mc = MeanCalculator(a, b)
    mean = _mean_pass(mc, heinz, [0.5], ladder, v)
    with np.errstate(over="ignore", invalid="ignore"):  # _finish reports overflow
        sharp_half = mc.sharp_entries(0.5)
        nabla = mc.nabla_entries(0.5)
        corr = np.zeros_like(sharp_half)
        for k, w_in, w_out in ladder:
            corr += 2.0 ** (k - 2) * (sharp_half - 2.0 * mean(w_in) + mean(w_out))
        lead = 2.0 * (1.0 - v) if branch == "i" else 2.0 * v
        sign = (2.0 * v - 1.0) if branch == "i" else (1.0 - 2.0 * v)
        rhs = lead * (nabla - sharp_half) + sign * corr + mean(v)
        lhs = nabla if heinz else mc.nabla_entries(v)
    return _finish(key, branch, a, b, v, n, lhs, rhs, hyp)


def _one_sided_sum(key, a, b, v, n, branch, heinz) -> OperatorBoundReport:
    """Shared body of theorem_t66 and, with ``heinz``, corollary_c33.

    ``heinz`` puts Heinz means in place of the geometric means of the
    correction, and the unweighted A nabla B in place of both the anchor
    (A for branch i, B for branch ii) and the lhs A nabla_v B.
    """
    hyp, short = _prepare(key, a, b, v, n, branch)
    if short is not None:
        return short
    ladder = _ladder(OPERATOR_BY_NAME[key], branch, n, 1)
    mc = MeanCalculator(a, b)
    mean = _mean_pass(mc, heinz, [], ladder, v)
    with np.errstate(over="ignore", invalid="ignore"):  # _finish reports overflow
        if heinz:
            anchor = mc.nabla_entries(0.5)
        else:
            anchor = a.entries if branch == "i" else b.entries
        corr = np.zeros_like(anchor)
        for k, w_in, w_out in ladder:
            corr += 2.0 ** (k - 1) * (anchor - 2.0 * mean(w_in) + mean(w_out))
        coef = v if branch == "i" else (1.0 - v)
        rhs = coef * corr + mean(v)
        lhs = anchor if heinz else mc.nabla_entries(v)
    return _finish(key, branch, a, b, v, n, lhs, rhs, hyp)


def theorem_t6(a: SpdMatrix, b: SpdMatrix, v: float, n: int,
               branch: str) -> OperatorBoundReport:
    """Dyadic-sum reverse bound: A nabla_v B <= A natural_v B + corrections.

    Branch "i" (v outside [1/2, (2^(n-1)+1)/2^n]) uses the high dyadic
    weights (2^(k-1)+1)/2^k; branch "ii" (v outside [(2^(n-1)-1)/2^n, 1/2])
    the low ones.  Requires n >= 2.
    """
    return _dyadic_sum("t6", a, b, v, n, branch, heinz=False)


def theorem_t66(a: SpdMatrix, b: SpdMatrix, v: float, n: int,
                branch: str) -> OperatorBoundReport:
    """One-sided reverse bound: A nabla_v B <= A natural_v B + weighted sum.

    Branch "i" (v outside [0, 1/2^n]) uses weights 1/2^k anchored at A;
    branch "ii" (v outside [(2^n-1)/2^n, 1]) the mirrored weights anchored
    at B.
    """
    return _one_sided_sum("t66", a, b, v, n, branch, heinz=False)


def corollary_c3(a: SpdMatrix, b: SpdMatrix, v: float, n: int,
                 branch: str) -> OperatorBoundReport:
    """Heinz form of the dyadic-sum bound: A nabla B <= Hhat_v + corrections.

    Hypothesis windows match theorem_t6; the correction replaces the
    geometric means with Heinz means at the same dyadic weights.
    Requires n >= 2.
    """
    return _dyadic_sum("c3", a, b, v, n, branch, heinz=True)


def corollary_c33(a: SpdMatrix, b: SpdMatrix, v: float, n: int,
                  branch: str) -> OperatorBoundReport:
    """Heinz form of the one-sided bound: A nabla B <= Hhat_v + weighted sum.

    Hypothesis windows match theorem_t66; the anchors are the unweighted
    arithmetic mean and the Heinz means at the mirrored dyadic weights.
    """
    return _one_sided_sum("c33", a, b, v, n, branch, heinz=True)


# Every operator family in suite order, read by the evaluators, the suite
# rows and the CLI.
OPERATOR_TABLE = (
    Family("t6", theorem_t6, BRANCHES, 2, "outside", window_dyadic_high, "theorem-t6"),
    Family("t66", theorem_t66, BRANCHES, 1, "outside", window_sc_low, "theorem-t66"),
    Family("c3", corollary_c3, BRANCHES, 2, "outside", window_dyadic_high, "corollary-c3"),
    Family("c33", corollary_c33, BRANCHES, 1, "outside", window_sc_low, "corollary-c33"),
)
OPERATOR_BY_NAME = {name: family for family in OPERATOR_TABLE
                    for name in (family.key, family.name)}
