"""Reverse Young and Heinz inequalities in Loewner order on SPD pairs.

Each family builds the two sides of an operator inequality from weighted
means of one SPD pair and compares them through the smallest eigenvalue
of RHS - LHS.  The correction weights come from the family's window, its
moving edge at depths k and k - 1 (exact dyadic weights such as
(2^(k-1)+1)/2^k).  The terms are summed from k = n down to the first before
the weighted-geometric-mean term is added, so results repeat bit for bit.
The four families share one body, which alone writes its four branch
coefficients per branch: mirroring them changes bits (2(1 - (1 - v)) != 2v).

The first correction term of the dyadic families is the operator image of
(1-v)(sqrt a - sqrt b)^2, namely 2(1-v)(A nabla B - A # B) with the
unweighted arithmetic mean; using the v-weighted mean there is provably
wrong (the 1x1 case already fails), so the unweighted form is used.

Note the weighted geometric mean of an SPD pair with v outside [0, 1] can
exceed both operands in Loewner order; no clamping is applied anywhere.
"""

from __future__ import annotations

import functools
import hashlib
import math
from typing import NamedTuple

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

    @property
    def gap(self) -> float:
        """The verdict's margin, as BoundReport.gap: the report holds iff gap >= -tol."""
        return self.min_eig_gap

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


@functools.lru_cache(maxsize=256)
def _ladder(key, branch, n) -> tuple:
    """The (k, w_in, w_out) correction terms of a branch, k = n down to the
    family's least depth: the moving edge of its window at depths k and
    k - 1, its upper edge for branch i and, for branch ii, the lower edge
    ``bounds`` mirrors.  Memoized: a suite row asks for the same few ladders
    trial after trial."""
    record = OPERATOR_BY_NAME[key]
    first = record.min_depth
    side = 1 if branch == "i" else 0
    edges = [record.bounds(branch, k)[side] for k in range(n, first - 2, -1)]
    return tuple(zip(range(n, first - 1, -1), edges, edges[1:]))


def _correction_sum(key, a, b, v, n, branch, heinz) -> OperatorBoundReport:
    """The one body of the four families: A nabla_v B <= lead + coef *
    sum_{k=n..first} 2^(k-first) (anchor - 2 mean(w_in) + mean(w_out)) + mean(v),
    first being the family's least depth and mean(w) A #_w B.  The dyadic
    shape (first 2) anchors at A # B and leads with 2(1-v)(A nabla B - A # B)
    for branch i; the one-sided shape (first 1) anchors at A for branch i, B
    for branch ii, with no lead.  ``heinz`` puts Heinz means in place of mean
    and A nabla B in place of the lhs A nabla_v B and the one-sided anchor.
    Checks: weight, depth, branch, operands, dims; a degenerate pair then
    gets its report at once."""
    record = OPERATOR_BY_NAME[key]
    first = record.min_depth
    _require_weight(v)
    _require_depth(n, first)
    if branch not in BRANCHES:
        raise MatrixError(f"branch must be 'i' or 'ii', got {branch!r}")
    hyp = record.hypothesis(branch, v, n)
    if not isinstance(a, SpdMatrix) or not isinstance(b, SpdMatrix):
        raise MatrixError("operator bounds require SpdMatrix operands")
    _check_dims(a, b)
    size = a.fro()
    if _fro(a.entries - b.entries) <= DEGENERATE_REL_TOL * size:
        return OperatorBoundReport(key, branch, a.dim, v, n, 0.0, LOEWNER_REL_TOL * 2.0 * size,
                                   hyp, True, True, matrix_fingerprint(a), matrix_fingerprint(b))
    dyadic = first == 2
    ladder = _ladder(key, branch, n)
    mc = MeanCalculator(a, b)
    # every mean in one stacked pass, in first-use order (a Heinz mean at w
    # uses w, then 1 - w); the correction then reads them from the cache
    head = [0.5] if dyadic else []
    weights = [*head, *(w for _, w_in, w_out in ladder for w in (w_in, w_out)), v]
    if heinz:
        weights = [x for w in weights for x in (w, 1.0 - w)]
    mc.prime(weights)
    mean = mc.heinz_entries if heinz else mc.sharp_entries
    with np.errstate(over="ignore", invalid="ignore"):  # _finish reports overflow
        nabla = mc.nabla_entries(0.5)
        lead = None
        if dyadic:
            anchor = mc.sharp_entries(0.5)
            lead = (2.0 * (1.0 - v) if branch == "i" else 2.0 * v) * (nabla - anchor)
            coef = (2.0 * v - 1.0) if branch == "i" else (1.0 - 2.0 * v)
        else:
            anchor = nabla if heinz else (a if branch == "i" else b).entries
            coef = v if branch == "i" else (1.0 - v)
        corr = np.zeros_like(anchor)
        for k, w_in, w_out in ladder:
            corr += 2.0 ** (k - first) * (anchor - 2.0 * mean(w_in) + mean(w_out))
        rhs = (coef * corr if lead is None else lead + coef * corr) + mean(v)
        lhs = nabla if heinz else mc.nabla_entries(v)
    return _finish(key, branch, a, b, v, n, lhs, rhs, hyp)


def theorem_t6(a: SpdMatrix, b: SpdMatrix, v: float, n: int,
               branch: str) -> OperatorBoundReport:
    """Dyadic-sum reverse bound: A nabla_v B <= A natural_v B + corrections.

    Branch "i" (v outside [1/2, (2^(n-1)+1)/2^n]) uses the high dyadic
    weights (2^(k-1)+1)/2^k; branch "ii" (v outside [(2^(n-1)-1)/2^n, 1/2])
    the low ones.  Requires n >= 2.
    """
    return _correction_sum("t6", a, b, v, n, branch, heinz=False)


def theorem_t66(a: SpdMatrix, b: SpdMatrix, v: float, n: int,
                branch: str) -> OperatorBoundReport:
    """One-sided reverse bound: A nabla_v B <= A natural_v B + weighted sum.

    Branch "i" (v outside [0, 1/2^n]) uses weights 1/2^k anchored at A;
    branch "ii" (v outside [(2^n-1)/2^n, 1]) the mirrored weights anchored
    at B.
    """
    return _correction_sum("t66", a, b, v, n, branch, heinz=False)


def corollary_c3(a: SpdMatrix, b: SpdMatrix, v: float, n: int,
                 branch: str) -> OperatorBoundReport:
    """Heinz form of the dyadic-sum bound: A nabla B <= Hhat_v + corrections.

    Hypothesis windows match theorem_t6; the correction replaces the
    geometric means with Heinz means at the same dyadic weights.
    Requires n >= 2.
    """
    return _correction_sum("c3", a, b, v, n, branch, heinz=True)


def corollary_c33(a: SpdMatrix, b: SpdMatrix, v: float, n: int,
                  branch: str) -> OperatorBoundReport:
    """Heinz form of the one-sided bound: A nabla B <= Hhat_v + weighted sum.

    Hypothesis windows match theorem_t66; the anchors are the unweighted
    arithmetic mean and the Heinz means at the mirrored dyadic weights.
    """
    return _correction_sum("c33", a, b, v, n, branch, heinz=True)


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
