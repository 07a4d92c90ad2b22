"""Operator bounds: frozen 1x1 examples, scalar/diagonal consistency, windows."""

import hashlib
import math
import warnings

import numpy as np
import pytest

import oracles
from meanbound import operators, scalar
from meanbound.matrices import (
    MatrixError,
    SpdMatrix,
    arithmetic_mean,
    geometric_mean,
    heinz_mean,
    spd_power,
)
from meanbound.operators import (
    OPERATOR_BY_NAME,
    OPERATOR_TABLE,
    corollary_c3,
    corollary_c33,
    matrix_fingerprint,
    theorem_t6,
    theorem_t66,
)
from meanbound.harness import random_spd
from meanbound.rng import Xoshiro256StarStar
from meanbound.scalar import DomainError

RNG = np.random.default_rng(77)


def one_by_one(x: float) -> SpdMatrix:
    return SpdMatrix([[x]])


def spd(dim: int, cond: float = 1e3, seed=None) -> SpdMatrix:
    g = RNG.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    lam = np.exp(RNG.uniform(math.log(cond ** -0.5), math.log(cond ** 0.5), dim))
    return SpdMatrix((q * lam) @ q.T)


# the scalar family each operator family reduces to on 1x1 inputs
SCALAR_TWINS = {
    "t6": lambda a, b, v, n, br: scalar.theorem_main_reverse(a, b, v, n, br),
    "t66": lambda a, b, v, n, br: scalar.theorem_extended_sc(a, b, v, n, br),
    "c3": lambda a, b, v, n, br: scalar.heinz_reverse_main(a, b, v, n, br),
    "c33": lambda a, b, v, n, br: scalar.heinz_reverse_sc(a, b, v, n, br),
}
MIN_DEPTH = {"t6": 2, "t66": 1, "c3": 2, "c33": 1}


def test_t6_one_by_one_reference():
    rep = theorem_t6(one_by_one(1.0), one_by_one(16.0), 0.125, 2, "i")
    assert rep.hypothesis_ok and rep.holds and not rep.degenerate
    assert rep.min_eig_gap == pytest.approx(3.414213562373095, rel=1e-13)
    assert rep.dim == 1 and rep.n == 2


def test_t66_one_by_one_reference():
    rep = theorem_t66(one_by_one(1.0), one_by_one(4.0), 2.0, 1, "i")
    assert rep.min_eig_gap == pytest.approx(11.0, rel=1e-12)
    rep = theorem_t66(one_by_one(1.0), one_by_one(4.0), 2.0, 2, "i")
    assert rep.min_eig_gap == pytest.approx(11.686291501015240, rel=1e-12)


def test_c3_one_by_one_reference():
    rep = corollary_c3(one_by_one(1.0), one_by_one(16.0), 0.125, 2, "ii")
    assert rep.min_eig_gap == pytest.approx(0.8639610306789277, rel=1e-11)


def test_c33_one_by_one_reference():
    rep = corollary_c33(one_by_one(1.0), one_by_one(4.0), 2.0, 1, "i")
    assert rep.min_eig_gap == pytest.approx(7.625, rel=1e-12)
    mirror = corollary_c33(one_by_one(1.0), one_by_one(4.0), -1.0, 1, "ii")
    assert mirror.min_eig_gap == pytest.approx(7.625, rel=1e-12)


def test_t6_commuting_diagonal_reference():
    a = SpdMatrix(np.diag([1.0, 4.0]))
    b = SpdMatrix(np.diag([16.0, 1.0]))
    rep = theorem_t6(a, b, 0.125, 2, "i")
    expected = min(3.414213562373095, 0.48490600457450075)
    assert rep.min_eig_gap == pytest.approx(expected, rel=1e-12)


def test_equal_operands_degenerate_short_circuit():
    a = spd(4)
    rep = theorem_t6(a, a, 0.9, 3, "i")
    assert rep.degenerate and rep.holds and rep.min_eig_gap == 0.0
    wiggle = SpdMatrix(a.entries * (1.0 + 1e-15))
    rep = corollary_c33(a, wiggle, 2.0, 1, "i")
    assert rep.degenerate


def test_gap_is_the_min_eigenvalue_gap_and_not_a_report_field():
    rng = Xoshiro256StarStar(5)
    a, b = random_spd(3, 1e3, rng), random_spd(3, 1e3, rng)
    reports = [theorem_t6(a, b, 0.9, 3, "i"), theorem_t66(a, b, 2.0, 2, "ii"),
               corollary_c3(a, a, 0.9, 3, "i"),  # degenerate: gap 0
               corollary_c33(a, b, 0.5, 1, "i")]  # inside its window
    for rep in reports:
        assert rep.gap == rep.min_eig_gap
        assert "gap" not in rep.as_dict() and "gap" not in rep._fields
        assert rep.holds == (rep.gap >= -rep.tol)


def test_hypothesis_windows_follow_scalar_counterparts():
    a, b = spd(2), spd(2)
    assert theorem_t6(a, b, 0.6, 2, "i").hypothesis_ok is False
    assert theorem_t6(a, b, 0.8, 2, "i").hypothesis_ok is True
    assert theorem_t66(a, b, 0.1, 2, "i").hypothesis_ok is False
    assert theorem_t66(a, b, 0.3, 2, "i").hypothesis_ok is True
    assert corollary_c3(a, b, 0.4, 2, "ii").hypothesis_ok is False
    assert corollary_c33(a, b, 0.9, 1, "ii").hypothesis_ok is False


def test_input_validation():
    a, b = spd(2), spd(3)
    with pytest.raises(MatrixError):
        theorem_t6(a, b, 0.1, 2, "i")
    with pytest.raises(DomainError):
        theorem_t6(spd(2), spd(2), 0.1, 1, "i")  # needs n >= 2
    with pytest.raises(DomainError):
        corollary_c3(spd(2), spd(2), 0.1, 1, "ii")
    with pytest.raises(MatrixError):
        theorem_t66(spd(2), spd(2), 0.1, 1, "x")
    with pytest.raises(DomainError):
        theorem_t66(spd(2), spd(2), math.nan, 1, "i")
    # an int too long to print: the depth check still names it
    a = spd(2)
    with pytest.raises(DomainError, match="^depth must satisfy 2 <= n <= 30, got n="):
        theorem_t6(a, a, 0.2, 10 ** 5000, "i")
    # a weight or exponent past the float range: the DomainError, not a bare
    # OverflowError from math.isfinite
    with pytest.raises(DomainError, match="^weight must be finite, got v=10{400}$"):
        theorem_t6(a, a, 10 ** 400, 2, "i")
    with pytest.raises(DomainError, match="^weight must be finite, got v=10{400}$"):
        geometric_mean(a, a, 10 ** 400)
    with pytest.raises(DomainError, match="^exponent must be finite, got 10{400}$"):
        spd_power(a, 10 ** 400)
    # plain arrays are not operands: the SPD check is the SpdMatrix constructor's
    with pytest.raises(MatrixError, match="^spd_power requires an SpdMatrix$"):
        spd_power(np.eye(2), 0.5)
    with pytest.raises(MatrixError, match="^operator bounds require SpdMatrix operands$"):
        theorem_t6(np.eye(2), a, 0.9, 2, "i")


# the argument rules of an operator evaluator, in the order it checks them:
# each entry breaks its rule in a valid call, with the message it raises (None:
# the pair is degenerate, which is no error but short-circuits the body)
PRECEDENCE = (
    ("weight", lambda c: c.update(v=math.nan), "weight must be finite, got v=nan"),
    ("depth", lambda c: c.update(n=c["n"] - 1), "depth must satisfy {least} <= n <= 30, got n={bad}"),
    ("branch", lambda c: c.update(branch="iii"), "branch must be 'i' or 'ii', got 'iii'"),
    ("operand", lambda c: c.update(a=c["a"].entries), "operator bounds require SpdMatrix operands"),
    ("dimension", lambda c: c.update(b=spd(3)), "dimension mismatch: 2 vs 3"),
    ("degenerate", lambda c: c.update(b=c["a"]), None),
)


@pytest.mark.parametrize("family,branch", [(f.key, br) for f in OPERATOR_TABLE
                                           for br in f.branches])
def test_argument_checks_keep_their_order(family, branch):
    # a call that breaks two rules raises the earlier rule's exact message
    record = OPERATOR_BY_NAME[family]
    least = record.min_depth
    pair = (spd(2), spd(2))
    for first, (name, breaks, message) in enumerate(PRECEDENCE[:-1]):
        message = message.format(least=least, bad=least - 1)
        for later, later_breaks, _ in PRECEDENCE[first:]:  # itself alone, then each later rule
            if (name, later) == ("dimension", "degenerate"):
                continue  # a pair of two dimensions cannot be degenerate
            call = dict(a=pair[0], b=pair[1], v=2.0, n=least, branch=branch)
            if later != name:
                later_breaks(call)  # the later rule first: "degenerate" reads a
            breaks(call)
            with pytest.raises((DomainError, MatrixError)) as caught:
                record.evaluate(call["a"], call["b"], call["v"], call["n"], call["branch"])
            assert str(caught.value) == message, (name, later)
    degenerate = record.evaluate(pair[0], pair[0], 2.0, least, branch)
    assert degenerate.degenerate and degenerate.min_eig_gap == 0.0


def test_fingerprints_identify_matrices():
    a, b = spd(3), spd(3)
    rep = theorem_t66(a, b, 2.0, 1, "i")
    assert rep.fingerprint_a == matrix_fingerprint(a)
    assert rep.fingerprint_b == matrix_fingerprint(b)
    assert rep.fingerprint_a != rep.fingerprint_b


@pytest.mark.parametrize("family", ["t6", "t66", "c3", "c33"])
@pytest.mark.parametrize("branch", ["i", "ii"])
def test_scalar_consistency_one_by_one(family, branch):
    rng = Xoshiro256StarStar(1234)
    fn = OPERATOR_BY_NAME[family].evaluate
    twin = SCALAR_TWINS[family]
    for _ in range(50):
        a = rng.log_uniform(1e-3, 1e3)
        b = rng.log_uniform(1e-3, 1e3)
        n = MIN_DEPTH[family] + rng.randint(4)
        v = rng.uniform(-4.0, 4.0)
        rep = fn(one_by_one(a), one_by_one(b), v, n, branch)
        ref = twin(a, b, v, n, branch)
        scale = abs(ref.gap) + abs(ref.lhs) + abs(ref.rhs)
        assert abs(rep.min_eig_gap - ref.gap) <= 1e-12 * scale
        assert rep.hypothesis_ok == ref.hypothesis_ok


@pytest.mark.parametrize("family", ["t6", "t66", "c3", "c33"])
def test_diagonal_consistency(family):
    rng = Xoshiro256StarStar(99)
    fn = OPERATOR_BY_NAME[family].evaluate
    twin = SCALAR_TWINS[family]
    for _ in range(25):
        dim = 2 + rng.randint(3)
        diag_a = [rng.log_uniform(1e-2, 1e2) for _ in range(dim)]
        diag_b = [rng.log_uniform(1e-2, 1e2) for _ in range(dim)]
        n = MIN_DEPTH[family] + rng.randint(3)
        v = rng.uniform(-3.0, 3.0)
        rep = fn(SpdMatrix(np.diag(diag_a)), SpdMatrix(np.diag(diag_b)), v, n, "i")
        refs = [twin(x, y, v, n, "i") for x, y in zip(diag_a, diag_b)]
        expected = min(ref.gap for ref in refs)
        scale = sum(abs(ref.lhs) + abs(ref.rhs) for ref in refs)
        assert abs(rep.min_eig_gap - expected) <= 1e-10 * scale


def test_congruence_covariance_probe_diagonal():
    # with commuting diagonal inputs the verdict is scale covariant
    diag_a = np.array([0.5, 2.0, 7.0])
    diag_b = np.array([3.0, 0.7, 1.4])
    diag_d = np.array([2.0, 0.5, 3.0])
    a, b = SpdMatrix(np.diag(diag_a)), SpdMatrix(np.diag(diag_b))
    a2 = SpdMatrix(np.diag(diag_d * diag_a * diag_d))
    b2 = SpdMatrix(np.diag(diag_d * diag_b * diag_d))
    base = theorem_t6(a, b, 2.0, 2, "i")
    scaled = theorem_t6(a2, b2, 2.0, 2, "i")
    assert base.holds == scaled.holds
    per_entry = [scalar.theorem_main_reverse(x, y, 2.0, 2, "i").gap
                 for x, y in zip(diag_a, diag_b)]
    expected = min(d * d * g for d, g in zip(diag_d, per_entry))
    assert scaled.min_eig_gap == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("family,branch", [(f.key, br) for f in OPERATOR_TABLE
                                           for br in ("i", "ii")])
def test_random_spd_loewner_validity_smoke(family, branch):
    rng = Xoshiro256StarStar(2024)
    fn = OPERATOR_BY_NAME[family].evaluate
    windows = {
        ("t6", "i"): scalar.window_dyadic_high, ("t6", "ii"): scalar.window_dyadic_low,
        ("c3", "i"): scalar.window_dyadic_high, ("c3", "ii"): scalar.window_dyadic_low,
        ("t66", "i"): scalar.window_sc_low, ("t66", "ii"): scalar.window_sc_high,
        ("c33", "i"): scalar.window_sc_low, ("c33", "ii"): scalar.window_sc_high,
    }
    for _ in range(30):
        dim = (1, 2, 4, 8)[rng.randint(4)]
        n = MIN_DEPTH[family] + rng.randint(4)
        lo, hi = windows[(family, branch)](n)
        while True:
            v = rng.uniform(-6.0, 6.0)
            if v < lo - 1e-6 or v > hi + 1e-6:
                break
        rep = fn(random_spd(dim, 1e4, rng), random_spd(dim, 1e4, rng), v, n, branch)
        assert rep.hypothesis_ok
        assert rep.holds, (family, branch, dim, v, n, rep.min_eig_gap)


@pytest.mark.parametrize("lhs", [np.full((2, 2), np.inf), np.diag([1e308, 1e308])])
def test_side_out_of_range_raises_overflow(lhs):
    # a non-finite side, or one whose norms sum past the range, has no verdict
    a = SpdMatrix(np.eye(2))
    with pytest.raises(OverflowError, match="t66: the Loewner gap at v=2.0 leaves"):
        operators._finish("t66", "i", a, a, 2.0, 1, lhs, np.diag([1e308, 1e308]), True)


@pytest.mark.parametrize("family, error", [("t6", OverflowError), ("t66", OverflowError),
                                           ("c3", MatrixError), ("c33", MatrixError)])
@pytest.mark.parametrize("branch", ["i", "ii"])
def test_overflowing_sides_raise_without_runtime_warnings(family, error, branch):
    # A nabla_-6 B and the correction leave the range; only the error reaches the caller
    a, b = SpdMatrix([[1e307]]), SpdMatrix([[5e307]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error) as caught:
            OPERATOR_BY_NAME[family].evaluate(a, b, -6.0, 2, branch)
    expected = "the Loewner gap" if error is OverflowError else "power overflows"
    assert expected in str(caught.value)


def _reference_gap(key, pair, means, v, n, branch):
    """min eig(rhs - lhs) and ||lhs||_F + ||rhs||_F of the paper's statement,
    built from the public means; ``means`` memoizes them per weight."""
    a, b = pair
    dyadic, heinz = key in ("t6", "c3"), key in ("c3", "c33")

    def mean(w):
        if w not in means:
            means[w] = (heinz_mean if heinz else geometric_mean)(a, b, w).entries
        return means[w]

    def sharp(w):
        if ("sharp", w) not in means:
            means["sharp", w] = geometric_mean(a, b, w).entries
        return means["sharp", w]

    def edge(k):  # the correction weight of depth k, mirrored for branch ii
        w = (2.0 ** (k - 1) + 1.0) / 2.0 ** k if dyadic else 2.0 ** -k
        return w if branch == "i" else 1.0 - w

    nabla = arithmetic_mean(a, b, 0.5).entries
    lhs = nabla if heinz else arithmetic_mean(a, b, v).entries
    if dyadic:  # t6, c3: the terms k = n..2 about A # B, after a lead term
        lead = 2.0 * (1.0 - v) if branch == "i" else 2.0 * v
        coef = 2.0 * v - 1.0 if branch == "i" else 1.0 - 2.0 * v
        corr = sum(2.0 ** (k - 2) * (sharp(0.5) - 2.0 * mean(edge(k)) + mean(edge(k - 1)))
                   for k in range(n, 1, -1))
        rhs = mean(v) + lead * (nabla - sharp(0.5)) + coef * corr
    else:  # t66, c33: the terms k = n..1 about A, B or A nabla B
        anchor = nabla if heinz else (a if branch == "i" else b).entries
        coef = v if branch == "i" else 1.0 - v
        corr = sum(2.0 ** (k - 1) * (anchor - 2.0 * mean(edge(k)) + mean(edge(k - 1)))
                   for k in range(n, 0, -1))
        rhs = mean(v) + coef * corr
    return np.linalg.eigvalsh(rhs - lhs)[0], np.linalg.norm(lhs) + np.linalg.norm(rhs)


def test_operator_reports_match_the_paper_statements():
    # a portable pin of the values on non-commuting pairs: every family,
    # branch, and depth least, 3 and 6, at weights about each window edge
    rng = Xoshiro256StarStar(29)
    pairs = [(random_spd(dim, 1e4, rng), random_spd(dim, 1e4, rng)) for dim in range(2, 9)]
    for family in OPERATOR_TABLE:
        for pair in pairs:
            for branch in family.branches:
                means = {}
                for n in (family.min_depth, 3, 6):
                    lo, hi = family.bounds(branch, n)
                    for v in (-6.0, lo - 0.125, lo, lo + 0.125, 0.5 * (lo + hi),
                              hi - 0.125, hi, hi + 0.125, 6.0):
                        rep = family.evaluate(*pair, v, n, branch)
                        ref, scale = _reference_gap(family.key, pair, means, v, n, branch)
                        case = (family.key, branch, pair[0].dim, v, n)
                        assert abs(rep.min_eig_gap - ref) <= 1e-13 * scale, case
                        assert rep.holds == (ref >= -rep.tol), case


def test_operator_verdicts_match_the_spectral_oracle():
    # a portable pin of the verdicts: each family at depth max(least, 3) on
    # non-commuting pairs, below its window, above it (holds) and at its
    # midpoint (fails), against the scalar twins on the 50-digit pencil spectrum
    rng = Xoshiro256StarStar(41)
    pairs = [(random_spd(dim, 1e4, rng), random_spd(dim, 1e4, rng))
             for dim in (2, 4, 8) for _ in range(4)]
    verdicts = []
    for family in OPERATOR_TABLE:
        n = max(family.min_depth, 3)
        for branch in family.branches:
            lo, hi = family.bounds(branch, n)
            for a, b in pairs:
                for v in (lo - 0.25, 0.5 * (lo + hi), hi + 0.25):
                    rep = family.evaluate(a, b, v, n, branch)
                    expected = oracles.operator_verdict(a.entries, b.entries, v, n,
                                                        family.key, branch)
                    assert rep.holds == expected, (family.key, branch, a.dim, v)
                    verdicts.append(expected)
    assert len(verdicts) == 288 and verdicts.count(False) == 96


# sha256 over every operator report (or error message) of the four families,
# both branches and depths from the least to 6, on one random_spd pair per
# dim 1-8 at cond 1e4 and one pair whose means leave the floating-point range,
# at weights on both sides of each window, at its edges and inside it;
# repr keeps each float's exact bits
OPERATOR_REPORTS_SHA256 = (
    "ea88b0bc7616329e8d308bd8617bea687e3f7243f66b1afd01cb1ff075ca0de5")


def test_operator_reports_known_answer():
    rng = Xoshiro256StarStar(13)
    pairs = [(random_spd(dim, 1e4, rng), random_spd(dim, 1e4, rng)) for dim in range(1, 9)]
    pairs.append((SpdMatrix([[1e307]]), SpdMatrix([[5e307]])))
    digest = hashlib.sha256()
    for family in OPERATOR_TABLE:
        for branch in family.branches:
            for n in range(family.min_depth, 7):
                lo, hi = family.bounds(branch, n)
                for a, b in pairs:
                    for v in (-6.0, lo - 0.125, lo, 0.5 * (lo + hi), hi, hi + 0.125):
                        try:
                            out = tuple(family.evaluate(a, b, v, n, branch))
                        except (MatrixError, OverflowError) as exc:
                            out = str(exc)
                        digest.update(repr(out).encode())
    assert digest.hexdigest() == OPERATOR_REPORTS_SHA256
