"""Matrix core: eigensolver, SPD type, powers, means, Loewner order."""

import hashlib
import math

import numpy as np
import pytest
from mpmath import mpf

import oracles

from meanbound import matrices
from meanbound.matrices import (
    SYM_OP_TOL,
    JacobiConvergenceError,
    MatrixError,
    MeanCalculator,
    SpdMatrix,
    SymMatrix,
    _fro,
    _symmetrize,
    arithmetic_mean,
    eigh,
    format_matrix_text,
    geometric_mean,
    heinz_mean,
    jacobi_eigh,
    load_spd_matrix,
    loewner_leq,
    parse_matrix_text,
    spd_power,
)
from meanbound.harness import random_spd
from meanbound.rng import Xoshiro256StarStar, derive_seed
from meanbound.scalar import heinz_scalar, weighted_geometric

RNG = np.random.default_rng(20240811)


def random_sym(dim: int) -> np.ndarray:
    m = RNG.standard_normal((dim, dim))
    return 0.5 * (m + m.T)


def random_spd_np(dim: int, cond: float = 1e3) -> SpdMatrix:
    g = RNG.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    lam = np.exp(RNG.uniform(math.log(cond ** -0.5), math.log(cond ** 0.5), dim))
    return SpdMatrix((q * lam) @ q.T)


# ---------------------------------------------------------------------------
# SymMatrix construction
# ---------------------------------------------------------------------------

def test_symmetrization_records_residual():
    m = SymMatrix([[1.0, 2.0 + 1e-14], [2.0, 1.0]])
    assert m.entries[0, 1] == m.entries[1, 0]
    assert 0.0 < m.asym_residual < 1e-13


def test_asymmetric_input_rejected():
    with pytest.raises(MatrixError, match="residual"):
        SymMatrix([[1.0, 2.0], [0.5, 1.0]])


@pytest.mark.parametrize("entry", [1e308, 1.7e308, -1.7e308])
def test_symmetrizing_an_entry_past_9e307_names_the_overflow(entry):
    # M + M^T overflows although the entry is finite; no RuntimeWarning escapes
    with pytest.raises(MatrixError, match="symmetrization overflows"):
        SymMatrix([[entry]])


def test_symmetrizing_keeps_the_bits_of_in_range_entries():
    m = np.array([[8.9e307, 1.0], [1.0 + 1e-13, -3.0]])
    entries = SymMatrix(m).entries
    assert np.array_equal(entries, 0.5 * (m + m.T)) and entries[0, 0] == 8.9e307


def test_bad_shapes_rejected():
    with pytest.raises(MatrixError):
        SymMatrix([[1.0, 2.0]])
    with pytest.raises(MatrixError):
        SymMatrix([[np.inf, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("build, entries", [
    (SymMatrix, [[1.0, 2.0], [3.0]]),
    (SpdMatrix, [[1.0, 0.0], [0.0]]),
    (SymMatrix, [["a"]]),
    (SymMatrix, [[1j]]),
    (lambda m: loewner_leq(m, [[1.0]]), [[1.0], [2.0, 3.0]]),
])
def test_ragged_or_non_numeric_entries_raise_matrix_error(build, entries):
    with pytest.raises(MatrixError, match="numbers in equal rows"):
        build(entries)


def test_spd_matrix_is_a_sym_matrix_carrying_its_input_residual():
    spd = SpdMatrix([[2.0, 1.0 + 1e-14], [1.0, 2.0]])
    assert isinstance(spd, SymMatrix)
    assert spd.entries[0, 1] == spd.entries[1, 0]
    assert spd.asym_residual == SymMatrix([[2.0, 1.0 + 1e-14], [1.0, 2.0]]).asym_residual > 0.0
    assert not spd.entries.flags.writeable
    assert eigh(spd) is spd.decomp


def test_trusted_and_arithmetic_mean_results_are_read_only_with_zero_residual():
    a, b = random_spd_np(3), random_spd_np(3)
    sym = SymMatrix._trusted(np.eye(3))
    spd = SpdMatrix._trusted(np.eye(3))
    nabla = arithmetic_mean(a, b, 0.25)
    assert type(sym) is SymMatrix and type(spd) is SpdMatrix and type(nabla) is SymMatrix
    for m in (sym, spd, nabla):
        assert m.asym_residual == 0.0 and not m.entries.flags.writeable
    assert eigh(spd) is spd.decomp and spd.certified_min_eig == 1.0


# ---------------------------------------------------------------------------
# Eigendecomposition
# ---------------------------------------------------------------------------

def test_eigh_diagonal():
    d = eigh(SymMatrix(np.diag([3.0, 1.0])))
    assert np.allclose(d.lam, [1.0, 3.0])
    assert np.allclose(np.abs(d.q), np.fliplr(np.eye(2)))


def test_eigh_two_by_two_closed_form():
    d = eigh(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(d.lam, [1.0, 3.0], atol=1e-14)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for col, ref in ((0, np.array([inv_sqrt2, -inv_sqrt2])),
                     (1, np.array([inv_sqrt2, inv_sqrt2]))):
        vec = d.q[:, col]
        assert np.allclose(vec, ref, atol=1e-14) or np.allclose(-vec, ref, atol=1e-14)


def test_eigh_identity():
    d = eigh(SymMatrix(np.eye(5)))
    assert np.allclose(d.lam, np.ones(5))
    recon = (d.q * d.lam) @ d.q.T
    assert np.linalg.norm(recon - np.eye(5)) == 0.0


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 13, 16])
def test_eigh_reconstruction_and_orthogonality(dim):
    for _ in range(8):
        a = random_sym(dim)
        d = jacobi_eigh(a)
        norm = np.linalg.norm(a)
        assert np.linalg.norm((d.q * d.lam) @ d.q.T - a) <= 1e-11 * norm
        assert np.linalg.norm(d.q.T @ d.q - np.eye(dim)) <= 1e-12 * dim
        assert np.all(np.diff(d.lam) >= 0.0)
        # cross-check the spectrum against an independent solver
        ref = np.linalg.eigvalsh(a)
        assert np.allclose(d.lam, ref, atol=1e-12 * max(1.0, norm))


def test_eigh_failure_raises_convergence_error(monkeypatch):
    def no_convergence(entries):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(JacobiConvergenceError, match="did not converge"):
        jacobi_eigh(np.eye(2))


# ---------------------------------------------------------------------------
# SPD construction and powers
# ---------------------------------------------------------------------------

def test_spd_rejects_indefinite_and_near_singular():
    with pytest.raises(MatrixError, match="positive definite"):
        SpdMatrix([[1.0, 0.0], [0.0, -2.0]])
    with pytest.raises(MatrixError, match="positive definite"):
        SpdMatrix([[1.0, 0.0], [0.0, 1e-18]])


def test_certified_min_eig_matches_spectrum():
    a = random_spd_np(6)
    ref = np.linalg.eigvalsh(a.entries)[0]
    assert a.certified_min_eig == pytest.approx(ref, rel=1e-10, abs=1e-10 * a.fro())


def test_spd_power_examples():
    a = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
    half = spd_power(a, 0.5)
    expected = np.array([[1.3660254037844386, 0.3660254037844386],
                         [0.3660254037844386, 1.3660254037844386]])
    assert np.allclose(half.entries, expected, atol=1e-12)
    assert np.allclose(spd_power(a, 1.0).entries, a.entries, atol=1e-14)
    inv_root = spd_power(SpdMatrix(np.diag([4.0, 9.0])), -0.5)
    assert np.allclose(inv_root.entries, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_spd_power_laws(dim):
    a = random_spd_np(dim)
    half = spd_power(a, 0.5)
    assert np.linalg.norm(half.entries @ half.entries - a.entries) <= 1e-10 * a.fro()
    p, q = 0.7, -0.3
    left = spd_power(a, p).entries @ spd_power(a, q).entries
    right = spd_power(a, p + q).entries
    assert np.linalg.norm(left - right) <= 1e-10 * np.linalg.norm(right)


# sha256 of spd_power(a, p).entries for a = random_spd(1 + seed % 9, 1e6,
# Xoshiro256StarStar(seed)), seeds 0..199, over every p of SPD_POWER_EXPONENTS:
# the bits of Q diag(lam^p) Q^T from A's own eigendecomposition
SPD_POWER_EXPONENTS = (0.5, 2, -1, 0.3, -2.7, 7, 0, 1)
SPD_POWER_SHA256 = "7c40df898d801ea5bed1859028a4ed61a7e657c6ed55b6cac746b974a779722a"


def test_spd_power_known_answer():
    digest = hashlib.sha256()
    for seed in range(200):
        a = random_spd(1 + seed % 9, 1e6, Xoshiro256StarStar(seed))
        for p in SPD_POWER_EXPONENTS:
            digest.update(spd_power(a, p).entries.tobytes())
    assert digest.hexdigest() == SPD_POWER_SHA256


def test_spd_power_overflow():
    a = SpdMatrix([[1e300]])
    with pytest.raises(MatrixError, match="overflow"):
        spd_power(a, 2.0)


def test_frobenius_norm_keeps_in_range_bits_and_survives_overflow():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 5, 8):
        m = rng.standard_normal((dim, dim)) * 10.0 ** rng.uniform(-100, 100)
        for view in (m, m.T, m - m.T):
            assert _fro(view) == float(np.linalg.norm(view))
    big = np.array([[3e200, 1e200], [1e200, -2e200]])
    assert _fro(big) == pytest.approx(math.sqrt(15.0) * 1e200, rel=1e-15)
    assert _fro(big.T) == _fro(big)
    assert SpdMatrix([[1e300]]).fro() == 1e300


# ---------------------------------------------------------------------------
# Means
# ---------------------------------------------------------------------------

def test_arithmetic_mean_examples():
    a = random_spd_np(3)
    assert np.allclose(arithmetic_mean(a, a, 0.77).entries, a.entries, atol=1e-14)
    d = arithmetic_mean(SpdMatrix(np.diag([1.0, 4.0])), SpdMatrix(np.diag([16.0, 1.0])), 0.125)
    assert np.allclose(np.diag(d.entries), [2.875, 3.625], atol=1e-14)
    b = random_spd_np(3)
    assert np.allclose(arithmetic_mean(a, b, 0.0).entries, a.entries, atol=1e-14)


def test_geometric_mean_examples():
    a = random_spd_np(4)
    assert np.allclose(geometric_mean(a, a, -1.7).entries, a.entries, rtol=1e-11)
    d = geometric_mean(SpdMatrix(np.diag([1.0, 4.0])), SpdMatrix(np.diag([16.0, 1.0])), 0.125)
    assert np.allclose(np.diag(d.entries),
                       [1.4142135623730951, 3.3635856610148582], rtol=1e-13)
    b = random_spd_np(4)
    g1 = geometric_mean(a, b, 0.5)
    g2 = geometric_mean(b, a, 0.5)
    assert np.linalg.norm(g1.entries - g2.entries) <= 1e-9 * g1.fro()


def test_heinz_mean_examples():
    a = random_spd_np(3)
    assert np.allclose(heinz_mean(a, a, 0.3).entries, a.entries, rtol=1e-11)
    b = random_spd_np(3)
    h0 = heinz_mean(a, b, 0.0)
    assert np.linalg.norm(h0.entries - 0.5 * (a.entries + b.entries)) <= 1e-11 * h0.fro()
    d = heinz_mean(SpdMatrix(np.diag([1.0, 4.0])), SpdMatrix(np.diag([16.0, 1.0])), 0.125)
    assert np.allclose(np.diag(d.entries),
                       [6.363961030678928, 2.2763963880087896], rtol=1e-13)


@pytest.mark.parametrize("v", [-2.0, -0.4, 0.2, 0.5, 0.9, 1.6, 3.0])
def test_geometric_mean_swap_identity(v):
    a = random_spd_np(4, cond=1e2)
    b = random_spd_np(4, cond=1e2)
    g1 = geometric_mean(a, b, v)
    g2 = geometric_mean(b, a, 1.0 - v)
    assert np.linalg.norm(g1.entries - g2.entries) <= 1e-9 * g1.fro()


def test_diagonal_reduction_matches_scalar_path():
    diag_a, diag_b = [0.02, 1.0, 37.5], [5.0, 0.3, 2.0]
    a = SpdMatrix(np.diag(diag_a))
    b = SpdMatrix(np.diag(diag_b))
    for v in (-1.5, 0.25, 0.8, 2.0):
        g = geometric_mean(a, b, v)
        h = heinz_mean(a, b, v)
        for i, (x, y) in enumerate(zip(diag_a, diag_b)):
            assert g.entries[i, i] == pytest.approx(weighted_geometric(x, y, v), rel=5e-14)
            assert h.entries[i, i] == pytest.approx(heinz_scalar(x, y, v), rel=5e-14)
        off = g.entries - np.diag(np.diag(g.entries))
        assert np.linalg.norm(off) == 0.0


def test_one_by_one_reduces_to_scalar():
    for a_val, b_val, v in ((1.0, 16.0, 0.125), (3.7, 0.2, -2.5), (5.0, 5.0, 0.4)):
        g = geometric_mean(SpdMatrix([[a_val]]), SpdMatrix([[b_val]]), v)
        assert g.entries[0, 0] == pytest.approx(
            weighted_geometric(a_val, b_val, v), rel=1e-13)


def test_mean_calculator_shares_congruence():
    a = random_spd_np(4)
    b = random_spd_np(4)
    mc = MeanCalculator(a, b)
    assert np.array_equal(mc.sharp_entries(0.25), mc.sharp_entries(0.25))
    direct = geometric_mean(a, b, 0.25)
    assert np.allclose(mc.sharp_entries(0.25), direct.entries, rtol=1e-12)


def test_sharp_matches_high_precision_oracle():
    rng = Xoshiro256StarStar(derive_seed(20260811, "operator-oracle"))
    worst = 0.0
    for pair in range(120):
        dim = 1 + pair % 4
        a = random_spd(dim, 1e4, rng)
        b = random_spd(dim, 1e4, rng)
        mc = MeanCalculator(a, b)
        reference = oracles.operator_sharp(a.entries.tolist(), b.entries.tolist())
        for w in (0.5, 0.25, 0.75, -3.5, 6.0, rng.uniform(-6.0, 6.0)):
            ref = reference(w)
            got = mc.sharp_entries(w)
            err = sum((mpf(float(got[i, j])) - ref[i][j]) ** 2
                      for i in range(dim) for j in range(dim))
            norm = sum(x ** 2 for row in ref for x in row)
            worst = max(worst, float((err / norm) ** 0.5))
    assert worst <= 1e-8


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_sharp_is_congruence_covariant(dim):
    # X (A #_w B) X^T = (X A X^T) #_w (X B X^T) for every invertible X
    for _ in range(5):
        a = random_spd_np(dim, cond=1e2)
        b = random_spd_np(dim, cond=1e2)
        x = RNG.standard_normal((dim, dim)) + 2.0 * math.sqrt(dim) * np.eye(dim)

        def congruent(m):
            c = x @ m.entries @ x.T
            return SpdMatrix(0.5 * (c + c.T))

        direct = MeanCalculator(a, b)
        moved = MeanCalculator(congruent(a), congruent(b))
        for w in (0.5, 0.25, -3.5, 6.0, 1.7):
            expected = x @ direct.sharp_entries(w) @ x.T
            got = moved.sharp_entries(w)
            assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def per_weight_sharp(mc, weights, tol=SYM_OP_TOL):
    """Reference: the mean kernel one weight at a time, checks in weight order."""
    out = []
    for w in weights:
        with np.errstate(over="ignore"):
            lam_w = mc._lam ** w
        if not np.all(np.isfinite(lam_w)):
            raise MatrixError(f"inner eigenvalue power overflows for weight {w}")
        out.append(_symmetrize((mc._w * lam_w) @ mc._w.T, tol)[0])
    return out


# 0.5, 2 and -1 take numpy's scalar fast paths of lam ** w; 0 and 1 are exact
STACK_WEIGHTS = [0.5, 2.0, -1.0, 0.0, 1.0, 0.25, 0.75, 0.625, 0.375, 1.0 / 3.0,
                 -3.5, 6.0, 1.5, -0.5, 0.0625, 0.9375]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 16, 24])
def test_stacked_pass_matches_the_per_weight_expression(dim):
    rng = Xoshiro256StarStar(derive_seed(20261018, "stacked-pass", dim))
    for _ in range(6 if dim <= 8 else 2):
        a, b = random_spd(dim, 1e4, rng), random_spd(dim, 1e4, rng)
        weights = STACK_WEIGHTS + [rng.uniform(-6.0, 6.0) for _ in range(4)]
        stacked = MeanCalculator(a, b)
        stacked.prime(weights)
        single = MeanCalculator(a, b)
        for w, expected in zip(weights, per_weight_sharp(stacked, weights)):
            assert stacked.sharp_entries(w).tobytes() == expected.tobytes()
            assert single.sharp_entries(w).tobytes() == expected.tobytes()


@pytest.mark.parametrize("weights,first_bad", [
    ([0.5, 0.25, 200.0, -300.0, 3.0], 2),
    ([2.0, -300.0, 200.0], 1),
])
def test_stacked_pass_names_the_first_overflowing_weight(weights, first_bad):
    # inner spectrum {1e-3, 1e3}: 1e3 ** 200 and 1e-3 ** -300 both overflow
    a = SpdMatrix(np.eye(2))
    b = SpdMatrix(np.diag([1e-3, 1e3]))
    with pytest.raises(MatrixError) as expected:
        per_weight_sharp(MeanCalculator(a, b), weights)
    mc = MeanCalculator(a, b)
    with pytest.raises(MatrixError) as got:
        mc.prime(weights)
    assert str(got.value) == str(expected.value)
    assert str(got.value).endswith(f"for weight {weights[first_bad]}")
    assert list(mc._cache) == weights[:first_bad]


def test_stacked_pass_names_the_first_overflowing_product():
    # A = 1e150, B = 1e300: the inner eigenvalue 1e150 to the power 1.3 is
    # finite, A #_1.3 B = 1e150 * 1e195 is not
    mc = MeanCalculator(SpdMatrix(np.array([[1e150]])), SpdMatrix(np.array([[1e300]])))
    with pytest.raises(MatrixError, match="overflows for weight 1.3$"):
        mc.prime([0.5, 1.3, 2.0])
    assert list(mc._cache) == [0.5]
    with pytest.raises(MatrixError, match="overflows for weight 2.0$"):
        mc.sharp_entries(2.0)


def test_stacked_pass_keeps_the_per_weight_asymmetry_check(monkeypatch):
    a = random_spd(3, 1e4, Xoshiro256StarStar(5))
    b = random_spd(3, 1e4, Xoshiro256StarStar(6))
    mc = MeanCalculator(a, b)
    monkeypatch.setattr(matrices, "SYM_OP_TOL", -1.0)
    with pytest.raises(MatrixError, match="asymmetry residual"):
        mc.prime([0.25, 0.5, 2.0])
    assert not mc._cache


def count_exact_checks(monkeypatch):
    """Count the per-weight symmetry checks (the screen's fallback) of prime."""
    calls = []
    exact = matrices._asymmetry

    def counted(m, rel_tol):
        calls.append(rel_tol)
        return exact(m, rel_tol)

    monkeypatch.setattr(matrices, "_asymmetry", counted)
    return calls


def relative_residual(m):
    # the exact check's ratio ||M - M^T||_F / 2 over ||M||_F
    return 0.5 * _fro(m - m.T) / _fro(m)


def stack_around_its_largest_residual(mc):
    """STACK_WEIGHTS reordered so that the weight whose product is the most
    asymmetric sits mid-stack, after weights strictly less asymmetric;
    returns (weights, index of that weight, its relative residual)."""
    rho = {w: relative_residual((mc._w * mc._lam ** w) @ mc._w.T) for w in STACK_WEIGHTS}
    top = max(rho, key=rho.get)
    below = [w for w in STACK_WEIGHTS if rho[w] < 0.5 * rho[top]]
    rest = [w for w in STACK_WEIGHTS if w != top and w not in below]
    half = len(below) // 2
    assert rho[top] > 0.0 and half >= 2
    return below[:half] + [top] + below[half:] + rest, half, rho[top]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stacked_screen_falls_back_to_the_exact_checks(monkeypatch):
    # tolerance 1.5 rho: every weight passes the exact check, but the
    # screen asks for a quarter of it, which the top weight misses
    a = random_spd(4, 1e4, Xoshiro256StarStar(11))
    b = random_spd(4, 1e4, Xoshiro256StarStar(12))
    mc = MeanCalculator(a, b)
    weights, _, rho = stack_around_its_largest_residual(mc)
    calls = count_exact_checks(monkeypatch)
    monkeypatch.setattr(matrices, "SYM_OP_TOL", 1.5 * rho)
    mc.prime(weights)
    assert len(calls) == len(weights)
    expected = per_weight_sharp(mc, weights, tol=1.5 * rho)
    assert [mc._cache[w].tobytes() for w in weights] == [m.tobytes() for m in expected]


def test_stacked_screen_fallback_raises_at_the_same_weight(monkeypatch):
    # tolerance just below rho: the weights before the top one pass, the
    # top one raises the per-weight message and nothing after it is cached
    a = random_spd(4, 1e4, Xoshiro256StarStar(11))
    b = random_spd(4, 1e4, Xoshiro256StarStar(12))
    mc = MeanCalculator(a, b)
    weights, top, rho = stack_around_its_largest_residual(mc)
    tol = rho * (1.0 - 1e-9)
    monkeypatch.setattr(matrices, "SYM_OP_TOL", tol)
    with pytest.raises(MatrixError) as expected:
        per_weight_sharp(mc, weights, tol=tol)
    with pytest.raises(MatrixError, match="asymmetry residual") as got:
        mc.prime(weights)
    assert str(got.value) == str(expected.value)
    assert list(mc._cache) == weights[:top]


def test_stacked_screen_at_the_default_tolerance_skips_the_exact_checks(monkeypatch):
    a = random_spd(8, 1e4, Xoshiro256StarStar(11))
    b = random_spd(8, 1e4, Xoshiro256StarStar(12))
    mc = MeanCalculator(a, b)
    calls = count_exact_checks(monkeypatch)
    mc.prime(STACK_WEIGHTS)
    assert not calls
    assert list(mc._cache) == STACK_WEIGHTS


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stacked_screen_falls_back_when_squares_overflow(monkeypatch):
    # A #_w B is 1e160 at w = 0.5 and 1e155 at 0.25: finite, but the screen's
    # sums of squares overflow, so the exact checks (which rescale) run
    a, b = SpdMatrix(np.array([[1e150]])), SpdMatrix(np.array([[1e170]]))
    mc = MeanCalculator(a, b)
    calls = count_exact_checks(monkeypatch)
    mc.prime([0.5, 0.25])
    assert len(calls) == 2
    expected = per_weight_sharp(mc, [0.5, 0.25])
    assert [mc._cache[w].tobytes() for w in (0.5, 0.25)] == [m.tobytes() for m in expected]
    assert mc._cache[0.5][0, 0] == pytest.approx(1e160, rel=1e-12)


def test_mean_kernel_rejects_indefinite_operands():
    indefinite = SpdMatrix._trusted(np.array([[1.0, 0.0], [0.0, -1e-3]]))
    spd = SpdMatrix(np.eye(2))
    with pytest.raises(MatrixError, match="Cholesky"):
        MeanCalculator(indefinite, spd)
    with pytest.raises(MatrixError, match="inner congruence lost positive definiteness"):
        MeanCalculator(spd, indefinite)


# ---------------------------------------------------------------------------
# Loewner order
# ---------------------------------------------------------------------------

def test_loewner_examples():
    v = loewner_leq(SpdMatrix(np.diag([1.0, 4.0])), SpdMatrix(np.diag([2.0, 5.0])))
    assert v.min_eig_diff == pytest.approx(1.0, abs=1e-14) and v.holds
    a = random_spd_np(4)
    v = loewner_leq(a, a)
    assert v.min_eig_diff == 0.0 and v.holds
    v = loewner_leq(SpdMatrix(np.diag([1.0, 4.0])), SpdMatrix(np.diag([2.0, 3.0])))
    assert v.min_eig_diff == pytest.approx(-1.0, abs=1e-14) and not v.holds
    with pytest.raises(MatrixError):
        loewner_leq(random_spd_np(2), random_spd_np(3))
    with pytest.raises(MatrixError):
        loewner_leq(a, a, tol=-1.0)
    with pytest.raises(MatrixError, match="tolerance must be >= 0, got nan"):
        loewner_leq(a, a, tol=math.nan)


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_mean_order_sandwich(dim):
    for _ in range(10):
        a = random_spd_np(dim)
        b = random_spd_np(dim)
        v = float(RNG.uniform(0.0, 1.0))
        geo = geometric_mean(a, b, v)
        nab = arithmetic_mean(a, b, v)
        assert loewner_leq(geo, nab).holds
        hz = heinz_mean(a, b, v)
        assert loewner_leq(geometric_mean(a, b, 0.5), hz).holds
        assert loewner_leq(hz, arithmetic_mean(a, b, 0.5)).holds


# ---------------------------------------------------------------------------
# Matrix file format
# ---------------------------------------------------------------------------

def test_matrix_text_round_trip():
    a = random_spd_np(3)
    text = format_matrix_text(a)
    parsed = parse_matrix_text(text)
    assert np.array_equal(parsed.entries, a.entries)


def test_parse_rejects_bad_input():
    with pytest.raises(MatrixError, match="dimension"):
        parse_matrix_text("x\n1.0\n")
    with pytest.raises(MatrixError, match="rows"):
        parse_matrix_text("2\n1.0 0.0\n")
    with pytest.raises(MatrixError, match="entries per row"):
        parse_matrix_text("2\n1.0\n0.0 1.0\n")
    with pytest.raises(MatrixError, match="residual"):
        parse_matrix_text("2\n1.0 0.5\n0.9 1.0\n")
    with pytest.raises(MatrixError):
        parse_matrix_text("")


# sha256 over FILE_KNOWN_ANSWER_COUNT generated matrix files (dims 1-24,
# asymmetry inside SYM_INPUT_TOL): the entries and eigendecomposition of
# load_spd_matrix(path), then the entries and asym_residual of
# parse_matrix_text(text), file by file
FILE_KNOWN_ANSWER_COUNT = 400
FILE_KNOWN_ANSWER_SHA256 = "1d8dbd221c4f78f2b5f5665dd50e6995246c5e6f9416d1287c6696e3f947fc1f"


def _asymmetric_file_text(seed: int) -> str:
    """A random SPD matrix at scale 10^(seed % 7 - 3) with each entry above
    the diagonal moved by up to 1e-13 of the largest entry, as file text."""
    rng = Xoshiro256StarStar(seed)
    m = random_spd(1 + seed % 24, 1e4, rng).entries * 10.0 ** (seed % 7 - 3)
    step = 1e-13 * float(np.max(np.abs(m)))
    for j, k in zip(*np.triu_indices(m.shape[0], 1)):
        m[j, k] += rng.uniform(-step, step)
    return format_matrix_text(m)


def test_matrix_file_known_answer(tmp_path):
    digest = hashlib.sha256()
    for seed in range(FILE_KNOWN_ANSWER_COUNT):
        text = _asymmetric_file_text(seed)
        path = tmp_path / f"m{seed}.txt"
        path.write_text(text, encoding="utf-8")
        loaded = load_spd_matrix(path)
        for array in (loaded.entries, loaded.decomp.lam, loaded.decomp.q):
            digest.update(array.tobytes())
        parsed = parse_matrix_text(text)
        digest.update(parsed.entries.tobytes())
        digest.update(np.float64(parsed.asym_residual).tobytes())
    assert digest.hexdigest() == FILE_KNOWN_ANSWER_SHA256
