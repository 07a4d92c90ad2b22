"""Symmetric positive-definite matrices: spectral factorization,
fractional powers, weighted operator means, and the Loewner partial order.

Every eigendecomposition goes through ``jacobi_eigh``, a thin wrapper of
LAPACK's symmetric eigensolver (``np.linalg.eigh``, or ``eigvalsh`` where
only the eigenvalues are read).  The weighted geometric mean of a pair is
built from one Cholesky factorization of A and one eigendecomposition,
through the congruence covariance of the mean (see MeanCalculator); that
one mean kernel also forms every matrix power, as A^p = I #_p A.

All matrices are dense float64.  Every operation that returns a matrix
symmetrizes its result and asserts the pre-symmetrization residual is
within 1e-10 of the Frobenius norm; constructor input, a parsed file
included, is held to the tighter 1e-12.  Raw arrays given to ``eigh`` or
``loewner_leq`` take that same constructor.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .scalar import DomainError, _finite, _require_weight, _shown

SYM_INPUT_TOL = 1e-12      # constructor / parser symmetry tolerance
SYM_OP_TOL = 1e-10         # internal operation symmetry tolerance
SPD_MIN_EIG_FACTOR = 1e-14  # SpdMatrix rejects min eig <= dim * factor * ||A||_2
LOEWNER_REL_TOL = 1e-8     # default Loewner tolerance factor


class MatrixError(ValueError):
    """Bad matrix input: shape, symmetry, or positive definiteness."""


class JacobiConvergenceError(RuntimeError):
    """The eigensolver did not converge (name kept for compatibility)."""


def _as_square(entries) -> np.ndarray:
    try:
        m = np.asarray(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MatrixError(f"matrix entries must be numbers in equal rows: {exc}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise MatrixError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise MatrixError("matrix entries must be finite")
    return m


def _fro(m: np.ndarray) -> float:
    """Frobenius norm: the sum np.linalg.norm forms, rescaled by the largest
    entry only when that sum overflows (entries past about 1e154).

    ``np.vdot`` forms the same BLAS sum as ``np.linalg.norm`` but raises no
    overflow warning, so in-range norms keep their bits at no extra cost.
    """
    x = m.ravel(order="K")
    norm = math.sqrt(np.vdot(x, x))
    if norm == math.inf:
        scale = float(np.max(np.abs(x)))
        if scale < math.inf:
            x = x / scale
            norm = scale * math.sqrt(np.vdot(x, x))
    return norm


def _asymmetry(m: np.ndarray, rel_tol: float) -> float:
    """Return the residual ||M - M^T||_F / 2; reject it beyond rel_tol * ||M||_F."""
    residual = 0.5 * _fro(m - m.T)
    scale = _fro(m)
    if residual > rel_tol * scale:
        raise MatrixError(
            f"asymmetry residual {residual:.3e} exceeds {rel_tol:.0e} * ||M||_F "
            f"= {rel_tol * scale:.3e}"
        )
    return residual


def _symmetrize(m: np.ndarray, rel_tol: float) -> tuple[np.ndarray, float]:
    """Return ((M + M^T)/2, residual); reject asymmetry beyond rel_tol or overflow."""
    residual = _asymmetry(m, rel_tol)
    with np.errstate(over="ignore"):
        sym = 0.5 * (m + m.T)
    if not np.isfinite(sym).all():
        raise MatrixError("symmetrization overflows: an entry exceeds about 9e307 in magnitude")
    return sym, residual


class SymMatrix:
    """Dense symmetric matrix with read-only entries.

    The constructor is the path for untrusted input: it checks the shape
    and finiteness, symmetrizes, and keeps the input's residual
    ||M - M^T||_F / 2 as ``asym_residual`` (rejected beyond SYM_INPUT_TOL
    of ||M||_F).  Results symmetric by construction come from ``_trusted``.
    """

    __slots__ = ("entries", "asym_residual")

    def __init__(self, entries):
        sym, residual = _symmetrize(_as_square(entries), SYM_INPUT_TOL)
        sym.setflags(write=False)
        self.entries = sym
        self.asym_residual = residual

    @classmethod
    def _trusted(cls, sym_entries: np.ndarray) -> "SymMatrix":
        # symmetric by the caller's construction: no check, residual 0
        obj = cls.__new__(cls)
        sym_entries = np.ascontiguousarray(sym_entries, dtype=float)
        sym_entries.setflags(write=False)
        obj.entries = sym_entries
        obj.asym_residual = 0.0
        return obj

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def fro(self) -> float:
        return _fro(self.entries)


class EigenDecomp(NamedTuple):
    """Spectral factorization A = Q diag(lam) Q^T, eigenvalues ascending."""

    q: np.ndarray
    lam: np.ndarray


def jacobi_eigh(entries: np.ndarray, vectors: bool = True) -> EigenDecomp:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    The one symmetric eigensolver of the library, LAPACK's through
    ``np.linalg.eigh``, or ``np.linalg.eigvalsh`` when ``vectors`` is false
    (then ``q`` is None).  The name is kept for compatibility with callers
    of the earlier Jacobi solver.  Raises JacobiConvergenceError when
    LAPACK reports no convergence.
    """
    try:
        if not vectors:
            return EigenDecomp(None, np.linalg.eigvalsh(entries))
        lam, q = np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:
        raise JacobiConvergenceError(f"eigensolver did not converge: {exc}") from None
    return EigenDecomp(q, lam)


def _operand(m) -> SymMatrix:
    """m if it is a SymMatrix, else SymMatrix(m), the untrusted-input path."""
    return m if isinstance(m, SymMatrix) else SymMatrix(m)


def eigh(matrix: "SymMatrix | np.ndarray") -> EigenDecomp:
    """Spectral factorization of a symmetric matrix (ascending eigenvalues)."""
    matrix = _operand(matrix)
    if isinstance(matrix, SpdMatrix):
        return matrix.decomp
    return jacobi_eigh(matrix.entries)


class SpdMatrix(SymMatrix):
    """Symmetric positive-definite matrix: a SymMatrix that passed the SPD check.

    The constructor is the path for untrusted input: it symmetrizes as
    SymMatrix does and rejects matrices whose smallest eigenvalue, from an
    eigenvalue-only solve, is not safely positive.  Results of internal
    operations that are positive definite by construction come from
    ``_trusted``.  Either way the spectral factorization is computed on
    each read of ``decomp``; nothing is cached.
    """

    __slots__ = ()

    def __init__(self, entries):
        super().__init__(entries)
        lam = jacobi_eigh(self.entries, vectors=False).lam
        spectral_norm = float(np.max(np.abs(lam)))
        floor = self.dim * SPD_MIN_EIG_FACTOR * spectral_norm
        if lam[0] <= floor:
            raise MatrixError(
                f"matrix is not safely positive definite: min eigenvalue "
                f"{lam[0]:.6e} <= {floor:.6e}"
            )

    @property
    def decomp(self) -> EigenDecomp:
        decomp = jacobi_eigh(self.entries)
        if decomp.lam[0] <= 0.0:
            raise MatrixError(
                f"matrix lost positive definiteness: min eigenvalue {decomp.lam[0]:.6e}"
            )
        return decomp

    @property
    def certified_min_eig(self) -> float:
        return float(self.decomp.lam[0])


def _check_dims(a, b) -> None:
    """The one check of an operand pair: two SymMatrix of one dimension."""
    if not (isinstance(a, SymMatrix) and isinstance(b, SymMatrix)):
        raise MatrixError(f"expected two SymMatrix operands, got "
                          f"{type(a).__name__} and {type(b).__name__}")
    if a.dim != b.dim:
        raise MatrixError(f"dimension mismatch: {a.dim} vs {b.dim}")


def arithmetic_mean(a: SpdMatrix, b: SpdMatrix, v: float) -> SymMatrix:
    """Entrywise (1-v)A + vB; positive definiteness is not certified here."""
    _check_dims(a, b)
    _require_weight(v)
    with np.errstate(over="ignore", invalid="ignore"):
        entries = (1.0 - v) * a.entries + v * b.entries
    if not np.isfinite(entries).all():
        raise OverflowError(f"arithmetic_mean: value at v={v!r} leaves the floating-point range")
    return SymMatrix._trusted(entries)


class MeanCalculator:
    """Weighted geometric and Heinz means of one SPD pair.

    The mean is covariant under congruence, (XAX^T) #_w (XBX^T) =
    X (A #_w B) X^T, so with A = LL^T and L^(-1) B L^(-T) = Q diag(lam) Q^T
    every weight is A #_w B = W diag(lam^w) W^T with W = LQ: one Cholesky
    factorization and one eigensolve serve all weights of the pair, and
    ``prime`` forms the means of many weights in one stacked pass.
    """

    def __init__(self, a: SpdMatrix, b: SpdMatrix):
        _check_dims(a, b)
        self.a = a
        self.b = b
        try:
            chol = np.linalg.cholesky(a.entries)
        except np.linalg.LinAlgError:
            raise MatrixError("matrix is not positive definite: Cholesky "
                              "factorization failed") from None
        ichol = np.linalg.inv(chol)
        inner, _ = _symmetrize(ichol @ b.entries @ ichol.T, SYM_OP_TOL)
        d = jacobi_eigh(inner)
        if d.lam[0] <= 0.0:
            raise MatrixError(f"inner congruence lost positive definiteness: min "
                              f"eigenvalue {d.lam[0]:.6e}")
        self._lam = d.lam
        self._w = chol @ d.q
        self._cache: dict[float, np.ndarray] = {}

    def sharp_entries(self, w: float) -> np.ndarray:
        """Entries of A #_w B = A^(1/2) (A^(-1/2) B A^(-1/2))^w A^(1/2)."""
        if w not in self._cache:
            self.prime((w,))
        return self._cache[w]

    def prime(self, weights) -> None:
        """Cache A #_w B for every new weight of ``weights`` in one stacked pass.

        Each power is taken as ``lam ** w`` on its own, so numpy's scalar
        fast paths (w = 0.5, 2, -1) give the bits a lone weight gets; the
        products and their symmetrization then run over the whole stack.

        One screen over the stack stands in for the per-weight checks: it
        passes when every product's sum of squares is finite and every
        residual ||M - M^T||_F / 2 is at most a quarter of SYM_OP_TOL *
        ||M||_F, a margin for summing in another order than ``_fro``.
        Otherwise the checks run per weight in the order given: the first
        weight whose symmetrized product is not finite (its power or the
        product overflowed) or whose product is asymmetric beyond
        SYM_OP_TOL raises, after the weights before it are cached.
        """
        new = [w for w in dict.fromkeys(weights) if w not in self._cache]
        if not new:
            return
        with np.errstate(over="ignore", invalid="ignore"):
            powers = np.array([self._lam ** w for w in new])
            stack = (self._w * powers[:, None, :]) @ self._w.T
            sym = 0.5 * (stack + stack.transpose(0, 2, 1))
            skew = stack - stack.transpose(0, 2, 1)
            skew_sq = (skew * skew).sum(axis=(1, 2))
            stack_sq = (stack * stack).sum(axis=(1, 2))
            # unsquared norms, so a negative tolerance fails the screen
            screened = (np.isfinite(stack_sq).all() and
                        (0.5 * np.sqrt(skew_sq) <= 0.25 * SYM_OP_TOL * np.sqrt(stack_sq)).all())
        if screened:
            self._cache.update(zip(new, sym))
            return
        finite = np.isfinite(sym).all(axis=(1, 2))
        for w, m, out, ok in zip(new, stack, sym, finite):
            if not ok:
                raise MatrixError(f"inner eigenvalue power overflows for weight {w}")
            _asymmetry(m, SYM_OP_TOL)
            self._cache[w] = out

    def heinz_entries(self, w: float) -> np.ndarray:
        return 0.5 * (self.sharp_entries(w) + self.sharp_entries(1.0 - w))

    def nabla_entries(self, w: float) -> np.ndarray:
        return (1.0 - w) * self.a.entries + w * self.b.entries


def spd_power(a: SpdMatrix, p: float) -> SpdMatrix:
    """Real matrix power A^p = I #_p A, for any real p: the identity's Cholesky
    factor is I, so the kernel forms Q diag(lam^p) Q^T of A's own eigensolve."""
    if not isinstance(a, SpdMatrix):
        raise MatrixError("spd_power requires an SpdMatrix")
    if not _finite(p):
        raise DomainError(f"exponent must be finite, got {_shown(p)}")
    eye = SpdMatrix._trusted(np.eye(a.dim))
    return SpdMatrix._trusted(MeanCalculator(eye, a).sharp_entries(p))


def geometric_mean(a: SpdMatrix, b: SpdMatrix, v: float) -> SpdMatrix:
    """Weighted operator geometric mean A^(1/2) (A^(-1/2) B A^(-1/2))^v A^(1/2).

    Defined for every real v; for v in [0, 1] it is the familiar operator
    mean lying below the weighted arithmetic mean in Loewner order.
    """
    _require_weight(v)
    return SpdMatrix._trusted(MeanCalculator(a, b).sharp_entries(v))


def heinz_mean(a: SpdMatrix, b: SpdMatrix, v: float) -> SpdMatrix:
    """Operator Heinz mean: average of the geometric means at v and 1-v."""
    _require_weight(v)
    return SpdMatrix._trusted(MeanCalculator(a, b).heinz_entries(v))


class LoewnerVerdict(NamedTuple):
    """Result of an A <= B test: smallest eigenvalue of B - A vs a tolerance."""

    min_eig_diff: float
    tol: float
    holds: bool

    def as_dict(self) -> dict:
        return self._asdict()


def loewner_leq(a, b, tol: Optional[float] = None) -> LoewnerVerdict:
    """Loewner comparison A <= B via the smallest eigenvalue of B - A.

    The default tolerance is LOEWNER_REL_TOL * (||A||_F + ||B||_F).
    """
    a, b = _operand(a), _operand(b)
    _check_dims(a, b)
    if tol is None:
        tol = LOEWNER_REL_TOL * (a.fro() + b.fro())
    elif not tol >= 0.0:
        raise MatrixError(f"tolerance must be >= 0, got {tol!r}")
    lam_min = float(jacobi_eigh(b.entries - a.entries).lam[0])
    return LoewnerVerdict(lam_min, tol, lam_min >= -tol)


# ---------------------------------------------------------------------------
# Plain-text matrix files: first line "dim", then dim rows of dim decimals
# ---------------------------------------------------------------------------

def _parse_rows(text: str) -> np.ndarray:
    lines = [line for line in map(str.strip, text.splitlines()) if line]
    if not lines:
        raise MatrixError("empty matrix file")
    try:
        dim = int(lines[0])
    except ValueError:
        raise MatrixError(f"first line must be the dimension, got {lines[0]!r}") from None
    if dim < 1:
        raise MatrixError(f"dimension must be >= 1, got {dim}")
    if len(lines) != dim + 1:
        raise MatrixError(f"expected {dim} rows after the dimension line, got {len(lines) - 1}")
    rows = [line.split() for line in lines[1:]]
    if all(len(row) == dim for row in rows):
        try:
            return np.array(rows, dtype=float)  # float() of each str: the same bits
        except ValueError:
            pass
    # the first bad row names the error; in a row, a bad token before its length
    for line, row in zip(lines[1:], rows):
        try:
            [float(tok) for tok in row]
        except ValueError:
            raise MatrixError(f"non-numeric entry in row {line!r}") from None
        if len(row) != dim:
            raise MatrixError(f"expected {dim} entries per row, got {len(row)}")
    raise AssertionError("unreachable: every row parsed")


def parse_matrix_text(text: str) -> SymMatrix:
    return SymMatrix(_parse_rows(text))


def _read_text(path, error: type) -> str:
    """The whole text of a UTF-8 file, newlines translated as text mode
    does; a file that is not UTF-8 raises ``error`` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        # read() decodes the file in one piece, so start is a file offset
        raise error(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x} "
                    f"at position {exc.start})") from None


def load_spd_matrix(path) -> SpdMatrix:
    return SpdMatrix(_parse_rows(_read_text(path, MatrixError)))


def format_matrix_text(matrix) -> str:
    entries = matrix.entries if hasattr(matrix, "entries") else _as_square(matrix)
    lines = [str(entries.shape[0])]
    for row in entries:
        lines.append(" ".join("%.17g" % x for x in row))
    return "\n".join(lines) + "\n"
