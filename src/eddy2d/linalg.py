"""Sparse and small-dense kernels.

Compressed-row matrices (backed by scipy for storage and matvec), a
preconditioned conjugate gradient solver with start-vector support and
per-solve iteration reporting, incomplete Cholesky / Jacobi preconditioners,
modified Gram-Schmidt, power iteration and a Gram-matrix SVD for snapshot
windows. PCG is hand-rolled because iteration counts and start vectors are
first-class outputs here, not implementation details.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import Ic0Breakdown, SolverError, SpdSolveError


class SparseMatrix:
    """Compressed-row sparse real matrix.

    After construction the stored pattern is canonical: column indices
    strictly increasing within each row, duplicates summed, explicit zeros
    dropped. Immutable; safe to share across threads.
    """

    def __init__(self, csr: scipy.sparse.csr_matrix):
        csr = csr.tocsr().copy()
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        self._csr = csr

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_coo(nrows: int, ncols: int, rows, cols, values) -> "SparseMatrix":
        m = scipy.sparse.coo_matrix(
            (np.asarray(values, dtype=float), (rows, cols)), shape=(nrows, ncols)
        )
        return SparseMatrix(m.tocsr())

    @staticmethod
    def from_dense(arr) -> "SparseMatrix":
        return SparseMatrix(scipy.sparse.csr_matrix(np.asarray(arr, dtype=float)))

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return SparseMatrix(scipy.sparse.identity(n, format="csr"))

    # -- accessors ---------------------------------------------------------

    @property
    def nrows(self) -> int:
        return self._csr.shape[0]

    @property
    def ncols(self) -> int:
        return self._csr.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._csr.shape

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    @property
    def row_offsets(self) -> np.ndarray:
        return self._csr.indptr

    @property
    def col_indices(self) -> np.ndarray:
        return self._csr.indices

    @property
    def values(self) -> np.ndarray:
        return self._csr.data

    def scipy(self) -> scipy.sparse.csr_matrix:
        return self._csr

    def toarray(self) -> np.ndarray:
        return self._csr.toarray()

    def diagonal(self) -> np.ndarray:
        return self._csr.diagonal()

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self._csr.T.tocsr())

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ncols,):
            raise ValueError(f"dimension mismatch: matrix is {self.shape}, vector is {x.shape}")
        return self._csr @ x

    def __matmul__(self, x):
        return self.matvec(x)


class LinearOperator:
    """Matrix-free linear map on R^dim with an optional diagonal accessor."""

    def __init__(self, dim: int, apply_fn, diagonal: np.ndarray | None = None):
        self.dim = dim
        self._apply = apply_fn
        self._diagonal = diagonal

    @staticmethod
    def from_matrix(A: SparseMatrix) -> "LinearOperator":
        if A.nrows != A.ncols:
            raise ValueError("operator requires a square matrix")
        return LinearOperator(A.nrows, A.matvec, A.diagonal())

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"dimension mismatch: operator dim {self.dim}, vector {x.shape}")
        return self._apply(x)

    def __call__(self, x):
        return self.apply(x)

    def diagonal(self) -> np.ndarray:
        if self._diagonal is None:
            raise ValueError("operator has no diagonal accessor")
        return self._diagonal


def _as_operator(op) -> LinearOperator:
    return op if isinstance(op, LinearOperator) else LinearOperator.from_matrix(op)


@dataclass
class PcgReport:
    solution: np.ndarray
    iterations: int
    converged: bool
    final_relative_residual: float


def pcg(op, b: np.ndarray, x0: np.ndarray | None = None,
        precond: LinearOperator | None = None, tol: float = 1e-6,
        max_iter: int | None = None) -> PcgReport:
    """Preconditioned conjugate gradients for SPD (or consistent SPSD) systems.

    Convergence criterion is the relative residual ||b - op x|| / ||b||.
    With b = 0 the solver returns x0 and reports converged when
    ||op x0|| <= tol * ||x0|| (exactly zero x0 counts as converged).
    For consistent singular systems the returned solution's null-space
    component equals that of x0. A NaN during iteration is a hard error
    (indefinite or inconsistent system).
    """
    op = _as_operator(op)
    n = op.dim
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({n},)")
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if max_iter is None:
        max_iter = max(10 * n, 100)
    apply_m = precond.apply if precond is not None else (lambda v: v)

    bnorm = float(np.linalg.norm(b))
    if n == 0:
        return PcgReport(x, 0, True, 0.0)
    if bnorm == 0.0:
        xnorm = float(np.linalg.norm(x))
        if xnorm == 0.0:
            return PcgReport(x, 0, True, 0.0)
        res = float(np.linalg.norm(op.apply(x)))
        return PcgReport(x, 0, res <= tol * xnorm, res / xnorm)

    r = b - op.apply(x)
    rel = float(np.linalg.norm(r)) / bnorm
    if rel <= tol:
        return PcgReport(x, 0, True, rel)

    z = apply_m(r)
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, max_iter + 1):
        q = op.apply(p)
        pq = float(p @ q)
        if not np.isfinite(pq) or pq <= 0.0:
            raise SolverError(
                f"pcg: curvature p^T A p = {pq:.3e} at iteration {k}; "
                "system is indefinite or inconsistent"
            )
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        rnorm = float(np.linalg.norm(r))
        if not np.isfinite(rnorm):
            raise SolverError(f"pcg: non-finite residual at iteration {k}")
        rel = rnorm / bnorm
        if rel <= tol:
            return PcgReport(x, k, True, rel)
        z = apply_m(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
    return PcgReport(x, max_iter, False, rel)


def jacobi_preconditioner(A: SparseMatrix) -> LinearOperator:
    """Elementwise division by diag(A); identity on zero-diagonal rows."""
    d = A.diagonal()
    if np.any(d < 0):
        i = int(np.argmin(d))
        raise SolverError(f"jacobi: negative diagonal entry {d[i]:.3e} at row {i}")
    inv = np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 1.0)
    return LinearOperator(A.nrows, lambda x: inv * x, inv)


class Ic0Preconditioner(LinearOperator):
    """Zero-fill incomplete Cholesky on the pattern of A.

    Applies (L L^T)^-1 with two sparse triangular solves in C. SuperLU
    factors the triangular L once under natural ordering with no pivoting,
    which leaves L as its own factor with no fill, so memory and time per
    apply stay O(nnz(L)).
    """

    def __init__(self, A: SparseMatrix):
        L = _ic0_factor(A)
        self.L = L
        self._lu = scipy.sparse.linalg.splu(L.scipy().tocsc(), permc_spec="NATURAL",
                                            diag_pivot_thresh=0.0)
        super().__init__(A.nrows, self._solve, None)

    def _solve(self, r: np.ndarray) -> np.ndarray:
        return self._lu.solve(self._lu.solve(r), trans="T")


def _ic0_factor(A: SparseMatrix) -> SparseMatrix:
    n = A.nrows
    if A.ncols != n:
        raise ValueError("ic0 requires a square matrix")
    indptr, indices, data = A.row_offsets, A.col_indices, A.values
    # row-wise factorization; rows[i] maps column -> L[i, col] for col <= i
    rows: list[dict[int, float]] = [dict() for _ in range(n)]
    for i in range(n):
        start, end = indptr[i], indptr[i + 1]
        cols = indices[start:end]
        vals = data[start:end]
        li = rows[i]
        diag_a = 0.0
        for c, v in zip(cols, vals):
            if c < i:
                lj = rows[c]
                s = v
                for k, lik in li.items():
                    if k < c:
                        ljk = lj.get(k)
                        if ljk is not None:
                            s -= lik * ljk
                li[c] = s / lj[c]
            elif c == i:
                diag_a = v
        s = diag_a - sum(v * v for v in li.values())
        if s <= 0.0 or not np.isfinite(s):
            raise Ic0Breakdown(f"ic0: nonpositive pivot {s:.3e} at row {i}")
        li[i] = float(np.sqrt(s))
    coo_r, coo_c, coo_v = [], [], []
    for i, li in enumerate(rows):
        for c, v in li.items():
            coo_r.append(i)
            coo_c.append(c)
            coo_v.append(v)
    return SparseMatrix.from_coo(n, n, coo_r, coo_c, coo_v)


def ic0_preconditioner(A: SparseMatrix) -> Ic0Preconditioner:
    """Incomplete Cholesky IC(0). Raises Ic0Breakdown on a nonpositive pivot
    so the caller can fall back to Jacobi."""
    return Ic0Preconditioner(A)


def mgs_extend(basis: list[np.ndarray], v: np.ndarray, tol_drop: float = 1e-10):
    """The unit vector that modified Gram-Schmidt with re-orthogonalization
    adds to the orthonormal ``basis`` for ``v``, or None when v is zero or
    its residual after projection is <= tol_drop times its norm."""
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return None
    r = v.copy()
    for _ in range(2):  # second pass restores orthogonality lost to roundoff
        for q in basis:
            r -= (q @ r) * q
    nr = float(np.linalg.norm(r))
    return r / nr if nr > tol_drop * nv else None


def mgs_orthonormalize(columns, tol_drop: float = 1e-10) -> list[np.ndarray]:
    """Orthonormal basis of ``columns`` by mgs_extend, dropping the columns
    it rejects."""
    basis: list[np.ndarray] = []
    for v in columns:
        q = mgs_extend(basis, v, tol_drop)
        if q is not None:
            basis.append(q)
    return basis


@dataclass
class PowerReport:
    value: float
    vector: np.ndarray
    converged: bool
    iterations: int


def power_iteration(op, tol: float = 1e-8, max_iter: int = 5000,
                    seed: int = 0, v0: np.ndarray | None = None) -> PowerReport:
    """Dominant-eigenvalue estimate via power iteration with the Rayleigh
    quotient; converged when the successive relative change is <= tol.
    Deterministic for a fixed seed; ``v0`` warm-starts the iteration."""
    op = _as_operator(op)
    n = op.dim
    if n == 0:
        raise SolverError("power_iteration: empty operator")
    rng = np.random.default_rng(seed)
    if v0 is not None and np.linalg.norm(v0) > 0:
        x = np.array(v0, dtype=float)
    else:
        x = rng.standard_normal(n)
    x /= np.linalg.norm(x)

    lam = 0.0
    reseeded = False
    for k in range(1, max_iter + 1):
        y = op.apply(x)
        lam_new = float(x @ y)
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            if reseeded:
                raise SolverError("power_iteration: operator annihilated two start vectors")
            reseeded = True
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            continue
        x = y / ny
        if k > 1 and abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return PowerReport(lam_new, x, True, k)
        lam = lam_new
    return PowerReport(lam, x, False, max_iter)


def cholesky_spd(A: np.ndarray) -> np.ndarray:
    """Dense Cholesky with the failing pivot index reported on breakdown."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    L = np.zeros_like(A)
    for j in range(n):
        d = A[j, j] - L[j, :j] @ L[j, :j]
        if d <= 0.0 or not np.isfinite(d):
            raise SpdSolveError(f"matrix not positive definite at pivot {j}", pivot=j)
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            L[j + 1:, j] = (A[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def dense_solve_spd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cholesky solve for small dense SPD systems (projection dimension)."""
    L = cholesky_spd(A)
    y = scipy.linalg.solve_triangular(L, np.asarray(b, dtype=float), lower=True,
                                      check_finite=False)
    return scipy.linalg.solve_triangular(L, y, lower=True, trans="T", check_finite=False)


def svd_small(X: np.ndarray, drop_tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and singular values of a tall matrix with few
    columns, via the eigendecomposition of the small Gram matrix X^T X.
    Columns with sigma <= drop_tol * sigma_1 are omitted."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("svd_small expects a 2D array")
    m = X.shape[1]
    if m == 0 or not np.any(X):
        return np.zeros((X.shape[0], 0)), np.zeros(0)
    G = X.T @ X
    w, V = np.linalg.eigh(G)
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, None)
    sigma = np.sqrt(w)
    if sigma[0] == 0.0:
        return np.zeros((X.shape[0], 0)), np.zeros(0)
    keep = sigma > drop_tol * sigma[0]
    sigma = sigma[keep]
    U = X @ V[:, order][:, keep] / sigma
    # renormalize: Gram route loses a few digits for graded spectra
    U /= np.linalg.norm(U, axis=0)
    return U, sigma


def export_matrix(A: SparseMatrix, path) -> None:
    """Write A in the coordinate exchange text format (1-based indices)."""
    scipy.io.mmwrite(path, A.scipy(), precision=17)
