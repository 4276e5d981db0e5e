"""Sparse and small-dense kernels.

Compressed-row matrices (their products run scipy's compiled CSR kernel), a
preconditioned conjugate gradient solver with start-vector support and
per-solve iteration reporting, incomplete Cholesky / Jacobi preconditioners,
a sparse LU factorization for the constant SPD blocks, modified
Gram-Schmidt, power iteration and a dense Cholesky factorization that
reports the pivot where it breaks down.
PCG is hand-rolled because iteration counts and start vectors are
first-class outputs here, not implementation details. PCG takes the matrix
itself and a preconditioner as a plain function r -> M^-1 r; power
iteration takes a function and its dimension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse import _sparsetools  # the compiled CSR kernels behind csr @ x

from .errors import Ic0Breakdown, SolverError, SpdSolveError


class SparseMatrix:
    """Compressed-row sparse real matrix.

    Owns its canonical CSR arrays: column indices strictly increasing within
    each row, duplicates summed. ``matvec`` runs the compiled CSR kernel on
    them directly, the routine ``csr @ x`` ends in, without scipy's operator
    dispatch. The scipy view (``scipy()``) is built on first use and shares
    the arrays. The constructor canonicalizes what it is given and drops
    explicit zeros; ``from_canonical`` trusts arrays that are already
    canonical and keeps any stored zero they hold, and ``from_rows`` keeps
    each row's entries in a given order. Immutable; safe to share across
    threads.
    """

    def __init__(self, csr: scipy.sparse.csr_matrix):
        csr = csr.tocsr().copy()
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        self._set(csr.shape, csr.indptr, csr.indices, csr.data, csr)

    def _set(self, shape, indptr, indices, data, csr=None) -> None:
        self._shape = (int(shape[0]), int(shape[1]))
        self._indptr, self._indices, self._data = indptr, indices, data
        self._csr = csr

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_canonical(cls, shape: tuple[int, int], indptr: np.ndarray,
                       indices: np.ndarray, data: np.ndarray) -> "SparseMatrix":
        """Wrap CSR arrays that are already canonical (sorted, duplicate-free
        column indices per row, float64 data, matching index dtypes) without
        copying or checking them."""
        m = cls.__new__(cls)
        m._set(shape, indptr, indices, data)
        return m

    @classmethod
    def from_rows(cls, ncols: int, cols: np.ndarray, vals: np.ndarray) -> "SparseMatrix":
        """One row per row of the (R, k) arrays ``cols`` and ``vals``, with
        the entries whose column is -1 left out. Each row keeps its entries
        in the given order rather than sorted by column (columns must not
        repeat within a row), so ``matvec`` sums a row left to right in that
        order: the arithmetic of ``(x[cols] * vals).sum(axis=1)``, bitwise up
        to the sign of a zero sum."""
        keep = cols >= 0
        indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
        return cls.from_canonical((cols.shape[0], ncols), indptr, cols[keep],
                                  np.asarray(vals, dtype=float)[keep])

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
        return self._shape[0]

    @property
    def ncols(self) -> int:
        return self._shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self._indptr[-1])

    @property
    def row_offsets(self) -> np.ndarray:
        return self._indptr

    @property
    def col_indices(self) -> np.ndarray:
        return self._indices

    @property
    def values(self) -> np.ndarray:
        return self._data

    def scipy(self) -> scipy.sparse.csr_matrix:
        if self._csr is None:
            self._csr = scipy.sparse.csr_matrix(
                (self._data, self._indices, self._indptr), shape=self._shape)
        return self._csr

    def toarray(self) -> np.ndarray:
        return self.scipy().toarray()

    def diagonal(self) -> np.ndarray:
        return self.scipy().diagonal()

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.scipy().T.tocsr())

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        nrows, ncols = self._shape
        if x.shape != (ncols,):
            raise ValueError(f"dimension mismatch: matrix is {self._shape}, vector is {x.shape}")
        y = np.zeros(nrows)
        _sparsetools.csr_matvec(nrows, ncols, self._indptr, self._indices, self._data, x, y)
        return y


def norm2(v: np.ndarray) -> float:
    """Euclidean norm of a real vector as sqrt(v.dot(v)): for a contiguous
    one the arithmetic np.linalg.norm does, bitwise, without its dispatch."""
    return math.sqrt(v.dot(v))


@dataclass
class PcgReport:
    solution: np.ndarray
    iterations: int
    converged: bool
    final_relative_residual: float


def pcg(A: SparseMatrix, b: np.ndarray, x0: np.ndarray | None = None,
        precond=None, tol: float = 1e-6, max_iter: int | None = None) -> PcgReport:
    """Preconditioned conjugate gradients for SPD (or consistent SPSD) systems.

    ``A`` is a square matrix, or anything with ``nrows`` and ``matvec``;
    ``precond`` is a function r -> M^-1 r (None for no preconditioning).
    Convergence criterion is the relative residual ||b - A x|| / ||b||.
    With b = 0 the solver returns x0 and reports converged when
    ||A x0|| <= tol * ||x0|| (exactly zero x0 counts as converged).
    For consistent singular systems the returned solution's null-space
    component equals that of x0. A NaN during iteration is a hard error
    (indefinite or inconsistent system). With no x0 the start is zero and
    the first residual is b itself, so A is applied once per iteration.
    """
    n = A.nrows
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({n},)")
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if max_iter is None:
        max_iter = max(10 * n, 100)
    apply_m = precond if precond is not None else (lambda v: v)

    bnorm = norm2(b)
    if n == 0:
        return PcgReport(x, 0, True, 0.0)
    if bnorm == 0.0:
        xnorm = norm2(x)
        if xnorm == 0.0:
            return PcgReport(x, 0, True, 0.0)
        res = norm2(A.matvec(x))
        return PcgReport(x, 0, res <= tol * xnorm, res / xnorm)

    if x0 is None:
        r, rel = b.copy(), 1.0  # b - A 0 is b bitwise
    else:
        r = b - A.matvec(x)
        rel = norm2(r) / bnorm
    if rel <= tol:
        return PcgReport(x, 0, True, rel)

    z = apply_m(r)
    p = z.copy() if z is r else z  # r is updated in place below
    rz = float(r @ z)
    for k in range(1, max_iter + 1):
        q = A.matvec(p)
        pq = float(p @ q)
        if not math.isfinite(pq) or pq <= 0.0:
            raise SolverError(
                f"pcg: curvature p^T A p = {pq:.3e} at iteration {k}; "
                "system is indefinite or inconsistent"
            )
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        rnorm = norm2(r)
        if not math.isfinite(rnorm):
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


def jacobi_preconditioner(A: SparseMatrix):
    """The function r -> r / diag(A), identity on zero-diagonal rows."""
    d = A.diagonal()
    if np.any(d < 0):
        i = int(np.argmin(d))
        raise SolverError(f"jacobi: negative diagonal entry {d[i]:.3e} at row {i}")
    inv = np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), 1.0)
    return lambda r: inv * r


class Ic0Preconditioner:
    """Zero-fill incomplete Cholesky on the pattern of A.

    Called on r, applies (L L^T)^-1 with two sparse triangular solves in C.
    SuperLU factors the triangular L once under natural ordering with no
    pivoting, which leaves L as its own factor with no fill, so memory and
    time per apply stay O(nnz(L)).
    """

    def __init__(self, A: SparseMatrix):
        L = _ic0_factor(A)
        self.L = L
        self._lu = scipy.sparse.linalg.splu(L.scipy().tocsc(), permc_spec="NATURAL",
                                            diag_pivot_thresh=0.0)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._solve(r)

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


def factor_spd(A: SparseMatrix, name: str) -> scipy.sparse.linalg.SuperLU:
    """Sparse LU of a constant SPD matrix, built once and reused for every
    solve with it. A symmetric minimum-degree ordering keeps the fill small,
    and SPD needs no pivoting. A singular matrix raises SolverError naming
    ``name``."""
    try:
        return scipy.sparse.linalg.splu(A.scipy().tocsc(), permc_spec="MMD_AT_PLUS_A",
                                        diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        raise SolverError(f"{name} factorization failed: {exc}") from exc


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


@dataclass
class PowerReport:
    value: float
    vector: np.ndarray
    converged: bool
    iterations: int


def power_iteration(apply, n: int, tol: float = 1e-8, max_iter: int = 5000,
                    seed: int = 0, v0: np.ndarray | None = None) -> PowerReport:
    """Dominant-eigenvalue estimate of the linear map ``apply`` on R^n via
    power iteration with the Rayleigh quotient; converged when the
    successive relative change is <= tol. Deterministic for a fixed seed;
    ``v0`` warm-starts the iteration."""
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
        y = apply(x)
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


def export_matrix(A: SparseMatrix, path) -> None:
    """Write A in the coordinate exchange text format (1-based indices)."""
    import scipy.io  # imported here: only this needs it, and it slows every CLI start
    scipy.io.mmwrite(path, A.scipy(), precision=17)
