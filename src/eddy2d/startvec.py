"""Start-vector generators for the PCG solves on K_nn.

The K_nn solves form a multiple-right-hand-side sequence with a constant
matrix: previous solutions span a subspace that nearly contains the next
one, so a small projected (Galerkin) solve gives a start vector that leaves
PCG little to do. CSPE and POD are one projection x0 = V (V^T K_nn V)^-1 V^T b
on two bases, with V^T K_nn V factored once per basis change, at push, by
LAPACK dpotrf.
CSPE's V holds orthonormalized previous solutions and gains at most one
column, and one K_nn*v product, per push; POD's V holds the leading left
singular vectors of a snapshot window. The ``direct`` strategy needs none
of them: the K_nn solve service (schur.SchurContext) starts each of its
solves at the solve with the K_nn factor.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import SolverError
from .linalg import SparseMatrix, mgs_extend


class PreviousSolution:
    """Baseline strategy: start from the solution of the previous solve."""

    name = "previous"

    def __init__(self, dim: int):
        self.dim = dim
        self._last: np.ndarray | None = None

    def start(self, rhs: np.ndarray) -> np.ndarray:
        return np.zeros(self.dim) if self._last is None else self._last.copy()

    def push(self, solution: np.ndarray) -> None:
        self._last = np.array(solution, dtype=float)


class _GalerkinStart:
    """The start x0 = V z with G z = V^T b, G = V^T K_nn V, on the basis
    ``basis`` (None: zero start). A push of a nonzero solution updates the
    history (``_extend``), which factors G once for every later start."""

    def __init__(self, knn: SparseMatrix, window: int):
        if window < 1:
            raise ValueError(f"{self.name} window must be >= 1")
        self.knn, self.window = knn, window
        self.basis: np.ndarray | None = None
        self._chol: np.ndarray | None = None
        self.spmv_count = 0

    def push(self, x: np.ndarray) -> None:
        x = np.asarray(x, dtype=float)
        if float(np.linalg.norm(x)) != 0.0:
            self._extend(x)

    def _factor(self, V: np.ndarray, G: np.ndarray) -> int | None:
        """Take V as the basis when its Gram matrix G = V^T K_nn V is SPD and
        return None; otherwise leave no basis and return the pivot where G
        breaks down: the first non-finite diagonal entry of G's LAPACK
        factor before the pivot where dpotrf stops at a leading minor that
        is not positive definite (dpotrf passes NaN and inf on)."""
        self._chol, info = lapack.dpotrf(G, lower=1)
        n = info - 1 if info > 0 else len(G)
        bad = ~np.isfinite(self._chol.diagonal()[:n])
        pivot = int(bad.argmax()) if bad.any() else n
        self.basis = V if pivot == len(G) else None
        return pivot if pivot < len(G) else None

    def start(self, rhs: np.ndarray) -> np.ndarray:
        if self.basis is None:
            return np.zeros(self.knn.nrows)
        return self.basis @ lapack.dpotrs(self._chol, self.basis.T @ rhs, lower=1)[0]


class CspeCache(_GalerkinStart):
    """Cascaded subspace-projection extrapolation.

    ``columns`` holds up to ``window`` orthonormalized previous solutions;
    ``kcolumns`` caches K_nn*v per column. A push orthogonalizes the new
    solution against them (evicting the oldest column first when the window
    is full) and computes exactly one new matrix-vector product. A column at
    whose pivot the Gram matrix stops being SPD is dropped.
    """

    name = "cspe"

    def __init__(self, knn: SparseMatrix, window: int):
        super().__init__(knn, window)
        self.columns: list[np.ndarray] = []
        self.kcolumns: list[np.ndarray] = []

    def _extend(self, x: np.ndarray) -> None:
        if len(self.columns) == self.window:
            self.columns.pop(0)
            self.kcolumns.pop(0)
        v = mgs_extend(self.columns, x)
        if v is not None:
            self.columns.append(v)
            self.kcolumns.append(self.knn.matvec(v))
            self.spmv_count += 1
        while self.columns:
            V = np.column_stack(self.columns)
            drop = self._factor(V, V.T @ np.column_stack(self.kcolumns))
            if drop is None:
                return
            self.columns.pop(drop)
            self.kcolumns.pop(drop)


class PodCache(_GalerkinStart):
    """Snapshot POD basis: the leading left singular vectors of the last
    ``window`` snapshots with sigma_1 / sigma_k <= tol_pod, cut to those
    before the pivot where their Gram matrix breaks down. Reading tol_pod as an upper bound on the ratio
    keeps the well-conditioned leading modes; the opposite direction would
    retain arbitrarily ill-conditioned ones and break the reduced solve.
    """

    name = "pod"

    def __init__(self, knn: SparseMatrix, window: int, tol_pod: float = 1e4):
        super().__init__(knn, window)
        self.tol_pod = tol_pod
        self.snapshots: list[np.ndarray] = []

    @property
    def n_modes(self) -> int:
        return 0 if self.basis is None else self.basis.shape[1]

    def _extend(self, x: np.ndarray) -> None:
        self.snapshots = (self.snapshots + [x.copy()])[-self.window:]
        U, sigma, _ = np.linalg.svd(np.column_stack(self.snapshots), full_matrices=False)
        k = int(np.count_nonzero(sigma[0] <= self.tol_pod * sigma))
        KU = [self.knn.matvec(U[:, j]) for j in range(k)]
        self.spmv_count += k
        self.basis = None  # stays so when no mode passes or none gives an SPD G
        while k:  # cut to the modes before G's failing pivot until G is SPD (None)
            V = U[:, :k]
            k = self._factor(V, V.T @ np.column_stack(KU[:k]))


def make_provider(strategy: str, knn: SparseMatrix, cspe_window: int = 5,
                  pod_window: int = 10, tol_pod: float = 1e4):
    """One start-vector provider per solve purpose; a cold start returns
    zero."""
    if strategy == "previous":
        return PreviousSolution(knn.nrows)
    if strategy == "cspe":
        return CspeCache(knn, cspe_window)
    if strategy == "pod":
        return PodCache(knn, pod_window, tol_pod)
    raise SolverError(f"unknown start-vector strategy {strategy!r}")
