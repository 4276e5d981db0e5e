"""Start-vector generators for the PCG solves on K_nn.

The K_nn solves form a multiple-right-hand-side sequence with a constant
matrix: previous solutions span a subspace that nearly contains the next
one, so a small projected (Galerkin) solve gives a start vector that leaves
PCG little to do. CSPE and POD are one projection x0 = V (V^T K_nn V)^-1 V^T b
on two bases, with V^T K_nn V factored once per basis change, at push.
CSPE's V holds orthonormalized previous solutions and gains at most one
column, and one K_nn*v product, per push; POD's V holds the leading left
singular vectors of a snapshot window. The ``direct`` strategy needs none
of them: the K_nn solve service (schur.SchurContext) starts each of its
solves at the solve with the K_nn factor.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import SolverError, SpdSolveError
from .linalg import SparseMatrix, cholesky_spd, mgs_extend


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

    def _factor(self, V: np.ndarray, KV: np.ndarray) -> int | None:
        """Take V as the basis when G = V^T KV is SPD and return None;
        otherwise leave no basis and return the pivot where G breaks down."""
        self.basis = self._chol = None
        try:
            self._chol = cholesky_spd(V.T @ KV)
        except SpdSolveError as exc:
            return exc.pivot
        self.basis = V
        return None

    def start(self, rhs: np.ndarray) -> np.ndarray:
        if self.basis is None:
            return np.zeros(self.knn.nrows)
        y = scipy.linalg.solve_triangular(self._chol, self.basis.T @ rhs, lower=True,
                                          check_finite=False)
        z = scipy.linalg.solve_triangular(self._chol, y, lower=True, trans="T",
                                          check_finite=False)
        return self.basis @ z


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
            drop = self._factor(np.column_stack(self.columns), np.column_stack(self.kcolumns))
            if drop is None:
                return
            self.columns.pop(drop)
            self.kcolumns.pop(drop)


class PodCache(_GalerkinStart):
    """Snapshot POD basis: the leading left singular vectors of the last
    ``window`` snapshots with sigma_1 / sigma_k <= tol_pod, fewer while the
    Gram matrix is not SPD. Reading tol_pod as an upper bound on the ratio
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
        while k > 0 and self._factor(U[:, :k], np.column_stack(KU[:k])) is not None:
            k -= 1  # stricter truncation until the Gram matrix is SPD


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
