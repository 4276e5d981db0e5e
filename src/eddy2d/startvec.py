"""Start-vector generators for the PCG solves on K_nn.

The recycling strategies exploit that the K_nn solves form a
multiple-right-hand-side sequence with a constant matrix: solutions from
previous time steps span a subspace in which the new solution is nearly
contained, so a small projected (Galerkin) solve yields a start vector that
leaves PCG little to do.

CSPE keeps an orthonormal basis of previous solutions where at most one
column changes per step, so all cached K_nn*v products except the newest
are reused. POD compresses a snapshot window through the SVD and keeps only
modes within a singular-value ratio threshold, then solves the reduced
system U_r^T K_nn U_r. The direct strategy recycles nothing: its start
vector is the exact solve with a sparse LU factor of K_nn, which PCG then
only checks.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import SolverError, SpdSolveError
from .linalg import SparseMatrix, cholesky_spd, dense_solve_spd, mgs_extend, svd_small


STRATEGIES = ("previous", "cspe", "pod", "direct")


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


class CspeCache:
    """Cascaded subspace-projection extrapolation.

    V holds up to ``window`` orthonormalized previous solutions; KV caches
    K_nn*v per column. A push orthogonalizes the new solution against V
    (evicting the oldest column first when the window is full) and computes
    exactly one new matrix-vector product.
    """

    name = "cspe"

    def __init__(self, knn: SparseMatrix, window: int, drop_tol: float = 1e-10):
        if window < 1:
            raise ValueError("cspe window must be >= 1")
        self.knn = knn
        self.window = window
        self.drop_tol = drop_tol
        self.columns: list[np.ndarray] = []
        self.kcolumns: list[np.ndarray] = []
        self.spmv_count = 0

    def push(self, x: np.ndarray) -> None:
        x = np.asarray(x, dtype=float)
        if float(np.linalg.norm(x)) == 0.0:
            return
        if len(self.columns) == self.window:
            self.columns.pop(0)
            self.kcolumns.pop(0)
        v = mgs_extend(self.columns, x, self.drop_tol)
        if v is None:
            return
        self.columns.append(v)
        self.kcolumns.append(self.knn.matvec(v))
        self.spmv_count += 1

    def start(self, rhs: np.ndarray) -> np.ndarray:
        if not self.columns:
            return np.zeros(self.knn.nrows)
        while self.columns:
            V = np.column_stack(self.columns)
            KV = np.column_stack(self.kcolumns)
            G = V.T @ KV
            g = V.T @ rhs
            try:
                z = dense_solve_spd(G, g)
            except SpdSolveError as exc:
                drop = exc.pivot if exc.pivot is not None else len(self.columns) - 1
                self.columns.pop(drop)
                self.kcolumns.pop(drop)
                continue
            return V @ z
        return np.zeros(self.knn.nrows)


def pod_truncate(sigma: np.ndarray, tol_pod: float) -> int:
    """Number of leading modes with sigma_1 / sigma_k <= tol_pod.

    Note: keeping the *well-conditioned* leading modes reads the threshold
    as an upper bound on the ratio; the opposite direction would retain
    arbitrarily ill-conditioned modes and break the reduced solve.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0:
        return 0
    if np.any(np.diff(sigma) > 0):
        raise ValueError("singular values must be nonincreasing")
    if sigma[0] <= 0:
        return 0
    with np.errstate(divide="ignore"):
        ratios = np.where(sigma > 0, sigma[0] / np.where(sigma > 0, sigma, 1.0), np.inf)
    return int(np.count_nonzero(ratios <= tol_pod))


class PodCache:
    """Snapshot POD basis with a reduced K_nn matrix, refreshed on push.

    The reduced matrix R = U_r^T K_nn U_r and its Cholesky factor are reused
    across start() calls until the snapshot window changes.
    """

    name = "pod"

    def __init__(self, knn: SparseMatrix, window: int, tol_pod: float = 1e4):
        if window < 1:
            raise ValueError("pod window must be >= 1")
        self.knn = knn
        self.window = window
        self.tol_pod = tol_pod
        self.snapshots: list[np.ndarray] = []
        self.U_r: np.ndarray | None = None
        self._chol: np.ndarray | None = None
        self.spmv_count = 0

    @property
    def n_modes(self) -> int:
        return 0 if self.U_r is None else self.U_r.shape[1]

    def push(self, x: np.ndarray) -> None:
        x = np.asarray(x, dtype=float)
        if float(np.linalg.norm(x)) == 0.0:
            return
        self.snapshots.append(x.copy())
        if len(self.snapshots) > self.window:
            self.snapshots.pop(0)
        self._refresh()

    def _refresh(self) -> None:
        X = np.column_stack(self.snapshots)
        U, sigma = svd_small(X)
        k = pod_truncate(sigma, self.tol_pod)
        while k > 0:
            U_r = U[:, :k]
            KU = np.column_stack([self.knn.matvec(U_r[:, j]) for j in range(k)])
            self.spmv_count += k
            R = U_r.T @ KU
            try:
                self._chol = cholesky_spd(R)
            except SpdSolveError:
                k -= 1  # stricter truncation until the reduced matrix is SPD
                continue
            self.U_r = U_r
            return
        self.U_r = None
        self._chol = None

    def start(self, rhs: np.ndarray) -> np.ndarray:
        if self.U_r is None:
            return np.zeros(self.knn.nrows)
        g = self.U_r.T @ rhs
        y = scipy.linalg.solve_triangular(self._chol, g, lower=True, check_finite=False)
        z = scipy.linalg.solve_triangular(self._chol, y, lower=True, trans="T",
                                          check_finite=False)
        return self.U_r @ z


class FactorSolution:
    """Direct strategy: start from the exact solve ``exact_solve(rhs)`` with
    a factor of K_nn. PCG accepts that start in 0 iterations, so there is no
    history to keep."""

    name = "direct"

    def __init__(self, exact_solve):
        self._solve = exact_solve

    def start(self, rhs: np.ndarray) -> np.ndarray:
        return self._solve(rhs)

    def push(self, solution: np.ndarray) -> None:
        pass


def make_provider(strategy: str, knn: SparseMatrix, cspe_window: int = 5,
                  pod_window: int = 10, tol_pod: float = 1e4, drop_tol: float = 1e-10,
                  exact_solve=None):
    """One start-vector provider per solve purpose; cold starts of the
    recycling strategies return zero. ``direct`` needs ``exact_solve``."""
    if strategy == "direct":
        return FactorSolution(exact_solve)
    if strategy == "previous":
        return PreviousSolution(knn.nrows)
    if strategy == "cspe":
        return CspeCache(knn, cspe_window, drop_tol)
    if strategy == "pod":
        return PodCache(knn, pod_window, tol_pod)
    raise SolverError(f"unknown start-vector strategy {strategy!r}")
