"""Generalized Schur complement operator and the K_nn solve service.

Eliminating the nonconducting block of the partitioned system through a
pseudo-inverse of K_nn turns the DAE into an ODE for the conducting DoFs.
A run drives one coil, whose source is I(t) * pattern:

    M_cc da_c/dt + (K_cc(a_c) - K_S) a_c = I(t) * r_pat,
    K_S = K_cn pinv(K_nn) K_cn^T,   r_pat = -K_cn pinv(K_nn) pattern,
    a_n = pinv(K_nn) (I(t) * pattern - K_cn^T a_c).

K_nn and K_cn never change during a run. Under the ``direct`` strategy
K_nn is factored once (sparse LU): the factor is the preconditioner, and
solve_knn starts every solve at the factor's solve, the exact solution,
which PCG's residual check accepts in 0 iterations. The context then keeps
no start-vector history. The other strategies precondition with IC(0) and
recycle previous solutions (startvec); each solve purpose then keeps its
own history, because histories from different right-hand-side families
would be poor extrapolation data for each other.
``SchurContext.set_source`` makes a run's one ``source_term`` solve, of
the pattern, at set-up.
K_cn has nonzero rows only at the n_i interface DoFs, so K_S is one
constant dense n_i x n_i block (Saad 2003, ch. 14): ``form_interface``
forms it as a dense array with n_i ``schur_apply`` solves, after which a
time step makes none. Otherwise the time stepper makes one solve per step,
``recovery`` (a_n). ``apply_ks`` is the one K_S apply: the formed block's
product once the context holds it, else one ``schur_apply`` solve.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import SystemBlocks
from .errors import Ic0Breakdown, SolverError
from .linalg import (
    factor_spd,
    ic0_preconditioner,
    jacobi_preconditioner,
    norm2,
    pcg,
)
from .startvec import make_provider

STRATEGIES = ("previous", "cspe", "pod", "direct")
PURPOSES = ("schur_apply", "source_term", "recovery")


@dataclass
class SolveRecord:
    step: int
    purpose: str
    strategy: str
    iterations: int
    residual: float


@dataclass
class IterationStats:
    """Per-solve PCG iteration counts plus running totals."""

    records: list[SolveRecord] = field(default_factory=list)
    n_solves: int = 0
    total_iterations: int = 0
    by_purpose: dict[str, int] = field(default_factory=lambda: dict.fromkeys(PURPOSES, 0))

    def record(self, step: int, purpose: str, strategy: str, iterations: int,
               residual: float) -> None:
        self.records.append(SolveRecord(step, purpose, strategy, iterations, residual))
        self.n_solves += 1
        self.total_iterations += iterations
        self.by_purpose[purpose] += 1

    def mean_iterations(self) -> float:
        return self.total_iterations / self.n_solves if self.n_solves else 0.0

    def write_csv(self, fh) -> None:
        fh.write("step,purpose,strategy,iterations,residual\n")
        for r in self.records:
            fh.write(f"{r.step},{r.purpose},{r.strategy},{r.iterations},{r.residual!r}\n")


def knn_preconditioner(blocks: SystemBlocks, strategy: str = "previous"):
    """The K_nn preconditioner as a function r -> M^-1 r: the solve with the
    sparse LU factor of K_nn under ``direct`` (exact; a singular K_nn raises
    SolverError), otherwise IC(0) on K_nn, falling back to Jacobi on
    breakdown."""
    if blocks.n_n == 0:
        return None
    if strategy == "direct":
        return factor_spd(blocks.K_nn, "K_nn").solve
    try:
        return ic0_preconditioner(blocks.K_nn)
    except Ic0Breakdown:
        return jacobi_preconditioner(blocks.K_nn)


class SchurContext:
    """Owns the K_nn preconditioner (built once per assembly; K_nn never
    changes during a run), the per-purpose start-vector providers, the
    iteration statistics, the run's coil ``pattern`` with w = pinv(K_nn)
    pattern and r_pat = -K_cn w once ``set_source`` has run, and, once
    formed, the ``interface`` block (all None until then). Under ``direct``
    the preconditioner is the solve with the K_nn factor, which starts
    every solve, and there are no providers. Single-owner mutable; not
    shared across threads."""

    def __init__(self, blocks: SystemBlocks, tol: float = 1e-6,
                 max_iter: int | None = None, strategy: str = "previous",
                 cspe_window: int = 5, pod_window: int = 10, tol_pod: float = 1e4,
                 preconditioner=None):
        self.blocks = blocks
        self.tol = tol
        self.max_iter = max_iter
        self.strategy = strategy
        self.precond = preconditioner if preconditioner is not None \
            else knn_preconditioner(blocks, strategy)
        self.providers = {} if strategy == "direct" else {
            purpose: make_provider(strategy, blocks.K_nn, cspe_window=cspe_window,
                                   pod_window=pod_window, tol_pod=tol_pod)
            for purpose in PURPOSES
        }
        self.stats = IterationStats()
        self.step = 0
        self.pattern: np.ndarray | None = None
        self.w: np.ndarray | None = None
        self.r_pat: np.ndarray | None = None
        self.interface: InterfaceSchur | None = None
        self._estimation: "SchurContext | None" = None

    def estimation_context(self) -> "SchurContext":
        """Context for eigenvalue estimation: shares the blocks and the
        preconditioner but keeps separate histories and statistics, so the
        estimate is identical across the recycling strategies and the run's
        recycling histories stay clean. Cached: successive re-estimations
        recycle each other's solves. Under ``direct`` it shares the factor
        and keeps no history either."""
        if self._estimation is None:
            self._estimation = SchurContext(
                self.blocks, tol=self.tol, max_iter=self.max_iter,
                strategy="direct" if self.strategy == "direct" else "previous",
                preconditioner=self.precond)
        return self._estimation

    def set_source(self, pattern: np.ndarray) -> None:
        """The run's one ``source_term`` solve: keeps the coil pattern, its
        solve w and r_pat = -K_cn w, so the source term at current I is
        I * r_pat."""
        self.pattern = np.asarray(pattern, dtype=float)
        self.r_pat = schur_rhs(self, self.pattern)


def solve_knn(ctx: SchurContext, rhs: np.ndarray, purpose: str) -> np.ndarray:
    """x = pinv(K_nn) rhs via PCG with the configured start-vector strategy.

    The start vector is taken from (and the solution pushed into) the
    history keyed by ``purpose``; under ``direct`` it is the factor's solve
    ctx.precond(rhs). Non-convergence is a hard error: the time stepper
    cannot proceed on an unconverged constraint solve.
    """
    if purpose not in PURPOSES:
        raise SolverError(f"unknown solve purpose {purpose!r}")
    if ctx.blocks.n_n == 0:
        return np.zeros(0)
    rhs = np.asarray(rhs, dtype=float)
    if norm2(rhs) == 0.0:
        # zero rhs has the zero pseudo-solution; leave the history alone
        ctx.stats.record(ctx.step, purpose, ctx.strategy, 0, 0.0)
        return np.zeros(ctx.blocks.n_n)
    provider = ctx.providers.get(purpose)
    x0 = ctx.precond(rhs) if provider is None else provider.start(rhs)
    report = pcg(ctx.blocks.K_nn, rhs, x0=x0, precond=ctx.precond, tol=ctx.tol,
                 max_iter=ctx.max_iter, name=f"K_nn solve ({purpose})")
    if not report.converged:
        raise SolverError(
            f"K_nn solve ({purpose}) did not converge: {report.iterations} iterations, "
            f"relative residual {report.final_relative_residual:.3e}"
        )
    if provider is not None:
        provider.push(report.solution)
    ctx.stats.record(ctx.step, purpose, ctx.strategy, report.iterations,
                     report.final_relative_residual)
    return report.solution


def apply_ks(ctx: SchurContext, a_c: np.ndarray) -> np.ndarray:
    """K_S a_c = K_cn pinv(K_nn) K_cn^T a_c: the formed block's product,
    exactly zero off its interface DoFs, when ctx holds one; otherwise
    matrix-free, with one ``schur_apply`` solve."""
    a_c = np.asarray(a_c, dtype=float)
    block = ctx.interface
    if block is not None:
        y = np.zeros(ctx.blocks.n_c)
        y[block.iface] = block.K_S @ a_c[block.iface]
        return y
    rhs = ctx.blocks.K_nc.matvec(a_c)
    y = solve_knn(ctx, rhs, "schur_apply")
    return ctx.blocks.K_cn.matvec(y)


def schur_rhs(ctx: SchurContext, j_sn: np.ndarray) -> np.ndarray:
    """Source contribution -K_cn pinv(K_nn) j_sn of the Schur ODE: one
    ``source_term`` solve, kept as ctx.w, and one product."""
    ctx.w = solve_knn(ctx, j_sn, "source_term")
    return -ctx.blocks.K_cn.matvec(ctx.w)


def recover_an(ctx: SchurContext, a_c: np.ndarray, j_sn: np.ndarray) -> np.ndarray:
    """a_n = pinv(K_nn) (j_sn - K_cn^T a_c), in one solve."""
    a_c = np.asarray(a_c, dtype=float)
    j_sn = np.asarray(j_sn, dtype=float)
    return solve_knn(ctx, j_sn - ctx.blocks.K_nc.matvec(a_c), "recovery")


def interface_dofs(blocks: SystemBlocks) -> np.ndarray:
    """The interface DoFs, ascending: the nonzero rows of K_cn."""
    return np.flatnonzero(np.diff(blocks.K_cn.row_offsets))


@dataclass(frozen=True)
class InterfaceSchur:
    """K_S on the interface DoFs ``iface`` (zero elsewhere), and the rows of
    pinv(K_nn) [-K_nc(:, iface) | pattern] at the probe's nonconducting
    DoFs, split into probe_rows and the source column probe_source: a_n
    there is probe_rows @ a_c[iface] + I * probe_source for the source
    I * pattern. All dense, formed once."""

    iface: np.ndarray
    K_S: np.ndarray
    probe_rows: np.ndarray
    probe_source: np.ndarray


def form_interface(ctx: SchurContext, probe_n: np.ndarray) -> InterfaceSchur:
    """One ``schur_apply`` solve per interface column K_nc(:, i); the source
    column is ctx.w, the pattern's solve of ``set_source``. probe_n indexes
    a_n at the probe's nonconducting DoFs."""
    K_cn, iface = ctx.blocks.K_cn, interface_dofs(ctx.blocks)
    ptr, cols, vals = K_cn.row_offsets, K_cn.col_indices, K_cn.values
    ks = np.empty((iface.size, iface.size))
    rows = np.empty((probe_n.size, iface.size))
    for k, i in enumerate(iface):
        column = np.zeros(ctx.blocks.n_n)  # K_nc(:, i), row i of K_cn
        column[cols[ptr[i]:ptr[i + 1]]] = vals[ptr[i]:ptr[i + 1]]
        y = solve_knn(ctx, column, "schur_apply")
        ks[:, k] = K_cn.matvec(y)[iface]
        rows[:, k] = -y[probe_n]
    return InterfaceSchur(iface, ks, rows, ctx.w[probe_n])
