"""Time integration.

Explicit Euler on the Schur-complement ODE:

    a_c^m = a_c^{m-1} + dt * M_cc^-1 [ -K_cn pinv(K_nn) j_sn^m
                                       - (K_cc(a_c^l) - K_S) a_c^{m-1} ],
    a_n^m = pinv(K_nn) (j_sn^m - K_cn^T a_c^m).

Since a_n^{m-1} = pinv(K_nn) (j_sn^{m-1} - K_cn^T a_c^{m-1}) is kept from
the previous step, the source and Schur terms of the bracket collapse to

    -K_cn pinv(K_nn) (j_sn^m - j_sn^{m-1}) - K_cn a_n^{m-1},

so a step makes two K_nn solves: the source increment and the recovery of
a_n^m. The scheme is stable for dt <= 2 / lambda_max(M_cc^-1 (K_cc - K_S)),
with lambda_max estimated numerically by power iteration (the
h^2*kappa*mu heuristic is not sharp). K_cc is rebuilt only when the
conducting solution has drifted from the state of the last rebuild by more
than tol_update in relative l2 norm. A rebuild does not reassemble: the
KccRebuildMap built by discretize for nonlinear problems scales the stored
geometric stiffness of each conductor element by nu(B^2(a_c)) and sums it
into K_cc's fixed pattern. A rebuild re-estimates lambda_max and may shrink
dt (never grow it mid-run).

The implicit Euler / Newton-Raphson path on the full DAE serves as the
accuracy reference; it is unconditionally stable and reassembles the
stiffness and Jacobian (newton_system) in every Newton iteration, from the
element data discretize resolved once.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .assembly import (
    DofPartition,
    ElementData,
    KccRebuildMap,
    MaterialTable,
    SourceSpec,
    SystemBlocks,
    assemble,
    compute_b2,
    element_coo,
    element_data,
    extract_blocks,
    free_index,
    kcc_rebuild_map,
    partition,
    source_pattern,
)
from .errors import AssemblyError, InstabilityError, SolverError
from .linalg import LinearOperator, SparseMatrix, jacobi_preconditioner, pcg, power_iteration
from .mesh import Mesh2D
from .schur import SchurContext, apply_ks, recover_an, schur_rhs

MAX_STEPS = 50_000_000


@dataclass
class SolverOptions:
    """Numeric knobs for a run; defaults match the bundled scenarios."""

    pcg_tol: float = 1e-6
    pcg_max_iter: int | None = None
    strategy: str = "previous"
    cspe_window: int = 5
    pod_window: int = 10
    tol_pod: float = 1e4
    tol_update: float = 1e-3
    safety: float = 0.95
    mcc_mode: str = "pcg"
    mcc_tol: float = 1e-10
    power_tol: float = 1e-5
    power_max_iter: int = 5000
    seed: int = 1234
    output_every: int = 1
    dt_override: float | None = None
    snapshot_every: int | None = None
    newton_tol: float = 1e-8
    newton_max_iter: int = 25


@dataclass
class AssembledProblem:
    """Mesh, materials and the assembled system at a = 0, with the element
    data resolved once: all elements, the probe elements, and for nonlinear
    problems the K_cc rebuild map (None for linear ones)."""

    mesh: Mesh2D
    materials: MaterialTable
    part: DofPartition
    blocks: SystemBlocks
    M_red: SparseMatrix
    K_red: SparseMatrix
    elements: ElementData
    probe: ElementData
    kcc_map: KccRebuildMap | None
    _factor_cache: dict = field(default_factory=dict, repr=False)

    @property
    def is_nonlinear(self) -> bool:
        return self.kcc_map is not None

    @property
    def n_free(self) -> int:
        return self.part.n_free


def discretize(mesh: Mesh2D, materials: MaterialTable,
               probe_id: int | None = None) -> AssembledProblem:
    data = element_data(mesh, materials)
    M, K = assemble(mesh, materials, None, data=data)
    part = partition(mesh)
    blocks = extract_blocks(M, K, part)

    # DAE structure: the mass matrix must not couple nonconducting DoFs
    Ms = M.scipy()
    if part.n_n and abs(Ms[part.idx_n, :]).max() > 0:
        raise AssemblyError("mass matrix touches nonconducting DoFs; partition is broken")

    probe_eids = np.asarray(
        [e for e, tag in enumerate(mesh.element_region) if tag.probe == probe_id],
        dtype=np.int64,
    ) if probe_id is not None else np.zeros(0, dtype=np.int64)

    nonlinear = any(m.is_nonlinear for m in materials.conductors.values())
    kcc_map = kcc_rebuild_map(mesh, part, data) if nonlinear else None
    return AssembledProblem(mesh, materials, part, blocks, M, K,
                            data, data.subset(probe_eids), kcc_map)


def probe_average_b(problem: AssembledProblem, a_full: np.ndarray) -> float:
    """Area-weighted mean |B| over the probe elements."""
    areas = problem.probe.area
    if areas.size == 0:
        return 0.0
    b2 = compute_b2(problem.mesh, a_full, problem.probe)
    return float((areas * np.sqrt(b2)).sum() / areas.sum())


class MccSolver:
    """Solves M_cc x = b: PCG with Jacobi preconditioning at a tight
    tolerance (default), or division by the row-sum lumped diagonal."""

    def __init__(self, m_cc: SparseMatrix, mode: str = "pcg", tol: float = 1e-10,
                 max_iter: int | None = None):
        if mode not in ("pcg", "lumped"):
            raise SolverError(f"unknown M_cc solver mode {mode!r}")
        self.m_cc = m_cc
        self.mode = mode
        self.tol = tol
        self.max_iter = max_iter
        self.iterations_total = 0
        self._last: np.ndarray | None = None
        if mode == "lumped":
            lumped = np.asarray(m_cc.scipy().sum(axis=1)).ravel()
            if m_cc.nrows and lumped.min() <= 0:
                raise SolverError("lumped mass has a nonpositive entry")
            self._inv_lumped = 1.0 / lumped if m_cc.nrows else np.zeros(0)
        else:
            self._precond = jacobi_preconditioner(m_cc) if m_cc.nrows else None

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.m_cc.nrows == 0:
            return np.zeros(0)
        if self.mode == "lumped":
            return self._inv_lumped * b
        report = pcg(self.m_cc, b, x0=self._last, precond=self._precond,
                     tol=self.tol, max_iter=self.max_iter)
        if not report.converged:
            raise SolverError(
                f"M_cc solve did not converge (residual {report.final_relative_residual:.3e})"
            )
        self.iterations_total += report.iterations
        self._last = report.solution.copy()
        return report.solution


@dataclass
class SolverState:
    """Mutable time-stepper state. K_cc_current is always the stiffness block
    assembled at a_c_last_update; j_sn is the source of the last step.

    Invariant: a_n = pinv(K_nn) (j_sn - K_cn^T a_c) to PCG tolerance.
    new_state starts consistent (all zero) and every explicit_step restores
    it; the step relies on it for its Schur term. A caller that overwrites
    a_c alone leaves it broken for one step, which then uses K_cc in place
    of K_cc - K_S."""

    t: float
    a_c: np.ndarray
    a_n: np.ndarray
    a_c_last_update: np.ndarray
    K_cc_current: SparseMatrix
    j_sn: np.ndarray
    dt: float = 0.0
    lam_max: float = 0.0
    lam_vec: np.ndarray | None = None
    update_count: int = 0
    step_count: int = 0


def new_state(problem: AssembledProblem) -> SolverState:
    nc, nn = problem.part.n_c, problem.part.n_n
    return SolverState(
        t=0.0,
        a_c=np.zeros(nc),
        a_n=np.zeros(nn),
        a_c_last_update=np.zeros(nc),
        K_cc_current=problem.blocks.K_cc,
        j_sn=np.zeros(nn),
    )


def estimate_cfl(state: SolverState, blocks: SystemBlocks, schur_ctx: SchurContext,
                 mcc_solver: MccSolver, opts: SolverOptions) -> float:
    """safety * 2 / lambda_max(M_cc^-1 (K_cc - K_S)) with lambda_max from
    power iteration on the matrix-free operator. The solves run in a
    dedicated estimation context so the run's recycling histories stay
    untouched; state.lam_vec warm-starts re-estimation after updates."""
    n_c = blocks.n_c
    if n_c == 0:
        raise SolverError("no conducting DoFs: the Schur ODE is empty")
    est_ctx = schur_ctx.estimation_context()

    def apply_op(x):
        return mcc_solver.solve(state.K_cc_current.matvec(x) - apply_ks(est_ctx, x))

    report = power_iteration(LinearOperator(n_c, apply_op), tol=opts.power_tol,
                             max_iter=opts.power_max_iter, seed=opts.seed,
                             v0=state.lam_vec)
    if not report.converged:
        raise SolverError(
            f"power iteration did not converge in {report.iterations} iterations; "
            "cannot bound the stable explicit step"
        )
    if report.value <= 0:
        raise SolverError(f"nonpositive dominant eigenvalue {report.value:.3e}")
    state.lam_max = report.value
    state.lam_vec = report.vector
    return opts.safety * 2.0 / report.value


def explicit_step(state: SolverState, blocks: SystemBlocks, schur_ctx: SchurContext,
                  mcc_solver: MccSolver, j_sn: np.ndarray) -> SolverState:
    """One explicit Euler step; j_sn is the source at the new time t + dt.
    Uses K_cc_current (the selective-update substitute for K_cc(a_c^{m-1}))
    and the a_n invariant of SolverState in place of a K_S apply."""
    bracket = schur_rhs(schur_ctx, j_sn - state.j_sn) \
        - blocks.K_cn.matvec(state.a_n) \
        - state.K_cc_current.matvec(state.a_c)
    state.a_c = state.a_c + state.dt * mcc_solver.solve(bracket)
    norm = float(np.linalg.norm(state.a_c))
    # the 1e30 guard trips growing modes long before anything physical gets
    # there and before downstream solves overflow
    if not np.isfinite(norm) or norm > 1e30:
        raise InstabilityError(
            f"instability: non-finite or unbounded conductor state at "
            f"t={state.t + state.dt:.6e} with dt={state.dt:.6e}",
            t=state.t + state.dt, dt=state.dt,
        )
    state.a_n = recover_an(schur_ctx, state.a_c, j_sn)
    state.j_sn = j_sn
    state.t += state.dt
    state.step_count += 1
    return state


def maybe_update_kcc(state: SolverState, problem: AssembledProblem,
                     tol_update: float) -> tuple[SolverState, bool]:
    """Rebuild K_cc from the current solution when the relative l2 change
    since the last rebuild exceeds tol_update. A zero reference state forces
    an update on the first nonzero step (the ratio is undefined there).
    K_cn and K_nn are never touched: the nonlinearity lives in conductor
    elements, whose DoFs are all conducting or Dirichlet, so the rebuild
    (problem.kcc_map) reads a_c alone. A linear K_cc stays constant."""
    ref = float(np.linalg.norm(state.a_c_last_update))
    if ref == 0.0:
        trigger = float(np.linalg.norm(state.a_c)) > 0.0
    else:
        trigger = float(np.linalg.norm(state.a_c - state.a_c_last_update)) / ref > tol_update
    if not trigger:
        return state, False
    if problem.kcc_map is not None:
        state.K_cc_current = problem.kcc_map.rebuild(state.a_c)
    state.a_c_last_update = state.a_c.copy()
    state.update_count += 1
    return state, True


@dataclass
class RunResult:
    """Trajectory record: probe series plus the cost counters the benchmark
    harness compares (iteration counts, update counts, wall time)."""

    method: str
    times: np.ndarray
    probe: np.ndarray
    dt_series: np.ndarray
    cum_iterations: np.ndarray
    update_series: np.ndarray
    step_count: int
    dt_initial: float
    dt_final: float
    lam_max_initial: float
    lam_max_final: float
    update_count: int
    stats: object
    max_dae_residual: float
    mass_iterations: int
    newton_iterations: int
    wall_time: float
    snapshots: list = field(default_factory=list)

    def write_csv(self, fh) -> None:
        # repr(float(.)) is the shortest round-trip form: identical doubles
        # serialize to identical bytes, which the determinism contract needs
        fh.write("t,probe_avg_B,dt,cumulative_pcg_iterations,update_count\n")
        for i in range(self.times.size):
            fh.write(f"{float(self.times[i])!r},{float(self.probe[i])!r},"
                     f"{float(self.dt_series[i])!r},"
                     f"{int(self.cum_iterations[i])},{int(self.update_series[i])}\n")

    def summary(self) -> dict:
        return {
            "method": self.method,
            "step_count": self.step_count,
            "dt_initial": self.dt_initial,
            "dt_final": self.dt_final,
            "lambda_max_initial": self.lam_max_initial,
            "lambda_max_final": self.lam_max_final,
            "update_count": self.update_count,
            "pcg_solves": getattr(self.stats, "n_solves", 0),
            "pcg_iterations_total": getattr(self.stats, "total_iterations", 0),
            "pcg_iterations_mean": getattr(self.stats, "mean_iterations", lambda: 0.0)(),
            "mass_iterations_total": self.mass_iterations,
            "newton_iterations_total": self.newton_iterations,
            "max_dae_residual": self.max_dae_residual,
            "wall_time_s": self.wall_time,
        }


def probe_deviation(result: RunResult, baseline: RunResult) -> float:
    """Max |probe - baseline| over the baseline time grid, normalized by the
    baseline's peak magnitude. Series on different grids are compared by
    linear interpolation."""
    ref_peak = float(np.abs(baseline.probe).max())
    if ref_peak == 0.0:
        return float(np.abs(result.probe).max())
    interp = np.interp(baseline.times, result.times, result.probe)
    return float(np.abs(interp - baseline.probe).max() / ref_peak)


def _dae_residual(blocks: SystemBlocks, a_c, a_n, j_sn) -> float:
    """Relative residual of the algebraic constraint row, normalized by
    ||j_sn|| (falling back to the coupling term for zero-source steps)."""
    if blocks.n_n == 0:
        return 0.0
    coupling = blocks.K_nc.matvec(a_c)
    res = coupling + blocks.K_nn.matvec(a_n) - j_sn
    rn = float(np.linalg.norm(res))
    scale = float(np.linalg.norm(j_sn))
    if scale == 0.0:
        scale = float(np.linalg.norm(coupling))
    if scale == 0.0:
        return 0.0 if rn == 0.0 else np.inf
    return rn / scale


def run_explicit(problem: AssembledProblem, source: SourceSpec, t_end: float,
                 opts: SolverOptions) -> RunResult:
    """Explicit Euler from t=0 to t_end (within half a step). dt is fixed to
    the CFL estimate at start; re-estimation after K_cc updates may shrink
    it, never grow it."""
    t_start = time.perf_counter()
    blocks = problem.blocks
    ctx = SchurContext(blocks, tol=opts.pcg_tol, max_iter=opts.pcg_max_iter,
                       strategy=opts.strategy, cspe_window=opts.cspe_window,
                       pod_window=opts.pod_window, tol_pod=opts.tol_pod)
    mcc = MccSolver(blocks.M_cc, opts.mcc_mode, opts.mcc_tol)
    state = new_state(problem)

    if opts.dt_override is not None:
        state.dt = float(opts.dt_override)
        estimate_cfl(state, blocks, ctx, mcc, opts)  # still record lambda_max
    else:
        state.dt = estimate_cfl(state, blocks, ctx, mcc, opts)
    if state.dt <= 0:
        raise SolverError(f"nonpositive time step {state.dt}")
    if t_end / state.dt > MAX_STEPS:
        raise SolverError(f"t_end/dt = {t_end / state.dt:.3e} exceeds the step limit")
    if t_end <= 0.5 * state.dt:
        raise SolverError(
            f"dt = {state.dt:.3e} exceeds the integration window t_end = {t_end:.3e}"
        )
    dt_initial = state.dt
    lam_initial = state.lam_max

    pattern = source_pattern(problem.mesh, source, problem.part)
    rows_t, rows_p, rows_dt, rows_it, rows_up = [], [], [], [], []
    snapshots = []
    max_dae = 0.0
    while t_end - state.t > 0.5 * state.dt:
        ctx.step = state.step_count + 1
        j_sn = source.current(state.t + state.dt) * pattern
        explicit_step(state, blocks, ctx, mcc, j_sn)
        max_dae = max(max_dae, _dae_residual(blocks, state.a_c, state.a_n, j_sn))

        last = t_end - state.t <= 0.5 * state.dt
        if state.step_count % opts.output_every == 0 or last:
            a_full = problem.part.to_full(state.a_c, state.a_n, problem.mesh.n_nodes)
            rows_t.append(state.t)
            rows_p.append(probe_average_b(problem, a_full))
            rows_dt.append(state.dt)
            rows_it.append(ctx.stats.total_iterations)
            rows_up.append(state.update_count)
            if opts.snapshot_every and state.step_count % opts.snapshot_every == 0:
                bmag = np.sqrt(compute_b2(problem.mesh, a_full, problem.elements))
                snapshots.append((state.step_count, state.t, bmag, a_full.copy()))

        # selective updates only matter when K_cc actually depends on a_c
        if problem.is_nonlinear:
            _, updated = maybe_update_kcc(state, problem, opts.tol_update)
            if updated:
                dt_new = estimate_cfl(state, blocks, ctx, mcc, opts)
                if opts.dt_override is None and dt_new < state.dt:
                    state.dt = dt_new

    return RunResult(
        method="explicit",
        times=np.asarray(rows_t), probe=np.asarray(rows_p),
        dt_series=np.asarray(rows_dt),
        cum_iterations=np.asarray(rows_it, dtype=np.int64),
        update_series=np.asarray(rows_up, dtype=np.int64),
        step_count=state.step_count,
        dt_initial=dt_initial, dt_final=state.dt,
        lam_max_initial=lam_initial, lam_max_final=state.lam_max,
        update_count=state.update_count,
        stats=ctx.stats,
        max_dae_residual=max_dae,
        mass_iterations=mcc.iterations_total,
        newton_iterations=0,
        wall_time=time.perf_counter() - t_start,
        snapshots=snapshots,
    )


def _nonlinear_jacobian_term(problem: AssembledProblem, a_full: np.ndarray) -> scipy.sparse.csr_matrix:
    """Sum over nonlinear elements of (2 nu'(B^2)/A) w w^T with
    w = K_geom a (the nu-free element stiffness applied to the local
    solution); this is the chain-rule part of d(K(a) a)/da."""
    elements = problem.elements
    dnu = elements.dnu_db2(compute_b2(problem.mesh, a_full, elements))
    active = np.nonzero(dnu > 0)[0]
    index, n = free_index(problem.mesh)
    if active.size == 0:
        return scipy.sparse.csr_matrix((n, n))

    act = elements.subset(active)
    ae = a_full[act.nodes]
    sb = (act.b * ae).sum(axis=1)
    sc = (act.c * ae).sum(axis=1)
    w = (act.b * sb[:, None] + act.c * sc[:, None]) / (4.0 * act.area)[:, None]
    coeff = 2.0 * dnu[active] / act.area
    vals = coeff[:, None, None] * w[:, :, None] * w[:, None, :]
    rows, cols, flat = element_coo(act.nodes, vals, index)
    return scipy.sparse.coo_matrix((flat, (rows, cols)), shape=(n, n)).tocsr()


def newton_system(problem: AssembledProblem, dt: float, a_old: np.ndarray,
                  j_s: np.ndarray, a: np.ndarray):
    """Residual F(a) = (M/dt + K(a)) a - (M/dt) a_old - j_s of the implicit
    Euler step and its Jacobian M/dt + K(a) + d(K a)/da (the chain-rule term
    vanishes for linear materials)."""
    Mdt = problem.M_red.scipy() * (1.0 / dt)
    a_full = np.zeros(problem.mesh.n_nodes)
    a_full[problem.part.free_nodes] = a
    if problem.is_nonlinear:
        _, K = assemble(problem.mesh, problem.materials, a_full, data=problem.elements)
        A = Mdt + K.scipy()
    else:
        A = Mdt + problem.K_red.scipy()
    F = A @ a - (Mdt @ a_old + j_s)
    J = A + _nonlinear_jacobian_term(problem, a_full) if problem.is_nonlinear else A
    return F, J


def newton_solve(problem: AssembledProblem, dt: float, a_old: np.ndarray,
                 j_s: np.ndarray, newton_tol: float = 1e-8,
                 max_newton: int = 25) -> tuple[np.ndarray, int]:
    """One implicit Euler step on the full DAE, solved by Newton-Raphson on
    newton_system. Converges in exactly one iteration for linear materials,
    whose constant Jacobian is factorized once per dt. Returns (a, iterations)."""
    Mdt = problem.M_red.scipy() * (1.0 / dt)
    scale = float(np.linalg.norm(Mdt @ a_old + j_s)) or 1.0

    lin_factor = None
    if not problem.is_nonlinear:
        lin_factor = problem._factor_cache.get(dt)
        if lin_factor is None:
            lin_factor = scipy.sparse.linalg.splu(
                (Mdt + problem.K_red.scipy()).tocsc()
            )
            problem._factor_cache[dt] = lin_factor

    a = np.array(a_old, dtype=float)
    f_first = None
    for it in range(max_newton + 1):
        F, J = newton_system(problem, dt, a_old, j_s, a)
        fn = float(np.linalg.norm(F))
        if not np.isfinite(fn) or (f_first is not None and fn > 1e3 * max(f_first, scale)):
            raise SolverError("Newton diverged; try a smaller time step")
        if f_first is None:
            f_first = fn
        if fn <= newton_tol * scale:
            return a, it
        if it == max_newton:
            break
        if lin_factor is not None:
            delta = lin_factor.solve(-F)
        else:
            delta = scipy.sparse.linalg.spsolve(J.tocsc(), -F)
        a = a + delta
    raise SolverError(
        f"Newton did not converge in {max_newton} iterations "
        f"(residual {fn:.3e}); try a smaller time step"
    )


def run_implicit(problem: AssembledProblem, source: SourceSpec, t_end: float,
                 dt: float, opts: SolverOptions) -> RunResult:
    """Implicit Euler reference trajectory; dt is unconstrained (the scheme
    is unconditionally stable). update_count reports the Newton total: the
    nonlinear stiffness is reassembled in every Newton iteration (linear
    problems reuse one cached factorization instead)."""
    if dt <= 0:
        raise SolverError(f"implicit dt must be positive, got {dt}")
    if t_end / dt > MAX_STEPS:
        raise SolverError(f"t_end/dt = {t_end / dt:.3e} exceeds the step limit")
    if t_end <= 0.5 * dt:
        raise SolverError(
            f"dt = {dt:.3e} exceeds the integration window t_end = {t_end:.3e}"
        )
    t_start = time.perf_counter()
    part = problem.part
    pattern = source_pattern(problem.mesh, source, part)
    a = np.zeros(part.n_free)
    t = 0.0
    step = 0
    newton_total = 0
    rows_t, rows_p, rows_it = [], [], []
    snapshots = []
    while t_end - t > 0.5 * dt:
        t += dt
        step += 1
        j_sn = source.current(t) * pattern
        j_s = np.zeros(part.n_free)
        j_s[part.idx_n] = j_sn
        a, iters = newton_solve(problem, dt, a, j_s, opts.newton_tol,
                                opts.newton_max_iter)
        newton_total += iters
        last = t_end - t <= 0.5 * dt
        if step % opts.output_every == 0 or last:
            a_full = np.zeros(problem.mesh.n_nodes)
            a_full[part.free_nodes] = a
            rows_t.append(t)
            rows_p.append(probe_average_b(problem, a_full))
            rows_it.append(newton_total)
            if opts.snapshot_every and step % opts.snapshot_every == 0:
                bmag = np.sqrt(compute_b2(problem.mesh, a_full, problem.elements))
                snapshots.append((step, t, bmag, a_full.copy()))

    n_rows = len(rows_t)
    return RunResult(
        method="implicit",
        times=np.asarray(rows_t), probe=np.asarray(rows_p),
        dt_series=np.full(n_rows, dt),
        cum_iterations=np.asarray(rows_it, dtype=np.int64),
        update_series=np.asarray(rows_it, dtype=np.int64),
        step_count=step,
        dt_initial=dt, dt_final=dt,
        lam_max_initial=0.0, lam_max_final=0.0,
        update_count=newton_total,
        stats=None,
        max_dae_residual=0.0,
        mass_iterations=0,
        newton_iterations=newton_total,
        wall_time=time.perf_counter() - t_start,
        snapshots=snapshots,
    )
