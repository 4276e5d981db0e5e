"""Time integration.

Explicit Euler on the Schur-complement ODE, driven by one coil, whose
source is I_m * pattern at step m:

    a_c^m = a_c^{m-1} + dt * M_cc^-1 [ I_m * r_pat
                                       - (K_cc(a_c^l) - K_S) a_c^{m-1} ],
    a_n^m = pinv(K_nn) (I_m * pattern - K_cn^T a_c^m),

with r_pat = -K_cn pinv(K_nn) pattern, solved once at set-up
(SchurContext.set_source). Under ``direct``, a run of more than n_i steps
(step_path) applies K_S as the dense interface block formed once
(schur.form_interface): a step makes no K_nn solve, and a_n is recovered
only for outputs. Otherwise a_n^{m-1} = pinv(K_nn) (I_{m-1} * pattern -
K_cn^T a_c^{m-1}) is kept from the previous step, and the source and Schur
terms of the bracket collapse to

    (I_m - I_{m-1}) * r_pat - K_cn a_n^{m-1},

and a step makes one K_nn solve, the recovery of a_n^m. M_cc^-1 is one
M_cc solve; M_cc is constant, so MccSolver factors it once at set-up (band
Cholesky), and PCG at its tol accepts the factor's solve as its start in 0
iterations. The
scheme is stable for dt <= 2 / lambda_max(M_cc^-1 (K_cc - K_S)), with
lambda_max estimated numerically by power iteration (the
h^2*kappa*mu heuristic is not sharp). K_cc is rebuilt only when the
conducting solution has drifted from the state of the last rebuild by more
than tol_update in relative l2 norm. A rebuild does not reassemble: the
KccRebuildMap built by discretize for nonlinear problems evaluates the
conductor elements' B^2(a_c) with one compiled product, and writes the sum
of their stored geometric stiffness scaled by nu(B^2) into K_cc's fixed
pattern with another. After a rebuild, lambda_max is re-estimated
only when dt times an upper bound on it exceeds 1 + safety, half the
margin that safety leaves below 2; the bound is the last estimate plus
KccRebuildMap.growth_bound of the element reluctivities since then. A
re-estimate may shrink dt, never grow it mid-run.

The implicit Euler / Newton-Raphson path on the full DAE serves as the
accuracy reference; it is unconditionally stable and runs on the explicit
path's operators: K(a) is the set-up blocks with K_cc rebuilt by the
KccRebuildMap, the Jacobian's chain-rule term is a product with the map's
gradient rows (newton_system), and each Newton iteration is one solve with
the factor_spd LU of the symmetric Jacobian.

run_explicit and the cfl command share one set-up, start_explicit, with
its dt rule and start checks, and one path rule, step_path. Every K_S
apply goes through schur.apply_ks: the initial lambda_max estimate makes
one K_nn solve per apply; the step and the re-estimates on the interface
path apply the formed block and make none.

Both run loops keep their rows, probe values and snapshots in one
_Trajectory. A step that keeps a row copies the probe's inputs into a
block of PROBE_BLOCK rows: a_c at the probe's conducting DoFs, and a_n at
its nonconducting ones where the step knows a_n, else a_c at the interface
DoFs and the current. probe_average_b evaluates a whole block when it
fills and when the run ends: one product with the interface block's probe
rows forms the missing a_n, and the probe's |B| is one compiled product on
[a_c | a_n at the probe's DoFs] (AssembledProblem.probe_b2) for all rows.
A step that keeps no row stores nothing, and a full nodal vector is built
only for a snapshot.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .assembly import (
    B2Map,
    DofPartition,
    KccRebuildMap,
    MaterialTable,
    SourceSpec,
    SystemBlocks,
    assemble,
    b2_map,
    compute_b2,
    extract_blocks,
    kcc_rebuild_map,
    partition,
    source_pattern,
)
from .errors import AssemblyError, InstabilityError, SolverError
from .linalg import BandCholesky, SparseMatrix, factor_spd, norm2, pcg, power_iteration
from .mesh import Mesh2D
from .schur import (InterfaceSchur, SchurContext, apply_ks, form_interface, interface_dofs,
                    recover_an)

MAX_STEPS = 50_000_000


@dataclass
class SolverOptions:
    """Numeric knobs for a run. The bundled scenarios override two
    defaults: they set strategy "direct" and their own seed."""

    pcg_tol: float = 1e-6
    pcg_max_iter: int | None = None
    strategy: str = "previous"
    cspe_window: int = 5
    pod_window: int = 10
    tol_pod: float = 1e4
    tol_update: float = 1e-3
    safety: float = 0.95
    mcc_mode: str = "pcg"
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
    """Mesh and the assembled system at a = 0, the probe elements' B^2 map
    on [a_c[probe_c] | a_n[probe_n]] and total area, and for nonlinear
    problems the K_cc rebuild map (None for linear ones), which holds the
    only per-element material data. probe_c and probe_n list, ascending,
    the a_c and a_n entries of the probe's conducting and nonconducting
    nodes."""

    mesh: Mesh2D
    part: DofPartition
    blocks: SystemBlocks
    probe_b2: B2Map
    probe_c: np.ndarray
    probe_n: np.ndarray
    probe_area: float
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
    part = partition(mesh)
    M, K = assemble(mesh, materials, part)
    blocks = extract_blocks(M, K, part)

    # DAE structure: the mass matrix must not couple nonconducting DoFs
    if part.n_n and abs(M.scipy()[part.idx_n]).max() > 0:
        raise AssemblyError("mass matrix touches nonconducting DoFs; partition is broken")

    probe_eids = np.flatnonzero(mesh.region_mask(lambda tag: tag.probe == probe_id)) \
        if probe_id is not None else np.zeros(0, dtype=np.int64)

    nonlinear = any(m.is_nonlinear for m in materials.conductors.values())
    kcc_map = kcc_rebuild_map(mesh, part, materials) if nonlinear else None
    index = part.positions(mesh.n_nodes)
    dofs = np.unique(index[mesh.elements[probe_eids]])
    dofs = dofs[dofs >= 0]
    # each probe node's column in [a_c[probe_c] | a_n[probe_n]] is its DoF's
    # position in dofs (Dirichlet nodes stay -1)
    free = index >= 0
    index[free] = np.searchsorted(dofs, index[free])
    probe_c, probe_n = dofs[dofs < part.n_c], dofs[dofs >= part.n_c] - part.n_c
    return AssembledProblem(mesh, part, blocks, b2_map(mesh, probe_eids, index, dofs.size),
                            probe_c, probe_n, float(mesh.areas[probe_eids].sum()), kcc_map)


def probe_average_b(problem: AssembledProblem, a_pc: np.ndarray, a_pn: np.ndarray) -> np.ndarray:
    """Area-weighted mean |B| over the probe elements of each row of a (rows, .)
    block of states a_pc = a_c[problem.probe_c], a_pn = a_n[problem.probe_n]:
    each value is bitwise that of its row alone."""
    areas = 0.5 * problem.probe_b2.two_area  # exact: a power-of-two scaling
    if areas.size == 0:
        return np.zeros(a_pc.shape[0])
    b2 = problem.probe_b2(np.concatenate([a_pc, a_pn], axis=1))
    # a C-contiguous (rows, E) block sums each row as a 1-D sum does
    return (areas * np.sqrt(b2)).sum(axis=1) / problem.probe_area


class MccSolver:
    """Solves M_cc x = b: PCG at a tight tolerance started at, and
    preconditioned by, the solve with a band Cholesky ``factor`` of the
    constant M_cc built once at set-up (default), or division by the
    row-sum lumped diagonal. The start is exact, so PCG's residual check at
    ``tol`` accepts it in 0 iterations and one M_cc product. Counts solves
    and PCG iterations."""

    def __init__(self, m_cc: SparseMatrix, mode: str = "pcg", tol: float = 1e-10):
        if mode not in ("pcg", "lumped"):
            raise SolverError(f"unknown M_cc solver mode {mode!r}")
        self.m_cc = m_cc
        self.mode = mode
        self.tol = tol
        self.solves_total = 0
        self.iterations_total = 0
        self.factor: BandCholesky | None = None
        if mode == "lumped":
            lumped = np.asarray(m_cc.scipy().sum(axis=1)).ravel()
            if m_cc.nrows and lumped.min() <= 0:
                raise SolverError("lumped mass has a nonpositive entry")
            self._inv_lumped = 1.0 / lumped if m_cc.nrows else np.zeros(0)
        elif m_cc.nrows:
            self.factor = BandCholesky(m_cc, "M_cc")

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.m_cc.nrows == 0:
            return np.zeros(0)
        self.solves_total += 1
        if self.mode == "lumped":
            return self._inv_lumped * b
        report = pcg(self.m_cc, b, x0=self.factor.solve(b), precond=self.factor.solve,
                     tol=self.tol, name="M_cc solve")
        if not report.converged:
            raise SolverError(
                f"M_cc solve did not converge (residual {report.final_relative_residual:.3e})"
            )
        self.iterations_total += report.iterations
        return report.solution


@dataclass
class SolverState:
    """Mutable time-stepper state. K_cc_current is always the stiffness block
    assembled at a_c_last_update; current is the coil current I of the last
    step, whose source is I * pattern (SchurContext.pattern).

    For nonlinear problems nu_e holds the conductor element reluctivities
    K_cc_current was built from, and nu_est those of the last lambda_max
    estimate; both are None for linear ones.

    Invariant: a_n = pinv(K_nn) (current * pattern - K_cn^T a_c) to PCG
    tolerance.
    new_state starts consistent (all zero) and every explicit_step restores
    it; the step relies on it for its Schur term. A caller that overwrites
    a_c alone leaves it broken for one step, which then uses K_cc in place
    of K_cc - K_S. On the interface path the step neither reads nor sets
    a_n: it holds only after run_explicit recovers it for an output."""

    t: float
    a_c: np.ndarray
    a_n: np.ndarray
    a_c_last_update: np.ndarray
    K_cc_current: SparseMatrix
    current: float = 0.0
    dt: float = 0.0
    lam_max: float = 0.0
    lam_vec: np.ndarray | None = None
    nu_e: np.ndarray | None = None
    nu_est: np.ndarray | None = None
    update_count: int = 0
    estimate_count: int = 0
    step_count: int = 0


def new_state(problem: AssembledProblem) -> SolverState:
    nc, nn = problem.part.n_c, problem.part.n_n
    return SolverState(
        t=0.0,
        a_c=np.zeros(nc),
        a_n=np.zeros(nn),
        a_c_last_update=np.zeros(nc),
        K_cc_current=problem.blocks.K_cc,
        nu_e=problem.kcc_map.nu(0.0) if problem.is_nonlinear else None,
    )


def start_explicit(problem: AssembledProblem, opts: SolverOptions, t_end: float):
    """Set-up of an explicit run over [0, t_end]: returns (state, ctx, mcc,
    dt_cfl), the zero state with lambda_max recorded and its dt (dt_override,
    or else the initial CFL step dt_cfl), the K_nn context and the M_cc
    solver. A dt that does not fit the window (check_window) or that exceeds
    the stable step (check_override) ends it here."""
    blocks = problem.blocks
    ctx = SchurContext(blocks, tol=opts.pcg_tol, max_iter=opts.pcg_max_iter,
                       strategy=opts.strategy, cspe_window=opts.cspe_window,
                       pod_window=opts.pod_window, tol_pod=opts.tol_pod)
    mcc = MccSolver(blocks.M_cc, opts.mcc_mode)
    state = new_state(problem)
    dt_cfl = estimate_cfl(state, blocks, ctx, mcc, opts)
    state.dt = dt_cfl if opts.dt_override is None else float(opts.dt_override)
    check_window(t_end, state.dt, "explicit")
    check_override(state, opts)
    return state, ctx, mcc, dt_cfl


def cfl_operator(state: SolverState, schur_ctx: SchurContext, mcc_solver: MccSolver):
    """x -> M_cc^-1 (K_cc_current - K_S) x, with K_S applied by apply_ks: on
    the formed interface block when schur_ctx holds one, otherwise with one
    K_nn solve per apply in the dedicated estimation context, so the run's
    recycling histories stay untouched."""
    ks_ctx = schur_ctx if schur_ctx.interface is not None else schur_ctx.estimation_context()

    def apply_op(x):
        return mcc_solver.solve(state.K_cc_current.matvec(x) - apply_ks(ks_ctx, x))
    return apply_op


def estimate_cfl(state: SolverState, blocks: SystemBlocks, schur_ctx: SchurContext,
                 mcc_solver: MccSolver, opts: SolverOptions) -> float:
    """safety * 2 / lambda_max(M_cc^-1 (K_cc - K_S)) with lambda_max from
    power iteration on cfl_operator: with K_nn solves for the initial
    estimate, which picks the step path, and on the interface block for
    re-estimates once it is formed. state.lam_vec warm-starts re-estimation
    after updates. Records the estimate with the reluctivities it was made
    at (nu_est)."""
    n_c = blocks.n_c
    if n_c == 0:
        raise SolverError("no conducting DoFs: the Schur ODE is empty")
    report = power_iteration(cfl_operator(state, schur_ctx, mcc_solver), n_c,
                             tol=opts.power_tol, max_iter=opts.power_max_iter,
                             seed=opts.seed, v0=state.lam_vec)
    if not report.converged:
        raise SolverError(
            f"power iteration did not converge in {report.iterations} iterations; "
            "cannot bound the stable explicit step"
        )
    if report.value <= 0:
        raise SolverError(f"nonpositive dominant eigenvalue {report.value:.3e}")
    state.lam_max = report.value
    state.lam_vec = report.vector
    state.nu_est = state.nu_e
    state.estimate_count += 1
    return opts.safety * 2.0 / report.value


def explicit_step(state: SolverState, blocks: SystemBlocks, schur_ctx: SchurContext,
                  mcc_solver: MccSolver, current: float) -> SolverState:
    """One explicit Euler step; current is the coil current I at the new
    time t + dt, and schur_ctx holds the pattern's solve (set_source).
    Uses K_cc_current (the selective-update substitute for K_cc(a_c^{m-1})).
    K_S is applied by apply_ks on the formed interface block when schur_ctx
    holds one; otherwise the a_n invariant of SolverState stands in for it,
    and the one K_nn solve recovers a_n."""
    on_block = schur_ctx.interface is not None
    if on_block:
        bracket = current * schur_ctx.r_pat - state.K_cc_current.matvec(state.a_c) \
            + apply_ks(schur_ctx, state.a_c)
    else:
        bracket = (current - state.current) * schur_ctx.r_pat \
            - blocks.K_cn.matvec(state.a_n)
        bracket -= state.K_cc_current.matvec(state.a_c)
    state.a_c = state.a_c + state.dt * mcc_solver.solve(bracket)
    norm = norm2(state.a_c)
    # the 1e30 guard trips growing modes long before anything physical gets
    # there and before downstream solves overflow
    if not math.isfinite(norm) or norm > 1e30:
        raise InstabilityError(
            f"instability: non-finite or unbounded conductor state at "
            f"t={state.t + state.dt:.6e} with dt={state.dt:.6e}",
            t=state.t + state.dt, dt=state.dt,
        )
    if not on_block:
        state.a_n = recover_an(schur_ctx, state.a_c, current * schur_ctx.pattern)
    state.current = current
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
    ref = norm2(state.a_c_last_update)
    if ref == 0.0:
        trigger = norm2(state.a_c) > 0.0
    else:
        trigger = norm2(state.a_c - state.a_c_last_update) / ref > tol_update
    if not trigger:
        return state, False
    if problem.kcc_map is not None:
        state.nu_e = problem.kcc_map.nu(problem.kcc_map.b2(state.a_c))
        state.K_cc_current = problem.kcc_map.rebuild(state.nu_e)
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
    update_count: int
    wall_time: float
    snapshots: list = field(default_factory=list)
    lam_max_initial: float = 0.0
    lam_max_final: float = 0.0
    cfl_estimates: int = 0
    stats: object = None
    max_dae_residual: float = 0.0
    mass_solves: int = 0
    mass_iterations: int = 0
    newton_iterations: int = 0
    cfl_knn_solves: int = 0

    def write_csv(self, fh) -> None:
        # repr of a Python float is the shortest round-trip form: identical
        # doubles serialize to identical bytes, which the determinism
        # contract needs
        fh.write("t,probe_avg_B,dt,cumulative_pcg_iterations,update_count\n")
        fh.write("".join(
            f"{t!r},{b!r},{dt!r},{its},{updates}\n"
            for t, b, dt, its, updates in zip(
                self.times.tolist(), self.probe.tolist(), self.dt_series.tolist(),
                self.cum_iterations.tolist(), self.update_series.tolist())))

    def summary(self) -> dict:
        return {
            "method": self.method,
            "step_count": self.step_count,
            "dt_initial": self.dt_initial,
            "dt_final": self.dt_final,
            "lambda_max_initial": self.lam_max_initial,
            "lambda_max_final": self.lam_max_final,
            "update_count": self.update_count,
            "cfl_estimates": self.cfl_estimates,
            "pcg_solves": getattr(self.stats, "n_solves", 0),
            "pcg_solves_by_purpose": dict(getattr(self.stats, "by_purpose", {})),
            "pcg_iterations_total": getattr(self.stats, "total_iterations", 0),
            "pcg_iterations_mean": getattr(self.stats, "mean_iterations", lambda: 0.0)(),
            "cfl_knn_solves": self.cfl_knn_solves,
            "mass_solves_total": self.mass_solves,
            "mass_iterations_total": self.mass_iterations,
            "newton_iterations_total": self.newton_iterations,
            "max_dae_residual": self.max_dae_residual,
            "wall_time_s": self.wall_time,
        }


# Kept rows whose probe inputs _Trajectory buffers before one evaluation.
# At nx = 160 a block's largest temporary, the probe gradients (2 E = 4096
# rows), is 4096 x 64 doubles, 2 MB; its stored inputs add about 0.8 MB.
PROBE_BLOCK = 64


class _Trajectory:
    """The output of one run: a row at every output_every-th step and at the
    last, and a field snapshot at every kept step snapshot_every divides.
    Its clock starts at creation and gives the run's wall time.

    A kept row copies the probe's inputs into a block of PROBE_BLOCK rows:
    a_c at problem.probe_c, and a_pn = a_n[probe_n] where the row's a_n is
    known. On the interface path (``interface``) a row whose step did not
    recover a_n stores a_c at the interface DoFs and the current instead,
    and one product per block forms its a_pn from the block's probe rows.
    probe_average_b evaluates a block when it fills and when the run ends;
    a skipped step stores nothing."""

    def __init__(self, problem: AssembledProblem, opts: SolverOptions):
        self.problem, self.opts = problem, opts
        self.interface: InterfaceSchur | None = None
        self.t, self.dt, self.iterations, self.updates = [], [], [], []
        self.probe, self.snapshots = [], []
        self.a_pc = np.empty((PROBE_BLOCK, problem.probe_c.size))
        self.a_pn = np.empty((PROBE_BLOCK, problem.probe_n.size))
        self.known = np.zeros(PROBE_BLOCK, dtype=bool)
        self.size = 0
        self.t_start = time.perf_counter()

    def use_interface(self, block: InterfaceSchur) -> None:
        self.interface = block
        self.a_i = np.empty((PROBE_BLOCK, block.iface.size))
        self.current = np.empty(PROBE_BLOCK)

    def snapshot_at(self, step: int, last: bool) -> bool:
        every = self.opts.snapshot_every
        return bool(every) and step % every == 0 and (last or step % self.opts.output_every == 0)

    def record(self, step: int, t: float, last: bool, a_c: np.ndarray, a_n: np.ndarray | None,
               dt: float, iterations: int, updates: int, current: float = 0.0) -> None:
        """Keeps the row of a step that outputs one. a_n is None where the
        interface path did not recover it; a snapshot needs it."""
        if step % self.opts.output_every and not last:
            return
        problem, k = self.problem, self.size
        self.t.append(t)
        self.dt.append(dt)
        self.iterations.append(iterations)
        self.updates.append(updates)
        self.a_pc[k] = a_c[problem.probe_c]
        if self.interface is not None:
            self.a_i[k] = a_c[self.interface.iface]
            self.current[k] = current
        self.known[k] = a_n is not None
        if a_n is not None:
            self.a_pn[k] = a_n[problem.probe_n]
        if self.snapshot_at(step, last):
            a_full = problem.part.to_full(a_c, a_n, problem.mesh.n_nodes)
            bmag = np.sqrt(compute_b2(problem.mesh, a_full))
            self.snapshots.append((step, t, bmag, a_full))
        self.size += 1
        if self.size == PROBE_BLOCK:
            self._evaluate()

    def _evaluate(self) -> None:
        n, block = self.size, self.interface
        a_pn = self.a_pn[:n]
        if block is not None:
            formed = self.a_i[:n] @ block.probe_rows.T \
                + self.current[:n, None] * block.probe_source
            np.copyto(a_pn, formed, where=~self.known[:n, None])
        self.probe.append(probe_average_b(self.problem, self.a_pc[:n], a_pn))
        self.size = 0

    def result(self, method: str, **counters) -> RunResult:
        if self.size:
            self._evaluate()
        return RunResult(method, np.asarray(self.t), np.concatenate(self.probe),
                         np.asarray(self.dt), np.asarray(self.iterations, dtype=np.int64),
                         np.asarray(self.updates, dtype=np.int64),
                         wall_time=time.perf_counter() - self.t_start,
                         snapshots=self.snapshots, **counters)


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
    rn = norm2(res)
    scale = norm2(j_sn)
    if scale == 0.0:
        scale = norm2(coupling)
    if scale == 0.0:
        return 0.0 if rn == 0.0 else np.inf
    return rn / scale


def check_window(t_end: float, dt: float, method: str) -> None:
    """A run loop takes steps of dt while more than half a step of
    [0, t_end] is left: dt must be positive, leave at least one step and
    at most MAX_STEPS of them."""
    if not dt > 0:
        raise SolverError(f"{method} dt must be positive, got {dt}")
    check_step_limit(t_end, dt)
    if t_end <= 0.5 * dt:
        raise SolverError(
            f"dt = {dt:.3e} exceeds the integration window t_end = {t_end:.3e}"
        )


def check_step_limit(t_end: float, dt: float, t: float = 0.0, steps: int = 0) -> None:
    """Refuse a run whose steps taken to t plus (t_end - t)/dt exceed MAX_STEPS."""
    projected = steps + (t_end - t) / dt
    if projected > MAX_STEPS:
        raise SolverError(f"{steps} steps taken and (t_end - t)/dt = {(t_end - t) / dt:.3e} "
                          f"left: {projected:.3e} exceeds the step limit {MAX_STEPS}")


def fixed_step_count(t_end: float, dt: float) -> int:
    """Number of steps a run loop takes over [0, t_end] at a fixed dt, by
    the loops' own rule and float arithmetic: step while more than half a
    step is left. More than MAX_STEPS steps are refused, as the loops do."""
    check_step_limit(t_end, dt)
    t, steps = 0.0, 0
    while t_end - t > 0.5 * dt:
        t += dt
        steps += 1
    return steps


def step_path(blocks: SystemBlocks, opts: SolverOptions, t_end: float,
              dt: float) -> tuple[bool, int, int]:
    """(interface, projected steps, n_i): an explicit run at dt forms the
    interface block when, under ``direct``, it steps more than n_i times.
    Forming costs n_i solves and saves one per step; dt only shrinks, so
    the projected count is a lower bound."""
    steps, n_i = fixed_step_count(t_end, dt), interface_dofs(blocks).size
    return opts.strategy == "direct" and steps > n_i, steps, n_i


def check_override(state: SolverState, opts: SolverOptions) -> None:
    """A fixed dt_override must satisfy dt * lambda_max <= 2 for every
    estimate of lambda_max the run makes, or the run diverges."""
    if opts.dt_override is not None and state.dt * state.lam_max > 2.0:
        raise InstabilityError(f"instability: dt_override = {state.dt:.6e} exceeds the stable "
                               f"step 2/lambda_max = {2.0 / state.lam_max:.6e} at "
                               f"t={state.t:.6e}", t=state.t, dt=state.dt)


def run_explicit(problem: AssembledProblem, source: SourceSpec, t_end: float,
                 opts: SolverOptions) -> RunResult:
    """Explicit Euler from t=0 to t_end (within half a step). dt is fixed to
    the CFL estimate at start; re-estimation after K_cc updates may shrink
    it, never grow it, and a shrink that takes the run past MAX_STEPS ends
    it. A rebuild re-estimates only when dt * (lam_max +
    growth_bound) exceeds 1 + safety: the bound may spend half the margin
    safety leaves below the stability limit 2, the other half covers the
    power iteration's own error. A dt_override past 2/lambda_max of any
    estimate, the initial one included, ends the run (check_override). The
    coil pattern is solved once, at set-up (SchurContext.set_source). On
    the interface path (step_path) a_n is recovered, and the DAE residual
    measured, at snapshots and the last step only. A step's row holds the
    dt it stepped with and the update count before its own rebuild; it is
    the last when no more than half the possibly shrunk dt is left."""
    trajectory = _Trajectory(problem, opts)
    blocks = problem.blocks
    state, ctx, mcc, _ = start_explicit(problem, opts, t_end)
    dt_initial, lam_initial = state.dt, state.lam_max

    ctx.set_source(source_pattern(problem.mesh, source, problem.part))
    if step_path(blocks, opts, t_end, state.dt)[0]:
        ctx.interface = form_interface(ctx, problem.probe_n)
        trajectory.use_interface(ctx.interface)
    block = ctx.interface
    max_dae = 0.0
    while t_end - state.t > 0.5 * state.dt:
        ctx.step = state.step_count + 1
        current = source.current(state.t + state.dt)
        explicit_step(state, blocks, ctx, mcc, current)
        dt, updates = state.dt, state.update_count

        # selective updates only matter when K_cc actually depends on a_c
        if problem.is_nonlinear:
            _, updated = maybe_update_kcc(state, problem, opts.tol_update)
            # lam_max + growth_bound bounds the rebuilt K_cc's lambda_max
            if updated and state.dt * (state.lam_max + problem.kcc_map.growth_bound(
                    state.nu_e, state.nu_est)) > 1.0 + opts.safety:
                dt_new = estimate_cfl(state, blocks, ctx, mcc, opts)
                check_override(state, opts)
                if opts.dt_override is None and dt_new < state.dt:
                    state.dt = dt_new
                    check_step_limit(t_end, state.dt, state.t, state.step_count)

        last = t_end - state.t <= 0.5 * state.dt
        a_n = None
        if block is None or last or trajectory.snapshot_at(state.step_count, last):
            j_sn = current * ctx.pattern
            if block is not None:
                state.a_n = recover_an(ctx, state.a_c, j_sn)
            max_dae = max(max_dae, _dae_residual(blocks, state.a_c, state.a_n, j_sn))
            a_n = state.a_n
        trajectory.record(state.step_count, state.t, last, state.a_c, a_n, dt,
                          ctx.stats.total_iterations, updates, current)

    return trajectory.result(
        "explicit", step_count=state.step_count, dt_initial=dt_initial, dt_final=state.dt,
        lam_max_initial=lam_initial, lam_max_final=state.lam_max,
        update_count=state.update_count, cfl_estimates=state.estimate_count,
        stats=ctx.stats, max_dae_residual=max_dae,
        mass_solves=mcc.solves_total, mass_iterations=mcc.iterations_total,
        cfl_knn_solves=ctx.estimation_context().stats.n_solves)


def _chain_rule_term(kmap: KccRebuildMap, a_c: np.ndarray) -> scipy.sparse.csr_matrix:
    """The chain-rule part of d(K(a) a)/da, all of it in the cc corner:
    H^T diag(nu'_e / (8 A_e^3)) H with H = diag(s_b) G_b + diag(s_c) G_c,
    where G_b and G_c are the b and c halves of kcc_map.b2.grad and
    (s_b, s_c) their products with a_c. Row e of H is the element's
    s_b b_e + s_c c_e, so the term is the sum over conductor elements of
    (2 nu'_e / A_e) w_e w_e^T with w_e = (s_b b_e + s_c c_e) / (4 A_e)."""
    grad, two_area = kmap.b2.grad, kmap.b2.two_area
    scaled = scipy.sparse.diags(grad.matvec(a_c)) @ grad.scipy()
    H = scaled[:two_area.size] + scaled[two_area.size:]
    alpha = kmap.dnu_db2(kmap.b2(a_c)) / two_area ** 3
    return (H.T @ scipy.sparse.diags(alpha) @ H).tocsr()


def newton_system(problem: AssembledProblem, dt: float, a_old: np.ndarray,
                  j_s: np.ndarray, a: np.ndarray):
    """Residual F(a) = (M/dt + K(a)) a - (M/dt) a_old - j_s of the implicit
    Euler step and its Jacobian J = M/dt + K(a) + d(K(a) a)/da, on the
    set-up blocks: M is M_cc, and K(a) is [[K_cc(a_c), K_cn], [K_nc, K_nn]],
    whose K_cc corner kcc_map rebuilds for nonlinear problems. The
    chain-rule term (_chain_rule_term) is in the cc corner too, and
    vanishes for linear materials. nu' >= 0 keeps J symmetric."""
    blocks, n_c = problem.blocks, problem.part.n_c
    a_c, a_n = a[:n_c], a[n_c:]
    K_cc, corner = blocks.K_cc, blocks.M_cc.scipy() * (1.0 / dt)
    if problem.is_nonlinear:
        K_cc = problem.kcc_map.rebuild(problem.kcc_map.nu(problem.kcc_map.b2(a_c)))
        corner = corner + _chain_rule_term(problem.kcc_map, a_c)
    F = np.concatenate([
        K_cc.matvec(a_c) + blocks.K_cn.matvec(a_n)
        + blocks.M_cc.matvec(a_c - a_old[:n_c]) / dt,
        blocks.K_nc.matvec(a_c) + blocks.K_nn.matvec(a_n)]) - j_s
    J = scipy.sparse.bmat([[corner + K_cc.scipy(), blocks.K_cn.scipy()],
                           [blocks.K_nc.scipy(), blocks.K_nn.scipy()]], format="csr")
    return F, J


def newton_solve(problem: AssembledProblem, dt: float, a_old: np.ndarray,
                 j_s: np.ndarray, newton_tol: float = 1e-8,
                 max_newton: int = 25) -> tuple[np.ndarray, int]:
    """One implicit Euler step on the full DAE, solved by Newton-Raphson on
    newton_system, each iteration one solve with the factor_spd LU of the
    symmetric J. Converges in exactly one iteration for linear materials,
    whose constant J is factored once per dt. Returns (a, iterations)."""
    n_c = problem.part.n_c
    rhs = np.array(j_s, dtype=float)
    rhs[:n_c] += problem.blocks.M_cc.matvec(a_old[:n_c]) / dt
    scale = float(np.linalg.norm(rhs)) or 1.0

    a = np.array(a_old, dtype=float)
    f_first = None
    for it in range(max_newton + 1):
        try:
            F, J = newton_system(problem, dt, a_old, j_s, a)
        except SolverError as exc:  # the reluctivity law overflows at this iterate
            raise SolverError(f"Newton diverged ({exc}); try a smaller time step") from exc
        fn = float(np.linalg.norm(F))
        if not np.isfinite(fn) or (f_first is not None and fn > 1e3 * max(f_first, scale)):
            raise SolverError("Newton diverged; try a smaller time step")
        if f_first is None:
            f_first = fn
        if fn <= newton_tol * scale:
            return a, it
        if it == max_newton:
            break
        factor = None if problem.is_nonlinear else problem._factor_cache.get(dt)
        if factor is None:
            factor = factor_spd(SparseMatrix(J), "implicit Euler Jacobian")
            if not problem.is_nonlinear:
                problem._factor_cache[dt] = factor
        a = a + factor.solve(-F)
    raise SolverError(
        f"Newton did not converge in {max_newton} iterations "
        f"(residual {fn:.3e}); try a smaller time step"
    )


def run_implicit(problem: AssembledProblem, source: SourceSpec, t_end: float,
                 dt: float, opts: SolverOptions) -> RunResult:
    """Implicit Euler reference trajectory; dt is unconstrained (the scheme
    is unconditionally stable). update_count reports the Newton total: a
    nonlinear problem rebuilds K_cc and factors the Jacobian in every Newton
    iteration, a linear one reuses one factor per dt."""
    check_window(t_end, dt, "implicit")
    trajectory = _Trajectory(problem, opts)
    n_c = problem.part.n_c
    pattern = source_pattern(problem.mesh, source, problem.part)
    a = np.zeros(problem.n_free)
    t, step, newton_total = 0.0, 0, 0
    while t_end - t > 0.5 * dt:
        t += dt
        step += 1
        j_s = np.concatenate([np.zeros(n_c), source.current(t) * pattern])
        a, iters = newton_solve(problem, dt, a, j_s, opts.newton_tol,
                                opts.newton_max_iter)
        newton_total += iters
        trajectory.record(step, t, t_end - t <= 0.5 * dt, a[:n_c], a[n_c:], dt,
                          newton_total, newton_total)

    return trajectory.result("implicit", step_count=step, dt_initial=dt, dt_final=dt,
                             update_count=newton_total, newton_iterations=newton_total)
