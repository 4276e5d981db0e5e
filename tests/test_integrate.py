import io
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse

from eddy2d import integrate
from eddy2d.assembly import (
    MASS_TEMPLATE,
    MaterialTable,
    b2_map,
    compute_b2,
    element_pattern,
)
from eddy2d.errors import InstabilityError, SolverError
from eddy2d.integrate import (
    MccSolver,
    RunResult,
    SolverOptions,
    discretize,
    estimate_cfl,
    explicit_step,
    maybe_update_kcc,
    new_state,
    newton_solve,
    newton_system,
    probe_deviation,
    run_explicit,
    run_implicit,
)
from eddy2d.linalg import SparseMatrix
from eddy2d.materials import MaterialModel
from eddy2d.mesh import Mesh2D, RegionTag, generate_rect_mesh
from eddy2d.scenario import bundled_scenario_path, load_scenario
from eddy2d.schur import SchurContext, apply_ks, form_interface, interface_dofs

from conftest import (
    AIR,
    STEEL_BRAUER,
    STEEL_LINEAR,
    dense_kS,
    element_materials,
    element_tags,
    make_mini_mesh,
    make_mini_problem,
    make_mini_source,
    mini_materials,
    reassemble_stiffness,
    reassembled_kcc,
)


def scalar_problem(nonlinear=False):
    """2x2 all-conductor mesh: a single free DoF (the center node), n_n = 0.
    The Schur ODE degenerates to the scalar m a' + k(a) a = 0."""
    def fn(x, y):
        return RegionTag("conductor", 0)

    mesh = generate_rect_mesh(1.0, 1.0, 2, 2, fn)
    steel = STEEL_BRAUER if nonlinear else STEEL_LINEAR
    return discretize(mesh, MaterialTable({0: steel}, AIR))


def make_ctx(problem, tol=1e-6, strategy="previous"):
    return SchurContext(problem.blocks, tol=tol, strategy=strategy)


def stepping_ctx(problem, tol=1e-6):
    """A context that has solved the mini source's coil pattern; returns
    (ctx, pattern)."""
    from eddy2d.assembly import source_pattern
    ctx = make_ctx(problem, tol=tol)
    pattern = source_pattern(problem.mesh, make_mini_source(), problem.part)
    ctx.set_source(pattern)
    return ctx, pattern


def dense_lambda_max(problem, K_cc=None):
    """Dense generalized-eigenvalue oracle for (K_cc - K_S, M_cc)."""
    blocks = problem.blocks
    Kd = (K_cc if K_cc is not None else blocks.K_cc).toarray()
    A = Kd - dense_kS(blocks)
    M = blocks.M_cc.toarray()
    w = scipy.linalg.eigh(0.5 * (A + A.T), M, eigvals_only=True)
    return float(w.max())


def plate2d_problem():
    return load_scenario(bundled_scenario_path("plate2d")).build_problem()


# -------------------------------------------------------------------- MccSolver

def test_mcc_pcg_solves_tightly(mini_problem):
    mcc = MccSolver(mini_problem.blocks.M_cc, "pcg", tol=1e-12)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(mini_problem.part.n_c)
    x = mcc.solve(b)
    res = np.linalg.norm(mini_problem.blocks.M_cc.matvec(x) - b) / np.linalg.norm(b)
    assert res <= 1e-10


@pytest.mark.parametrize("make_problem", [
    lambda: make_mini_problem(nonlinear=False),
    plate2d_problem,
], ids=["mini", "plate2d"])
def test_mcc_factored_solve_is_exact_at_its_start(make_problem):
    # PCG starts at the solve with the factor of M_cc: no iteration,
    # however many solves came before
    m_cc = make_problem().blocks.M_cc
    dense = m_cc.toarray()
    mcc = MccSolver(m_cc, "pcg", tol=1e-12)
    rng = np.random.default_rng(5)
    for k in range(1, 6):
        b = rng.standard_normal(m_cc.nrows)
        x = mcc.solve(b)
        ref = np.linalg.solve(dense, b)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        assert mcc.solves_total == k
        assert mcc.iterations_total == 0


def test_mcc_singular_mass_raises_solver_error():
    with pytest.raises(SolverError, match="M_cc"):
        MccSolver(SparseMatrix.from_dense([[1.0, 0.0], [0.0, 0.0]]), "pcg")


def test_run_explicit_mass_solves_start_at_the_exact_solution():
    # every M_cc solve starts at the band factor's solution, which PCG's
    # residual check accepts without an iteration
    sc = load_scenario(bundled_scenario_path("plate2d"))
    problem = sc.build_problem()
    res = run_explicit(problem, sc.source, 6e-3, sc.options)  # about 20 steps
    summary = res.summary()
    assert summary["mass_solves_total"] >= res.step_count > 0
    assert summary["mass_iterations_total"] == 0


def test_run_explicit_zero_drive_stays_at_rest(mini_problem):
    # a zero drive makes every bracket zero; the M_cc solve of a zero
    # right-hand side must not inherit the last power-iteration solution
    res = run_explicit(mini_problem, make_mini_source(i_max=0.0), 0.01,
                       SolverOptions(seed=3))
    assert res.step_count > 0
    assert not res.probe.any()


def test_mcc_lumped_mode(mini_problem):
    m_cc = mini_problem.blocks.M_cc
    mcc = MccSolver(m_cc, "lumped")
    b = np.ones(mini_problem.part.n_c)
    x = mcc.solve(b)
    lumped = np.asarray(m_cc.scipy().sum(axis=1)).ravel()
    np.testing.assert_allclose(x, 1.0 / lumped)


# ----------------------------------------------------------------- estimate_cfl

def test_cfl_scalar_surrogate():
    # one free DoF: lambda = k/m exactly, dt = safety * 2 m / k
    problem = scalar_problem()
    k = problem.blocks.K_cc.toarray()[0, 0]
    m = problem.blocks.M_cc.toarray()[0, 0]
    ctx = make_ctx(problem)
    mcc = MccSolver(problem.blocks.M_cc, "pcg", tol=1e-12)
    state = new_state(problem)
    opts = SolverOptions(power_tol=1e-12, safety=0.95)
    dt = estimate_cfl(state, problem.blocks, ctx, mcc, opts)
    assert dt == pytest.approx(0.95 * 2.0 * m / k, rel=1e-9)


def test_cfl_matches_dense_generalized_eig(mini_problem):
    lam_ref = dense_lambda_max(mini_problem)
    ctx = make_ctx(mini_problem, tol=1e-10)
    mcc = MccSolver(mini_problem.blocks.M_cc, "pcg", tol=1e-12)
    state = new_state(mini_problem)
    opts = SolverOptions(power_tol=1e-9, power_max_iter=50000, safety=1.0)
    dt = estimate_cfl(state, mini_problem.blocks, ctx, mcc, opts)
    assert abs(state.lam_max - lam_ref) <= 1e-3 * lam_ref
    assert dt == pytest.approx(2.0 / state.lam_max)


def test_cfl_operator_on_the_interface_block_matches_apply_ks(mini_problem_nonlinear):
    # once K_S is formed, apply_ks applies it as the dense block, exactly
    # zero off the interface and with no K_nn solve, and the estimate's
    # operator with it: both match the matrix-free apply to round-off, at
    # rebuilt K_cc too, and a re-estimate makes no K_nn solve in either
    # context
    from eddy2d.assembly import source_pattern
    problem = mini_problem_nonlinear
    n_c = problem.part.n_c
    ctx = make_ctx(problem, strategy="direct")
    ctx.set_source(source_pattern(problem.mesh, make_mini_source(), problem.part))
    mcc = MccSolver(problem.blocks.M_cc)
    state = new_state(problem)
    opts = SolverOptions(seed=3)
    estimate_cfl(state, problem.blocks, ctx, mcc, opts)
    est = ctx.estimation_context()
    assert est.stats.n_solves > 0
    on_ks = integrate.cfl_operator(state, ctx, mcc)
    ctx.interface = form_interface(ctx, problem.probe_n)
    on_block = integrate.cfl_operator(state, ctx, mcc)
    rng = np.random.default_rng(67)
    for a_c, _ in random_states(n_c, 0, 10, 71, top=-2):
        state.K_cc_current = problem.kcc_map.rebuild(problem.kcc_map.nu(problem.kcc_map.b2(a_c)))
        for _ in range(5):
            x = rng.standard_normal(n_c)
            ref = on_ks(x)
            assert np.abs(on_block(x) - ref).max() <= 1e-12 * np.abs(ref).max()
    off = np.setdiff1d(np.arange(n_c), ctx.interface.iface)
    assert off.size
    for _ in range(5):
        x = rng.standard_normal(n_c)
        ref = apply_ks(est, x)  # matrix-free: est holds no block
        solves = (est.stats.n_solves, ctx.stats.n_solves)
        got = apply_ks(ctx, x)
        assert (est.stats.n_solves, ctx.stats.n_solves) == solves
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert not got[off].any()
    est_solves, run_solves = est.stats.n_solves, ctx.stats.n_solves
    estimate_cfl(state, problem.blocks, ctx, mcc, opts)
    assert state.estimate_count == 2
    assert (est.stats.n_solves, ctx.stats.n_solves) == (est_solves, run_solves)


def _block_conductor_problem(n=8, kappa=1e7):
    def fn(x, y):
        return RegionTag("conductor", 0) if 0.025 <= x < 0.075 and 0.025 <= y < 0.075 \
            else RegionTag("air")

    mesh = generate_rect_mesh(0.1, 0.1, n, n, fn)
    mats = MaterialTable({0: MaterialModel.linear(kappa, 570.0)}, AIR)
    return discretize(mesh, mats)


def test_cfl_refinement_quadruples_lambda():
    lam_coarse = dense_lambda_max(_block_conductor_problem(8))
    lam_fine = dense_lambda_max(_block_conductor_problem(16))
    assert 3.0 <= lam_fine / lam_coarse <= 5.0


def test_cfl_inversely_proportional_to_kappa():
    lam1 = dense_lambda_max(_block_conductor_problem(8, kappa=1e7))
    lam2 = dense_lambda_max(_block_conductor_problem(8, kappa=1e8))
    assert 7.0 <= lam1 / lam2 <= 13.0  # dt_cfl grows ~10x with 10x kappa


# ---------------------------------------------------------------- explicit_step

def test_explicit_step_zero_equilibrium(mini_problem):
    ctx, _ = stepping_ctx(mini_problem)
    mcc = MccSolver(mini_problem.blocks.M_cc)
    state = new_state(mini_problem)
    state.dt = 1e-3
    explicit_step(state, mini_problem.blocks, ctx, mcc, 0.0)
    np.testing.assert_array_equal(state.a_c, 0.0)
    np.testing.assert_array_equal(state.a_n, 0.0)
    assert state.t == pytest.approx(1e-3)


def test_explicit_step_matches_dense_oracle(mini_problem):
    # one full step of the update formula, evaluated densely, from a state
    # that satisfies the a_n invariant for (a_c, i_prev * pattern)
    blocks = mini_problem.blocks
    ctx, pattern = stepping_ctx(mini_problem, tol=1e-10)
    rng = np.random.default_rng(7)
    a_c = rng.standard_normal(mini_problem.part.n_c) * 1e-3
    i_prev, current = rng.standard_normal(2) * 1e-2
    j_prev, j_sn = i_prev * pattern, current * pattern
    dt = 1e-4

    Minv = np.linalg.inv(blocks.M_cc.toarray())
    Knn = blocks.K_nn.toarray()
    Kcn = blocks.K_cn.toarray()
    Kcc = blocks.K_cc.toarray()
    KS = dense_kS(blocks)
    bracket = -Kcn @ np.linalg.solve(Knn, j_sn) - (Kcc - KS) @ a_c
    a_c_ref = a_c + dt * Minv @ bracket
    a_n_ref = np.linalg.solve(Knn, j_sn) - np.linalg.solve(Knn, Kcn.T @ a_c_ref)

    mcc = MccSolver(blocks.M_cc, "pcg", tol=1e-13)
    state = new_state(mini_problem)
    state.a_c = a_c.copy()
    state.a_n = np.linalg.solve(Knn, j_prev - Kcn.T @ a_c)
    state.current = i_prev
    state.dt = dt
    explicit_step(state, blocks, ctx, mcc, current)
    assert np.linalg.norm(state.a_c - a_c_ref) <= 1e-9 * max(np.linalg.norm(a_c_ref), 1e-12)
    assert np.linalg.norm(state.a_n - a_n_ref) <= 1e-8 * max(np.linalg.norm(a_n_ref), 1e-12)


def test_explicit_steps_match_dense_recurrence(mini_problem, mini_source):
    # ramped source from the zero state: the one-solve step reproduces the
    # dense source / Schur-apply / recovery recurrence; the pattern is
    # solved once, at set-up (step 0), and a step solves for a_n alone
    blocks = mini_problem.blocks
    ctx, pat = stepping_ctx(mini_problem, tol=1e-10)
    Minv = np.linalg.inv(blocks.M_cc.toarray())
    Knn = blocks.K_nn.toarray()
    Kcn = blocks.K_cn.toarray()
    A = blocks.K_cc.toarray() - dense_kS(blocks)
    dt = 0.5 * 2.0 / dense_lambda_max(mini_problem)

    mcc = MccSolver(blocks.M_cc, "pcg", tol=1e-13)
    state = new_state(mini_problem)
    state.dt = dt
    a_c_ref = np.zeros(mini_problem.part.n_c)
    n_steps = 20
    for m in range(1, n_steps + 1):
        j_sn = mini_source.current(m * dt) * pat
        a_c_ref = a_c_ref + dt * Minv @ (-Kcn @ np.linalg.solve(Knn, j_sn) - A @ a_c_ref)
        a_n_ref = np.linalg.solve(Knn, j_sn - Kcn.T @ a_c_ref)
        ctx.step = m
        explicit_step(state, blocks, ctx, mcc, mini_source.current(m * dt))
        assert np.linalg.norm(state.a_c - a_c_ref) <= 1e-8 * np.linalg.norm(a_c_ref)
        assert np.linalg.norm(state.a_n - a_n_ref) <= 1e-8 * np.linalg.norm(a_n_ref)

    for m in range(n_steps + 1):
        purposes = [r.purpose for r in ctx.stats.records if r.step == m]
        assert purposes == (["source_term"] if m == 0 else ["recovery"])
    assert ctx.stats.n_solves == n_steps + 1


def test_stability_dichotomy(mini_problem):
    # bounded below the CFL bound, monotone growth above it (dense oracle)
    blocks = mini_problem.blocks
    lam = dense_lambda_max(mini_problem)
    mcc = MccSolver(blocks.M_cc, "pcg", tol=1e-12)
    src = make_mini_source()
    pattern_ctx, _ = stepping_ctx(mini_problem, tol=1e-8)

    # stable: 1000 steps under a ramp source stay bounded
    state = new_state(mini_problem)
    state.dt = 0.9 * 2.0 / lam
    for _ in range(1000):
        explicit_step(state, blocks, pattern_ctx, mcc, src.current(state.t + state.dt))
    assert np.isfinite(state.a_c).all()
    assert np.linalg.norm(state.a_c) < 1e6

    # unstable: dominant-mode initial data grows monotonically, no source
    A = blocks.K_cc.toarray() - dense_kS(blocks)
    M = blocks.M_cc.toarray()
    w, V = scipy.linalg.eigh(0.5 * (A + A.T), M)
    v_dom = V[:, -1]
    state = new_state(mini_problem)
    state.a_c = v_dom / np.linalg.norm(v_dom)
    state.a_n = -np.linalg.solve(blocks.K_nn.toarray(), blocks.K_cn.toarray().T @ state.a_c)
    state.dt = 1.1 * 2.0 / lam
    ctx2, _ = stepping_ctx(mini_problem, tol=1e-10)
    norms = [np.linalg.norm(state.a_c)]
    for _ in range(40):
        explicit_step(state, blocks, ctx2, mcc, 0.0)
        norms.append(np.linalg.norm(state.a_c))
    assert all(b > a for a, b in zip(norms, norms[1:]))


def test_explicit_step_instability_error(mini_problem):
    blocks = mini_problem.blocks
    lam = dense_lambda_max(mini_problem)
    mcc = MccSolver(blocks.M_cc)
    ctx, _ = stepping_ctx(mini_problem)
    state = new_state(mini_problem)
    rng = np.random.default_rng(9)
    state.a_c = rng.standard_normal(mini_problem.part.n_c)
    state.a_n = -np.linalg.solve(blocks.K_nn.toarray(), blocks.K_cn.toarray().T @ state.a_c)
    state.dt = 50.0 / lam
    with pytest.raises(InstabilityError, match="instability"):
        for _ in range(3000):
            explicit_step(state, blocks, ctx, mcc, 0.0)


# ------------------------------------------------------------- maybe_update_kcc

def test_update_skipped_when_unchanged(mini_problem_nonlinear):
    state = new_state(mini_problem_nonlinear)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(mini_problem_nonlinear.part.n_c) * 1e-3
    state.a_c = v.copy()
    state.a_c_last_update = v.copy()
    _, updated = maybe_update_kcc(state, mini_problem_nonlinear, 1e-3)
    assert not updated and state.update_count == 0


def test_update_ratio_rule(mini_problem_nonlinear):
    state = new_state(mini_problem_nonlinear)
    rng = np.random.default_rng(13)
    v = rng.standard_normal(mini_problem_nonlinear.part.n_c) * 1e-3
    state.a_c_last_update = v.copy()
    state.a_c = 1.002 * v  # ratio 0.002 > 1e-3
    _, updated = maybe_update_kcc(state, mini_problem_nonlinear, 1e-3)
    assert updated and state.update_count == 1
    np.testing.assert_array_equal(state.a_c_last_update, state.a_c)


def test_update_forced_from_zero_reference(mini_problem_nonlinear):
    state = new_state(mini_problem_nonlinear)
    state.a_c = np.full(mini_problem_nonlinear.part.n_c, 1e-12)
    _, updated = maybe_update_kcc(state, mini_problem_nonlinear, 1e9)
    assert updated  # undefined ratio forces the first rebuild


def assert_kcc_matches_reassembly(problem, materials, state):
    """K_cc_current has the pattern of a full reassembly at (a_c, a_n) and
    its values to 1e-14 max|K_cc|: the rebuild sums element entries in
    another order than scipy sums CSR duplicates, so bitwise parity is not
    attainable."""
    ref = reassembled_kcc(problem, materials, state.a_c, state.a_n)
    got = state.K_cc_current
    np.testing.assert_array_equal(got.row_offsets, ref.row_offsets)
    np.testing.assert_array_equal(got.col_indices, ref.col_indices)
    assert np.abs(got.values - ref.values).max() <= 1e-14 * np.abs(ref.values).max()


def test_update_rebuilds_kcc_from_current_field(mini_problem_nonlinear):
    problem = mini_problem_nonlinear
    state = new_state(problem)
    rng = np.random.default_rng(17)
    state.a_c = rng.standard_normal(problem.part.n_c) * 1e-3
    state.a_n = rng.standard_normal(problem.part.n_n) * 1e-3
    _, updated = maybe_update_kcc(state, problem, 0.0)
    assert updated
    assert_kcc_matches_reassembly(problem, mini_materials(nonlinear=True), state)


def plate2d_materials():
    return load_scenario(bundled_scenario_path("plate2d")).materials


@pytest.mark.parametrize("make_problem,materials", [
    (lambda: make_mini_problem(nonlinear=True), lambda: mini_materials(nonlinear=True)),
    (plate2d_problem, plate2d_materials),
], ids=["mini", "plate2d"])
def test_kcc_rebuild_matches_reassembly(make_problem, materials):
    problem = make_problem()
    rng = np.random.default_rng(23)
    cond = np.array([tag.kind == "conductor" for tag in element_tags(problem.mesh)])
    for _ in range(5):
        state = new_state(problem)
        state.a_c = rng.standard_normal(problem.part.n_c)
        state.a_n = rng.standard_normal(problem.part.n_n)
        a_full = problem.part.to_full(state.a_c, state.a_n, problem.mesh.n_nodes)
        b_max = np.sqrt(compute_b2(problem.mesh, a_full)[cond].max())
        scale = rng.uniform(0.2, 1.2) / b_max  # conductor B up to 1.2 T
        state.a_c *= scale
        state.a_n *= scale
        _, updated = maybe_update_kcc(state, problem, 0.0)
        assert updated
        assert_kcc_matches_reassembly(problem, materials(), state)


def test_kcc_rebuild_is_the_csr_of_its_pattern(mini_problem_nonlinear):
    # rebuild fills the fixed pattern in place; the canonicalizing
    # constructor on the same arrays gives the same matrix
    kmap = mini_problem_nonlinear.kcc_map
    nu_e = kmap.nu(kmap.b2(np.random.default_rng(37).standard_normal(kmap.indptr.size - 1)
                           * 1e-2))
    got = kmap.rebuild(nu_e)
    vals = got.values.copy()
    ref = SparseMatrix(scipy.sparse.csr_matrix((vals, kmap.indices, kmap.indptr),
                                               shape=got.shape))
    np.testing.assert_array_equal(got.row_offsets, ref.row_offsets)
    np.testing.assert_array_equal(got.col_indices, ref.col_indices)
    np.testing.assert_array_equal(got.values, ref.values)
    np.testing.assert_array_equal(got.toarray(), ref.toarray())


def random_states(n_c, n_n, count, seed, top=2):
    """``count`` random (a_c, a_n) pairs at scales from 1e-8 to 10**top."""
    rng = np.random.default_rng(seed)
    for scale in 10.0 ** rng.uniform(-8, top, count):
        yield scale * rng.standard_normal(n_c), scale * rng.standard_normal(n_n)


def jittered_mini_problem():
    """The nonlinear mini problem with its interior nodes moved by up to 20%
    of a cell. On the structured mesh each element's b and c hold an exact
    zero, so the order of a three-term sum never shows in its bits; off the
    boundary the jittered mesh has none."""
    mesh = make_mini_mesh()
    nodes = mesh.nodes.copy()
    interior = np.setdiff1d(np.arange(mesh.n_nodes), list(mesh.boundary_nodes))
    nodes[interior] += np.random.default_rng(59).uniform(-0.002, 0.002, (interior.size, 2))
    mesh = Mesh2D(nodes, mesh.elements, mesh.tags, mesh.region, mesh.boundary_nodes)
    return discretize(mesh, MaterialTable({0: STEEL_BRAUER}, AIR), probe_id=0)


@pytest.mark.parametrize("make_problem", [plate2d_problem, jittered_mini_problem],
                         ids=["plate2d", "jittered"])
def test_b2_maps_equal_compute_b2_bitwise(make_problem):
    # the conductor map on a_c, the probe map on [a_c[probe_c] | a_n[probe_n]],
    # and a map of every element (those on the Dirichlet boundary included)
    # each give compute_b2's bits on the full nodal vector
    problem = make_problem()
    mesh, part = problem.mesh, problem.part
    is_cond = mesh.region_mask(lambda t: t.kind == "conductor")
    is_probe = mesh.region_mask(lambda t: t.probe == 0)
    every = b2_map(mesh, np.arange(mesh.n_elements), part.positions(mesh.n_nodes), part.n_free)
    on_boundary = np.isin(mesh.elements, list(mesh.boundary_nodes)).any(axis=1)
    assert on_boundary.any() and is_probe.any()
    for a_c, a_n in random_states(part.n_c, part.n_n, 1000, 41):
        a_full = part.to_full(a_c, a_n, mesh.n_nodes)
        ref = compute_b2(mesh, a_full)
        assert np.array_equal(problem.kcc_map.b2(a_c), ref[is_cond])
        assert np.array_equal(problem.probe_b2(np.concatenate([a_c[problem.probe_c],
                                                               a_n[problem.probe_n]])),
                              ref[is_probe])
        assert np.array_equal(every(np.concatenate([a_c, a_n])), ref)


def bincount_rebuild(problem, nu_e):
    """K_cc values by the entry-by-entry scatter: each conductor element's
    nonzero geometric stiffness times its nu, summed into its slot of the
    pattern in entry order by np.bincount, on top of ``base``."""
    mesh, part, kmap = problem.mesh, problem.part, problem.kcc_map
    n_c = part.n_c
    index = -np.ones(mesh.n_nodes, dtype=np.int64)
    index[part.nodes[:n_c]] = np.arange(n_c)
    cond = mesh.region_mask(lambda t: t.kind == "conductor")
    (b, c), area = (g[cond] for g in mesh.gradients), mesh.areas[cond]
    geom = ((b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
            / (4.0 * area)[:, None, None]).ravel()
    rows, cols, keep = element_pattern(mesh.elements[cond], index)
    src = np.flatnonzero(keep)
    nz = geom[src] != 0.0
    rows, cols, src = rows[nz], cols[nz], src[nz]
    pattern_keys = np.repeat(np.arange(n_c), np.diff(kmap.indptr)) * n_c + kmap.indices
    entry_slot = np.searchsorted(pattern_keys, rows * n_c + cols)
    assert np.array_equal(pattern_keys[entry_slot], rows * n_c + cols)
    return kmap.base + np.bincount(entry_slot, weights=geom[src] * nu_e[src // 9],
                                   minlength=kmap.base.size)


@pytest.mark.parametrize("make_problem", [
    lambda: make_mini_problem(nonlinear=True),
    plate2d_problem,
    jittered_mini_problem,
], ids=["mini", "plate2d", "jittered"])
def test_kcc_rebuild_equals_bincount_bitwise(make_problem):
    problem = make_problem()
    kmap = problem.kcc_map
    n_elem = kmap.k1.size
    rng = np.random.default_rng(43)
    # B up to a few tesla, where exp in nu stays finite
    for a_c, _ in random_states(problem.part.n_c, 0, 300, 47, top=-2):
        nu_e = kmap.nu(kmap.b2(a_c))
        assert np.array_equal(kmap.rebuild(nu_e).values, bincount_rebuild(problem, nu_e))
    for _ in range(100):
        nu_e = 10.0 ** rng.uniform(-3, 6, n_elem)
        assert np.array_equal(kmap.rebuild(nu_e).values, bincount_rebuild(problem, nu_e))


def probe_of(problem, a_c, a_pn) -> float:
    """probe_average_b of the one state (a_c, a_pn), as a block of one row."""
    return float(integrate.probe_average_b(problem, a_c[None, problem.probe_c], a_pn[None])[0])


def test_probe_average_b_equals_the_full_vector_formula():
    problem = plate2d_problem()
    part, is_probe = problem.part, problem.mesh.region_mask(lambda t: t.probe == 0)
    areas = problem.mesh.areas[is_probe]
    for a_c, a_n in random_states(part.n_c, part.n_n, 1000, 53):
        a_full = part.to_full(a_c, a_n, problem.mesh.n_nodes)
        b2 = compute_b2(problem.mesh, a_full)[is_probe]
        ref = float((areas * np.sqrt(b2)).sum() / areas.sum())
        assert probe_of(problem, a_c, a_n[problem.probe_n]) == ref


def probe_less_problem():
    return discretize(make_mini_mesh(), MaterialTable({0: STEEL_LINEAR}, AIR))


@pytest.mark.parametrize("make_problem", [plate2d_problem, jittered_mini_problem,
                                          probe_less_problem],
                         ids=["plate2d", "jittered", "no-probe"])
def test_probe_average_b_of_a_block_equals_its_rows(make_problem):
    # a (rows, .) block of states, zero rows included, gives each row's
    # value alone (a block of one row), bitwise
    problem = make_problem()
    part = problem.part
    states = list(random_states(part.n_c, part.n_n, 300, 61))
    states[::50] = [(np.zeros(part.n_c), np.zeros(part.n_n))] * 6
    a_c = np.array([a_c for a_c, _ in states])
    a_pn = np.array([a_n[problem.probe_n] for _, a_n in states])
    rows = [probe_of(problem, c, pn) for c, pn in zip(a_c, a_pn)]
    assert np.array_equal(integrate.probe_average_b(problem, a_c[:, problem.probe_c], a_pn), rows)
    assert rows[0] == 0.0
    assert any(rows) == (problem.probe_b2.two_area.size > 0)


def test_kcc_rebuild_ignores_a_n(mini_problem_nonlinear):
    problem = mini_problem_nonlinear
    rng = np.random.default_rng(29)
    a_c = rng.standard_normal(problem.part.n_c) * 1e-3
    rebuilt = []
    for _ in range(2):
        state = new_state(problem)
        state.a_c = a_c.copy()
        state.a_n = rng.standard_normal(problem.part.n_n) * 1e-3
        maybe_update_kcc(state, problem, 0.0)
        rebuilt.append(state.K_cc_current)
    np.testing.assert_array_equal(rebuilt[0].values, rebuilt[1].values)
    np.testing.assert_array_equal(rebuilt[0].col_indices, rebuilt[1].col_indices)


def test_kcc_update_does_not_reassemble(mini_problem_nonlinear, monkeypatch):
    def no_assemble(*args, **kwargs):
        raise AssertionError("maybe_update_kcc reassembled the system")

    monkeypatch.setattr("eddy2d.integrate.assemble", no_assemble)
    state = new_state(mini_problem_nonlinear)
    state.a_c = np.full(mini_problem_nonlinear.part.n_c, 1e-3)
    _, updated = maybe_update_kcc(state, mini_problem_nonlinear, 0.0)
    assert updated


def uniform_field_state(problem, b0):
    """a_c = b0 * y on the conducting nodes: |B| = b0 in every conductor
    element whose nodes are all free (all of them in mini and plate2d)."""
    return b0 * problem.mesh.nodes[problem.part.nodes[:problem.part.n_c], 1]


def test_rebuild_map_mu_is_element_lambda_max(mini_problem_nonlinear):
    mesh, kmap = mini_problem_nonlinear.mesh, mini_problem_nonlinear.kcc_map
    cond = np.flatnonzero(mesh.region_mask(lambda t: t.kind == "conductor"))
    assert kmap.mu.size == cond.size
    for i, e in enumerate(cond):
        b, c, area = mesh.gradients[0][e], mesh.gradients[1][e], mesh.areas[e]
        k_geom = (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)
        m_e = STEEL_BRAUER.kappa * area * MASS_TEMPLATE
        ref = scipy.linalg.eigh(k_geom, m_e, eigvals_only=True)[-1]
        assert kmap.mu[i] == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("make_problem", [
    lambda: make_mini_problem(nonlinear=True),
    plate2d_problem,
], ids=["mini", "plate2d"])
def test_lambda_growth_bound_holds(make_problem):
    # between every two conductor states, the exact lambda_max of the new
    # K_cc is at most the old one plus growth_bound. The states: zero field,
    # a uniform 1.2 T field (the bound is about 63% tight there, and every nu
    # falls on the way back to zero, where only the positive part keeps the
    # bound from going negative) and random fields up to about 1.2 T
    problem = make_problem()
    kmap = problem.kcc_map
    n_c = problem.part.n_c
    rng = np.random.default_rng(31)
    cond = np.array([tag.kind == "conductor" for tag in element_tags(problem.mesh)])
    states = [np.zeros(n_c), uniform_field_state(problem, 1.2)]
    for _ in range(4):
        a_c = rng.standard_normal(n_c)
        a_full = problem.part.to_full(a_c, np.zeros(problem.part.n_n), problem.mesh.n_nodes)
        b_max = np.sqrt(compute_b2(problem.mesh, a_full)[cond].max())
        states.append(a_c * rng.uniform(0.2, 1.2) / b_max)
    nus = [kmap.nu(kmap.b2(a_c)) for a_c in states]
    lams = [dense_lambda_max(problem, kmap.rebuild(nu)) for nu in nus]
    for old, new in itertools.permutations(range(len(states)), 2):
        bound = kmap.growth_bound(nus[new], nus[old])
        assert lams[new] <= (lams[old] + bound) * (1 + 1e-12)


# ---------------------------------------------------------------------- Newton

def test_newton_linear_one_iteration(mini_problem, mini_source):
    from eddy2d.assembly import source_pattern
    part = mini_problem.part
    j_sn = mini_source.current(0.05) * source_pattern(mini_problem.mesh, mini_source, part)
    j_s = np.zeros(part.n_free)
    j_s[part.idx_n] = j_sn
    a, iters = newton_solve(mini_problem, 1e-3, np.zeros(part.n_free), j_s)
    assert iters == 1  # affine residual


def test_newton_scalar_vs_root_finder():
    # manufactured single-DoF nonlinear step checked against brentq
    problem = scalar_problem(nonlinear=True)
    m = problem.blocks.M_cc.toarray()[0, 0]
    dt = 1e-4
    a_old = np.array([0.002])
    j = np.array([50.0])

    def stiffness(a):
        return reassembled_kcc(problem, MaterialTable({0: STEEL_BRAUER}, AIR), np.array(a),
                               np.zeros(0)).toarray()[0, 0]

    def F(a):
        return (m / dt + stiffness([a])) * a - (m / dt) * a_old[0] - j[0]

    root = scipy.optimize.brentq(F, 0.0, 1.0, xtol=1e-15)
    a, _ = newton_solve(problem, dt, a_old, j, newton_tol=1e-12)
    assert a[0] == pytest.approx(root, abs=1e-8)


def test_newton_jacobian_matches_finite_differences(mini_problem_nonlinear):
    problem = mini_problem_nonlinear
    rng = np.random.default_rng(19)
    n = problem.part.n_free
    a = rng.standard_normal(n) * 3e-3  # B_max about 1.2 T; 0.05 overflows F
    a_old = rng.standard_normal(n) * 3e-3
    j_s = rng.standard_normal(n)
    dt = 1e-3
    F0, J = newton_system(problem, dt, a_old, j_s, a)
    delta = rng.standard_normal(n)
    delta *= 1e-6 / np.linalg.norm(delta)
    F1, _ = newton_system(problem, dt, a_old, j_s, a + delta)
    lhs = J @ delta
    rhs = F1 - F0
    err, scale = np.linalg.norm(lhs - rhs), np.linalg.norm(rhs)
    assert np.isfinite(err) and np.isfinite(scale)
    # the step's second-order error is about 2e-9; leaving out the
    # chain-rule term gives about 2e-5, which a 1e-4 bound let through
    assert err <= 1e-7 * scale


def dense_chain_rule_term(problem, materials, a_full):
    """Oracle chain-rule part of d(K(a) a)/da on the conducting DoFs, element
    by element: each conductor element's (2 nu'(B^2) / A) w w^T with
    w = (b (b . a_e) + c (c . a_e)) / (4 A), scattered densely."""
    n_c, mesh = problem.part.n_c, problem.mesh
    _, _, k2, k3 = element_materials(mesh, materials)
    index = problem.part.positions(problem.mesh.n_nodes)
    out = np.zeros((n_c, n_c))
    for e, tag in enumerate(element_tags(problem.mesh)):
        if tag.kind != "conductor":
            continue
        nodes, area = mesh.elements[e], mesh.areas[e]
        b, c = mesh.gradients[0][e], mesh.gradients[1][e]
        a_e = a_full[nodes]
        b2 = ((b @ a_e) ** 2 + (c @ a_e) ** 2) / (2.0 * area) ** 2
        dnu = k2[e] * k3[e] * np.exp(k3[e] * b2)
        w = (b * (b @ a_e) + c * (c @ a_e)) / (4.0 * area)
        for i in range(3):
            for j in range(3):
                if index[nodes[i]] >= 0 and index[nodes[j]] >= 0:
                    out[index[nodes[i]], index[nodes[j]]] += 2.0 * dnu / area * w[i] * w[j]
    return out


def test_newton_jacobian_symmetric_and_k_matches_reassembly(mini_problem_nonlinear,
                                                           monkeypatch):
    # at a saturated state (conductor B_max 1.2 T) the Jacobian is
    # symmetric, which factor_spd's unpivoted LU relies on, and what is left
    # of it after M_cc/dt and the chain-rule oracle is the reassembled K(a);
    # at a_old = a and j_s = 0 the residual is K(a) a. No step reassembles.
    problem = mini_problem_nonlinear
    mesh, part = problem.mesh, problem.part
    n, n_c = part.n_free, part.n_c
    cond = mesh.region_mask(lambda t: t.kind == "conductor")
    a = np.random.default_rng(71).standard_normal(n)
    a_full = part.to_full(a[:n_c], a[n_c:], mesh.n_nodes)
    scale = 1.2 / np.sqrt(compute_b2(mesh, a_full)[cond].max())
    a, a_full = a * scale, a_full * scale
    materials = mini_materials(nonlinear=True)
    K = reassemble_stiffness(mesh, materials, part, a_full).toarray()
    chain = np.zeros((n, n))
    chain[:n_c, :n_c] = dense_chain_rule_term(problem, materials, a_full)
    kmap = problem.kcc_map
    assert kmap.nu(kmap.b2(a[:n_c])).max() >= 1.5 * kmap.nu(0.0).max()  # saturated
    for dt in (1e-3, 1e6):
        F, J = newton_system(problem, dt, a, np.zeros(n), a)
        J = J.toarray()
        assert np.abs(J - J.T).max() <= 1e-14 * np.abs(J).max()
        mass = np.zeros((n, n))
        mass[:n_c, :n_c] = problem.blocks.M_cc.toarray() / dt
        assert np.abs(J - mass - chain - K).max() <= 1e-14 * np.abs(K).max()
        assert np.abs(F - K @ a).max() <= 1e-14 * np.abs(K @ a).max()

    def no_assemble(*args, **kwargs):
        raise AssertionError("newton_solve reassembled the system")

    monkeypatch.setattr("eddy2d.integrate.assemble", no_assemble)
    _, iters = newton_solve(problem, 1e-3, a, np.zeros(n))
    assert iters > 1


def test_newton_divergence_suggests_smaller_dt():
    # absurd drive at a huge step forces the saturation blow-up: the law
    # overflows at the second iterate, with no RuntimeWarning on the way
    problem = scalar_problem(nonlinear=True)
    with pytest.raises(SolverError, match=r"^Newton diverged \(reluctivity overflow: .*\); "
                                          r"try a smaller time step$"):
        newton_solve(problem, 1e6, np.zeros(1), np.array([1e12]), max_newton=4)


# -------------------------------------------------------------------- run loops

def test_run_explicit_exact_step_count(mini_problem, mini_source):
    # a stable fixed step: 2/lambda_max is about 3.1e-4
    opts = SolverOptions(dt_override=2.5e-4, seed=3)
    res = run_explicit(mini_problem, mini_source, 2.5e-3, opts)
    assert res.step_count == 10
    assert res.times[-1] == pytest.approx(2.5e-3)


def test_run_explicit_monotone_probe_under_ramp(mini_problem, mini_source):
    opts = SolverOptions(seed=3)
    res = run_explicit(mini_problem, mini_source, 0.02, opts)
    assert np.all(np.diff(res.probe) > -1e-12 * res.probe.max())


def test_run_explicit_output_interval(mini_problem, mini_source):
    opts = SolverOptions(dt_override=2.5e-4, output_every=5, seed=3)
    res = run_explicit(mini_problem, mini_source, 5e-3, opts)
    assert res.step_count == 20
    assert res.times.size == 4  # every 5th step; the last step is a multiple
    np.testing.assert_allclose(res.times, [1.25e-3, 2.5e-3, 3.75e-3, 5e-3])


def test_run_implicit_output_interval(mini_problem, mini_source):
    # the output rules of run_explicit: a row at every 5th step and at the
    # last, a snapshot at every 10th step
    opts = SolverOptions(output_every=5, snapshot_every=10)
    res = run_implicit(mini_problem, mini_source, 23e-3, 1e-3, opts)
    assert res.step_count == 23
    np.testing.assert_allclose(res.times, [5e-3, 10e-3, 15e-3, 20e-3, 23e-3])
    assert [snap[0] for snap in res.snapshots] == [10, 20]
    part = mini_problem.part
    for (_, t, _, a_full), row in zip(res.snapshots, (1, 3)):
        assert t == res.times[row]
        a_c, a_n = a_full[part.nodes[:part.n_c]], a_full[part.nodes[part.n_c:]]
        assert probe_of(mini_problem, a_c, a_n[mini_problem.probe_n]) == res.probe[row]


def _probe_rows_run(path, problem, source, steps, output_every):
    dt = 2.5e-4
    opts = SolverOptions(seed=3, dt_override=dt, output_every=output_every, snapshot_every=10,
                         strategy="previous" if path == "per-step" else "direct")
    if path == "implicit":
        return run_implicit(problem, source, steps * dt, dt, opts)
    return run_explicit(problem, source, steps * dt, opts)


@pytest.mark.parametrize("output_every", [1, 5])
@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["block-1", "block", "block+1"])
@pytest.mark.parametrize("path", ["interface", "per-step", "implicit"])
def test_rows_are_the_probe_of_their_state(mini_problem, mini_source, monkeypatch, path,
                                           extra, output_every):
    # rows evaluated in blocks: a snapshot row is probe_average_b of the
    # snapshot's state, bitwise, and every row that of a run evaluating each
    # row alone, bitwise but where the interface block's product forms a_pn
    rows = integrate.PROBE_BLOCK + extra
    res = _probe_rows_run(path, mini_problem, mini_source, rows * output_every, output_every)
    assert res.times.size == rows and res.step_count == rows * output_every
    n_i = interface_dofs(mini_problem.blocks).size
    if path != "implicit":
        assert res.summary()["pcg_solves_by_purpose"]["schur_apply"] == \
            (n_i if path == "interface" else 0)
    part = mini_problem.part
    assert len(res.snapshots) == rows * output_every // 10
    for step, t, _, a_full in res.snapshots:
        row = step // output_every - 1
        assert res.times[row] == t
        a_c, a_n = a_full[part.nodes[:part.n_c]], a_full[part.nodes[part.n_c:]]
        assert res.probe[row] == probe_of(mini_problem, a_c, a_n[mini_problem.probe_n])
    monkeypatch.setattr(integrate, "PROBE_BLOCK", 1)
    alone = _probe_rows_run(path, mini_problem, mini_source, rows * output_every, output_every)
    assert np.array_equal(res.times, alone.times)
    if path == "interface":
        assert np.abs(res.probe - alone.probe).max() <= 1e-13 * np.abs(alone.probe).max()
    else:
        assert np.array_equal(res.probe, alone.probe)


def test_a_bundled_run_evaluates_the_probe_once_per_block(monkeypatch):
    # no per-step probe product: one probe_average_b call per block of rows
    calls = []
    probe = integrate.probe_average_b
    monkeypatch.setattr(integrate, "probe_average_b",
                        lambda *args: calls.append(len(args[1])) or probe(*args))
    sc = load_scenario(bundled_scenario_path("plate2d"))
    res = run_explicit(sc.build_problem(), sc.source, sc.t_end, sc.options)
    assert res.times.size == res.step_count == 2518
    assert len(calls) == math.ceil(2518 / integrate.PROBE_BLOCK)
    assert sum(calls) == 2518


def test_write_csv_formats_each_row_as_the_row_loop_did():
    # one join over tolist() values writes the bytes of a per-row loop of
    # repr(float(.)) and int(.)
    rng = np.random.default_rng(73)
    values = np.concatenate([rng.standard_normal(46) * 10.0 ** rng.uniform(-300, 300, 46),
                             [0.0, -0.0, 5e-324, 1.0]])
    res = RunResult("explicit", values, values[::-1].copy(), np.abs(values),
                    np.arange(50, dtype=np.int64) * 10**12, np.arange(50, dtype=np.int64),
                    step_count=50, dt_initial=1.0, dt_final=1.0, update_count=0, wall_time=0.0)
    buf = io.StringIO()
    res.write_csv(buf)
    ref = "t,probe_avg_B,dt,cumulative_pcg_iterations,update_count\n" + "".join(
        f"{float(res.times[i])!r},{float(res.probe[i])!r},{float(res.dt_series[i])!r},"
        f"{int(res.cum_iterations[i])},{int(res.update_series[i])}\n" for i in range(50))
    assert buf.getvalue() == ref


def test_run_explicit_deterministic(mini_problem, mini_source):
    opts = SolverOptions(seed=3, strategy="cspe")
    r1 = run_explicit(mini_problem, mini_source, 0.01, opts)
    r2 = run_explicit(mini_problem, mini_source, 0.01, opts)
    assert np.array_equal(r1.probe, r2.probe)
    assert np.array_equal(r1.times, r2.times)
    assert r1.step_count == r2.step_count


def test_run_explicit_dae_constraint(mini_problem, mini_source):
    opts = SolverOptions(seed=3)
    res = run_explicit(mini_problem, mini_source, 0.02, opts)
    assert res.max_dae_residual <= 10 * opts.pcg_tol


def test_run_explicit_direct_tightens_dae_residual():
    # the bundled default: every K_nn solve starts exact, so the constraint
    # holds to roundoff where a_n is recovered (criterion 9 asks 10 * pcg_tol
    # of the PCG strategies) and the probe stays within the answer contract
    # of the cspe run; the run forms K_S (n_i solves) and recovers once
    sc = load_scenario(bundled_scenario_path("plate2d"))
    assert sc.options.strategy == "direct"
    problem = sc.build_problem()
    direct = run_explicit(problem, sc.source, sc.t_end, sc.options)
    cspe = run_explicit(problem, sc.source, sc.t_end, replace(sc.options, strategy="cspe"))
    summary = direct.summary()
    assert summary["max_dae_residual"] <= 1e-12
    assert summary["pcg_iterations_total"] == 0
    n_i = interface_dofs(problem.blocks).size
    assert direct.step_count > n_i
    assert summary["pcg_solves"] == n_i + 2
    assert probe_deviation(direct, cspe) <= 10 * sc.options.pcg_tol


@pytest.mark.parametrize("extra", [0, 1])
def test_step_path_rule_boundary(mini_problem, mini_source, extra):
    # forming K_S costs n_i solves and saves one per step: a direct run of
    # n_i steps keeps the per-step solve, one of n_i + 1 steps forms it;
    # both steps stay below 2/lambda_max (about 3.1e-4)
    n_i = interface_dofs(mini_problem.blocks).size
    steps, t_end = n_i + extra, 0.004
    opts = SolverOptions(seed=3, strategy="direct", dt_override=t_end / steps)
    assert integrate.step_path(mini_problem.blocks, opts, t_end, opts.dt_override) \
        == (extra == 1, steps, n_i)
    assert not integrate.step_path(mini_problem.blocks, replace(opts, strategy="cspe"),
                                   t_end, opts.dt_override)[0]
    res = run_explicit(mini_problem, mini_source, t_end, opts)
    assert res.step_count == steps
    assert res.summary()["pcg_solves"] == (n_i + 2 if extra else steps + 1)


def test_interface_path_agrees_with_the_per_step_path():
    # bundled plate2d: a run of fewer than n_i steps takes the per-step path,
    # the full run the interface path; their common rows agree to round-off
    sc = load_scenario(bundled_scenario_path("plate2d"))
    problem = sc.build_problem()
    full = run_explicit(problem, sc.source, sc.t_end, sc.options)
    n_i = interface_dofs(problem.blocks).size
    short = run_explicit(problem, sc.source, (n_i - 5.75) * full.dt_initial, sc.options)
    k = short.step_count
    assert k == n_i - 6 and short.summary()["pcg_solves"] == k + 1
    assert full.summary()["pcg_solves"] == n_i + 2
    assert np.array_equal(short.times, full.times[:k])
    assert np.array_equal(short.update_series, full.update_series[:k])
    peak = np.abs(short.probe).max()
    assert peak > 0
    assert np.abs(short.probe - full.probe[:k]).max() <= 1e-13 * peak


def test_interface_path_snapshots_match_the_per_step_path(mini_problem, mini_source,
                                                         monkeypatch):
    # a snapshot on the interface path recovers the full a_n: the field
    # matches the per-step path's and the constraint holds to round-off
    # 43 steps, inside the stable step (dt_cfl is about 2.95e-4)
    opts = SolverOptions(seed=3, strategy="direct", dt_override=2.5e-4, output_every=5,
                         snapshot_every=10)
    block = run_explicit(mini_problem, mini_source, 0.01075, opts)
    n_i = interface_dofs(mini_problem.blocks).size
    assert block.step_count == 43 > n_i
    # snapshots at steps 10, 20, 30 and 40, and a recovery at the last step
    assert block.summary()["pcg_solves_by_purpose"] == \
        {"schur_apply": n_i, "source_term": 1, "recovery": 5}
    monkeypatch.setattr(integrate, "step_path", lambda *args: (False, 0, 0))
    per_step = run_explicit(mini_problem, mini_source, 0.01075, opts)
    assert per_step.summary()["pcg_solves"] == 44
    assert [s[0] for s in block.snapshots] == [s[0] for s in per_step.snapshots] \
        == [10, 20, 30, 40]
    for (_, t, _, a_full), (_, t_ref, _, a_ref) in zip(block.snapshots, per_step.snapshots):
        assert t == t_ref
        assert np.abs(a_full - a_ref).max() <= 1e-12 * np.abs(a_ref).max()
    assert block.max_dae_residual <= 1e-12
    assert np.abs(block.probe - per_step.probe).max() <= 1e-13 * np.abs(per_step.probe).max()


def test_run_explicit_refuses_a_shrink_past_the_step_limit(mini_problem_nonlinear,
                                                          monkeypatch):
    # a re-estimate that shrinks dt so far that the steps taken plus those
    # left exceed MAX_STEPS ends the run, naming both numbers
    estimate, step, dts = integrate.estimate_cfl, integrate.explicit_step, []

    def shrinking(*args):
        dts.append(estimate(*args) if not dts else 1e-12)
        return dts[-1]

    def step_within_limit(state, *args):
        if state.dt == 1e-12:
            raise AssertionError("stepped past the step limit")
        return step(state, *args)

    monkeypatch.setattr(integrate, "estimate_cfl", shrinking)
    monkeypatch.setattr(integrate, "explicit_step", step_within_limit)
    with pytest.raises(SolverError, match=rf"left: \d\.\d+e\+\d+ exceeds the step limit "
                                          rf"{integrate.MAX_STEPS}$"):
        run_explicit(mini_problem_nonlinear, make_mini_source(i_max=2000.0), 0.05,
                     SolverOptions(seed=3))
    assert len(dts) == 2


def test_run_explicit_flags_the_final_step_alone_as_last(mini_problem_nonlinear,
                                                         monkeypatch):
    # a re-estimate at step 30 shrinks dt 0.3x where 0.4 of the old step is
    # left: the run steps once more, to 30.3 dt0, and only that step's row
    # is the last (output_every past the run: the last row is the only one)
    problem = mini_problem_nonlinear
    opts = SolverOptions(seed=3, output_every=1000)
    dt0 = run_explicit(problem, make_mini_source(), 1e-3, opts).dt_initial
    estimate = integrate.estimate_cfl

    def shrink_at_30(state, *args):
        if state.step_count == 0:
            return estimate(state, *args)
        return 0.3 * dt0 if state.step_count == 30 else dt0

    monkeypatch.setattr(integrate, "estimate_cfl", shrink_at_30)
    # every rebuild re-estimates
    monkeypatch.setattr(type(problem.kcc_map), "growth_bound", lambda *args: np.inf)
    res = run_explicit(problem, make_mini_source(), 30.4 * dt0, opts)
    assert res.step_count == 31
    assert res.times.size == 1
    assert res.times[0] == pytest.approx(30.3 * dt0)
    assert res.dt_series[0] == res.dt_final == 0.3 * dt0


@pytest.mark.parametrize("strategy,t_end,i_max", [
    ("direct", 0.01075, 400.0), ("direct", 0.01075, 0.0),
    ("direct", 0.0035, 400.0), ("direct", 0.0035, 0.0),
    ("cspe", 0.01075, 400.0), ("cspe", 0.01075, 0.0),
], ids=["direct-interface", "direct-interface-zero", "direct-per-step",
        "direct-per-step-zero", "cspe", "cspe-zero"])
def test_run_explicit_solves_the_source_once(mini_problem, strategy, t_end, i_max):
    # one source_term solve per run, at set-up (step 0), on either path and
    # for any current; pcg_solves is n_i + 2 on the interface path (43
    # steps under direct, no snapshots) and step_count + 1 on the per-step
    # path (14 steps, or any strategy but direct)
    opts = SolverOptions(seed=3, strategy=strategy, dt_override=2.5e-4)
    res = run_explicit(mini_problem, make_mini_source(i_max=i_max), t_end, opts)
    assert [r.step for r in res.stats.records if r.purpose == "source_term"] == [0]
    n_i = interface_dofs(mini_problem.blocks).size
    assert res.step_count == (43 if t_end > 0.01 else 14)
    if strategy == "direct" and res.step_count > n_i:
        assert res.summary()["pcg_solves"] == n_i + 2
    else:
        assert res.summary()["pcg_solves"] == res.step_count + 1


def _run(method, problem, source, t_end, dt):
    if method == "explicit":
        return run_explicit(problem, source, t_end, SolverOptions(dt_override=dt, seed=3))
    return run_implicit(problem, source, t_end, dt, SolverOptions())


@pytest.mark.parametrize("method", ["explicit", "implicit"])
def test_run_rejects_dt_beyond_the_window(mini_problem, mini_source, method):
    with pytest.raises(SolverError, match="exceeds the integration window"):
        _run(method, mini_problem, mini_source, 1e-3, 2e-3)


@pytest.mark.parametrize("method", ["explicit", "implicit"])
def test_run_rejects_too_many_steps_before_stepping(mini_problem, mini_source,
                                                    monkeypatch, method):
    def no_step(*args, **kwargs):
        raise AssertionError("stepped past the step limit")

    monkeypatch.setattr(integrate, "explicit_step", no_step)
    monkeypatch.setattr(integrate, "newton_solve", no_step)
    dt = 1e-3 / (2 * integrate.MAX_STEPS)
    with pytest.raises(SolverError, match="exceeds the step limit"):
        _run(method, mini_problem, mini_source, 1e-3, dt)


def test_fixed_step_count_follows_the_run_loop_rule():
    # steps end at 0.4, 0.8; the 0.2 left is not more than half a step
    assert integrate.fixed_step_count(1.0, 0.4) == 2
    assert integrate.fixed_step_count(1.0, 2.5) == 0
    assert integrate.fixed_step_count(1.0, 0.25) == 4
    with pytest.raises(SolverError, match="exceeds the step limit"):
        integrate.fixed_step_count(1.0, 0.5 / integrate.MAX_STEPS)


def test_run_explicit_nonlinear_update_counts(mini_problem_nonlinear):
    # drive settles well before t_end so late steps stop triggering updates
    src = make_mini_source(i_max=800.0, tau=0.004, turns=100.0)
    counts = {}
    for tol in (0.0, 1e-4, 1e-3, 1e-2):
        opts = SolverOptions(seed=3, tol_update=tol, strategy="cspe")
        res = run_explicit(mini_problem_nonlinear, src, 0.04, opts)
        counts[tol] = res.update_count
        if tol == 0.0:
            assert res.update_count == res.step_count
    # nonincreasing across the tolerance sweep, strictly fewer at the ends
    assert counts[0.0] >= counts[1e-4] >= counts[1e-3] >= counts[1e-2]
    assert counts[0.0] > counts[1e-3] > counts[1e-2]


def test_run_explicit_gated_cfl_keeps_every_step_stable(mini_problem_nonlinear, monkeypatch):
    # a dense eigh of every K_cc in force: the rebuilds that skip the
    # re-estimate still step inside the stability limit dt * lambda <= 2
    problem = mini_problem_nonlinear
    in_force = []
    step = integrate.explicit_step

    def recording_step(state, *args):
        in_force.append((state.dt, state.K_cc_current))
        return step(state, *args)

    monkeypatch.setattr(integrate, "explicit_step", recording_step)
    res = run_explicit(problem, make_mini_source(i_max=2000.0), 0.05, SolverOptions(seed=3))
    lam = {}
    for dt, k_cc in in_force:
        if id(k_cc) not in lam:
            lam[id(k_cc)] = dense_lambda_max(problem, k_cc)
        assert dt * lam[id(k_cc)] <= 2.0
    assert len(lam) >= res.update_count >= 100
    assert 10 * res.summary()["cfl_estimates"] <= res.update_count


def test_summary_counts_cfl_estimates():
    # the initial estimate plus the re-estimates the bound could not rule
    # out; on the interface path only the initial one makes K_nn solves
    sc = load_scenario(bundled_scenario_path("plate2d"))
    problem = sc.build_problem()
    ctx = integrate.start_explicit(problem, sc.options, 0.15)[1]
    initial = ctx.estimation_context().stats.n_solves
    res = run_explicit(problem, sc.source, 0.15, sc.options)
    assert res.update_count > 100
    assert 1 <= res.summary()["cfl_estimates"] < 10
    assert res.summary()["cfl_knn_solves"] == initial > 0
    lin = load_scenario(bundled_scenario_path("plate2d_linear"))
    res = run_explicit(lin.build_problem(), lin.source, 0.01, lin.options)
    assert res.summary()["cfl_estimates"] == 1


def test_run_explicit_tolerance_accuracy(mini_problem_nonlinear):
    src = make_mini_source(i_max=800.0, tau=0.004, turns=100.0)
    base = run_explicit(mini_problem_nonlinear, src, 0.04,
                        SolverOptions(seed=3, tol_update=0.0, strategy="cspe"))
    loose = run_explicit(mini_problem_nonlinear, src, 0.04,
                         SolverOptions(seed=3, tol_update=1e-3, strategy="cspe"))
    assert probe_deviation(loose, base) <= 0.01


def test_run_implicit_row_count(mini_problem, mini_source):
    res = run_implicit(mini_problem, mini_source, 0.05, 0.001, SolverOptions())
    assert res.step_count == 50
    assert res.times.size == 50


def test_run_implicit_large_dt_stable(mini_problem, mini_source):
    res_small = run_explicit(mini_problem, mini_source, 0.02, SolverOptions(seed=3))
    dt_big = 100.0 * res_small.dt_initial
    res = run_implicit(mini_problem, mini_source, 0.02, dt_big, SolverOptions())
    assert np.isfinite(res.probe).all()
    assert res.probe.max() < 10 * max(res_small.probe.max(), 1e-12)


def test_implicit_decay_with_zero_excitation(mini_problem, mini_source):
    # drive long enough to charge the conductor, cut the source, then skip
    # the cutoff transient (trapped flux first redistributes outward)
    from eddy2d.assembly import source_pattern
    part = mini_problem.part
    pat = source_pattern(mini_problem.mesh, mini_source, part)
    a = np.zeros(part.n_free)
    for k in range(1, 9):
        j_s = np.zeros(part.n_free)
        j_s[part.idx_n] = mini_source.current(k * 2e-3) * pat
        a, _ = newton_solve(mini_problem, 2e-3, a, j_s)
    probes = []
    zero = np.zeros(part.n_free)
    for _ in range(12):
        a, _ = newton_solve(mini_problem, 2e-3, a, zero)
        probes.append(probe_of(mini_problem, a[:part.n_c], a[part.n_c + mini_problem.probe_n]))
    tail = probes[2:]
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(tail, tail[1:]))
    assert tail[-1] < probes[0]


def test_cross_method_linear_small_dt(mini_problem, mini_source):
    auto = run_explicit(mini_problem, mini_source, 0.02, SolverOptions(seed=3))
    dt = auto.dt_initial / 8
    exp = run_explicit(mini_problem, mini_source, 0.02,
                       SolverOptions(seed=3, dt_override=dt))
    imp = run_implicit(mini_problem, mini_source, 0.02, dt, SolverOptions())
    assert probe_deviation(exp, imp) <= 0.005


def test_explicit_euler_first_order(mini_problem, mini_source):
    t_end = 0.01
    auto = run_explicit(mini_problem, mini_source, t_end, SolverOptions(seed=3))
    dt0 = auto.dt_initial
    ref = run_explicit(mini_problem, mini_source, t_end,
                       SolverOptions(seed=3, dt_override=dt0 / 16))

    def err(dt):
        res = run_explicit(mini_problem, mini_source, t_end,
                           SolverOptions(seed=3, dt_override=dt))
        p = np.interp(ref.times, res.times, res.probe)
        return np.abs(p - ref.probe)[len(ref.times) // 2:].max()

    e1, e2 = err(dt0), err(dt0 / 2)
    order = np.log2(e1 / e2)
    assert 0.8 <= order <= 1.2
