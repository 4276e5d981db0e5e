import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from eddy2d.assembly import MaterialTable, assemble, compute_b2, extract_blocks
from eddy2d.errors import InstabilityError, SolverError
from eddy2d.integrate import (
    MccSolver,
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
from eddy2d.materials import MaterialModel
from eddy2d.mesh import RegionTag, generate_rect_mesh
from eddy2d.scenario import bundled_scenario_path, load_scenario
from eddy2d.schur import SchurContext

from conftest import AIR, STEEL_BRAUER, STEEL_LINEAR, dense_kS, make_mini_problem, make_mini_source


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


def dense_lambda_max(problem, K_cc=None):
    """Dense generalized-eigenvalue oracle for (K_cc - K_S, M_cc)."""
    blocks = problem.blocks
    Kd = (K_cc if K_cc is not None else blocks.K_cc).toarray()
    A = Kd - dense_kS(blocks)
    M = blocks.M_cc.toarray()
    w = scipy.linalg.eigh(0.5 * (A + A.T), M, eigvals_only=True)
    return float(w.max())


# -------------------------------------------------------------------- MccSolver

def test_mcc_pcg_solves_tightly(mini_problem):
    mcc = MccSolver(mini_problem.blocks.M_cc, "pcg", tol=1e-12)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(mini_problem.part.n_c)
    x = mcc.solve(b)
    res = np.linalg.norm(mini_problem.blocks.M_cc.matvec(x) - b) / np.linalg.norm(b)
    assert res <= 1e-10


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
    ctx = make_ctx(mini_problem)
    mcc = MccSolver(mini_problem.blocks.M_cc)
    state = new_state(mini_problem)
    state.dt = 1e-3
    explicit_step(state, mini_problem.blocks, ctx, mcc, np.zeros(mini_problem.part.n_n))
    np.testing.assert_array_equal(state.a_c, 0.0)
    np.testing.assert_array_equal(state.a_n, 0.0)
    assert state.t == pytest.approx(1e-3)


def test_explicit_step_matches_dense_oracle(mini_problem):
    # one full step of the update formula, evaluated densely, from a state
    # that satisfies the a_n invariant for (a_c, j_prev)
    blocks = mini_problem.blocks
    rng = np.random.default_rng(7)
    a_c = rng.standard_normal(mini_problem.part.n_c) * 1e-3
    j_prev = rng.standard_normal(mini_problem.part.n_n) * 1e-2
    j_sn = rng.standard_normal(mini_problem.part.n_n) * 1e-2
    dt = 1e-4

    Minv = np.linalg.inv(blocks.M_cc.toarray())
    Knn = blocks.K_nn.toarray()
    Kcn = blocks.K_cn.toarray()
    Kcc = blocks.K_cc.toarray()
    KS = dense_kS(blocks)
    bracket = -Kcn @ np.linalg.solve(Knn, j_sn) - (Kcc - KS) @ a_c
    a_c_ref = a_c + dt * Minv @ bracket
    a_n_ref = np.linalg.solve(Knn, j_sn) - np.linalg.solve(Knn, Kcn.T @ a_c_ref)

    ctx = make_ctx(mini_problem, tol=1e-10)
    mcc = MccSolver(blocks.M_cc, "pcg", tol=1e-13)
    state = new_state(mini_problem)
    state.a_c = a_c.copy()
    state.a_n = np.linalg.solve(Knn, j_prev - Kcn.T @ a_c)
    state.j_sn = j_prev
    state.dt = dt
    explicit_step(state, blocks, ctx, mcc, j_sn)
    assert np.linalg.norm(state.a_c - a_c_ref) <= 1e-9 * max(np.linalg.norm(a_c_ref), 1e-12)
    assert np.linalg.norm(state.a_n - a_n_ref) <= 1e-8 * max(np.linalg.norm(a_n_ref), 1e-12)


def test_explicit_steps_match_dense_recurrence(mini_problem, mini_source):
    # ramped source from the zero state: the two-solve step reproduces the
    # dense source / Schur-apply / recovery recurrence, one solve per family
    from eddy2d.assembly import source_pattern
    blocks = mini_problem.blocks
    pat = source_pattern(mini_problem.mesh, mini_source, mini_problem.part)
    Minv = np.linalg.inv(blocks.M_cc.toarray())
    Knn = blocks.K_nn.toarray()
    Kcn = blocks.K_cn.toarray()
    A = blocks.K_cc.toarray() - dense_kS(blocks)
    dt = 0.5 * 2.0 / dense_lambda_max(mini_problem)

    ctx = make_ctx(mini_problem, tol=1e-10)
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
        explicit_step(state, blocks, ctx, mcc, j_sn)
        assert np.linalg.norm(state.a_c - a_c_ref) <= 1e-8 * np.linalg.norm(a_c_ref)
        assert np.linalg.norm(state.a_n - a_n_ref) <= 1e-8 * np.linalg.norm(a_n_ref)

    for m in range(1, n_steps + 1):
        purposes = sorted(r.purpose for r in ctx.stats.records if r.step == m)
        assert purposes == ["recovery", "source_term"]
    assert ctx.stats.n_solves == 2 * n_steps


def test_stability_dichotomy(mini_problem):
    # bounded below the CFL bound, monotone growth above it (dense oracle)
    blocks = mini_problem.blocks
    lam = dense_lambda_max(mini_problem)
    mcc = MccSolver(blocks.M_cc, "pcg", tol=1e-12)
    src = make_mini_source()
    pattern_ctx = make_ctx(mini_problem, tol=1e-8)

    # stable: 1000 steps under a ramp source stay bounded
    state = new_state(mini_problem)
    state.dt = 0.9 * 2.0 / lam
    from eddy2d.assembly import source_pattern
    pat = source_pattern(mini_problem.mesh, src, mini_problem.part)
    for _ in range(1000):
        explicit_step(state, blocks, pattern_ctx, mcc, src.current(state.t + state.dt) * pat)
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
    ctx2 = make_ctx(mini_problem, tol=1e-10)
    norms = [np.linalg.norm(state.a_c)]
    for _ in range(40):
        explicit_step(state, blocks, ctx2, mcc, np.zeros(mini_problem.part.n_n))
        norms.append(np.linalg.norm(state.a_c))
    assert all(b > a for a, b in zip(norms, norms[1:]))


def test_explicit_step_instability_error(mini_problem):
    blocks = mini_problem.blocks
    lam = dense_lambda_max(mini_problem)
    mcc = MccSolver(blocks.M_cc)
    ctx = make_ctx(mini_problem)
    state = new_state(mini_problem)
    rng = np.random.default_rng(9)
    state.a_c = rng.standard_normal(mini_problem.part.n_c)
    state.a_n = -np.linalg.solve(blocks.K_nn.toarray(), blocks.K_cn.toarray().T @ state.a_c)
    state.dt = 50.0 / lam
    with pytest.raises(InstabilityError, match="instability"):
        for _ in range(3000):
            explicit_step(state, blocks, ctx, mcc, np.zeros(mini_problem.part.n_n))


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


def assert_kcc_matches_reassembly(problem, state):
    """K_cc_current has the pattern of a full reassembly at (a_c, a_n) and
    its values to 1e-14 max|K_cc|: the rebuild sums element entries in
    another order than scipy sums CSR duplicates, so bitwise parity is not
    attainable."""
    a_full = problem.part.to_full(state.a_c, state.a_n, problem.mesh.n_nodes)
    _, K = assemble(problem.mesh, problem.materials, a_full)
    ref = extract_blocks(problem.M_red, K, problem.part).K_cc
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
    assert_kcc_matches_reassembly(problem, state)


def plate2d_problem():
    return load_scenario(bundled_scenario_path("plate2d")).build_problem()


@pytest.mark.parametrize("make_problem", [
    lambda: make_mini_problem(nonlinear=True),
    plate2d_problem,
], ids=["mini", "plate2d"])
def test_kcc_rebuild_matches_reassembly(make_problem):
    problem = make_problem()
    rng = np.random.default_rng(23)
    cond = np.array([tag.kind == "conductor" for tag in problem.mesh.element_region])
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
        assert_kcc_matches_reassembly(problem, state)


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


# ---------------------------------------------------------------------- Newton

def test_newton_linear_one_iteration(mini_problem, mini_source):
    from eddy2d.assembly import assemble_source
    part = mini_problem.part
    j_sn = assemble_source(mini_problem.mesh, mini_source, 0.05, part)
    j_s = np.zeros(part.n_free)
    j_s[part.idx_n] = j_sn
    a, iters = newton_solve(mini_problem, 1e-3, np.zeros(part.n_free), j_s)
    assert iters == 1  # affine residual


def test_newton_scalar_vs_root_finder():
    # manufactured single-DoF nonlinear step checked against brentq
    problem = scalar_problem(nonlinear=True)
    m = problem.M_red.toarray()[0, 0]
    dt = 1e-4
    a_old = np.array([0.002])
    j = np.array([50.0])

    def stiffness(a):
        a_full = np.zeros(problem.mesh.n_nodes)
        a_full[problem.part.free_nodes] = a
        _, K = assemble(problem.mesh, problem.materials, a_full)
        return K.toarray()[0, 0]

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
    assert err <= 1e-4 * scale


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_newton_divergence_suggests_smaller_dt():
    problem = scalar_problem(nonlinear=True)
    with pytest.raises(SolverError, match="[Tt]ime step"):
        # absurd drive at a huge step forces the saturation blow-up
        newton_solve(problem, 1e6, np.zeros(1), np.array([1e12]), max_newton=4)


# -------------------------------------------------------------------- run loops

def test_run_explicit_exact_step_count(mini_problem, mini_source):
    opts = SolverOptions(dt_override=1e-3, seed=3)
    res = run_explicit(mini_problem, mini_source, 10e-3, opts)
    assert res.step_count == 10
    assert res.times[-1] == pytest.approx(10e-3)


def test_run_explicit_monotone_probe_under_ramp(mini_problem, mini_source):
    opts = SolverOptions(seed=3)
    res = run_explicit(mini_problem, mini_source, 0.02, opts)
    assert np.all(np.diff(res.probe) > -1e-12 * res.probe.max())


def test_run_explicit_output_interval(mini_problem, mini_source):
    opts = SolverOptions(dt_override=1e-3, output_every=5, seed=3)
    res = run_explicit(mini_problem, mini_source, 20e-3, opts)
    assert res.step_count == 20
    assert res.times.size == 4  # every 5th step; the last step is a multiple
    np.testing.assert_allclose(res.times, [5e-3, 10e-3, 15e-3, 20e-3])


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
    from eddy2d.integrate import probe_average_b
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
        a_full = np.zeros(mini_problem.mesh.n_nodes)
        a_full[part.free_nodes] = a
        probes.append(probe_average_b(mini_problem, a_full))
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
