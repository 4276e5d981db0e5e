"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py`. The bundled plate2d
scenarios are shared across criteria through module-scoped fixtures so the
whole suite stays inside its runtime budgets.
"""
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from eddy2d.assembly import source_pattern
from eddy2d.integrate import (
    MccSolver,
    SolverOptions,
    estimate_cfl,
    explicit_step,
    new_state,
    newton_solve,
    newton_system,
    probe_deviation,
    run_explicit,
    run_implicit,
)
from eddy2d.linalg import SparseMatrix, pcg
from eddy2d.scenario import bundled_scenario_path, load_scenario
from eddy2d.schur import SchurContext, apply_ks, recover_an, schur_rhs
from eddy2d.startvec import CspeCache, PodCache

from conftest import dense_kS, make_mini_problem, make_mini_source


def _report(capsys, n, desc, t0):
    # bypass capture so the per-criterion line shows without -s
    with capsys.disabled():
        print(f"\n[acceptance] criterion {n}: PASS ({time.perf_counter() - t0:.1f}s) - {desc}")


@pytest.fixture(scope="module")
def plate2d():
    sc = load_scenario(bundled_scenario_path("plate2d"))
    return sc, sc.build_problem()


@pytest.fixture(scope="module")
def plate2d_linear():
    sc = load_scenario(bundled_scenario_path("plate2d_linear"))
    return sc, sc.build_problem()


@pytest.fixture(scope="module")
def strategy_runs(plate2d):
    """One plate2d run per start-vector strategy, identical problem/seeds."""
    sc, problem = plate2d
    return {
        strategy: run_explicit(problem, sc.source, sc.t_end,
                               replace(sc.options, strategy=strategy))
        for strategy in ("previous", "cspe", "pod")
    }


def test_criterion_01_schur_dense_oracles(capsys):
    t0 = time.perf_counter()
    problem = make_mini_problem()          # 121 free DoFs
    assert problem.n_free <= 200
    tol = 1e-6
    ctx = SchurContext(problem.blocks, tol=tol, strategy="previous")
    blocks = problem.blocks
    rng = np.random.default_rng(101)
    a_c = rng.standard_normal(problem.part.n_c)
    j_sn = rng.standard_normal(problem.part.n_n)
    Knn = blocks.K_nn.toarray()
    Kcn = blocks.K_cn.toarray()

    ref = dense_kS(blocks) @ a_c
    got = apply_ks(ctx, a_c)
    assert np.linalg.norm(got - ref) <= 10 * tol * np.linalg.norm(ref)

    ref = -Kcn @ np.linalg.solve(Knn, j_sn)
    got = schur_rhs(ctx, j_sn)
    assert np.linalg.norm(got - ref) <= 10 * tol * np.linalg.norm(ref)

    ref = np.linalg.solve(Knn, j_sn) - np.linalg.solve(Knn, Kcn.T @ a_c)
    got = recover_an(ctx, a_c, j_sn)
    assert np.linalg.norm(got - ref) <= 10 * tol * np.linalg.norm(ref)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(capsys, 1, "apply_ks / schur_rhs / recover_an match dense inverses at 10x pcg tol", t0)


def test_criterion_02_stability_dichotomy(capsys):
    t0 = time.perf_counter()
    problem = make_mini_problem()  # linear materials
    blocks = problem.blocks
    A = blocks.K_cc.toarray() - dense_kS(blocks)
    M = blocks.M_cc.toarray()
    w, V = scipy.linalg.eigh(0.5 * (A + A.T), M)
    lam = float(w.max())

    src = make_mini_source()
    pat = source_pattern(problem.mesh, src, problem.part)
    mcc = MccSolver(blocks.M_cc, "pcg", tol=1e-12)

    state = new_state(problem)
    state.dt = 0.9 * 2.0 / lam
    ctx = SchurContext(blocks, tol=1e-8, strategy="previous")
    ctx.set_source(pat)
    for _ in range(1000):
        explicit_step(state, blocks, ctx, mcc, src.current(state.t + state.dt))
    assert np.isfinite(state.a_c).all()
    assert np.linalg.norm(state.a_c) < 1e6

    state = new_state(problem)
    state.a_c = V[:, -1] / np.linalg.norm(V[:, -1])
    state.a_n = -np.linalg.solve(blocks.K_nn.toarray(), blocks.K_cn.toarray().T @ state.a_c)
    state.dt = 1.1 * 2.0 / lam
    ctx = SchurContext(blocks, tol=1e-10, strategy="previous")
    ctx.set_source(pat)
    norms = [np.linalg.norm(state.a_c)]
    for _ in range(40):
        explicit_step(state, blocks, ctx, mcc, 0.0)
        norms.append(np.linalg.norm(state.a_c))
    assert all(b > a for a, b in zip(norms, norms[1:]))

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(capsys, 2, "bounded at 0.9x the CFL step, monotone growth at 1.1x", t0)


def test_criterion_03_cross_method_accuracy(plate2d, plate2d_linear, strategy_runs, capsys):
    t0 = time.perf_counter()
    # nonlinear bundled scenario: explicit at its CFL step vs implicit Euler
    sc, problem = plate2d
    exp = strategy_runs["cspe"]
    imp = run_implicit(problem, sc.source, sc.t_end, sc.t_end / 150.0, sc.options)
    dev_nl = probe_deviation(exp, imp)
    assert dev_nl <= 0.02

    # linear scenario at one matched small step for both methods
    scl, probl = plate2d_linear
    auto = run_explicit(probl, scl.source, scl.t_end, scl.options)
    dt = auto.dt_initial
    exp_l = run_explicit(probl, scl.source, scl.t_end,
                         replace(scl.options, dt_override=dt))
    imp_l = run_implicit(probl, scl.source, scl.t_end, dt, scl.options)
    dev_l = probe_deviation(exp_l, imp_l)
    assert dev_l <= 0.005

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(capsys, 3, f"explicit vs implicit: nonlinear {dev_nl:.2%} (<=2%), "
               f"linear matched dt {dev_l:.2%} (<=0.5%)", t0)


def test_criterion_04_startvec_iteration_reduction(strategy_runs, capsys):
    t0 = time.perf_counter()
    mean = {s: r.stats.mean_iterations() for s, r in strategy_runs.items()}
    assert mean["cspe"] <= mean["previous"]
    assert mean["pod"] <= mean["previous"]
    base = strategy_runs["previous"]
    for s in ("cspe", "pod"):
        assert probe_deviation(strategy_runs[s], base) <= 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(capsys, 4, "mean PCG iterations previous={:.2f}, cspe={:.2f}, pod={:.2f}; "
               "probe series agree within 1e-5".format(
                   mean["previous"], mean["cspe"], mean["pod"]), t0)


def test_criterion_05_selective_update_relationships(plate2d, strategy_runs, capsys):
    t0 = time.perf_counter()
    sc, problem = plate2d
    runs = {1e-3: strategy_runs["cspe"]}  # scenario default is tol_update=1e-3
    for tol in (0.0, 1e-2):
        runs[tol] = run_explicit(problem, sc.source, sc.t_end,
                                 replace(sc.options, tol_update=tol))
    counts = {tol: r.update_count for tol, r in runs.items()}
    assert counts[0.0] == runs[0.0].step_count  # every-step baseline
    assert counts[0.0] > counts[1e-3] > counts[1e-2]
    dev = probe_deviation(runs[1e-3], runs[0.0])
    assert dev <= 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(capsys, 5, f"update counts {counts[0.0]} > {counts[1e-3]} > {counts[1e-2]}; "
               f"probe deviation at tol=1e-3 is {dev:.2e} (<=1%)", t0)


def test_criterion_06_lambda_proportionality(capsys):
    t0 = time.perf_counter()
    from eddy2d.assembly import MaterialTable
    from eddy2d.integrate import discretize
    from eddy2d.materials import MaterialModel
    from eddy2d.mesh import RegionTag, generate_rect_mesh

    from conftest import AIR

    def build(n, kappa):
        def fn(x, y):
            return RegionTag("conductor", 0) if 0.025 <= x < 0.075 and 0.025 <= y < 0.075 \
                else RegionTag("air")

        mesh = generate_rect_mesh(0.1, 0.1, n, n, fn)
        mats = MaterialTable({0: MaterialModel.linear(kappa, 570.0)}, AIR)
        return discretize(mesh, mats)

    def estimate(problem):
        ctx = SchurContext(problem.blocks, tol=1e-8, strategy="previous")
        mcc = MccSolver(problem.blocks.M_cc, "pcg", tol=1e-12)
        state = new_state(problem)
        opts = SolverOptions(power_tol=1e-8, power_max_iter=50000, seed=606)
        dt = estimate_cfl(state, problem.blocks, ctx, mcc, opts)
        return state.lam_max, dt

    lam_h, _ = estimate(build(8, 1e7))
    lam_h2, _ = estimate(build(16, 1e7))
    ratio_h = lam_h2 / lam_h
    assert 3.0 <= ratio_h <= 5.0  # halving h multiplies lambda by ~4

    _, dt_k = estimate(build(8, 1e7))
    _, dt_10k = estimate(build(8, 1e8))
    ratio_k = dt_10k / dt_k
    assert 7.0 <= ratio_k <= 13.0  # lambda ~ 1/kappa, so dt_cfl scales with kappa

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(capsys, 6, f"h/2 multiplies lambda by {ratio_h:.2f} (in [3,5]); "
               f"10x kappa scales dt_cfl by {ratio_k:.2f} (in [7,13])", t0)


def test_criterion_07_galerkin_start_vector_exactness(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    lam = np.exp(rng.uniform(0.0, np.log(40.0), 20))
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    K = SparseMatrix.from_dense((Q * lam) @ Q.T)
    x_true = rng.standard_normal(20)
    r = K.matvec(x_true)

    cspe = CspeCache(K, window=4)
    cspe.push(x_true)
    cspe.push(rng.standard_normal(20))
    rep = pcg(K, r, x0=cspe.start(r), tol=1e-8)
    assert rep.converged and rep.iterations == 0

    pod = PodCache(K, window=5, tol_pod=1e8)
    pod.push(x_true)
    pod.push(1.3 * x_true)
    rep = pcg(K, r, x0=pod.start(r), tol=1e-8)
    assert rep.converged and rep.iterations == 0

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(capsys, 7, "true solution in the CSPE span / POD basis gives 0 PCG iterations", t0)


def test_criterion_08_newton_reference_validity(capsys):
    t0 = time.perf_counter()
    # Jacobian vs finite differences
    problem_nl = make_mini_problem(nonlinear=True)
    rng = np.random.default_rng(808)
    n = problem_nl.part.n_free
    a = rng.standard_normal(n) * 3e-3
    a_old = rng.standard_normal(n) * 3e-3
    j_s = rng.standard_normal(n)
    F0, J = newton_system(problem_nl, 1e-3, a_old, j_s, a)
    delta = rng.standard_normal(n)
    delta *= 1e-6 / np.linalg.norm(delta)
    F1, _ = newton_system(problem_nl, 1e-3, a_old, j_s, a + delta)
    err, scale = np.linalg.norm(J @ delta - (F1 - F0)), np.linalg.norm(F1 - F0)
    assert np.isfinite(err) and np.isfinite(scale)
    # 2.9e-8 at this state; 8.4e-4 without the chain-rule term
    assert err <= 1e-6 * scale

    # exactly one Newton iteration for linear materials
    problem = make_mini_problem()
    src = make_mini_source()
    part = problem.part
    pat = source_pattern(problem.mesh, src, part)
    j = np.zeros(part.n_free)
    j[part.idx_n] = src.current(0.01) * pat
    _, iters = newton_solve(problem, 1e-3, np.zeros(part.n_free), j)
    assert iters == 1

    # observed order-1 convergence of explicit Euler under dt halving
    t_end = 0.01
    auto = run_explicit(problem, src, t_end, SolverOptions(seed=8))
    dt0 = auto.dt_initial
    ref = run_explicit(problem, src, t_end, SolverOptions(seed=8, dt_override=dt0 / 16))

    def err(dt):
        res = run_explicit(problem, src, t_end, SolverOptions(seed=8, dt_override=dt))
        p = np.interp(ref.times, res.times, res.probe)
        return np.abs(p - ref.probe)[len(ref.times) // 2:].max()

    order = float(np.log2(err(dt0) / err(dt0 / 2)))
    assert 0.8 <= order <= 1.2

    _report(capsys, 8, f"Jacobian matches FD at 1e-6; linear Newton in 1 iteration; "
               f"observed explicit order {order:.2f} (1.0 +/- 0.2)", t0)


def test_criterion_09_dae_constraint_residual(strategy_runs, capsys):
    t0 = time.perf_counter()
    res = strategy_runs["cspe"]  # full bundled run, constraint tracked per step
    assert res.max_dae_residual <= 10 * 1e-6
    _report(capsys, 9, f"max constraint residual {res.max_dae_residual:.2e} <= 1e-5 "
               f"over {res.step_count} steps", t0)


def test_criterion_10_bitwise_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    from eddy2d.cli import EXIT_OK, main

    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    cfg = bundled_scenario_path("plate2d_linear")
    assert main(["run", "--config", cfg, "--method", "explicit", "--out", out1]) == EXIT_OK
    assert main(["run", "--config", cfg, "--method", "explicit", "--out", out2]) == EXIT_OK
    for name in ("result_explicit.csv", "result_explicit_iterations.csv"):
        b1 = Path(out1, name).read_bytes()
        b2 = Path(out2, name).read_bytes()
        assert b1 == b2
    _report(capsys, 10, "two identical single-threaded runs write bitwise-identical CSVs", t0)
