import io

import numpy as np
import pytest

from eddy2d.errors import SolverError
from eddy2d.assembly import source_pattern
from eddy2d.schur import (
    PURPOSES,
    SchurContext,
    apply_ks,
    form_interface,
    interface_dofs,
    recover_an,
    schur_rhs,
    solve_knn,
)

from conftest import dense_kS, make_mini_problem, make_mini_source

TOL = 1e-6


@pytest.fixture
def ctx(mini_problem):
    return SchurContext(mini_problem.blocks, tol=TOL, strategy="previous")


def test_solve_knn_zero_rhs(ctx, mini_problem):
    x = solve_knn(ctx, np.zeros(mini_problem.part.n_n), "recovery")
    np.testing.assert_array_equal(x, 0.0)
    assert ctx.stats.records[-1].iterations == 0


def test_solve_knn_constructed_solution(ctx, mini_problem):
    rng = np.random.default_rng(3)
    y = rng.standard_normal(mini_problem.part.n_n)
    rhs = mini_problem.blocks.K_nn.matvec(y)
    x = solve_knn(ctx, rhs, "recovery")
    assert np.linalg.norm(x - y) <= 50 * TOL * np.linalg.norm(y)


def test_solve_knn_previous_gives_free_second_solve(ctx, mini_problem):
    rng = np.random.default_rng(5)
    rhs = mini_problem.blocks.K_nn.matvec(rng.standard_normal(mini_problem.part.n_n))
    solve_knn(ctx, rhs, "source_term")
    it_first = ctx.stats.records[-1].iterations
    solve_knn(ctx, rhs, "source_term")
    it_second = ctx.stats.records[-1].iterations
    assert it_first > 0
    assert it_second == 0  # exact start vector


def test_solve_knn_histories_keyed_by_purpose(ctx, mini_problem):
    rng = np.random.default_rng(7)
    rhs = mini_problem.blocks.K_nn.matvec(rng.standard_normal(mini_problem.part.n_n))
    solve_knn(ctx, rhs, "source_term")
    # a different purpose has no history: full-cost solve
    solve_knn(ctx, rhs, "recovery")
    recs = ctx.stats.records
    assert recs[-1].iterations > 0


def test_solve_knn_unknown_purpose(ctx):
    with pytest.raises(SolverError):
        solve_knn(ctx, np.zeros(1), "bogus")


def test_solve_knn_nonconvergence_is_hard_error(mini_problem):
    ctx = SchurContext(mini_problem.blocks, tol=1e-14, max_iter=1, strategy="previous")
    rng = np.random.default_rng(11)
    with pytest.raises(SolverError, match="did not converge"):
        solve_knn(ctx, rng.standard_normal(mini_problem.part.n_n), "recovery")


def test_apply_ks_zero(ctx, mini_problem):
    np.testing.assert_array_equal(apply_ks(ctx, np.zeros(mini_problem.part.n_c)), 0.0)


def test_singular_knn_pseudo_inverse_path():
    # gauged/singular K_nn: IC(0) breaks down, Jacobi takes over, and PCG
    # still returns the consistent pseudo-solution
    from eddy2d.assembly import SystemBlocks
    from eddy2d.linalg import Ic0Preconditioner, SparseMatrix

    blocks = SystemBlocks(
        M_cc=SparseMatrix.identity(1),
        K_cc=SparseMatrix.identity(1),
        K_cn=SparseMatrix.from_dense([[1.0, 0.0]]),
        K_nn=SparseMatrix.from_dense([[1.0, 0.0], [0.0, 0.0]]),
    )
    ctx = SchurContext(blocks, tol=1e-10, strategy="previous")
    assert not isinstance(ctx.precond, Ic0Preconditioner)
    x = solve_knn(ctx, np.array([1.0, 0.0]), "recovery")
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-10)


def test_apply_ks_decoupled_regions(mini_problem):
    # K_cn = 0 (fully decoupled) makes K_S vanish for any a_c
    from eddy2d.assembly import SystemBlocks
    from eddy2d.linalg import SparseMatrix

    b = mini_problem.blocks
    zero_cn = SparseMatrix.from_dense(np.zeros((b.n_c, b.n_n)))
    decoupled = SystemBlocks(b.M_cc, b.K_cc, zero_cn, b.K_nn)
    ctx = SchurContext(decoupled, tol=1e-8, strategy="previous")
    rng = np.random.default_rng(47)
    np.testing.assert_array_equal(apply_ks(ctx, rng.standard_normal(b.n_c)), 0.0)


def test_apply_ks_matches_dense_oracle(ctx, mini_problem):
    KS = dense_kS(mini_problem.blocks)
    rng = np.random.default_rng(13)
    a_c = rng.standard_normal(mini_problem.part.n_c)
    got = apply_ks(ctx, a_c)
    ref = KS @ a_c
    assert np.linalg.norm(got - ref) <= 10 * TOL * np.linalg.norm(ref)


def test_apply_ks_linear(ctx, mini_problem):
    rng = np.random.default_rng(17)
    x = rng.standard_normal(mini_problem.part.n_c)
    y = rng.standard_normal(mini_problem.part.n_c)
    a, b = 2.0, -0.7
    lhs = apply_ks(ctx, a * x + b * y)
    rhs = a * apply_ks(ctx, x) + b * apply_ks(ctx, y)
    scale = max(np.linalg.norm(lhs), 1e-12)
    assert np.linalg.norm(lhs - rhs) <= 30 * TOL * scale


def test_schur_rhs_zero(ctx, mini_problem):
    np.testing.assert_array_equal(schur_rhs(ctx, np.zeros(mini_problem.part.n_n)), 0.0)


def test_schur_rhs_dense_oracle_and_scaling(ctx, mini_problem):
    blocks = mini_problem.blocks
    K_cn = blocks.K_cn.toarray()
    K_nn = blocks.K_nn.toarray()
    rng = np.random.default_rng(19)
    j = rng.standard_normal(mini_problem.part.n_n)
    ref = -K_cn @ np.linalg.solve(K_nn, j)
    got = schur_rhs(ctx, j)
    assert np.linalg.norm(got - ref) <= 10 * TOL * np.linalg.norm(ref)
    got2 = schur_rhs(ctx, 2.5 * j)
    assert np.linalg.norm(got2 - 2.5 * got) <= 30 * TOL * np.linalg.norm(got2)


def test_recover_an_zero(ctx, mini_problem):
    a_n = recover_an(ctx, np.zeros(mini_problem.part.n_c), np.zeros(mini_problem.part.n_n))
    np.testing.assert_array_equal(a_n, 0.0)


def test_recover_an_pure_source(ctx, mini_problem):
    blocks = mini_problem.blocks
    rng = np.random.default_rng(23)
    j = rng.standard_normal(mini_problem.part.n_n)
    ref = np.linalg.solve(blocks.K_nn.toarray(), j)
    got = recover_an(ctx, np.zeros(mini_problem.part.n_c), j)
    assert np.linalg.norm(got - ref) <= 10 * TOL * np.linalg.norm(ref)


def test_recover_an_dense_oracle(ctx, mini_problem):
    blocks = mini_problem.blocks
    rng = np.random.default_rng(29)
    a_c = rng.standard_normal(mini_problem.part.n_c)
    j = rng.standard_normal(mini_problem.part.n_n)
    Knn = blocks.K_nn.toarray()
    ref = np.linalg.solve(Knn, j) - np.linalg.solve(Knn, blocks.K_cn.toarray().T @ a_c)
    got = recover_an(ctx, a_c, j)
    assert np.linalg.norm(got - ref) <= 10 * TOL * np.linalg.norm(ref)


def test_ks_dense_matrix_symmetric_psd(mini_problem):
    # densify K_S column by column through the operator
    ctx = SchurContext(mini_problem.blocks, tol=1e-10, strategy="previous")
    n_c = mini_problem.part.n_c
    KS = np.zeros((n_c, n_c))
    for i in range(n_c):
        e = np.zeros(n_c)
        e[i] = 1.0
        KS[:, i] = apply_ks(ctx, e)
    scale = np.abs(KS).max()
    assert np.abs(KS - KS.T).max() <= 10 * 1e-6 * scale
    w = np.linalg.eigvalsh(0.5 * (KS + KS.T))
    assert w.min() >= -10 * 1e-6 * scale


def test_kcc_minus_ks_positive_definite(mini_problem):
    blocks = mini_problem.blocks
    A = blocks.K_cc.toarray() - dense_kS(blocks)
    w = np.linalg.eigvalsh(0.5 * (A + A.T))
    assert w.min() > 0  # finite stiffness of the Schur ODE


def test_stats_csv_export(ctx, mini_problem):
    rng = np.random.default_rng(37)
    ctx.step = 4
    solve_knn(ctx, rng.standard_normal(mini_problem.part.n_n), "source_term")
    buf = io.StringIO()
    ctx.stats.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "step,purpose,strategy,iterations,residual"
    fields = lines[1].split(",")
    assert fields[0] == "4" and fields[1] == "source_term" and fields[2] == "previous"
    assert int(fields[3]) > 0


def test_estimation_context_isolated(ctx, mini_problem):
    rng = np.random.default_rng(41)
    est = ctx.estimation_context()
    assert est.precond is ctx.precond  # preconditioner built once and shared
    solve_knn(est, rng.standard_normal(mini_problem.part.n_n), "schur_apply")
    assert est.stats.n_solves == 1
    assert ctx.stats.n_solves == 0  # run histories untouched
    assert not ctx.providers["schur_apply"].start(
        rng.standard_normal(mini_problem.part.n_n)).any()


@pytest.mark.parametrize("strategy", ["previous", "cspe", "pod"])
def test_all_strategies_reduce_or_match_iterations(mini_problem, strategy):
    # smooth transient right-hand sides: recycled starts never cost more
    blocks = mini_problem.blocks
    base = SchurContext(blocks, tol=TOL, strategy="previous")
    test = SchurContext(blocks, tol=TOL, strategy=strategy)
    rng = np.random.default_rng(43)
    direction = rng.standard_normal(mini_problem.part.n_n)
    for step in range(1, 21):
        rhs = np.sin(0.08 * step) * direction * (1.0 + 0.02 * step)
        base.step = test.step = step
        solve_knn(base, rhs, "source_term")
        solve_knn(test, rhs, "source_term")
    assert test.stats.total_iterations <= base.stats.total_iterations


# ----------------------------------------------------------- direct strategy

def _plate2d_problem():
    from eddy2d.scenario import bundled_scenario_path, load_scenario

    return load_scenario(bundled_scenario_path("plate2d")).build_problem()


@pytest.mark.parametrize("make_problem", [make_mini_problem, _plate2d_problem],
                         ids=["mini", "plate2d"])
def test_direct_operators_match_dense_inverses(make_problem):
    # the K_nn factor is an exact solve: every operator matches the dense
    # inverse to roundoff, and PCG accepts each exact start in 0 iterations
    blocks = make_problem().blocks
    ctx = SchurContext(blocks, tol=TOL, strategy="direct")
    K_cn = blocks.K_cn.toarray()
    K_nn = blocks.K_nn.toarray()
    rng = np.random.default_rng(53)
    for _ in range(3):
        a_c = rng.standard_normal(blocks.n_c)
        j = rng.standard_normal(blocks.n_n)
        pairs = [
            (apply_ks(ctx, a_c), K_cn @ np.linalg.solve(K_nn, K_cn.T @ a_c)),
            (schur_rhs(ctx, j), -K_cn @ np.linalg.solve(K_nn, j)),
            (recover_an(ctx, a_c, j), np.linalg.solve(K_nn, j - K_cn.T @ a_c)),
        ]
        for got, ref in pairs:
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    assert len(ctx.stats.records) == 9
    assert all(r.iterations == 0 and r.strategy == "direct" for r in ctx.stats.records)
    # the solve service holds the factor and no start-vector history: each
    # solve is bitwise the factor's solve, accepted in 0 PCG iterations
    for c in (ctx, ctx.estimation_context()):
        assert c.providers == {}
        for purpose in PURPOSES:
            rhs = rng.standard_normal(blocks.n_n)
            assert np.array_equal(solve_knn(c, rhs, purpose), c.precond(rhs))
            assert c.stats.records[-1].iterations == 0


def test_direct_builds_no_ic0(mini_problem, monkeypatch):
    import eddy2d.schur

    def no_ic0(A):
        raise AssertionError("IC(0) built under the direct strategy")

    monkeypatch.setattr(eddy2d.schur, "ic0_preconditioner", no_ic0)
    ctx = SchurContext(mini_problem.blocks, tol=TOL, strategy="direct")
    est = ctx.estimation_context()
    assert est.strategy == "direct"
    assert est.precond is ctx.precond  # one factor for both contexts
    rng = np.random.default_rng(59)
    apply_ks(est, rng.standard_normal(mini_problem.part.n_c))
    recover_an(ctx, rng.standard_normal(mini_problem.part.n_c),
               rng.standard_normal(mini_problem.part.n_n))
    assert est.stats.total_iterations == 0 and ctx.stats.total_iterations == 0


def test_direct_singular_knn_raises_solver_error():
    from eddy2d.assembly import SystemBlocks
    from eddy2d.linalg import SparseMatrix

    blocks = SystemBlocks(
        M_cc=SparseMatrix.identity(1),
        K_cc=SparseMatrix.identity(1),
        K_cn=SparseMatrix.from_dense([[1.0, 0.0]]),
        K_nn=SparseMatrix.from_dense([[1.0, 0.0], [0.0, 0.0]]),
    )
    with pytest.raises(SolverError, match="K_nn factorization failed"):
        SchurContext(blocks, tol=1e-10, strategy="direct")


# ------------------------------------------------------------ interface block

def test_interface_block_matches_dense_schur_complement(mini_problem):
    # dense K_cn K_nn^-1 K_nc is zero off the interface (the nonzero rows of
    # K_cn) and the formed block equals it there; the probe rows are those of
    # K_nn^-1 [-K_nc(:, interface) | pattern], the source column taken from
    # the pattern's one solve, whose r_pat the context keeps
    blocks, part = mini_problem.blocks, mini_problem.part
    pattern = source_pattern(mini_problem.mesh, make_mini_source(), part)
    ctx = SchurContext(blocks, tol=TOL, strategy="direct")
    ctx.set_source(pattern)
    block = form_interface(ctx, mini_problem.probe_n)
    K_cn, K_nn = blocks.K_cn.toarray(), blocks.K_nn.toarray()
    iface = interface_dofs(blocks)
    off = np.setdiff1d(np.arange(blocks.n_c), iface)
    assert iface.size and off.size and mini_problem.probe_n.size
    assert np.array_equal(iface, np.flatnonzero(np.abs(K_cn).sum(axis=1)))

    ks = dense_kS(blocks)
    assert not ks[off].any() and not ks[:, off].any()
    assert np.array_equal(block.iface, iface)
    assert block.K_S.shape == (iface.size, iface.size)
    got = np.zeros_like(ks)
    got[np.ix_(iface, iface)] = block.K_S
    assert np.linalg.norm(got - ks) <= 1e-12 * np.linalg.norm(ks)

    sol = np.linalg.solve(K_nn, np.column_stack([-K_cn[iface].T, pattern]))
    ref_rows = sol[mini_problem.probe_n]
    got_rows = np.column_stack([block.probe_rows, block.probe_source])
    assert got_rows.shape == ref_rows.shape
    assert np.linalg.norm(got_rows - ref_rows) <= 1e-12 * np.linalg.norm(ref_rows)
    w_ref = sol[:, -1][mini_problem.probe_n]
    assert np.linalg.norm(ctx.w[mini_problem.probe_n] - w_ref) <= 1e-12 * np.linalg.norm(w_ref)

    assert ctx.stats.by_purpose == {"schur_apply": iface.size, "source_term": 1,
                                    "recovery": 0}
    assert ctx.stats.records[0].purpose == "source_term"  # solved before forming
    ref = -K_cn @ np.linalg.solve(K_nn, pattern)
    assert np.linalg.norm(ctx.r_pat - ref) <= 1e-12 * np.linalg.norm(ref)
