import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from eddy2d.errors import Ic0Breakdown, SolverError
from eddy2d.linalg import (
    BandCholesky,
    SparseMatrix,
    export_matrix,
    factor_spd,
    ic0_preconditioner,
    jacobi_preconditioner,
    mgs_extend,
    pcg,
    power_iteration,
)
from eddy2d.startvec import CspeCache

from conftest import make_mini_problem


def random_spd(n, rng, cond=50.0, gap=1.0):
    """Random SPD with a controlled spectrum: eigenvalues log-uniform in
    [1, cond] under a random orthogonal basis; gap > 1 separates the top
    eigenvalue (power iteration needs a gap to converge geometrically)."""
    lam = np.exp(rng.uniform(0.0, np.log(cond), n))
    lam[np.argmax(lam)] = lam.max() * gap
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (Q * lam) @ Q.T


# ---------------------------------------------------------------- SparseMatrix

def test_spmv_identity():
    A = SparseMatrix.identity(3)
    np.testing.assert_array_equal(A.matvec(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_spmv_hand_case():
    A = SparseMatrix.from_dense([[2.0, 0.0], [1.0, 3.0]])
    np.testing.assert_allclose(A.matvec(np.array([1.0, 1.0])), [2.0, 4.0])


def test_spmv_against_dense_oracle():
    rng = np.random.default_rng(7)
    D = rng.standard_normal((50, 50)) * (rng.random((50, 50)) < 0.1)
    A = SparseMatrix.from_dense(D)
    x = rng.standard_normal(50)
    y = A.matvec(x)
    ref = D @ x
    assert np.linalg.norm(y - ref) <= 1e-13 * max(np.linalg.norm(ref), 1.0)


def test_spmv_dimension_mismatch():
    A = SparseMatrix.identity(3)
    with pytest.raises(ValueError):
        A.matvec(np.ones(4))


def mini_nonlinear_matrices():
    """The blocks of the nonlinear mini problem and a K_cc rebuilt at a
    random conductor field, by name."""
    problem = make_mini_problem(nonlinear=True)
    blocks = problem.blocks
    a_c = np.random.default_rng(17).standard_normal(problem.part.n_c) * 1e-2
    return {"K_cc": blocks.K_cc, "K_cn": blocks.K_cn, "K_nc": blocks.K_nc,
            "K_nn": blocks.K_nn, "M_cc": blocks.M_cc,
            "K_cc_rebuilt": problem.kcc_map.rebuild(problem.kcc_map.nu(a_c))}


@pytest.mark.parametrize("name", ["K_cc", "K_cn", "K_nc", "K_nn", "M_cc", "K_cc_rebuilt"])
def test_matvec_is_scipys_product_bitwise(name):
    A = mini_nonlinear_matrices()[name]
    rng = np.random.default_rng(19)
    x = rng.standard_normal(A.ncols)
    strided = rng.standard_normal(2 * A.ncols)[::2]
    for v in (x, strided):
        np.testing.assert_array_equal(A.matvec(v), A.scipy() @ v)
    with pytest.raises(ValueError, match="dimension mismatch"):
        A.matvec(np.ones(A.ncols + 1))


def test_csr_invariants():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 10, 60)
    cols = rng.integers(0, 10, 60)
    vals = rng.standard_normal(60)
    A = SparseMatrix.from_coo(10, 10, rows, cols, vals)
    off = A.row_offsets
    assert off[0] == 0 and off[-1] == A.nnz
    assert np.all(np.diff(off) >= 0)
    for i in range(10):
        ci = A.col_indices[off[i]:off[i + 1]]
        assert np.all(np.diff(ci) > 0)  # strictly increasing within a row
    assert not np.any(A.values == 0.0)  # no explicit zeros after finalization


def test_operator_linearity():
    rng = np.random.default_rng(11)
    D = rng.standard_normal((20, 20))
    A = SparseMatrix.from_dense(D)
    x, y = rng.standard_normal(20), rng.standard_normal(20)
    a, b = 1.7, -0.3
    lhs = A.matvec(a * x + b * y)
    rhs = a * A.matvec(x) + b * A.matvec(y)
    scale = np.abs(D).max()
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * (np.linalg.norm(x) + np.linalg.norm(y)) * scale


# ------------------------------------------------------------------------ PCG

def test_pcg_identity_converges_first_iteration():
    A = SparseMatrix.identity(4)
    b = np.array([1.0, -2.0, 3.0, 0.5])
    rep = pcg(A, b, tol=1e-12)
    assert rep.converged and rep.iterations == 1
    np.testing.assert_allclose(rep.solution, b, atol=1e-12)


def test_pcg_exact_start_vector_zero_iterations():
    # the property CSPE/POD exploit: a perfect start vector costs nothing
    A = SparseMatrix.from_dense([[4.0, 1.0], [1.0, 3.0]])
    x_exact = np.array([0.3, -0.2])
    b = A.matvec(x_exact)
    rep = pcg(A, b, x0=x_exact, tol=1e-10)
    assert rep.converged and rep.iterations == 0


class CountingMatrix:
    """The nrows/matvec protocol pcg needs, counting its products."""

    def __init__(self, D):
        self.D, self.nrows, self.products = D, D.shape[0], 0

    def matvec(self, x):
        self.products += 1
        return self.D @ x


def test_pcg_from_zero_applies_the_operator_once_per_iteration():
    # the zero start's residual is b itself: no apply before the first iteration
    rng = np.random.default_rng(31)
    A = CountingMatrix(random_spd(12, rng))
    rep = pcg(A, rng.standard_normal(12), tol=1e-10)
    assert rep.converged and rep.iterations > 0
    assert A.products == rep.iterations


def test_pcg_with_a_factor_solve_converges_in_one_iteration():
    # the exact factor as preconditioner: the first search direction is A^-1 b
    rng = np.random.default_rng(33)
    A = SparseMatrix.from_dense(random_spd(15, rng, cond=1e4))
    b = rng.standard_normal(15)
    rep = pcg(A, b, precond=factor_spd(A, "A").solve, tol=1e-10)
    assert rep.converged and rep.iterations == 1
    np.testing.assert_allclose(A.matvec(rep.solution), b, atol=1e-9)


def test_pcg_2x2_closed_form():
    # closed-form inverse of [[4,1],[1,3]]: x = A^-1 [1,2] = [1/11, 7/11]
    A = SparseMatrix.from_dense([[4.0, 1.0], [1.0, 3.0]])
    rep = pcg(A, np.array([1.0, 2.0]), tol=1e-10)
    assert rep.converged
    np.testing.assert_allclose(rep.solution, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-9)


def test_pcg_singular_consistent():
    A = SparseMatrix.from_dense([[1.0, 0.0], [0.0, 0.0]])
    rep = pcg(A, np.array([1.0, 0.0]), x0=np.zeros(2), tol=1e-12)
    assert rep.converged
    np.testing.assert_allclose(rep.solution, [1.0, 0.0], atol=1e-12)


def test_pcg_zero_rhs_contract():
    A = SparseMatrix.identity(3)
    rep = pcg(A, np.zeros(3))
    assert rep.converged and rep.iterations == 0
    np.testing.assert_array_equal(rep.solution, np.zeros(3))
    # nonzero x0 with b = 0: returns x0, converged only if op@x0 is small
    rep = pcg(A, np.zeros(3), x0=np.array([1.0, 0.0, 0.0]), tol=1e-10)
    assert not rep.converged
    np.testing.assert_array_equal(rep.solution, [1.0, 0.0, 0.0])


def test_pcg_max_iter_reports_unconverged():
    rng = np.random.default_rng(5)
    A = SparseMatrix.from_dense(random_spd(30, rng, cond=1e4))
    rep = pcg(A, rng.standard_normal(30), tol=1e-14, max_iter=2)
    assert not rep.converged and rep.iterations == 2


def test_pcg_indefinite_raises():
    A = SparseMatrix.from_dense([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(SolverError):
        pcg(A, np.array([1.0, 1.0]), tol=1e-12)


def test_pcg_tells_a_non_finite_solve_from_an_indefinite_one():
    A = SparseMatrix.from_dense([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(SolverError, match="^M_cc solve: non-finite start residual$"):
        pcg(A, np.ones(2), x0=np.array([np.nan, 0.0]), name="M_cc solve")
    with pytest.raises(SolverError, match="^pcg: non-finite curvature p\\^T A p = inf at "
                                          "iteration 1$"):
        pcg(A, np.array([1.0, np.inf]))
    with pytest.raises(SolverError, match="^pcg: curvature .* system is indefinite"):
        pcg(SparseMatrix.from_dense([[1.0, 0.0], [0.0, -1.0]]), np.ones(2))


def test_pcg_converges_within_n_plus_5():
    # exact-arithmetic CG terminates in n steps; allow 5 extra for roundoff
    rng = np.random.default_rng(17)
    for trial in range(8):
        n = int(rng.integers(2, 51))
        A = SparseMatrix.from_dense(random_spd(n, rng))
        b = rng.standard_normal(n)
        rep = pcg(A, b, tol=1e-10, max_iter=n + 5)
        assert rep.converged, f"n={n} trial={trial}"


def test_pcg_report_residual_invariant():
    rng = np.random.default_rng(23)
    A = SparseMatrix.from_dense(random_spd(25, rng))
    b = rng.standard_normal(25)
    rep = pcg(A, b, tol=1e-8)
    assert rep.converged
    assert rep.final_relative_residual <= 1e-8
    true_res = np.linalg.norm(b - A.matvec(rep.solution)) / np.linalg.norm(b)
    assert true_res <= 1e-7


# -------------------------------------------------------------- preconditioners

def test_jacobi_elementwise():
    A = SparseMatrix.from_dense([[2.0, 0.0], [0.0, 4.0]])
    M = jacobi_preconditioner(A)
    np.testing.assert_allclose(M(np.array([2.0, 8.0])), [1.0, 2.0])


def test_jacobi_identity():
    M = jacobi_preconditioner(SparseMatrix.identity(3))
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(M(x), x)


def test_jacobi_zero_row_passthrough():
    A = SparseMatrix.from_dense([[1.0, 0.0], [0.0, 0.0]])
    M = jacobi_preconditioner(A)
    np.testing.assert_array_equal(M(np.array([3.0, 5.0])), [3.0, 5.0])


def test_jacobi_negative_diagonal_raises():
    A = SparseMatrix.from_dense([[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SolverError):
        jacobi_preconditioner(A)


def test_ic0_diagonal_matrix_exact():
    A = SparseMatrix.from_dense(np.diag([4.0, 9.0, 16.0]))
    M = ic0_preconditioner(A)
    rep = pcg(A, np.array([4.0, 18.0, 48.0]), precond=M, tol=1e-12)
    assert rep.converged and rep.iterations == 1
    np.testing.assert_allclose(rep.solution, [1.0, 2.0, 3.0], rtol=1e-12)


def laplacian_1d(n):
    D = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return SparseMatrix.from_dense(D)


def test_ic0_beats_jacobi_on_laplacian():
    A = laplacian_1d(32)
    b = np.ones(32)
    it_ic0 = pcg(A, b, precond=ic0_preconditioner(A), tol=1e-8, max_iter=500).iterations
    it_jac = pcg(A, b, precond=jacobi_preconditioner(A), tol=1e-8, max_iter=500).iterations
    assert it_ic0 < it_jac


def test_ic0_pattern_exactness():
    # IC(0) leaves zero residual on the pattern of A; fill is discarded off it
    rng = np.random.default_rng(31)
    D = random_spd(5, rng)
    D[np.abs(D) < 0.3] = 0.0
    D = 0.5 * (D + D.T) + 5.0 * np.eye(5)
    A = SparseMatrix.from_dense(D)
    M = ic0_preconditioner(A)
    L = M.L.toarray()
    R = L @ L.T - A.toarray()
    pattern = A.toarray() != 0
    assert np.abs(R[pattern]).max() <= 1e-12


def laplacian_2d(m):
    """Five-point Laplacian on an m x m grid (n = m^2 unknowns)."""
    T = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m), dtype=float)
    eye = scipy.sparse.identity(m, dtype=float)
    return SparseMatrix(scipy.sparse.kron(eye, T) + scipy.sparse.kron(T, eye))


@pytest.mark.parametrize("build", [lambda: make_mini_problem().blocks.K_nn,
                                   lambda: laplacian_2d(50)],
                         ids=["mini_knn", "laplacian_50x50"])
def test_ic0_apply_matches_dense_inverse(build):
    A = build()
    M = ic0_preconditioner(A)
    L = M.L.toarray()
    r = np.random.default_rng(37).standard_normal(A.nrows)
    ref = np.linalg.solve(L @ L.T, r)
    assert np.linalg.norm(M(r) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_ic0_memory_stays_sparse():
    # a dense copy of the factor alone would take 8 n^2 = 50 MB here
    A = laplacian_2d(50)
    r = np.ones(A.nrows)
    tracemalloc.start()
    try:
        ic0_preconditioner(A)(r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_ic0_breakdown_signals():
    A = SparseMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(Ic0Breakdown):
        ic0_preconditioner(A)


def test_factor_spd_solves_exactly():
    rng = np.random.default_rng(61)
    dense = random_spd(30, rng, cond=1e4)
    lu = factor_spd(SparseMatrix.from_dense(dense), "A")
    b = rng.standard_normal(30)
    ref = np.linalg.solve(dense, b)
    assert np.linalg.norm(lu.solve(b) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_factor_spd_names_a_singular_matrix():
    with pytest.raises(SolverError, match="K_nn factorization failed"):
        factor_spd(SparseMatrix.from_dense([[1.0, 0.0], [0.0, 0.0]]), "K_nn")


def _bandwidth(dense: np.ndarray) -> int:
    rows, cols = np.nonzero(dense)
    return int(np.abs(rows - cols).max())


def test_band_cholesky_solves_the_mass_block_in_any_numbering():
    # the mini problem's M_cc and a copy with its DoFs randomly renumbered:
    # both solve to 1e-14 of a dense solve, and RCM gives the copy a band
    # within 10% of the original's
    m_cc = make_mini_problem().blocks.M_cc
    rng = np.random.default_rng(0)
    q = rng.permutation(m_cc.nrows)
    shuffled = SparseMatrix(m_cc.scipy()[q][:, q])
    b = rng.standard_normal(m_cc.nrows)
    widths = []
    for A in (m_cc, shuffled):
        factor = BandCholesky(A, "M_cc")
        dense = A.toarray()
        ref = np.linalg.solve(dense, b)
        assert np.linalg.norm(factor.solve(b) - ref) <= 1e-14 * np.linalg.norm(ref)
        assert np.array_equal(np.sort(factor.perm), np.arange(A.nrows))
        assert factor.bandwidth == _bandwidth(dense[np.ix_(factor.perm, factor.perm)])
        widths.append(factor.bandwidth)
    assert widths[1] <= 1.1 * widths[0] < _bandwidth(shuffled.toarray())


@pytest.mark.parametrize("dense", [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 1.0]]],
                         ids=["singular", "indefinite"])
def test_band_cholesky_names_a_matrix_that_is_not_positive_definite(dense):
    with pytest.raises(SolverError, match="M_cc factorization failed"):
        BandCholesky(SparseMatrix.from_dense(dense), "M_cc")


# ------------------------------------------------------------------------- MGS

def orthonormalized(columns):
    """The basis CSPE holds after pushing ``columns``: each push extends it
    by mgs_extend, and a window as large as the input evicts nothing."""
    cache = CspeCache(SparseMatrix.identity(columns[0].size), window=len(columns))
    for v in columns:
        cache.push(v)
    return cache.columns


def test_mgs_already_orthogonal():
    out = orthonormalized([np.array([2.0, 0.0]), np.array([0.0, 3.0])])
    np.testing.assert_allclose(out[0], [1.0, 0.0])
    np.testing.assert_allclose(out[1], [0.0, 1.0])


def test_mgs_drops_near_duplicate():
    basis = [np.array([1.0, 0.0])]
    assert mgs_extend(basis, np.array([1.0, 1e-14]), tol_drop=1e-10) is None
    assert mgs_extend(basis, np.zeros(2)) is None


def test_mgs_gram_identity():
    rng = np.random.default_rng(41)
    vecs = [rng.standard_normal(100) for _ in range(5)]
    out = orthonormalized(vecs)
    Q = np.column_stack(out)
    gram = Q.T @ Q
    assert np.abs(gram - np.eye(5)).max() <= 1e-10


def test_mgs_preserves_span():
    rng = np.random.default_rng(43)
    vecs = [rng.standard_normal(10) for _ in range(3)]
    out = orthonormalized(vecs)
    V = np.column_stack(vecs)
    Q = np.column_stack(out)
    # each original vector is reproduced by its projection onto the basis
    proj = Q @ (Q.T @ V)
    assert np.linalg.norm(proj - V) <= 1e-10 * np.linalg.norm(V)


# -------------------------------------------------------------- power iteration

def test_power_iteration_diagonal():
    A = SparseMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
    rep = power_iteration(A.matvec, A.nrows, tol=1e-10, max_iter=2000, seed=1)
    assert rep.converged
    assert rep.value == pytest.approx(3.0, rel=1e-8)


def test_power_iteration_scalar_operator():
    rep = power_iteration(lambda x: 7.5 * x, 1, tol=1e-12, max_iter=50, seed=0)
    assert rep.value == pytest.approx(7.5, rel=1e-14)


def test_power_iteration_vs_dense_oracle():
    rng = np.random.default_rng(53)
    D = random_spd(20, rng, gap=1.5)
    lam_ref = np.linalg.eigvalsh(D).max()
    rep = power_iteration(SparseMatrix.from_dense(D).matvec, 20, tol=1e-9, max_iter=20000,
                          seed=2)
    assert rep.converged
    assert abs(rep.value - lam_ref) <= 10 * 1e-9 * lam_ref


def test_power_iteration_scaling_invariance():
    rng = np.random.default_rng(59)
    D = random_spd(15, rng)
    r1 = power_iteration(SparseMatrix.from_dense(D).matvec, 15, tol=1e-10, max_iter=20000,
                         seed=3)
    r2 = power_iteration(SparseMatrix.from_dense(3.0 * D).matvec, 15, tol=1e-10,
                         max_iter=20000, seed=3)
    assert r2.value == pytest.approx(3.0 * r1.value, rel=1e-6)


def test_power_iteration_errors_after_second_annihilation():
    with pytest.raises(SolverError, match="annihilated"):
        power_iteration(lambda x: np.zeros(3), 3, tol=1e-8, max_iter=50, seed=5)


def test_pcg_preserves_null_space_component_of_x0():
    # singular consistent system: the kernel component of x0 passes through
    A = SparseMatrix.from_dense([[1.0, 0.0], [0.0, 0.0]])
    rep = pcg(A, np.array([1.0, 0.0]), x0=np.array([0.0, 5.0]), tol=1e-12)
    assert rep.converged
    np.testing.assert_allclose(rep.solution, [1.0, 5.0], atol=1e-12)


def test_power_iteration_reseeds_on_annihilation():
    # operator kills the first random direction only
    rng = np.random.default_rng(4)
    first = rng.standard_normal(3)
    first /= np.linalg.norm(first)

    def apply(x):
        return x - first * (first @ x)

    rep = power_iteration(apply, 3, tol=1e-8, max_iter=500, seed=4)
    assert rep.value == pytest.approx(1.0, rel=1e-6)


# ------------------------------------------ dense SPD: the Galerkin start solve

def galerkin_solve(A, b):
    """A^-1 b as the CSPE/POD start solves it: the Galerkin start on the
    identity basis factors G = A with dpotrf and starts at G^-1 b by dpotrs."""
    start = CspeCache(SparseMatrix.from_dense(A), window=len(A))
    assert start._factor(np.eye(len(A)), np.asarray(A, dtype=float)) is None
    return start.start(np.asarray(b, dtype=float))


def test_dense_solve_identity():
    b = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(galerkin_solve(np.eye(3), b), b)


def test_dense_solve_closed_form():
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    z = galerkin_solve(A, np.array([1.0, 2.0]))
    np.testing.assert_allclose(z, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-12)


def test_dense_solve_hilbert():
    n = 4
    H = np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)])
    b = H @ np.ones(n)
    z = galerkin_solve(H, b)
    np.testing.assert_allclose(z, np.ones(n), atol=1e-6)


def test_dense_solve_residual_contract():
    rng = np.random.default_rng(61)
    A = random_spd(40, rng)
    b = rng.standard_normal(40)
    z = galerkin_solve(A, b)
    assert np.linalg.norm(A @ z - b) <= 1e-10 * np.linalg.norm(b)


# ---------------------------------------------------------------------- export

def test_export_matrix_coordinate_format(tmp_path):
    A = SparseMatrix.from_dense([[1.5, 0.0], [0.0, -2.0]])
    path = tmp_path / "a.mtx"
    export_matrix(A, str(path))
    text = path.read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith("%")]
    # size line then 1-based (row, col, value) entries
    assert lines[0].split() == ["2", "2", "2"]
    entries = {tuple(ln.split()[:2]): float(ln.split()[2]) for ln in lines[1:]}
    assert entries[("1", "1")] == pytest.approx(1.5)
    assert entries[("2", "2")] == pytest.approx(-2.0)
