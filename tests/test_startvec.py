import numpy as np
import pytest
from scipy.linalg import lapack

from eddy2d.linalg import SparseMatrix, pcg
from eddy2d.startvec import CspeCache, PodCache, PreviousSolution, make_provider

from conftest import make_mini_problem


def spd_matrix(n, seed=0, cond=30.0):
    rng = np.random.default_rng(seed)
    lam = np.exp(rng.uniform(0.0, np.log(cond), n))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return SparseMatrix.from_dense((Q * lam) @ Q.T)


# ------------------------------------------------------------------- CSPE push

def test_cspe_push_empty_cache():
    K = SparseMatrix.identity(4)
    cache = CspeCache(K, window=3)
    x = np.array([2.0, 0.0, 0.0, 0.0])
    cache.push(x)
    assert len(cache.columns) == 1
    np.testing.assert_allclose(cache.columns[0], [1.0, 0.0, 0.0, 0.0])
    assert cache.spmv_count == 1


def test_cspe_push_in_span_is_noop():
    K = SparseMatrix.identity(4)
    cache = CspeCache(K, window=3)
    cache.push(np.array([1.0, 0.0, 0.0, 0.0]))
    cache.push(np.array([3.0, 0.0, 0.0, 0.0]))  # already in span
    assert len(cache.columns) == 1
    assert cache.spmv_count == 1


def test_cspe_window_eviction_one_new_spmv():
    K = spd_matrix(6, seed=1)
    cache = CspeCache(K, window=3)
    rng = np.random.default_rng(2)
    for _ in range(3):
        cache.push(rng.standard_normal(6))
    assert len(cache.columns) == 3 and cache.spmv_count == 3
    oldest_after = cache.columns[1].copy()
    cache.push(rng.standard_normal(6))
    assert len(cache.columns) == 3  # oldest evicted first
    assert cache.spmv_count == 4    # exactly one new product
    np.testing.assert_allclose(cache.columns[0], oldest_after)


def test_cspe_spmv_economy_over_run():
    # cache maintenance costs at most one product per push, never window-many
    K = spd_matrix(10, seed=3)
    cache = CspeCache(K, window=5)
    rng = np.random.default_rng(4)
    T = 30
    for _ in range(T):
        cache.push(rng.standard_normal(10))
    assert cache.spmv_count <= T


def test_cspe_columns_orthonormal():
    K = spd_matrix(20, seed=5)
    cache = CspeCache(K, window=5)
    rng = np.random.default_rng(6)
    for _ in range(12):
        cache.push(rng.standard_normal(20))
    V = np.column_stack(cache.columns)
    assert np.abs(V.T @ V - np.eye(V.shape[1])).max() <= 1e-10
    # cached products stay exact
    for v, kv in zip(cache.columns, cache.kcolumns):
        np.testing.assert_allclose(K.matvec(v), kv, atol=1e-14)


# ------------------------------------------------------------------ CSPE start

def test_cspe_start_one_dimensional_identity():
    K = SparseMatrix.identity(5)
    cache = CspeCache(K, window=3)
    r = np.array([1.0, 2.0, 0.0, -1.0, 0.5])
    cache.push(r.copy())
    x0 = cache.start(r)
    np.testing.assert_allclose(x0, r, atol=1e-12)


def test_cspe_start_orthogonal_rhs_gives_zero():
    K = SparseMatrix.identity(4)
    cache = CspeCache(K, window=2)
    cache.push(np.array([1.0, 0.0, 0.0, 0.0]))
    x0 = cache.start(np.array([0.0, 0.0, 3.0, 0.0]))
    np.testing.assert_allclose(x0, 0.0, atol=1e-12)


def test_cspe_start_empty_cache_zero():
    cache = CspeCache(SparseMatrix.identity(3), window=2)
    np.testing.assert_array_equal(cache.start(np.ones(3)), 0.0)


def test_cspe_start_galerkin_optimality():
    # energy functional phi(x) = 0.5 x^T K x - x^T r is minimized over
    # span(V); check against a grid of coefficient perturbations
    K = spd_matrix(12, seed=7)
    cache = CspeCache(K, window=3)
    rng = np.random.default_rng(8)
    for _ in range(3):
        cache.push(rng.standard_normal(12))
    r = rng.standard_normal(12)
    x0 = cache.start(r)

    def phi(x):
        return 0.5 * x @ K.matvec(x) - x @ r

    V = np.column_stack(cache.columns)
    base = phi(x0)
    for dz in np.ndindex(3, 3, 3):
        pert = (np.array(dz, dtype=float) - 1.0) * 0.05
        x_alt = x0 + V @ pert
        assert base <= phi(x_alt) + 1e-12


def test_cspe_start_linear_in_rhs():
    K = spd_matrix(10, seed=9)
    cache = CspeCache(K, window=4)
    rng = np.random.default_rng(10)
    for _ in range(4):
        cache.push(rng.standard_normal(10))
    r1, r2 = rng.standard_normal(10), rng.standard_normal(10)
    lhs = cache.start(2.0 * r1 - 3.0 * r2)
    rhs = 2.0 * cache.start(r1) - 3.0 * cache.start(r2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def old_cspe_start(cache, rhs):
    """The start CSPE computed before its Gram factor was kept across starts:
    the whole projection rebuilt from the cached columns at every call."""
    if not cache.columns:
        return np.zeros(cache.knn.nrows)
    V = np.column_stack(cache.columns)
    L, info = lapack.dpotrf(V.T @ np.column_stack(cache.kcolumns), lower=1)
    assert info == 0
    return V @ lapack.dpotrs(L, V.T @ rhs, lower=1)[0]


def test_cspe_start_bitwise_equals_per_call_projection():
    K = spd_matrix(16, seed=31)
    cache = CspeCache(K, window=4)
    rng = np.random.default_rng(32)
    kinds = []
    for step in range(60):
        kind = ("random", "in_span", "zero")[step % 3] if step > 2 else "random"
        if kind == "random":
            x = rng.standard_normal(16)
        elif kind == "in_span":
            x = np.column_stack(cache.columns) @ rng.standard_normal(len(cache.columns))
        else:
            x = np.zeros(16)
        full = len(cache.columns) == cache.window
        cache.push(x)
        kinds.append((kind, full))
        r = rng.standard_normal(16)
        assert np.array_equal(cache.start(r), old_cspe_start(cache, r))
    assert ("random", True) in kinds      # pushes that evict
    assert ("in_span", True) in kinds     # evictions whose push adds no column
    assert ("zero", True) in kinds


# ------------------------------------------------------ Gram matrix breakdown

INDEFINITE = SparseMatrix.from_dense(np.diag([1.0, -1.0, 2.0, 3.0]))


def test_cspe_drops_the_column_where_the_gram_matrix_breaks_down():
    e = np.eye(4)
    cache = CspeCache(INDEFINITE, window=3)
    cache.push(e[1])  # G = [-1]: the only column fails at pivot 0
    assert cache.columns == [] and cache.basis is None
    np.testing.assert_array_equal(cache.start(np.ones(4)), 0.0)
    cache.push(e[0])
    cache.push(e[1])  # G = diag(1, -1) fails at pivot 1
    assert len(cache.columns) == 1
    np.testing.assert_array_equal(cache.columns[0], e[0])
    r = np.array([3.0, 1.0, 1.0, 1.0])
    np.testing.assert_allclose(cache.start(r), [3.0, 0.0, 0.0, 0.0])
    cache.push(e[2])
    assert len(cache.columns) == 2
    np.testing.assert_allclose(cache.start(r), [3.0, 0.0, 0.5, 0.0])


def test_pod_takes_fewer_modes_until_the_gram_matrix_is_spd():
    e = np.eye(4)
    cache = PodCache(INDEFINITE, window=3)
    cache.push(2.0 * e[0])
    cache.push(e[1])  # two modes pass tol_pod; G = diag(1, -1) is not SPD
    assert cache.n_modes == 1
    np.testing.assert_allclose(np.abs(cache.basis[:, 0]), e[0])
    np.testing.assert_allclose(cache.start(np.array([3.0, 1.0, 1.0, 1.0])),
                               [3.0, 0.0, 0.0, 0.0])
    none = PodCache(INDEFINITE, window=3)
    none.push(e[1])  # the one mode gives G = [-1]: no basis
    assert none.n_modes == 0
    np.testing.assert_array_equal(none.start(np.ones(4)), 0.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("G, pivot", [
    ([[4.0, 1.0], [1.0, 3.0]], None),
    ([[1.0, 0.0], [0.0, -1.0]], 1),
    ([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, -1.0]], 2),
    ([[NAN]], 0),
    ([[INF]], 0),
    ([[1.0, 0.0], [0.0, INF]], 1),
    ([[1.0, NAN], [NAN, 1.0]], 1),
    ([[1.0, INF], [INF, 1.0]], 1),
    ([[NAN, 0.0], [0.0, -1.0]], 0),
    ([[INF, 0.0], [0.0, -1.0]], 0),  # dpotrf stops at pivot 1, past the inf
], ids=["spd", "indefinite", "minor_3", "nan", "inf", "inf_diagonal", "nan_off_diagonal",
        "inf_off_diagonal", "nan_then_negative", "inf_then_negative"])
def test_gram_factor_reports_the_first_pivot_that_breaks_down(G, pivot):
    # the pivot of the first leading minor that is not SPD or whose
    # elimination leaves a non-finite diagonal entry; None keeps the basis
    G = np.array(G)
    V = np.eye(len(G))
    cache = CspeCache(SparseMatrix.identity(len(G)), window=3)
    assert cache._factor(V, G) == pivot
    assert (cache.basis is V) == (pivot is None)


class NonFiniteAlongE2:
    """K_nn = diag(1, 2, bad, 3) with bad non-finite; its product gives a
    finite vector for one without an e[2] component."""

    def __init__(self, bad):
        self.d, self.nrows = np.array([1.0, 2.0, bad, 3.0]), 4

    def matvec(self, v):
        return np.where(v != 0.0, self.d, 0.0) * v


@pytest.mark.parametrize("bad", [NAN, INF])
def test_non_finite_gram_entry_is_a_breakdown_at_its_pivot(bad):
    # K_nn's entry for e[2] reaches the Gram matrix at pivot 2: CSPE drops
    # that column, POD keeps the two modes before it
    e = np.eye(4)
    cspe = CspeCache(NonFiniteAlongE2(bad), window=3)
    pod = PodCache(NonFiniteAlongE2(bad), window=3)
    with np.errstate(invalid="ignore"):  # V^T K_nn V multiplies inf by 0
        for j, scale in enumerate((3.0, 2.0, 1.0)):
            cspe.push(e[j])
            pod.push(scale * e[j])
    np.testing.assert_array_equal(np.column_stack(cspe.columns), e[:, :2])
    assert pod.n_modes == 2
    r = np.array([1.0, 4.0, 1.0, 1.0])
    for cache in (cspe, pod):
        np.testing.assert_allclose(cache.start(r), [1.0, 2.0, 0.0, 0.0])


def test_pod_truncates_at_the_failing_pivot():
    # five orthogonal snapshots of norms 5..1 under K = Q B Q^T, whose Gram
    # matrix over the five modes is SPD in its leading minors of order 1
    # and 2 only: POD keeps two modes after two factorizations, where
    # dropping one mode per factorization would take four
    rng = np.random.default_rng(41)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    B = np.eye(8)
    B[:5, :5] = [[2.0, 1.0, 1.0, 0.5, 0.0],
                 [1.0, 2.0, 1.0, 0.0, 0.5],
                 [1.0, 1.0, -1.0, 1.0, 0.0],
                 [0.5, 0.0, 1.0, 3.0, 1.0],
                 [0.0, 0.5, 0.0, 1.0, 3.0]]
    K = Q @ B @ Q.T
    snapshots = [s * Q[:, j] for j, s in enumerate((5.0, 4.0, 3.0, 2.0, 1.0))]
    U = np.linalg.svd(np.column_stack(snapshots), full_matrices=False)[0]
    G = U.T @ K @ U
    oracle = max(m for m in range(6)
                 if all(np.linalg.eigvalsh(G[:j, :j]).min() > 0 for j in range(1, m + 1)))
    assert oracle == 2

    cache = PodCache(SparseMatrix.from_dense(K), window=5)
    for x in snapshots[:4]:
        cache.push(x)
    calls = []
    factor = cache._factor
    cache._factor = lambda V, gram: calls.append(V.shape[1]) or factor(V, gram)
    cache.push(snapshots[4])
    assert cache.n_modes == oracle
    assert calls == [5, 2]


# --------------------------------------------------------------- POD truncate

def pod_modes(sigma, tol_pod=1e4):
    """Modes PodCache keeps for orthogonal snapshots of norms ``sigma``
    (its singular values) under K = I."""
    cache = PodCache(SparseMatrix.identity(8), window=8, tol_pod=tol_pod)
    for i, s in enumerate(sigma):
        cache.push(s * np.eye(8)[i])
    return cache.n_modes


def test_pod_truncate_example():
    assert pod_modes([10.0, 1.0, 1e-5], 1e4) == 2


def test_pod_truncate_single_value():
    assert pod_modes([5.0], 1.0) == 1
    assert pod_modes([5.0], 1e6) == 1


def test_pod_truncate_all_equal():
    assert pod_modes([3.3] * 7, 1e4) == 7


def test_pod_truncate_empty_and_zero():
    assert pod_modes([]) == 0
    assert pod_modes([0.0]) == 0  # a zero snapshot is never pushed
    # a repeated snapshot leaves a zero singular value, which no tol_pod keeps
    cache = PodCache(SparseMatrix.identity(4), window=3, tol_pod=1e300)
    cache.push(np.array([2.0, 0.0, 0.0, 0.0]))
    cache.push(np.array([2.0, 0.0, 0.0, 0.0]))
    assert cache.n_modes == 1


# ------------------------------------------------------------------- POD start

def test_pod_single_snapshot_exact():
    K = spd_matrix(8, seed=11)
    rng = np.random.default_rng(12)
    x_true = rng.standard_normal(8)
    r = K.matvec(x_true)
    cache = PodCache(K, window=5)
    cache.push(x_true)
    x0 = cache.start(r)
    np.testing.assert_allclose(x0, x_true, atol=1e-9)


def test_pod_start_matches_dense_reduced_oracle():
    K = spd_matrix(15, seed=13)
    cache = PodCache(K, window=6)
    rng = np.random.default_rng(14)
    for _ in range(4):
        cache.push(rng.standard_normal(15))
    r = rng.standard_normal(15)
    U = cache.basis
    Kd = K.toarray()
    ref = U @ np.linalg.solve(U.T @ Kd @ U, U.T @ r)
    np.testing.assert_allclose(cache.start(r), ref, atol=1e-10)


def test_pod_start_empty_cache_zero():
    cache = PodCache(SparseMatrix.identity(4), window=3)
    np.testing.assert_array_equal(cache.start(np.ones(4)), 0.0)


def test_pod_reduced_matrix_reused_between_starts():
    K = spd_matrix(10, seed=15)
    cache = PodCache(K, window=4)
    rng = np.random.default_rng(16)
    cache.push(rng.standard_normal(10))
    count = cache.spmv_count
    cache.start(rng.standard_normal(10))
    cache.start(rng.standard_normal(10))
    assert cache.spmv_count == count  # no rebuild without a snapshot change


def test_pod_start_linear_in_rhs():
    K = spd_matrix(10, seed=17)
    cache = PodCache(K, window=4)
    rng = np.random.default_rng(18)
    for _ in range(3):
        cache.push(rng.standard_normal(10))
    r1, r2 = rng.standard_normal(10), rng.standard_normal(10)
    lhs = cache.start(1.5 * r1 + 0.5 * r2)
    rhs = 1.5 * cache.start(r1) + 0.5 * cache.start(r2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_pod_truncation_drops_noise_modes():
    K = spd_matrix(12, seed=19)
    rng = np.random.default_rng(20)
    base = rng.standard_normal(12)
    cache = PodCache(K, window=6, tol_pod=1e4)
    for k in range(5):
        cache.push(base * (1.0 + 0.01 * k) + 1e-9 * rng.standard_normal(12))
    assert cache.n_modes < 5  # near-collinear snapshots compress


# ------------------------------------------------- Galerkin exactness with PCG

def test_cspe_exact_span_zero_pcg_iterations():
    # Galerkin consistency: true solution inside the cache span -> 0 iterations
    K = spd_matrix(20, seed=21)
    cache = CspeCache(K, window=4)
    rng = np.random.default_rng(22)
    x_true = rng.standard_normal(20)
    cache.push(x_true)
    cache.push(rng.standard_normal(20))
    r = K.matvec(x_true)
    x0 = cache.start(r)
    rep = pcg(K, r, x0=x0, tol=1e-8)
    assert rep.converged and rep.iterations == 0


def test_pod_exact_span_zero_pcg_iterations():
    K = spd_matrix(20, seed=23)
    cache = PodCache(K, window=5, tol_pod=1e8)
    rng = np.random.default_rng(24)
    x_true = rng.standard_normal(20)
    cache.push(x_true)
    cache.push(x_true * 1.7)
    r = K.matvec(x_true)
    rep = pcg(K, r, x0=cache.start(r), tol=1e-8)
    assert rep.converged and rep.iterations == 0


def test_previous_provider():
    p = PreviousSolution(3)
    np.testing.assert_array_equal(p.start(np.ones(3)), 0.0)
    p.push(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(p.start(np.ones(3)), [1.0, 2.0, 3.0])


def test_make_provider_on_real_knn():
    blocks = make_mini_problem().blocks
    for name, cls in (("previous", PreviousSolution), ("cspe", CspeCache), ("pod", PodCache)):
        provider = make_provider(name, blocks.K_nn)
        assert isinstance(provider, cls)
