import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eddy2d.assembly import (
    MaterialTable,
    SourceSpec,
    assemble,
    compute_b2,
    extract_blocks,
    partition,
    source_pattern,
)
from eddy2d.errors import AssemblyError
from eddy2d.integrate import newton_system
from eddy2d.linalg import SparseMatrix
from eddy2d.materials import MaterialModel, NU0
from eddy2d.mesh import Mesh2D, RegionTag, generate_rect_mesh, save_mesh
from eddy2d.scenario import bundled_scenario_path, parse_scenario

from conftest import (AIR, STEEL_BRAUER, STEEL_LINEAR, element_tags, make_mini_mesh,
                      make_mini_problem, mini_materials, reassemble_stiffness,
                      reference_assemble)

UNIT_RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


# -------------------------------------------------------------- element level
# assemble on a one-triangle mesh without Dirichlet nodes returns the
# element matrices themselves, on the vectorized path every run takes

def one_triangle(tri, material):
    """Unreduced (M, K) of the triangle ``tri`` made of ``material``, a
    conductor when it conducts and air otherwise."""
    conducts = material.kappa > 0
    mesh = Mesh2D(tri, [[0, 1, 2]], [RegionTag("conductor" if conducts else "air")], [0])
    table = MaterialTable({0: material}, AIR) if conducts else MaterialTable({}, material)
    M, K = assemble(mesh, table, partition(mesh))
    return M.toarray(), K.toarray()


def test_element_stiffness_unit_right_triangle():
    # hand evaluation of the cotangent formula for nu = 1
    _, K = one_triangle(UNIT_RIGHT, MaterialModel.linear(0.0, 1.0))
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    np.testing.assert_allclose(K, expected, atol=1e-14)


def test_element_stiffness_row_sums_zero():
    rng = np.random.default_rng(2)
    for _ in range(5):
        tri = rng.random((3, 2)) * 2.0
        twice_area = np.linalg.det(tri[1:] - tri[0])
        if abs(twice_area) < 2e-3:
            continue
        if twice_area < 0:
            tri[[1, 2]] = tri[[2, 1]]
        _, K = one_triangle(tri, MaterialModel.linear(0.0, 2.5))
        np.testing.assert_allclose(K.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(K, K.T, atol=1e-14)


def test_element_stiffness_scale_invariant_2d():
    # in 2D the (b, c) coefficients scale with s and the area with s^2
    _, K1 = one_triangle(UNIT_RIGHT, MaterialModel.linear(0.0, 3.0))
    _, K2 = one_triangle(2.0 * UNIT_RIGHT, MaterialModel.linear(0.0, 3.0))
    np.testing.assert_allclose(K2, K1, atol=1e-14)


def test_element_mass_zero_kappa():
    M, _ = one_triangle(UNIT_RIGHT, AIR)
    np.testing.assert_array_equal(M, np.zeros((3, 3)))


def test_element_mass_formula():
    # area 1/2, kappa 12 -> (1/2)*[[2,1,1],[1,2,1],[1,1,2]]
    M, _ = one_triangle(UNIT_RIGHT, MaterialModel.linear(12.0, 570.0))
    expected = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]])
    np.testing.assert_allclose(M, expected, atol=1e-14)


def test_element_mass_row_sums():
    tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]])
    area = 0.5 * (2.0 * 1.5)
    M, _ = one_triangle(tri, MaterialModel.linear(7.0, 570.0))
    np.testing.assert_allclose(M.sum(axis=1), 7.0 * area / 3.0, rtol=1e-14)


# ---------------------------------------------------------------- assembly

# the cells with x < 0.5 of a unit square
HALF_CONDUCTOR = [(0.0, 0.5, 0.0, 1.0, RegionTag("conductor", 0))]


def _mats(cond=STEEL_LINEAR):
    return MaterialTable({0: cond}, AIR)


def test_all_air_mass_is_zero():
    mesh = generate_rect_mesh(1.0, 1.0, 3, 3)
    table = MaterialTable({}, AIR)
    M, K = assemble(mesh, table, partition(mesh))
    assert M.nnz == 0


def test_linear_assembly_independent_of_a():
    # of linear materials, the reassembly at any field is the assembled K,
    # and the implicit Jacobian, built on the set-up blocks, does not move
    mesh = make_mini_mesh()
    table = _mats()
    rng = np.random.default_rng(8)
    a = rng.standard_normal(mesh.n_nodes)
    p = partition(mesh)
    _, K0 = assemble(mesh, table, p)
    K1 = reassemble_stiffness(mesh, table, p, a)
    np.testing.assert_array_equal(K0.values, K1.values)
    np.testing.assert_array_equal(K0.col_indices, K1.col_indices)
    problem = make_mini_problem()
    zero = np.zeros(problem.n_free)
    _, J0 = newton_system(problem, 1e-3, zero, zero, zero)
    _, J1 = newton_system(problem, 1e-3, zero, zero, a[problem.part.nodes])
    np.testing.assert_array_equal(J0.indices, J1.indices)
    np.testing.assert_array_equal(J0.data, J1.data)


def test_unreduced_stiffness_kills_constants():
    # with no Dirichlet nodes every node is a DoF
    rect = generate_rect_mesh(1.0, 1.0, 2, 2, HALF_CONDUCTOR)
    mesh = Mesh2D(rect.nodes, rect.elements, rect.tags, rect.region)
    _, K = assemble(mesh, _mats(), partition(mesh))
    assert K.shape == (mesh.n_nodes, mesh.n_nodes)
    ones = np.ones(mesh.n_nodes)
    np.testing.assert_allclose(K.matvec(ones), 0.0, atol=1e-10 * NU0)


def test_assembled_matrices_symmetric():
    # M and K at zero field, and K_cc rebuilt at a nonzero field
    mesh = make_mini_mesh()
    M, K = assemble(mesh, _mats(STEEL_BRAUER), partition(mesh))
    assert np.abs(K.toarray() - K.toarray().T).max() <= 1e-9
    assert np.abs(M.toarray() - M.toarray().T).max() <= 1e-12
    kmap = make_mini_problem(nonlinear=True).kcc_map
    a_c = np.random.default_rng(5).standard_normal(kmap.indptr.size - 1) * 0.01
    K_cc = kmap.rebuild(kmap.nu(kmap.b2(a_c))).toarray()
    assert np.abs(K_cc - K_cc.T).max() <= 1e-9


def test_missing_material_raises():
    mesh = generate_rect_mesh(1.0, 1.0, 2, 2, [(0.0, 1.0, 0.0, 1.0, RegionTag("conductor", 7))])
    with pytest.raises(AssemblyError, match="conductor region 7"):
        assemble(mesh, _mats(), partition(mesh))


def plate_scenario(name, nx=20):
    """The bundled scenario ``name`` at nx = ny = ``nx``."""
    doc = json.loads(Path(bundled_scenario_path(name)).read_text())
    doc["mesh"]["nx"] = doc["mesh"]["ny"] = nx
    return parse_scenario(doc)


def jittered_plate_scenario(tmp_path):
    """Bundled plate2d at nx = 20 with its interior nodes moved by up to
    0.35 of a cell in each coordinate, read back from a mesh file. No two
    of its elements have the same shape, so no entry rests on the exact
    zeros and repeats of the structured mesh."""
    scenario = plate_scenario("plate2d")
    mesh = scenario.build_mesh()
    h = scenario.mesh_spec["width"] / scenario.mesh_spec["nx"]
    nodes = mesh.nodes.copy()
    interior = np.setdiff1d(np.arange(mesh.n_nodes), list(mesh.boundary_nodes))
    nodes[interior] += np.random.default_rng(7).uniform(-0.35 * h, 0.35 * h,
                                                          (interior.size, 2))
    jittered = Mesh2D(nodes, mesh.elements, mesh.tags, mesh.region, mesh.boundary_nodes)
    assert np.unique(np.hstack(jittered.gradients), axis=0).shape[0] == mesh.n_elements
    save_mesh(jittered, tmp_path / "jittered.json")
    scenario.mesh_spec = {"file": str(tmp_path / "jittered.json")}
    return scenario


@pytest.mark.parametrize("make_scenario", [
    lambda tmp_path: plate_scenario("plate2d"),
    lambda tmp_path: plate_scenario("plate2d_linear"),
    jittered_plate_scenario,
], ids=["plate2d", "plate2d_linear", "jittered_file"])
def test_assembly_is_bitwise_the_reference(tmp_path, make_scenario):
    # the same entries reach scipy's COO -> CSR in the same order, so the
    # duplicates sum in the same order: every array byte for byte
    scenario = make_scenario(tmp_path)
    problem, table = scenario.build_problem(), scenario.materials
    mesh, part = problem.mesh, problem.part
    for new, ref in zip(assemble(mesh, table, part), reference_assemble(mesh, table, part)):
        assert new.nnz > 0
        for a, b in [(new.row_offsets, ref.row_offsets), (new.col_indices, ref.col_indices),
                     (new.values, ref.values)]:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _sparse_bytes(*mats):
    return sum(a.nbytes for m in mats for a in (m.row_offsets, m.col_indices, m.values))


@pytest.mark.parametrize("name", ["plate2d_linear", "plate2d"])
def test_setup_peak_memory_is_a_small_multiple_of_its_result(name):
    """Under tracemalloc, bundled ``name`` at nx = ny = 80, against the
    bytes of the M and K that assemble returns (0.55 MB for both): the peak
    of assemble stays below 8 times them and the peak of build_problem
    (mesh, assembly, blocks, probe map, and of plate2d the K_cc rebuild
    map) below 12 times. Measured 6.96 and 9.35 times (plate2d_linear), 6.94
    and 10.89 (plate2d), so the margins are 15%, 28%, 15% and 10%. Per-element
    copies of every material and of the geometry the mesh holds had the
    set-up peak at 10.1 and 13.7 times; the set-up that built both
    matrices' int64 DoF pairs and held all their element values at once
    peaked at 17.4 and 20.8 times (plate2d_linear). Runs in about 0.1 s each."""
    scenario = plate_scenario(name, nx=80)
    mesh, table = scenario.build_mesh(), scenario.materials
    part = partition(mesh)
    tracemalloc.start()
    try:
        M, K = assemble(mesh, table, part)
        assemble_peak = tracemalloc.get_traced_memory()[1]
        del M, K, mesh, part
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        problem = scenario.build_problem()
        setup_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kept = _sparse_bytes(*assemble(problem.mesh, table, problem.part))
    assert assemble_peak < 8 * kept
    assert setup_peak < 12 * kept


# ---------------------------------------------------------------- partition

def test_partition_all_air():
    mesh = generate_rect_mesh(1.0, 1.0, 3, 3)
    p = partition(mesh)
    assert p.n_c == 0
    assert p.n_n == (3 + 1) ** 2 - 12  # free interior nodes only


def test_partition_all_conductor():
    mesh = generate_rect_mesh(1.0, 1.0, 3, 3, [(0.0, 1.0, 0.0, 1.0, RegionTag("conductor", 0))])
    p = partition(mesh)
    assert p.n_n == 0
    assert p.n_c == 4


def test_partition_interface_nodes_conducting():
    # half-conductor strip: enumerate conductor-element adjacency directly
    mesh = generate_rect_mesh(1.0, 1.0, 4, 4, HALF_CONDUCTOR)
    p = partition(mesh)
    adjacent = set()
    for e, tag in enumerate(element_tags(mesh)):
        if tag.kind == "conductor":
            adjacent.update(int(i) for i in mesh.elements[e])
    expected_c = [n for n in adjacent if n not in mesh.boundary_nodes]
    got_c = sorted(p.nodes[:p.n_c])
    assert got_c == sorted(expected_c)


def test_partition_stable_order():
    mesh = make_mini_mesh()
    p = partition(mesh)
    assert np.all(np.diff(p.nodes[:p.n_c]) > 0)
    assert np.all(np.diff(p.nodes[p.n_c:]) > 0)
    assert p.n_c + p.n_n == p.n_free == p.nodes.size
    # positions inverts nodes, and to_full puts [a_c | a_n] back on them
    pos = p.positions(mesh.n_nodes)
    np.testing.assert_array_equal(pos[p.nodes], np.arange(p.n_free))
    assert np.all(pos[list(mesh.boundary_nodes)] == -1)
    a = np.random.default_rng(3).standard_normal(p.n_free)
    full = p.to_full(a[:p.n_c], a[p.n_c:], mesh.n_nodes)
    np.testing.assert_array_equal(full[p.nodes], a)
    assert np.all(full[pos < 0] == 0.0)


# ---------------------------------------------------------------- blocks

def test_extract_blocks_identity():
    mesh = generate_rect_mesh(1.0, 1.0, 4, 4, HALF_CONDUCTOR)
    p = partition(mesh)
    I = SparseMatrix.identity(p.n_free)
    blocks = extract_blocks(I, I, p)
    assert blocks.K_cn.nnz == 0
    np.testing.assert_array_equal(blocks.K_cc.toarray(), np.eye(p.n_c))
    np.testing.assert_array_equal(blocks.K_nn.toarray(), np.eye(p.n_n))


def test_extract_blocks_vs_dense_slicing_oracle():
    # a symmetric matrix built in node space and gathered at part.nodes is
    # in the [a_c | a_n] numbering: its blocks are the node-space matrix at
    # the conducting and nonconducting nodes
    mesh = generate_rect_mesh(1.0, 1.0, 4, 4, HALF_CONDUCTOR)
    p = partition(mesh)
    rng = np.random.default_rng(13)
    D = rng.standard_normal((mesh.n_nodes, mesh.n_nodes))
    D = 0.5 * (D + D.T)
    A = SparseMatrix.from_dense(D[np.ix_(p.nodes, p.nodes)])
    Z = SparseMatrix.from_dense(np.zeros((p.n_free, p.n_free)))
    blocks = extract_blocks(Z, A, p)
    c, n = p.nodes[:p.n_c], p.nodes[p.n_c:]
    np.testing.assert_array_equal(blocks.K_cc.toarray(), D[np.ix_(c, c)])
    np.testing.assert_array_equal(blocks.K_cn.toarray(), D[np.ix_(c, n)])
    np.testing.assert_array_equal(blocks.K_nn.toarray(), D[np.ix_(n, n)])
    # symmetry: the stored K_cn represents the (n, c) block transposed
    np.testing.assert_array_equal(blocks.K_nc.toarray(), D[np.ix_(n, c)])
    # of an assembled system, the four blocks are its contiguous corners
    M, K = assemble(mesh, _mats(), p)
    blocks = extract_blocks(M, K, p)
    Md, Kd, k = M.toarray(), K.toarray(), p.n_c
    np.testing.assert_array_equal(blocks.M_cc.toarray(), Md[:k, :k])
    np.testing.assert_array_equal(blocks.K_cc.toarray(), Kd[:k, :k])
    np.testing.assert_array_equal(blocks.K_cn.toarray(), Kd[:k, k:])
    np.testing.assert_array_equal(blocks.K_nn.toarray(), Kd[k:, k:])


def test_dae_structure_mass_blocks_vanish(mini_problem):
    p = mini_problem.part
    M, _ = assemble(mini_problem.mesh, mini_materials(), p)
    Md = M.toarray()
    assert np.abs(Md[p.idx_n, p.idx_n]).max() == 0
    assert np.abs(Md[p.idx_n, p.idx_c]).max() == 0
    # and M_cc is SPD
    w = np.linalg.eigvalsh(mini_problem.blocks.M_cc.toarray())
    assert w.min() > 0


def test_nonlinear_update_touches_only_conductor_entries():
    # the premise of the rebuild map, on the reassembly oracle: a nonzero
    # field changes only entries between conductor nodes; and the map's
    # rebuilt K_cc changes only those entries of the set-up K_cc
    mesh = make_mini_mesh()
    table = MaterialTable({0: STEEL_BRAUER}, AIR)
    rng = np.random.default_rng(21)
    a = rng.standard_normal(mesh.n_nodes) * 0.05
    p = partition(mesh)
    K0 = reassemble_stiffness(mesh, table, p, np.zeros(mesh.n_nodes))
    K1 = reassemble_stiffness(mesh, table, p, a)
    b0 = extract_blocks(K0, K0, p)
    b1 = extract_blocks(K1, K1, p)
    np.testing.assert_array_equal(b0.K_cn.toarray(), b1.K_cn.toarray())
    np.testing.assert_array_equal(b0.K_nn.toarray(), b1.K_nn.toarray())
    conductor_nodes = set()
    for e, tag in enumerate(element_tags(mesh)):
        if tag.kind == "conductor":
            conductor_nodes.update(int(i) for i in mesh.elements[e])
    problem = make_mini_problem(nonlinear=True)
    a_c = a[problem.part.nodes[:problem.part.n_c]]
    kmap = problem.kcc_map
    rebuilt = kmap.rebuild(kmap.nu(kmap.b2(a_c))).toarray()
    for diff in (np.abs(K0.toarray() - K1.toarray()),
                 np.abs(problem.blocks.K_cc.toarray() - rebuilt)):
        changed = np.nonzero(diff > 0)
        assert changed[0].size
        for i, j in zip(*changed):
            assert int(p.nodes[i]) in conductor_nodes and int(p.nodes[j]) in conductor_nodes


# ---------------------------------------------------------------- source

def _coil_mesh():
    return generate_rect_mesh(1.0, 1.0, 4, 4, [(0.25, 0.75, 0.25, 0.5, RegionTag("coil", 0))])


def test_source_zero_at_t0():
    mesh = _coil_mesh()
    p = partition(mesh)
    src = SourceSpec(0, i_max=10.0, tau=0.5, turns=3.0)
    np.testing.assert_array_equal(src.current(0.0) * source_pattern(mesh, src, p), 0.0)


def test_source_limit_proportional_to_imax():
    src = SourceSpec(0, i_max=10.0, tau=0.5, turns=3.0)
    assert src.current(1e3) == 10.0
    assert src.current(0.5 * np.log(2.0)) == pytest.approx(5.0, rel=1e-15)


def test_source_partition_of_unity():
    # with no Dirichlet nodes and no conductor the pattern covers every
    # node, and its entries sum to turns
    rect = _coil_mesh()
    mesh = Mesh2D(rect.nodes, rect.elements, rect.tags, rect.region)
    src = SourceSpec(0, i_max=10.0, tau=0.5, turns=3.0)
    pattern = source_pattern(mesh, src, partition(mesh))
    assert pattern.size == mesh.n_nodes
    assert pattern.sum() == pytest.approx(src.turns, rel=1e-12)


def test_source_rejects_coil_touching_conductor():
    # the coil shares interface nodes with the conductor
    mesh = generate_rect_mesh(1.0, 1.0, 4, 4, [(0.0, 1.0, 0.0, 1.0, RegionTag("coil", 0)),
                                               *HALF_CONDUCTOR])
    p = partition(mesh)
    src = SourceSpec(0, i_max=1.0, tau=1.0)
    with pytest.raises(AssemblyError, match="coil"):
        source_pattern(mesh, src, p)


# ---------------------------------------------------------------- compute_b2

def test_b2_zero_field():
    mesh = make_mini_mesh()
    np.testing.assert_array_equal(compute_b2(mesh, np.zeros(mesh.n_nodes)), 0.0)


def test_b2_linear_field():
    # a(x, y) = y gives B = (1, 0) everywhere, so b2 = 1
    mesh = generate_rect_mesh(1.0, 1.0, 3, 3)
    a = mesh.nodes[:, 1].copy()
    np.testing.assert_allclose(compute_b2(mesh, a), 1.0, rtol=1e-12)


def test_b2_matches_interpolant_gradient_oracle():
    # finite differences of the P1 interpolant inside each element
    mesh = generate_rect_mesh(1.0, 1.0, 4, 4)
    rng = np.random.default_rng(33)
    a = rng.standard_normal(mesh.n_nodes)
    b2 = compute_b2(mesh, a)

    def interp(eid, x, y):
        tri = mesh.elements[eid]
        pts = mesh.nodes[tri]
        T = np.array([[pts[1, 0] - pts[0, 0], pts[2, 0] - pts[0, 0]],
                      [pts[1, 1] - pts[0, 1], pts[2, 1] - pts[0, 1]]])
        lam12 = np.linalg.solve(T, np.array([x - pts[0, 0], y - pts[0, 1]]))
        lam = np.array([1.0 - lam12.sum(), lam12[0], lam12[1]])
        return float(lam @ a[tri])

    h = 1e-7
    for eid in range(mesh.n_elements):
        cx, cy = mesh.nodes[mesh.elements[eid]].mean(axis=0)
        dadx = (interp(eid, cx + h, cy) - interp(eid, cx - h, cy)) / (2 * h)
        dady = (interp(eid, cx, cy + h) - interp(eid, cx, cy - h)) / (2 * h)
        assert b2[eid] == pytest.approx(dadx ** 2 + dady ** 2, rel=1e-6, abs=1e-10)


def test_b2_wrong_length_rejected():
    mesh = make_mini_mesh()
    with pytest.raises(AssemblyError):
        compute_b2(mesh, np.zeros(3))


# ---------------------------------------------------------------- materials table

def test_material_table_rejects_nonlinear_air():
    with pytest.raises(AssemblyError, match="nonlinear"):
        MaterialTable({}, MaterialModel.brauer(0.0, 1.0, 1.0, 1.0))


def test_material_table_rejects_conducting_coil():
    with pytest.raises(AssemblyError):
        MaterialTable({}, AIR, {0: MaterialModel.linear(100.0, NU0)})


def test_material_table_rejects_nonconducting_conductor():
    with pytest.raises(AssemblyError):
        MaterialTable({0: MaterialModel.linear(0.0, 570.0)}, AIR)
