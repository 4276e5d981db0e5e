"""Shared fixtures: compact problems small enough for dense oracles, and the
out-of-range scenario values that parsing must reject."""
import numpy as np
import pytest

from eddy2d.assembly import MASS_TEMPLATE, MaterialTable, SourceSpec
from eddy2d.integrate import discretize
from eddy2d.linalg import SparseMatrix
from eddy2d.materials import MaterialModel, NU0
from eddy2d.mesh import Mesh2D, RegionTag, _codes, generate_rect_mesh

STEEL_LINEAR = MaterialModel.linear(5e7, 570.0)
STEEL_BRAUER = MaterialModel.brauer(5e7, 520.6, 49.4, 1.46)
AIR = MaterialModel.linear(0.0, NU0)


# 0.1 x 0.1 domain, 10x10 cells: coil low, one conductor block above,
# probe strip on top of the conductor
MINI_REGIONS = [
    (0.02, 0.08, 0.01, 0.03, RegionTag("coil", 0)),
    (0.02, 0.08, 0.05, 0.08, RegionTag("conductor", 0)),
    (0.02, 0.08, 0.08, 0.09, RegionTag("air", 0, probe=0)),
]


def tagged_mesh(nodes, elements, regions, boundary=frozenset()) -> Mesh2D:
    """The Mesh2D whose element e has the tag regions[e]; equal tags share a code."""
    return Mesh2D(nodes, elements, *_codes(regions), boundary)


def element_tags(mesh) -> list[RegionTag]:
    """Each element's tag, in element order."""
    return [mesh.tags[code] for code in mesh.region.tolist()]


def make_mini_mesh():
    return generate_rect_mesh(0.1, 0.1, 10, 10, MINI_REGIONS)


def mini_materials(nonlinear=False) -> MaterialTable:
    return MaterialTable({0: STEEL_BRAUER if nonlinear else STEEL_LINEAR}, AIR)


def make_mini_problem(nonlinear=False):
    return discretize(make_mini_mesh(), mini_materials(nonlinear), probe_id=0)


def make_mini_source(i_max=400.0, tau=0.05, turns=100.0):
    return SourceSpec(0, i_max=i_max, tau=tau, turns=turns)


@pytest.fixture
def mini_problem():
    return make_mini_problem(nonlinear=False)


@pytest.fixture
def mini_problem_nonlinear():
    return make_mini_problem(nonlinear=True)


@pytest.fixture
def mini_source():
    return make_mini_source()


def dense_kS(blocks) -> np.ndarray:
    """Dense oracle K_S = K_cn K_nn^-1 K_cn^T (regular K_nn)."""
    K_cn = blocks.K_cn.toarray()
    K_nn = blocks.K_nn.toarray()
    return K_cn @ np.linalg.solve(K_nn, K_cn.T)


def element_materials(mesh, materials) -> np.ndarray:
    """Each element's (kappa, k1, k2, k3), as (4, E) rows: its tag's
    MaterialModel, looked up here element by element, and the model's
    coefficients."""
    def model(tag):
        if tag.kind == "conductor":
            return materials.conductors[tag.id]
        if tag.kind == "coil":
            return materials.coils.get(tag.id, materials.air)
        return materials.air
    return np.array([(m.kappa, *m.coefficients) for m in map(model, element_tags(mesh))],
                    dtype=float).reshape(-1, 4).T


def reassemble_stiffness(mesh, materials, part, a_full) -> SparseMatrix:
    """Oracle K(a) on the DoFs of ``part``, from the element formulas alone:
    each element's nu(B^2) (b b^T + c c^T) / (4 A), with b, c from its node
    coordinates, nu from its (k1, k2, k3) (element_materials) and B^2 from
    its three entries of the full nodal vector a_full (Dirichlet zeros
    included), summed as COO duplicates; Dirichlet rows and columns are
    left out."""
    x, y = np.moveaxis(mesh.nodes[mesh.elements], 2, 0)  # each (E, 3)
    b = np.roll(y, -1, axis=1) - np.roll(y, -2, axis=1)  # y_j - y_k
    c = np.roll(x, -2, axis=1) - np.roll(x, -1, axis=1)  # x_k - x_j
    two_area = 2.0 * mesh.areas
    a_e = np.asarray(a_full, dtype=float)[mesh.elements]
    b2 = ((a_e * b).sum(axis=1) / two_area) ** 2 + ((a_e * c).sum(axis=1) / two_area) ** 2
    _, k1, k2, k3 = element_materials(mesh, materials)
    nu = k1 + k2 * np.exp(k3 * b2)
    k_e = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) \
        * (nu / (2.0 * two_area))[:, None, None]
    dof = part.positions(mesh.n_nodes)[mesh.elements]
    rows, cols = np.repeat(dof, 3, axis=1).ravel(), np.tile(dof, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    return SparseMatrix.from_coo(part.n_free, part.n_free, rows[keep], cols[keep],
                                 k_e.ravel()[keep])


def reference_assemble(mesh, materials, part) -> tuple[SparseMatrix, SparseMatrix]:
    """Oracle (M, K) at zero field, by the plainest route: both matrices'
    (E, 3, 3) element values at once, and int64 DoF pairs built once per
    matrix, each fed to scipy's COO -> CSR conversion in raveled element
    order with Dirichlet entries left out. assemble must match it byte for
    byte, since the order in which duplicates are summed shows in the bits."""
    (b, c), area = mesh.gradients, mesh.areas
    kappa, k1, k2, k3 = element_materials(mesh, materials)
    bbcc = b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]
    k_vals = bbcc * ((k1 + k2 * np.exp(k3 * 0.0)) / (4.0 * area))[:, None, None]
    m_vals = MASS_TEMPLATE[None, :, :] * (kappa * area)[:, None, None]
    index, n = part.positions(mesh.n_nodes), part.n_free

    def element_coo(vals):
        rows = index[np.repeat(mesh.elements, 3, axis=1).ravel()]  # i i i j j j k k k
        cols = index[np.tile(mesh.elements, (1, 3)).ravel()]       # i j k i j k i j k
        keep = (rows >= 0) & (cols >= 0)
        return rows[keep], cols[keep], vals.reshape(-1)[keep]

    rows, cols, k_flat = element_coo(k_vals)
    _, _, m_flat = element_coo(m_vals)
    K = SparseMatrix.from_coo(n, n, rows, cols, k_flat)
    M = SparseMatrix.from_coo(n, n, rows, cols, m_flat)
    return M, K


def reassembled_kcc(problem, materials, a_c, a_n) -> SparseMatrix:
    """The K_cc corner of reassemble_stiffness at the state (a_c, a_n)."""
    part = problem.part
    K = reassemble_stiffness(problem.mesh, materials, part,
                             part.to_full(a_c, a_n, problem.mesh.n_nodes))
    return SparseMatrix(K.scipy()[part.idx_c, part.idx_c])


NAN, INF = float("nan"), float("inf")

# (key path, value) pairs that parsing must reject with a ConfigError that
# names the key path: non-finite, out of the option's range, not an integer
# (bools included) where one is required, a dt_override that leaves no
# step of t_end or more than MAX_STEPS of them, a newton_max_iter of 0,
# which leaves every implicit step unsolved, a retired option
# (solver.mcc_tol), which is an unknown key whatever its value, a mesh
# over the element cap (refused before anything is allocated), or a
# material or source number over MAX_MAGNITUDE, which would overflow the
# squared norms of the first solves
BAD_SCENARIO_VALUES = [
    ("t_end", NAN), ("t_end", INF), ("t_end", 0.0), ("t_end", -1.0),
    ("t_end", True), ("t_end", "0.75"),
    ("solver.dt_override", NAN), ("solver.dt_override", INF),
    ("solver.dt_override", 0.0), ("solver.dt_override", -1.0),
    ("solver.dt_override", 10.0), ("solver.dt_override", 1e-12),
    ("solver.pcg_tol", NAN), ("solver.pcg_tol", 1.0), ("solver.pcg_tol", "1e-6"),
    ("solver.mcc_tol", NAN), ("solver.mcc_tol", 2.0),
    ("solver.power_tol", INF), ("solver.power_tol", 0.0),
    ("solver.newton_tol", NAN), ("solver.newton_tol", 1.5),
    ("solver.safety", 3.0), ("solver.safety", 0.0), ("solver.safety", NAN),
    ("solver.safety", True),
    ("solver.tol_update", NAN), ("solver.tol_update", INF), ("solver.tol_update", -1e-3),
    ("solver.tol_pod", NAN), ("solver.tol_pod", INF), ("solver.tol_pod", 0.0),
    ("solver.power_max_iter", INF),
    ("solver.seed", True), ("solver.cspe_window", True), ("solver.output_every", 2.5),
    ("solver.seed", -1), ("solver.pcg_max_iter", -5), ("solver.newton_max_iter", -1),
    ("solver.newton_max_iter", 0),
    ("solver.power_max_iter", 0), ("solver.power_max_iter", 1),
    ("solver.cspe_window", 0), ("solver.pod_window", 0), ("solver.output_every", 0),
    ("solver.snapshot_every", 0),
    ("mesh.nx", INF), ("mesh.nx", "20"), ("mesh.nx", 20.5), ("mesh.nx", True),
    ("mesh.nx", 1e300), ("mesh.nx", 2**63), ("mesh.ny", 2**63),
    ("mesh.ny", 0), ("mesh.width", NAN), ("mesh.height", -0.1),
    ("mesh.regions", 5), ("mesh.regions", [5]),
    ("probe", NAN), ("probe", True), ("probe", "0"),
    ("materials.conductor:0.kappa", NAN), ("materials.conductor:0.kappa", INF),
    ("materials.conductor:0.nu", NAN), ("materials.conductor:0.nu", INF),
    ("materials.conductor:0.k1", NAN), ("materials.conductor:0.k2", INF),
    ("materials.conductor:0.k3", NAN),
    ("materials.conductor:0.nu", 1e300), ("materials.conductor:0.nu", 1e155),
    ("materials.conductor:0.k1", 1e300), ("materials.conductor:0.k2", -1e300),
    ("materials.conductor:0.kappa", 1e31),
    ("source.i_max", NAN), ("source.i_max", INF), ("source.tau", NAN),
    ("source.turns", INF), ("source.coil", True),
    ("source.i_max", 1e300), ("source.i_max", -1e300), ("source.turns", 1e300),
]


def set_key_path(doc: dict, path: str, value) -> None:
    """Set the dotted key path in a scenario document, creating sections."""
    *parents, leaf = path.split(".")
    for key in parents:
        doc = doc.setdefault(key, {})
    doc[leaf] = value


def key_paths(node, path=()):
    """The path of every dict key and list index below ``node``."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from key_paths(child, path + (key,))
