"""FEM assembly of the semi-discrete system and its conducting/nonconducting
block structure.

Linear (P1) triangles on the out-of-plane vector potential a. The weak form
of kappa*da/dt - div(nu grad a) = J_z gives the mass matrix M (nonzero only
where kappa > 0) and the stiffness matrix K (with nu evaluated per element
from B^2, which is constant on a P1 triangle, so midpoint quadrature is
exact). Dirichlet rows/columns are eliminated, preserving symmetry and
definiteness. DoFs are then permuted into the conducting set c (nodes
adjacent to at least one conductor element) followed by the nonconducting
set n; interface nodes land in c, which keeps M_cc positive definite.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AssemblyError
from .linalg import SparseMatrix
from .materials import MaterialModel
from .mesh import Mesh2D, RegionTag, signed_areas

MASS_TEMPLATE = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


@dataclass
class MaterialTable:
    """Materials per region: conductor entries are keyed by id; air and coil
    regions share linear, zero-conductivity models. Ferromagnetic laws are
    allowed on conductor regions only, which keeps K_cn and K_nn constant
    during a run (required by the right-hand-side recycling machinery)."""

    conductors: dict[int, MaterialModel]
    air: MaterialModel
    coils: dict[int, MaterialModel] = field(default_factory=dict)

    def __post_init__(self):
        for rid, m in self.conductors.items():
            if m.kappa <= 0:
                raise AssemblyError(f"conductor {rid} must have kappa > 0, got {m.kappa}")
        for name, m in [("air", self.air)] + [(f"coil {rid}", m) for rid, m in self.coils.items()]:
            if m.kappa != 0:
                raise AssemblyError(f"nonconducting region {name} must have kappa = 0")
            if m.law != "linear":
                raise AssemblyError(f"nonlinear material on nonconducting region {name}")

    def lookup(self, tag: RegionTag) -> MaterialModel:
        if tag.kind == "conductor":
            try:
                return self.conductors[tag.id]
            except KeyError:
                raise AssemblyError(f"missing material for conductor region {tag.id}") from None
        if tag.kind == "coil":
            return self.coils.get(tag.id, self.air)
        return self.air


@dataclass
class DofPartition:
    """Permutation of the free (non-Dirichlet) DoFs into [conducting | nonconducting].

    free_nodes[i] is the mesh node of free DoF i; perm[j] is the free DoF at
    position j of the permuted ordering. Both sets keep ascending original
    index order (stable partition).
    """

    free_nodes: np.ndarray
    perm: np.ndarray
    n_c: int
    n_n: int

    @property
    def n_free(self) -> int:
        return self.n_c + self.n_n

    @property
    def idx_c(self) -> np.ndarray:
        return self.perm[: self.n_c]

    @property
    def idx_n(self) -> np.ndarray:
        return self.perm[self.n_c:]

    def to_full(self, a_c: np.ndarray, a_n: np.ndarray, n_nodes: int) -> np.ndarray:
        """Scatter (a_c, a_n) into a full node vector with Dirichlet zeros."""
        a_free = np.zeros(self.n_free)
        a_free[self.perm] = np.concatenate([a_c, a_n])
        full = np.zeros(n_nodes)
        full[self.free_nodes] = a_free
        return full


@dataclass
class SystemBlocks:
    """Blocks of the permuted system."""

    M_cc: SparseMatrix
    K_cc: SparseMatrix
    K_cn: SparseMatrix
    K_nn: SparseMatrix
    _K_nc: SparseMatrix | None = None

    @property
    def K_nc(self) -> SparseMatrix:
        if self._K_nc is None:
            self._K_nc = self.K_cn.transpose()
        return self._K_nc

    @property
    def n_c(self) -> int:
        return self.K_cn.nrows

    @property
    def n_n(self) -> int:
        return self.K_cn.ncols


@dataclass(frozen=True)
class SourceSpec:
    """Exponential-ramp coil drive I(t) = i_max * (1 - exp(-t/tau)) with a
    uniform out-of-plane current density over the coil region."""

    coil_id: int
    i_max: float
    tau: float
    turns: float = 1.0

    def __post_init__(self):
        if self.tau <= 0:
            raise AssemblyError(f"source tau must be > 0, got {self.tau}")

    def current(self, t: float) -> float:
        return self.i_max * (1.0 - np.exp(-t / self.tau))


def _triangle_coeffs(nodes3: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    x, y = nodes3[:, 0], nodes3[:, 1]
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))
    return b, c, area


def element_stiffness(nodes3: np.ndarray, nu_val: float) -> np.ndarray:
    """P1 stiffness nu * (b_i b_j + c_i c_j) / (4 A); symmetric, zero row sums."""
    b, c, area = _triangle_coeffs(np.asarray(nodes3, dtype=float))
    if area <= 0:
        raise AssemblyError(f"degenerate triangle with signed area {area:.3e}")
    return nu_val * (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)


def element_mass(nodes3: np.ndarray, kappa: float) -> np.ndarray:
    """Consistent P1 mass kappa * A / 12 * [[2,1,1],[1,2,1],[1,1,2]]."""
    if kappa < 0:
        raise AssemblyError(f"kappa must be >= 0, got {kappa}")
    _, _, area = _triangle_coeffs(np.asarray(nodes3, dtype=float))
    if area <= 0:
        raise AssemblyError(f"degenerate triangle with signed area {area:.3e}")
    return kappa * area * MASS_TEMPLATE


def _element_geometry(mesh: Mesh2D):
    p = mesh.nodes[mesh.elements]  # (E, 3, 2)
    x, y = p[:, :, 0], p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = signed_areas(mesh.nodes, mesh.elements)
    return b, c, area


def compute_b2(mesh: Mesh2D, a_full: np.ndarray) -> np.ndarray:
    """Per-element |B|^2 from the P1 gradient of the full nodal vector
    (Dirichlet zeros included): B = (da/dy, -da/dx)."""
    a_full = np.asarray(a_full, dtype=float)
    if a_full.shape != (mesh.n_nodes,):
        raise AssemblyError(f"expected full nodal vector of length {mesh.n_nodes}")
    b, c, area = _element_geometry(mesh)
    ae = a_full[mesh.elements]
    dx = (ae * b).sum(axis=1) / (2.0 * area)
    dy = (ae * c).sum(axis=1) / (2.0 * area)
    return dx * dx + dy * dy


def _element_material_arrays(mesh: Mesh2D, materials: MaterialTable):
    """Per-element (kappa, k1, k2, k3) with linear laws encoded as k2 = 0,
    so nu_e = k1 + k2*exp(k3*b2) covers both laws vectorized."""
    memo: dict[RegionTag, tuple[float, float, float, float]] = {}
    rows = np.empty((mesh.n_elements, 4))
    for e, tag in enumerate(mesh.element_region):
        entry = memo.get(tag)
        if entry is None:
            m = materials.lookup(tag)
            if m.law == "linear":
                entry = (m.kappa, m.nu_const, 0.0, 0.0)
            else:
                entry = (m.kappa, m.k1, m.k2, m.k3)
            memo[tag] = entry
        rows[e] = entry
    return rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]


def element_nu(mesh: Mesh2D, materials: MaterialTable, element_b2: np.ndarray) -> np.ndarray:
    _, k1, k2, k3 = _element_material_arrays(mesh, materials)
    return k1 + k2 * np.exp(k3 * np.asarray(element_b2, dtype=float))


def element_kappa(mesh: Mesh2D, materials: MaterialTable) -> np.ndarray:
    kappa, _, _, _ = _element_material_arrays(mesh, materials)
    return kappa


def assemble(mesh: Mesh2D, materials: MaterialTable, a_full: np.ndarray | None = None,
             reduce: bool = True) -> tuple[SparseMatrix, SparseMatrix]:
    """Assemble (M, K) with nu from the element B^2 of ``a_full`` (zero field
    when None). ``reduce`` eliminates Dirichlet rows/columns by deletion."""
    b, c, area = _element_geometry(mesh)
    element_b2 = compute_b2(mesh, a_full) if a_full is not None else np.zeros(mesh.n_elements)
    nu_e = element_nu(mesh, materials, element_b2)
    kap_e = element_kappa(mesh, materials)

    k_vals = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) \
        * (nu_e / (4.0 * area))[:, None, None]
    m_vals = MASS_TEMPLATE[None, :, :] * (kap_e * area)[:, None, None]

    rows = np.repeat(mesh.elements, 3, axis=1).ravel()        # i i i j j j k k k
    cols = np.tile(mesh.elements, (1, 3)).ravel()             # i j k i j k i j k
    k_flat = k_vals.reshape(-1)
    m_flat = m_vals.reshape(-1)

    n = mesh.n_nodes
    if reduce:
        free_mask = np.ones(n, dtype=bool)
        free_mask[list(mesh.boundary_nodes)] = False
        new_index = -np.ones(n, dtype=np.int64)
        new_index[free_mask] = np.arange(free_mask.sum())
        keep = free_mask[rows] & free_mask[cols]
        rows, cols = new_index[rows[keep]], new_index[cols[keep]]
        k_flat, m_flat = k_flat[keep], m_flat[keep]
        n = int(free_mask.sum())

    K = SparseMatrix.from_coo(n, n, rows, cols, k_flat)
    M = SparseMatrix.from_coo(n, n, rows, cols, m_flat)
    return M, K


def partition(mesh: Mesh2D) -> DofPartition:
    """Split the free DoFs into conducting (adjacent to >= 1 conductor
    element) and nonconducting sets, each in ascending node order."""
    conducting_nodes = np.zeros(mesh.n_nodes, dtype=bool)
    for e, tag in enumerate(mesh.element_region):
        if tag.kind == "conductor":
            conducting_nodes[mesh.elements[e]] = True

    free_mask = np.ones(mesh.n_nodes, dtype=bool)
    free_mask[list(mesh.boundary_nodes)] = False
    free_nodes = np.nonzero(free_mask)[0]

    is_c = conducting_nodes[free_nodes]
    order_c = np.nonzero(is_c)[0]
    order_n = np.nonzero(~is_c)[0]
    perm = np.concatenate([order_c, order_n])
    return DofPartition(free_nodes, perm, int(order_c.size), int(order_n.size))


def extract_blocks(M: SparseMatrix, K: SparseMatrix, p: DofPartition) -> SystemBlocks:
    """Slice the permuted blocks M_cc, K_cc, K_cn, K_nn out of M and K."""
    if M.shape != (p.n_free, p.n_free) or K.shape != (p.n_free, p.n_free):
        raise AssemblyError(
            f"matrix shapes {M.shape}, {K.shape} do not match partition size {p.n_free}"
        )
    idx_c, idx_n = p.idx_c, p.idx_n
    Ks = K.scipy()
    Ms = M.scipy()
    K_cc = SparseMatrix(Ks[idx_c][:, idx_c])
    K_cn = SparseMatrix(Ks[idx_c][:, idx_n])
    K_nn = SparseMatrix(Ks[idx_n][:, idx_n])
    M_cc = SparseMatrix(Ms[idx_c][:, idx_c])
    return SystemBlocks(M_cc, K_cc, K_cn, K_nn)


def coil_elements(mesh: Mesh2D, coil_id: int) -> np.ndarray:
    eids = [e for e, tag in enumerate(mesh.element_region)
            if tag.kind == "coil" and tag.id == coil_id]
    if not eids:
        raise AssemblyError(f"no elements tagged coil:{coil_id}")
    return np.asarray(eids, dtype=np.int64)


def source_load_full(mesh: Mesh2D, src: SourceSpec, t: float) -> np.ndarray:
    """Unreduced load vector over all nodes: J_z = I(t)*turns/coil_area,
    each coil element contributing J_z * A_e / 3 per node. The entries sum
    to I(t)*turns (partition of unity)."""
    eids = coil_elements(mesh, src.coil_id)
    areas = signed_areas(mesh.nodes, mesh.elements)[eids]
    coil_area = float(areas.sum())
    jz = src.current(t) * src.turns / coil_area
    load = np.zeros(mesh.n_nodes)
    np.add.at(load, mesh.elements[eids].ravel(), np.repeat(jz * areas / 3.0, 3))
    return load


def source_pattern(mesh: Mesh2D, src: SourceSpec, p: DofPartition) -> np.ndarray:
    """Unit-current load restricted to the nonconducting partition, so that
    j_sn(t) = I(t) * pattern. Errors if the coil support touches the
    conducting set (the partitioned system assumes excitations live entirely
    in nonconducting DoFs)."""
    eids = coil_elements(mesh, src.coil_id)
    areas = signed_areas(mesh.nodes, mesh.elements)[eids]
    jz_unit = src.turns / float(areas.sum())
    load = np.zeros(mesh.n_nodes)
    np.add.at(load, mesh.elements[eids].ravel(), np.repeat(jz_unit * areas / 3.0, 3))

    coil_nodes = np.unique(mesh.elements[eids].ravel())
    conducting = np.zeros(mesh.n_nodes, dtype=bool)
    conducting[p.free_nodes[p.idx_c]] = True
    if np.any(conducting[coil_nodes]):
        raise AssemblyError(
            "coil region overlaps the conductor support; excitation must lie "
            "entirely in the nonconducting partition"
        )
    return load[p.free_nodes[p.idx_n]]


def assemble_source(mesh: Mesh2D, src: SourceSpec, t: float, p: DofPartition) -> np.ndarray:
    """Source vector at time t, restricted to the nonconducting partition."""
    return src.current(t) * source_pattern(mesh, src, p)
