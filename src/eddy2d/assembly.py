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
For nonlinear problems, KccRebuildMap recomputes K_cc(a_c) on its fixed
pattern without reassembling.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse

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


def _b2(b: np.ndarray, c: np.ndarray, area: np.ndarray, ae: np.ndarray) -> np.ndarray:
    dx = (ae * b).sum(axis=1) / (2.0 * area)
    dy = (ae * c).sum(axis=1) / (2.0 * area)
    return dx * dx + dy * dy


def _bbcc(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(E, 3, 3) products b b^T + c c^T of the element stiffness."""
    return b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]


@dataclass(frozen=True)
class ElementData:
    """Per-element geometry and materials, resolved once per (mesh, materials).

    nodes: (E, 3) node indices; b, c: (E, 3) P1 gradient coefficients; area:
    signed areas. Materials are (kappa, k1, k2, k3) with linear laws encoded
    as k2 = k3 = 0, so nu = k1 + k2*exp(k3*b2) covers both laws vectorized.
    """

    nodes: np.ndarray
    b: np.ndarray
    c: np.ndarray
    area: np.ndarray
    kappa: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    k3: np.ndarray

    def subset(self, eids: np.ndarray) -> "ElementData":
        return ElementData(*(getattr(self, f.name)[eids] for f in fields(self)))

    def b2_local(self, ae: np.ndarray) -> np.ndarray:
        """|B|^2 per element from its (E, 3) nodal values: B = (da/dy, -da/dx)."""
        return _b2(self.b, self.c, self.area, ae)

    def nu(self, b2: np.ndarray) -> np.ndarray:
        return self.k1 + self.k2 * np.exp(self.k3 * b2)

    def dnu_db2(self, b2: np.ndarray) -> np.ndarray:
        return self.k2 * self.k3 * np.exp(self.k3 * b2)


def element_data(mesh: Mesh2D, materials: MaterialTable) -> ElementData:
    """Resolve every element's geometry and material once."""
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
    b, c, area = _element_geometry(mesh)
    return ElementData(mesh.elements, b, c, area, *rows.T.copy())


def compute_b2(mesh: Mesh2D, a_full: np.ndarray, data: ElementData | None = None) -> np.ndarray:
    """Per-element |B|^2 from the P1 gradient of the full nodal vector
    (Dirichlet zeros included), for every element of the mesh or for the
    elements of ``data``."""
    a_full = np.asarray(a_full, dtype=float)
    if a_full.shape != (mesh.n_nodes,):
        raise AssemblyError(f"expected full nodal vector of length {mesh.n_nodes}")
    if data is None:
        return _b2(*_element_geometry(mesh), a_full[mesh.elements])
    return data.b2_local(a_full[data.nodes])


def free_index(mesh: Mesh2D) -> tuple[np.ndarray, int]:
    """Free-DoF index of each mesh node (-1 on the Dirichlet boundary)."""
    free_mask = np.ones(mesh.n_nodes, dtype=bool)
    free_mask[list(mesh.boundary_nodes)] = False
    new_index = -np.ones(mesh.n_nodes, dtype=np.int64)
    n = int(free_mask.sum())
    new_index[free_mask] = np.arange(n)
    return new_index, n


def element_coo(nodes: np.ndarray, vals: np.ndarray, index: np.ndarray):
    """Rows, columns and values of (E, 3, 3) element matrices on the DoFs
    ``index[node]``, dropping entries that touch a node indexed -1."""
    rows = index[np.repeat(nodes, 3, axis=1).ravel()]     # i i i j j j k k k
    cols = index[np.tile(nodes, (1, 3)).ravel()]          # i j k i j k i j k
    keep = (rows >= 0) & (cols >= 0)
    return rows[keep], cols[keep], vals.reshape(-1)[keep]


def assemble(mesh: Mesh2D, materials: MaterialTable, a_full: np.ndarray | None = None,
             reduce: bool = True, data: ElementData | None = None
             ) -> tuple[SparseMatrix, SparseMatrix]:
    """Assemble (M, K) with nu from the element B^2 of ``a_full`` (zero field
    when None). ``reduce`` eliminates Dirichlet rows/columns by deletion.
    ``data`` is ``element_data(mesh, materials)`` when the caller holds it."""
    if data is None:
        data = element_data(mesh, materials)
    element_b2 = compute_b2(mesh, a_full, data) if a_full is not None \
        else np.zeros(mesh.n_elements)
    k_vals = _bbcc(data.b, data.c) * (data.nu(element_b2) / (4.0 * data.area))[:, None, None]
    m_vals = MASS_TEMPLATE[None, :, :] * (data.kappa * data.area)[:, None, None]

    if reduce:
        index, n = free_index(mesh)
    else:
        index, n = np.arange(mesh.n_nodes), mesh.n_nodes
    rows, cols, k_flat = element_coo(mesh.elements, k_vals, index)
    _, _, m_flat = element_coo(mesh.elements, m_vals, index)
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


@dataclass(frozen=True)
class KccRebuildMap:
    """K_cc(a_c) of a nonlinear problem on a CSR pattern fixed at setup.

    Every node of a conductor element is conducting or Dirichlet, so the
    conductor elements' B^2 depends on a_c alone (``dofs`` indexes a_c, with
    n_c standing for a Dirichlet zero). Nonconducting elements are linear, so
    their share of K_cc is the constant ``base``. A rebuild scales each
    conductor element's geometric stiffness (b b^T + c c^T) / (4 A) by its
    nu and sums the entries into their slots of the data array with one
    bincount. Entries that are geometrically zero get no slot.
    """

    conductor: ElementData
    dofs: np.ndarray           # (E_c, 3) a_c index of each conductor-element node
    entry_element: np.ndarray  # conductor element of each stored entry
    entry_geom: np.ndarray     # its geometric stiffness
    entry_slot: np.ndarray     # its slot in the CSR data array
    base: np.ndarray           # nonconducting contribution per slot
    indptr: np.ndarray
    indices: np.ndarray

    def rebuild(self, a_c: np.ndarray) -> SparseMatrix:
        ae = np.append(a_c, 0.0)[self.dofs]
        nu_e = self.conductor.nu(self.conductor.b2_local(ae))
        vals = self.base + np.bincount(self.entry_slot,
                                       weights=self.entry_geom * nu_e[self.entry_element],
                                       minlength=self.base.size)
        n_c = self.indptr.size - 1
        return SparseMatrix(scipy.sparse.csr_matrix((vals, self.indices, self.indptr),
                                                    shape=(n_c, n_c)))


def kcc_rebuild_map(mesh: Mesh2D, part: DofPartition, data: ElementData) -> KccRebuildMap:
    n_c = part.n_c
    index = -np.ones(mesh.n_nodes, dtype=np.int64)
    index[part.free_nodes[part.idx_c]] = np.arange(n_c)
    is_cond = np.array([tag.kind == "conductor" for tag in mesh.element_region], dtype=bool)
    cond, other = data.subset(is_cond), data.subset(~is_cond)

    # conductor entries by their position src in the raveled (E_c, 3, 3) stiffness
    geom = (_bbcc(cond.b, cond.c) / (4.0 * cond.area)[:, None, None]).ravel()
    rows_c, cols_c, src = element_coo(cond.nodes, np.arange(geom.size), index)
    nz = geom[src] != 0.0
    rows_c, cols_c, src = rows_c[nz], cols_c[nz], src[nz]
    k_other = _bbcc(other.b, other.c) \
        * (other.nu(np.zeros(other.area.size)) / (4.0 * other.area))[:, None, None]
    rows_o, cols_o, v = element_coo(other.nodes, k_other, index)
    nz = v != 0.0
    rows_o, cols_o, v = rows_o[nz], cols_o[nz], v[nz]

    # sorted unique (row, col) keys are the CSR order of the pattern
    uniq, slot = np.unique(np.concatenate([rows_c * n_c + cols_c, rows_o * n_c + cols_o]),
                           return_inverse=True)
    pattern = scipy.sparse.csr_matrix(
        (np.ones(uniq.size), (uniq // n_c, uniq % n_c)), shape=(n_c, n_c))
    base = np.bincount(slot[src.size:], weights=v, minlength=uniq.size)
    dofs = index[cond.nodes]
    return KccRebuildMap(cond, np.where(dofs >= 0, dofs, n_c), src // 9, geom[src],
                         slot[:src.size], base, pattern.indptr, pattern.indices)


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
