"""FEM assembly of the semi-discrete system and its conducting/nonconducting
block structure.

Linear (P1) triangles on the out-of-plane vector potential a. The weak form
of kappa*da/dt - div(nu grad a) = J_z gives the mass matrix M (nonzero only
where kappa > 0) and the stiffness matrix K (with nu evaluated per element
from B^2, which is constant on a P1 triangle, so midpoint quadrature is
exact). Dirichlet rows/columns are eliminated, preserving symmetry and
definiteness. The DoFs are numbered once, before assembly, as [a_c | a_n]:
the conducting set c (nodes adjacent to at least one conductor element)
followed by the nonconducting set n; interface nodes land in c, which keeps
M_cc positive definite. M and K are assembled straight into that numbering,
so the blocks are contiguous slices.
Geometry is read from the mesh by element ids, materials per region
(MaterialTable.tag_table). For nonlinear problems, KccRebuildMap
recomputes K_cc(a_c) on its fixed pattern without reassembling, from its
conductor elements' laws. The field evaluations a time step repeats (the
conductor B^2 of a rebuild, the probe's |B|) are B2Maps: compiled CSR
products built once at set-up.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import AssemblyError, SolverError
from .linalg import SparseMatrix
from .materials import MaterialModel
from .mesh import Mesh2D, RegionTag

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

    def tag_table(self, tags: list[RegionTag]) -> np.ndarray:
        """(T, 4) rows (kappa, *MaterialModel.coefficients) of each tag's
        material; Mesh2D.region indexes it by element."""
        return np.array([(m.kappa, *m.coefficients) for m in map(self.lookup, tags)],
                        dtype=float).reshape(-1, 4)


@dataclass
class DofPartition:
    """The one DoF numbering of the system, [conducting | nonconducting].

    nodes[j] is the mesh node of DoF j: the n_c conducting free nodes, then
    the n_n nonconducting ones, each set in ascending node order. Dirichlet
    nodes have no DoF.
    """

    nodes: np.ndarray
    n_c: int
    n_n: int

    @property
    def n_free(self) -> int:
        return self.n_c + self.n_n

    @property
    def idx_c(self) -> slice:
        return slice(0, self.n_c)

    @property
    def idx_n(self) -> slice:
        return slice(self.n_c, self.n_free)

    def positions(self, n_nodes: int) -> np.ndarray:
        """DoF of each mesh node (-1 on the Dirichlet boundary)."""
        pos = -np.ones(n_nodes, dtype=np.int64)
        pos[self.nodes] = np.arange(self.n_free)
        return pos

    def to_full(self, a_c: np.ndarray, a_n: np.ndarray, n_nodes: int) -> np.ndarray:
        """Scatter (a_c, a_n) into a full node vector with Dirichlet zeros."""
        full = np.zeros(n_nodes)
        full[self.nodes] = np.concatenate([a_c, a_n])
        return full


@dataclass
class SystemBlocks:
    """Blocks of the system in the [a_c | a_n] numbering."""

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


def _bbcc(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(E, 3, 3) products b b^T + c c^T of the element stiffness."""
    return b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]


@dataclass(frozen=True)
class B2Map:
    """|B|^2 of a fixed set of elements as one compiled product on a DoF
    vector. Row e of ``grad`` holds the element's b and row E + e its c, in
    local node order with Dirichlet columns left out, so ``grad`` x gives
    the sums of compute_b2, bitwise; the rest is its arithmetic.
    A (rows, n) block of DoF vectors gives the (rows, E) block of their
    |B|^2, C-contiguous, each row bitwise that of its vector."""

    grad: SparseMatrix     # (2 E, n)
    two_area: np.ndarray   # (E,) 2 A

    def __call__(self, x: np.ndarray) -> np.ndarray:
        n = self.two_area.size
        if x.ndim == 1:
            g, two_area = self.grad.matvec(x), self.two_area
        else:
            g, two_area = self.grad.matmat(x.T), self.two_area[:, None]
        dx = g[:n] / two_area
        dy = g[n:] / two_area
        b2 = dx * dx + dy * dy
        return b2 if x.ndim == 1 else np.ascontiguousarray(b2.T)


def b2_map(mesh: Mesh2D, eids: np.ndarray, index: np.ndarray, n: int) -> B2Map:
    """The B2Map of the elements ``eids`` on the n-vector that holds each
    node's value at ``index[node]`` (-1 for a Dirichlet zero)."""
    b, c = mesh.gradients
    cols = index[mesh.elements[eids]]
    grad = SparseMatrix.from_rows(n, np.concatenate([cols, cols]),
                                  np.concatenate([b[eids], c[eids]]))
    return B2Map(grad, 2.0 * mesh.areas[eids])


def compute_b2(mesh: Mesh2D, a_full: np.ndarray) -> np.ndarray:
    """Per-element |B|^2 from the P1 gradient of the full nodal vector
    (Dirichlet zeros included): B = (da/dy, -da/dx)."""
    a_full = np.asarray(a_full, dtype=float)
    if a_full.shape != (mesh.n_nodes,):
        raise AssemblyError(f"expected full nodal vector of length {mesh.n_nodes}")
    (b, c), ae = mesh.gradients, a_full[mesh.elements]
    dx = (ae * b).sum(axis=1) / (2.0 * mesh.areas)
    dy = (ae * c).sum(axis=1) / (2.0 * mesh.areas)
    return dx * dx + dy * dy


def element_pattern(nodes: np.ndarray, index: np.ndarray):
    """Rows and columns (dtype of ``index``) of the raveled (E, 3, 3) element matrices
    on the DoFs ``index[node]``, less entries on a node indexed -1, and the kept mask."""
    dof = index[nodes]
    free = dof >= 0
    keep = (free[:, :, None] & free[:, None, :]).ravel()
    rows = np.repeat(dof, 3, axis=1).ravel()[keep]     # i i i j j j k k k
    return rows, np.tile(dof, (1, 3)).ravel()[keep], keep  # i j k i j k i j k


def partition(mesh: Mesh2D) -> DofPartition:
    """Number the free DoFs: conducting nodes (of >= 1 conductor element)
    first, then nonconducting ones, each set in ascending node order."""
    conducting = np.zeros(mesh.n_nodes, dtype=bool)
    conducting[mesh.elements[mesh.region_mask(lambda t: t.kind == "conductor")]] = True
    free = np.ones(mesh.n_nodes, dtype=bool)
    free[list(mesh.boundary_nodes)] = False
    nodes_c = np.flatnonzero(free & conducting)
    nodes_n = np.flatnonzero(free & ~conducting)
    return DofPartition(np.concatenate([nodes_c, nodes_n]), nodes_c.size, nodes_n.size)


def assemble(mesh: Mesh2D, materials: MaterialTable,
             part: DofPartition) -> tuple[SparseMatrix, SparseMatrix]:
    """Assemble (M, K) at zero field, where nu = k1 + k2, on the DoFs of
    ``part``; Dirichlet rows/columns are eliminated by deletion. K(a) of a
    nonlinear problem is these blocks with K_cc rebuilt by KccRebuildMap.

    Memory: M and K share one int32 pattern, which scipy's COO keeps without
    a copy, and M (the smaller) is converted before K's values exist. The
    peak is under 8 times the bytes of the M and K returned (plate2d_linear
    at nx = 80, tracemalloc; tests/test_assembly.py)."""
    n = part.n_free
    index = part.positions(mesh.n_nodes).astype(np.int32 if n < 2**31 else np.int64)
    kappa, k1, k2, _ = materials.tag_table(mesh.tags).T
    rows, cols, keep = element_pattern(mesh.elements, index)
    M = SparseMatrix.from_coo(n, n, rows, cols, (MASS_TEMPLATE[None, :, :] * (
        kappa[mesh.region] * mesh.areas)[:, None, None]).reshape(-1)[keep])
    vals = _bbcc(*mesh.gradients)
    vals *= ((k1 + k2)[mesh.region] / (4.0 * mesh.areas))[:, None, None]
    vals = vals.reshape(-1)[keep]
    del keep
    return M, SparseMatrix.from_coo(n, n, rows, cols, vals)


def extract_blocks(M: SparseMatrix, K: SparseMatrix, p: DofPartition) -> SystemBlocks:
    """Slice the blocks M_cc, K_cc, K_cn, K_nn out of M and K, the four
    contiguous corners of the [a_c | a_n] numbering."""
    if M.shape != (p.n_free, p.n_free) or K.shape != (p.n_free, p.n_free):
        raise AssemblyError(
            f"matrix shapes {M.shape}, {K.shape} do not match partition size {p.n_free}"
        )
    c, n = p.idx_c, p.idx_n
    Ks = K.scipy()
    return SystemBlocks(SparseMatrix(M.scipy()[c, c]), SparseMatrix(Ks[c, c]),
                        SparseMatrix(Ks[c, n]), SparseMatrix(Ks[n, n]))


@dataclass(frozen=True)
class KccRebuildMap:
    """K_cc(a_c) of a nonlinear problem on a CSR pattern fixed at setup.

    Every node of a conductor element is conducting or Dirichlet, so the
    conductor elements' B^2 depends on a_c alone: ``b2`` evaluates it with
    one product on a_c. Nonconducting elements are linear, so their share of
    K_cc is the constant ``base``. A rebuild is the product of ``slots``
    (CSR slot x conductor element: the element's geometric stiffness
    (b b^T + c c^T) / (4 A) in that slot) with the element reluctivities,
    added to ``base``. Entries that are geometrically zero get no slot.

    ``mu`` is each conductor element's lambda_max(K_geom,e, M_e), the
    element-by-element bound (Irons & Treharne 1971; Fried 1973) that lets
    ``growth_bound`` limit how far lambda_max of (K_cc - K_S, M_cc) moves
    between two sets of element reluctivities. k1, k2, k3 are the conductor
    elements' laws, the only per-element material data a run keeps.
    """

    k1: np.ndarray             # (E_c,) nu(b2) = k1 + k2*exp(k3*b2), either law
    k2: np.ndarray
    k3: np.ndarray
    x_max: np.ndarray          # (E_c,) the largest k3*b2 at which nu and dnu_db2 are finite
    b2: B2Map                  # conductor elements' B^2 from a_c
    slots: SparseMatrix        # (nnz, E_c) geometric stiffness per slot and element
    base: np.ndarray           # nonconducting contribution per slot
    indptr: np.ndarray
    indices: np.ndarray
    mu: np.ndarray             # (E_c,) lambda_max(K_geom,e, M_e)

    def nu(self, b2: np.ndarray) -> np.ndarray:
        """Reluctivity of each conductor element at its B^2 (from ``b2``)."""
        return self._law(b2, self.k1, self.k2)

    def dnu_db2(self, b2: np.ndarray) -> np.ndarray:
        """d nu / d(B^2) of each conductor element at its B^2."""
        return self._law(b2, 0.0, self.k2 * self.k3)

    def _law(self, b2: np.ndarray, shift, scale) -> np.ndarray:
        """shift + scale*exp(k3*b2); an exponent past x_max (or NaN) is a
        SolverError, where numpy would warn and go on with inf or nan."""
        x = self.k3 * b2
        if not (x <= self.x_max).all():
            raise SolverError("reluctivity overflow: k1 + k2*exp(k3*B^2) leaves the float "
                              f"range at B^2 up to {np.max(b2):.3e}")
        return shift + scale * np.exp(x)

    def rebuild(self, nu_e: np.ndarray) -> SparseMatrix:
        """K_cc with the conductor element reluctivities nu_e (from ``nu``),
        its values written into the fixed pattern with no CSR construction.
        A slot whose sum is exactly 0.0 stays stored as a zero, which leaves
        every product with a finite vector unchanged."""
        vals = self.base + self.slots.matvec(nu_e)
        n_c = self.indptr.size - 1
        return SparseMatrix.from_canonical((n_c, n_c), self.indptr, self.indices, vals)

    def growth_bound(self, nu_e: np.ndarray, nu_ref: np.ndarray) -> float:
        """Upper bound on lambda_max(K_cc(nu_e) - K_S, M_cc) minus
        lambda_max(K_cc(nu_ref) - K_S, M_cc). K_S is constant, so by Weyl's
        inequality the growth is at most lambda_max(D, M_cc) with
        D = sum_e (nu_e - nu_ref,e) K_geom,e, and x^T D x <= sum_e
        (nu_e - nu_ref,e)^+ mu_e x_e^T M_e x_e <= max_e (...) x^T M_cc x,
        since M_cc is the sum of the conductor element masses. Dirichlet
        zeros in x_e only shrink x_e^T K_geom,e x_e / x_e^T M_e x_e."""
        return float((np.maximum(nu_e - nu_ref, 0.0) * self.mu).max(initial=0.0))


def kcc_rebuild_map(mesh: Mesh2D, part: DofPartition, materials: MaterialTable) -> KccRebuildMap:
    n_c = part.n_c
    index = part.positions(mesh.n_nodes)
    index[index >= n_c] = -1
    is_cond = mesh.region_mask(lambda t: t.kind == "conductor")
    cond, other = np.flatnonzero(is_cond), np.flatnonzero(~is_cond)
    (b, c), area, table = mesh.gradients, mesh.areas, materials.tag_table(mesh.tags)
    kappa, k1, k2, k3 = table[mesh.region[cond]].T.copy()
    # exp, k2*exp and k2*k3*exp stay below half the float range up to x_max
    x_max = np.log(np.finfo(float).max / 2) - np.log(np.maximum(1.0, np.maximum(k2, k2 * k3)))

    # conductor entries by their position src in the raveled (E_c, 3, 3) stiffness
    geom = (_bbcc(b[cond], c[cond]) / (4.0 * area[cond])[:, None, None]).ravel()
    rows_c, cols_c, keep = element_pattern(mesh.elements[cond], index)
    src = np.flatnonzero(keep)
    nz = geom[src] != 0.0
    rows_c, cols_c, src = rows_c[nz], cols_c[nz], src[nz]
    nu_other = (table[:, 1] + table[:, 2])[mesh.region[other]]
    k_other = _bbcc(b[other], c[other]) * (nu_other / (4.0 * area[other]))[:, None, None]
    rows_o, cols_o, keep = element_pattern(mesh.elements[other], index)
    v = k_other.reshape(-1)[keep]
    nz = v != 0.0
    rows_o, cols_o, v = rows_o[nz], cols_o[nz], v[nz]

    # sorted unique (row, col) keys are the CSR order of the pattern
    uniq, slot = np.unique(np.concatenate([rows_c * n_c + cols_c, rows_o * n_c + cols_o]),
                           return_inverse=True)
    pattern = scipy.sparse.csr_matrix(
        (np.ones(uniq.size), (uniq // n_c, uniq % n_c)), shape=(n_c, n_c))
    base = np.bincount(slot[src.size:], weights=v, minlength=uniq.size)
    # src ascends, so each slot's row holds its elements in ascending order:
    # a product sums them in the order of the entries
    slots = SparseMatrix.from_coo(uniq.size, cond.size, slot[:src.size], src // 9, geom[src])
    return KccRebuildMap(k1, k2, k3, x_max, b2_map(mesh, cond, index, n_c), slots, base,
                         pattern.indptr, pattern.indices,
                         _element_lambda_max(b[cond], c[cond], area[cond], kappa))


def _element_lambda_max(b, c, area, kappa) -> np.ndarray:
    """lambda_max(K_geom,e, M_e) of each element, in closed form.
    K_geom = (b b^T + c c^T) / (4 A) annihilates the constant vector, on
    whose complement MASS_TEMPLATE acts as I / 12, so the pencil's
    lambda_max is 12 lambda_max(K_geom) / (kappa A). The nonzero eigenvalues
    of K_geom are those of the 2x2 Gram matrix of b and c over 4 A."""
    bb, cc, bc = (b * b).sum(axis=1), (c * c).sum(axis=1), (b * c).sum(axis=1)
    lam_geom = 0.5 * (bb + cc + np.hypot(bb - cc, 2.0 * bc)) / (4.0 * area)
    return 12.0 * lam_geom / (kappa * area)


def source_pattern(mesh: Mesh2D, src: SourceSpec, p: DofPartition) -> np.ndarray:
    """Unit-current load restricted to the nonconducting partition, so that
    j_sn(t) = I(t) * pattern: J_z = turns/coil_area, and each coil element
    contributes J_z * A_e / 3 per node. Errors if the coil support touches
    the conducting set (the partitioned system assumes excitations live
    entirely in nonconducting DoFs)."""
    eids = np.flatnonzero(mesh.region_mask(lambda tag: tag.kind == "coil"
                                           and tag.id == src.coil_id))
    if not eids.size:
        raise AssemblyError(f"no elements tagged coil:{src.coil_id}")
    if np.isin(mesh.elements[eids], p.nodes[:p.n_c]).any():
        raise AssemblyError(
            "coil region overlaps the conductor support; excitation must lie "
            "entirely in the nonconducting partition"
        )
    areas = mesh.areas[eids]
    jz_unit = src.turns / float(areas.sum())
    load = np.zeros(mesh.n_nodes)
    np.add.at(load, mesh.elements[eids].ravel(), np.repeat(jz_unit * areas / 3.0, 3))
    return load[p.nodes[p.n_c:]]
