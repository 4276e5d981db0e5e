"""eddy2d: desk-scale 2D magnetoquasistatic (eddy current) solver.

The spatially discretized vector-potential system is a DAE with a singular
mass matrix; a generalized Schur complement eliminates the nonconducting
block and leaves a finitely stiff ODE that explicit Euler can integrate.
The embedded K_nn solves start from the exact solve with a factor of K_nn
(the bundled default) or from subspace-projection (CSPE) or POD start
vectors, and the nonlinear stiffness block is rebuilt only when the
solution has moved by more than a tolerance.
"""

from .assembly import (
    DofPartition,
    MaterialTable,
    SourceSpec,
    SystemBlocks,
    assemble,
    compute_b2,
    extract_blocks,
    partition,
)
from .errors import (
    AssemblyError,
    ConfigError,
    Eddy2dError,
    InstabilityError,
    MeshError,
    SolverError,
)
from .integrate import (
    AssembledProblem,
    MccSolver,
    RunResult,
    SolverOptions,
    SolverState,
    discretize,
    estimate_cfl,
    explicit_step,
    maybe_update_kcc,
    newton_solve,
    probe_deviation,
    run_explicit,
    run_implicit,
)
from .linalg import (
    PcgReport,
    SparseMatrix,
    dense_solve_spd,
    factor_spd,
    ic0_preconditioner,
    jacobi_preconditioner,
    mgs_extend,
    pcg,
    power_iteration,
    svd_small,
)
from .materials import MU0, NU0, MaterialModel
from .mesh import Mesh2D, RegionTag, generate_rect_mesh, load_mesh, min_edge_length, save_mesh
from .scenario import Scenario, bundled_scenario_path, load_scenario
from .schur import IterationStats, SchurContext, apply_ks, recover_an, schur_rhs, solve_knn
from .startvec import CspeCache, PodCache, pod_truncate

__version__ = "0.1.0"
