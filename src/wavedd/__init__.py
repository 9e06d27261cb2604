"""Domain decomposition solvers for 2D heterogeneous Helmholtz and positive
Maxwell problems: one-level ORAS / additive Schwarz, spectral and grid coarse
spaces, and a benchmark CLI."""

from .bench import RunConfig, SolveReport, run_case, run_sweep
from .decomposition import Decomposition, SubdomainData, decompose
from .dispersion import DispersionSpec, dispersion_curve, phase_velocity
from .errors import NumericError, SingularityError, StructuralError
from .helmholtz import (
    AssembledSystem,
    HelmholtzProblem,
    PointSource,
    assemble_helmholtz,
    assemble_load,
    mesh_size_rule,
    ppwl,
)
from .linalg import (
    EigenPair,
    EigenSelection,
    Factorization,
    KrylovConfig,
    KrylovReport,
    dense_generalized_eig,
    is_symmetric,
    krylov_solve,
    lu_factorize,
)
from .maxwell import (
    AspPreconditioner,
    MaxwellProblem,
    MaxwellSystem,
    assemble_maxwell,
    fsl_bounds_check,
)
from .mesh import Mesh, build_rect_mesh, refine_uniform
from .schwarz import (
    CoarseSpace,
    OneLevel,
    TwoLevel,
    build_deltageneo_cs,
    build_dtn_cs,
    build_grid_cs,
    build_hgeneo_cs,
)
from .velocity import VelocityModel, load_raster_model, save_raster_model

__version__ = "0.1.0"
