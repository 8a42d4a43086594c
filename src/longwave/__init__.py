"""1-D long-wave simulation toolkit.

Solvers for the symmetric coupled long-wave system over flat and uneven
bottoms and the uncoupled right-going dispersive equation, plus the classical
and topography-corrected surface reconstructions that tie them together, and an
experiment driver that cross-compares the models over step and sinusoidal
topographies.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    DiagnosticError,
    GridMismatchError,
    InstabilityError,
    LongwaveError,
    MissingSnapshotError,
    SolverError,
)
from .grid import (
    BathymetryProfile,
    Field,
    FlatBottom,
    Grid1D,
    ModelCoefficients,
    SampledBottom,
    SinusoidBottom,
    SlowSinusoidBottom,
    SolitonSpec,
    StepBottom,
    TimeGrid,
    bathymetry_from_config,
    discrete_h1_eps,
    discrete_l2,
    discrete_sobolev,
    soliton_field,
)
from .findiff import (
    CyclicBandedOperator,
    StepOperator,
    make_d1,
    make_d2,
    make_d3,
)
from .kdv import KdvProblem, PairTrajectory, RelaxationState, Trajectory, init_predictor, run, step
from .boussinesq import (
    BoussinesqProblem,
    init_boussinesq,
    run_boussinesq,
    step_boussinesq,
)
from .reconstruct import (
    CorrectorBreakdown,
    GrowthDiagnostic,
    SurfaceReconstruction,
    bottom_shift_integral,
    corrector_fields,
    growth_diagnostic,
    topo_modified_surfaces,
)
from .scenarios import (
    ComparisonReport,
    ConvergenceReport,
    GrowthReport,
    ScenarioConfig,
    SnapshotRecord,
    convergence_study,
    reflected_wave_metric,
    relative_linf_error,
    run_growth,
    run_scenario,
    write_convergence_outputs,
    write_growth_outputs,
    write_outputs,
)
