"""Toolkit for optimal steady-state (OSS) control of uncertain LTI plants.

Builds feedback controllers that drive a plant's optimization output to the
solution of a convex steady-state program despite unknown constant
disturbances and parametric model uncertainty, verifies the associated
stabilizability/detectability and subspace-robustness conditions, and
simulates the closed loop to certify convergence.
"""

from .matlib import (
    eigenvalues,
    left_null_basis,
    null_basis,
    numerical_rank,
    range_basis,
    rank_decision,
    solve_linear,
    subspace_equal,
    subspace_intersection,
)
from .plant import AugmentedPlant, PlantMatrices, UncertainPlant, build_augmented_qp, eval_plant
from .optprob import (
    ConvexProgram,
    KKTPoint,
    QPData,
    oracle_optimal_output,
    unique_optimizer_check,
)
from .subspaces import (
    EquilibriumGeometry,
    check_rerfs_range_condition,
    check_rfs,
    check_robust_full_rank,
    check_ros,
    equilibrium_geometry,
)
from .omodels import OptimalityModel, om_dynamics
from .stabilize import (
    ConditionReport,
    Stabilizer,
    pbh_stabilizable,
    prop4_check,
    prop5_check,
    prop6_check,
    synthesize_lqr,
)
from .simulate import (
    ClosedLoopSystem,
    Trajectory,
    assemble,
    convergence_metrics,
    equilibrium_solve,
    integrate_rk4,
)
from .power import gather_broadcast_input
from .errors import (
    InfeasibleProblem,
    NonuniqueOptimizer,
    NotStabilizable,
    NumericsDisagreement,
    OssError,
    RiccatiFailure,
)

__version__ = "0.1.0"
