"""Continuous-discrete nonlinear state estimation.

A square-root level-set time-update (belief propagation as an ODE on the
(mean | covariance-factor) pair), an Ito-Taylor cubature baseline, a
shared square-root cubature measurement update, and a Monte-Carlo radar
benchmark harness.
"""

from .cdckf import CdckfVariant, It15Operators, cdckf_time_update, it15_point_predict
from .errors import (
    AllTrialsDivergent,
    AtStationSingularity,
    CdFilterError,
    DegenerateInnovationCovariance,
    MaxStepsExceeded,
    MissingDerivatives,
    NonFiniteBelief,
    NotPositiveSemiDefinite,
    NotSymmetric,
    RecoverableRhsError,
    SingularFactor,
    StepUnderflow,
)
from .linalg import (cholesky_lower, cubature_points, lyapunov_oracle,
                     solve_lower_right, solve_transpose, tria)
from .lskf import count_drift_evals, lskf_rhs, lskf_time_update, pack_state, unpack_state
from .measurement import UpdateDiagnostics, measurement_update, wrap_angles
from .models import GaussianBelief, LinearSystem, MeasurementModel, SdeModel
from .ode import OdeProblem, SolverSpec, SolveStats, integrate, order_of_accuracy
from .scenarios import (
    RadarScenario,
    Trajectory,
    TransportScenario,
    coordinated_turn_drift,
    linear_fp_scenario,
    make_trial,
    oscillator_scenario,
    radar_measure,
    simulate_truth,
)

__version__ = "0.1.0"
