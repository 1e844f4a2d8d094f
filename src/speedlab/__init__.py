"""Spreading speeds and linear-determinacy certificates for time-space
periodic two-species reaction-advection-diffusion systems."""

from .coeffs import (CoefficientField, SymmetryReport, build_field, evaluate_expression,
                     mean_and_symmetry, refine_field)
from .eigen import EigenResult, lambda_of_mu, principal_eigen
from .frontsim import (FrontTrace, fit_speed, front_position, run_front,
                       spreading_verdict)
from .orbits import PeriodicOrbit, logistic_orbit
from .pde import (CellPeriodMap, CellState, LineState, LineSystemEvolver, period_map,
                  step_scalar_linear)
from .speeds import (Certificate, CoupledEigenfunction, SpeedReport, SystemSpec,
                     check_hypotheses, check_linear_determinacy, compute_speed_report,
                     coupled_eigenfunction, linear_speed_c0, minimize_speed)
from .weinberger import RecursionLine, SpeedBracket, bracket_speeds, recursion_limit

__version__ = "0.1.0"

__all__ = [
    "CoefficientField", "SymmetryReport", "build_field", "evaluate_expression",
    "mean_and_symmetry", "refine_field",
    "EigenResult", "principal_eigen", "lambda_of_mu",
    "PeriodicOrbit", "logistic_orbit",
    "CellState", "LineState", "CellPeriodMap", "LineSystemEvolver",
    "step_scalar_linear", "period_map",
    "SystemSpec", "SpeedReport", "Certificate",
    "CoupledEigenfunction", "minimize_speed", "linear_speed_c0",
    "coupled_eigenfunction", "check_hypotheses", "check_linear_determinacy",
    "compute_speed_report",
    "RecursionLine", "SpeedBracket", "recursion_limit", "bracket_speeds",
    "FrontTrace", "run_front", "front_position", "fit_speed", "spreading_verdict",
    "__version__",
]
