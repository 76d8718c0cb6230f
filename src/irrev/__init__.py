"""Irreversible (unidirectional) evolution of obstacle-type variational
inequalities on a 1-D interval.

The state can only move down: each implicit step minimizes a convex energy
under the previous state as an upper obstacle.  The library provides the
mesh and operators, the step solver with its KKT certificate, the
stepping driver with interpolants, post-hoc structural diagnostics, the
stationary limit problem, and a phase-field fracture front end.
"""

from .grid import BC, Grid, norm_h1
from .model import (DiscretizedData, Nonlinearity, ProblemData, TimeProfile,
                    ValidationError, ValidationReport, constant_profile,
                    default_lower_envelope, discretize_time, validate)
from .obstacle import (CoercivityLost, MaxIterations, NewtonFailure, ObstacleError,
                       ObstacleResult, SolverOptions, solve_step, solve_unconstrained,
                       step_energy)
from .evolution import (EvolutionError, Trajectory, interp_constant, load_trajectory,
                        run_evolution, save_trajectory)
from .diagnostics import (CheckVerdict, check_energy_balance, check_irreversibility,
                          check_lewy_stampacchia, check_unilateral_minimality, energy,
                          refinement_study)
from .stationary import LongtimeResult, StationaryProblem, run_longtime, solve_stationary
from .fracture import (ATParams, CoupledState, FractureResult, FractureSetupError,
                       at_nonlinearity, load_to_sigma, recover_displacement,
                       run_fracture)

__version__ = "0.1.0"
