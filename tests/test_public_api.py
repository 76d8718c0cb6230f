"""The public namespace of ``irrev``, pinned so that every change to it
shows up in review."""

import types

import irrev

PUBLIC = [
    "ATParams", "BC", "CheckVerdict", "CoercivityLost", "CoupledState", "DiscretizedData",
    "EnergyReport", "EvolutionError", "FractureResult", "FractureSetupError", "Grid",
    "LongtimeResult", "MaxIterations", "NewtonFailure", "Nonlinearity", "ObstacleError",
    "ObstacleResult", "ProblemData", "SolverOptions", "StationaryProblem", "TimeProfile",
    "Trajectory", "ValidationError", "ValidationReport", "at_nonlinearity",
    "balance_residual", "check_irreversibility", "check_lewy_stampacchia",
    "check_unilateral_minimality", "constant_profile", "default_lower_envelope",
    "discretize_time", "energy", "interp_constant", "load_to_sigma", "load_trajectory",
    "norm_h1", "recover_displacement", "refinement_study", "run_evolution", "run_fracture",
    "run_longtime", "save_trajectory", "solve_stationary", "solve_step",
    "solve_unconstrained", "step_energy", "validate",
]


def test_public_names_are_pinned():
    # submodules appear as attributes once imported, so they are left out
    names = sorted(name for name, obj in vars(irrev).items()
                   if not name.startswith("_") and not isinstance(obj, types.ModuleType))
    assert names == PUBLIC
