"""The public namespace of ``irrev``, pinned so that every change to it
shows up in review."""

import contextlib
import io
import types
from pathlib import Path

import pytest

import irrev
from irrev import cli

PUBLIC = [
    "ATParams", "BC", "CheckVerdict", "CoercivityLost", "CoupledState", "DiscretizedData",
    "EvolutionError", "FractureResult", "FractureSetupError", "Grid", "LongtimeResult",
    "MaxIterations", "NewtonFailure", "Nonlinearity", "ObstacleError", "ObstacleResult",
    "ProblemData", "SolverOptions", "StationaryProblem", "TimeProfile", "Trajectory",
    "ValidationError", "ValidationReport", "at_nonlinearity", "check_energy_balance",
    "check_irreversibility", "check_lewy_stampacchia",
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


def test_no_randomness_and_no_seed_flag():
    # the structural checks run on a fixed grid; nothing in the program draws
    for path in sorted(Path(irrev.__file__).parent.glob("*.py")):
        assert "random" not in path.read_text(), path.name
    text = io.StringIO()
    with contextlib.redirect_stdout(text), pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "--output-dir" in text.getvalue() and "--seed" not in text.getvalue()
