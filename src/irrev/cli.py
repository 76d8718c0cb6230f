"""Configuration-driven command line front end.

One JSON configuration file drives one experiment; command-line flags only
override the output directory and allow a run past failed validation
(``--force``), so every run is reproducible from a single artifact.  Every
key and the domain of every value are checked against one table,
:data:`SCHEMA`, before any computation (fail-closed).  A setting the
library has a default for is passed only when the configuration sets it.

Commands and exit codes::

    irrev check CONFIG       validate the problem data
    irrev run CONFIG         evolve, write trajectory + diagnostics
    irrev refine CONFIG      step/mesh refinement study
    irrev longtime CONFIG    long-horizon relaxation vs the stationary limit
    irrev stationary CONFIG  stationary obstacle problem
    irrev fracture CONFIG    coupled phase-field fracture run

    0  success / all checks passed
    1  validation or assertion failure
    2  solver failure (partial outputs kept with a .partial marker)
    3  configuration or usage error

The environment variable ``IRREV_VERBOSE=1`` makes ``run``, ``longtime`` and
``fracture`` print one line per step (PDAS sweeps, contact-set size, KKT
residual), for a failed run's partial trajectory too; no other environment
coupling exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import presets
from .diagnostics import (CheckVerdict, balance_residual, check_dissipation_sign,
                          check_irreversibility, check_lewy_stampacchia,
                          check_unilateral_minimality, refinement_study,
                          verdicts_to_json, write_refinement_csv)
from .evolution import (EvolutionError, Trajectory, run_evolution, save_trajectory,
                        write_csv, write_long_csv)
from .fracture import ATParams, FractureSetupError, run_fracture
from .grid import BC, Grid
from .model import MARGIN_FLOOR, QUAD_PTS, ProblemData, ValidationError, validate
from .obstacle import CoercivityLost, ObstacleError, SolverOptions
from .stationary import M_PER_UNIT, StationaryProblem, run_longtime, solve_stationary

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SOLVER_FAILED = 2
EXIT_CONFIG_ERROR = 3


class ConfigError(ValueError):
    pass


def _print_steps(traj: Trajectory) -> None:
    """One line per step from the solver metadata, when verbose."""
    if os.environ.get("IRREV_VERBOSE", "0") in ("", "0"):
        return
    for s in traj.step_meta:
        print(f"step {s.k}: sweeps={s.iters} n_active={s.n_active} "
              f"kkt_residual={s.kkt_residual:.3g}")


# --------------------------------------------------------------------------
# config parsing (fail-closed)
# --------------------------------------------------------------------------

def _number(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


def _count(v) -> bool:
    return type(v) is int and v >= 1


#: value domains: what a value must be, and the test for it
COUNT = ("an integer >= 1", _count)
POSITIVE = ("a number > 0", lambda v: _number(v) and v > 0)
NUMBER = ("a finite number", _number)
SEED = ("an integer >= 0", lambda v: type(v) is int and v >= 0)
TEXT = ("a string", lambda v: isinstance(v, str))
PRESET = ("a preset object", lambda v: isinstance(v, dict))
COUNTS = ("a list of integers >= 1", lambda v: isinstance(v, list) and all(map(_count, v)))

#: every key a configuration accepts, with the domain of its value; a nested
#: dict is a block whose keys are checked the same way
SCHEMA = {
    "seed": SEED,  # read by nothing; kept while the benchmark and golden configs set it
    "problem": {
        "grid": {"a": NUMBER, "b": NUMBER, "n": COUNT, "bc_left": TEXT, "bc_right": TEXT},
        "lambda": NUMBER, "gamma": PRESET, "sigma": PRESET, "f": PRESET, "z0": PRESET,
        "T": POSITIVE, "m": COUNT, "quad_pts": COUNT},
    "solver": {"tol_kkt": POSITIVE, "max_outer": COUNT},
    "output": {"directory": TEXT, "stride": COUNT},
    "tolerances": {"irreversibility": NUMBER, "lewy_stampacchia": NUMBER,
                   "minimality": NUMBER, "dissipation": NUMBER},
    "refine": {"m_list": COUNTS, "n_list": COUNTS},
    "longtime": {"horizon": POSITIVE, "m_per_unit": COUNT, "final_gap_tol": NUMBER},
    "stationary": {"f_inf": PRESET, "sigma": PRESET},
    "fracture": {"eps": POSITIVE, "delta_eps": POSITIVE, "load": PRESET, "z0": PRESET,
                 "n": COUNT, "T": POSITIVE, "m": COUNT, "quad_pts": COUNT},
}


def _check(block, schema: dict, where: str) -> None:
    """Refuse a non-object block, an unknown key or a value outside its domain."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(block) - set(schema))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    for key, value in block.items():
        path = key if where == "config" else f"{where}.{key}"
        if isinstance(schema[key], dict):
            _check(value, schema[key], path)
        elif not schema[key][1](value):
            raise ConfigError(f"{path} must be {schema[key][0]}, got {value!r}")


def _refuse_constant(name: str):
    """``json`` accepts ``NaN``, ``Infinity`` and ``-Infinity``; a config does not."""
    raise ConfigError(f"config may not contain {name}")


def load_config(path: str | Path) -> dict:
    """Read a configuration and check every key and the domain of every
    value against :data:`SCHEMA`, before any computation."""
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_refuse_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check(cfg, SCHEMA, "config")
    return cfg


def _given(block: dict, key: str, name: str | None = None) -> dict:
    """``{name: block[key]}`` (``name`` defaults to ``key``) when the config
    sets ``key``, else ``{}``, so that the library's own default applies."""
    return {name or key: block[key]} if key in block else {}


def build_problem(cfg: dict):
    """Problem block -> (ProblemData, Nonlinearity, m, quad_pts)."""
    try:
        prob = cfg["problem"]
    except KeyError:
        raise ConfigError("config needs a 'problem' block") from None
    try:
        grid = Grid(**{"a": 0.0, "b": 1.0, **prob.get("grid", {"n": 101})})
        lam = prob.get("lambda", 1.0)
        nl = presets.nonlinearity(prob.get("gamma", {"preset": "zero"}))
        weight = presets.time_profile(grid, prob.get("sigma", {"preset": "constant", "value": 0.0}),
                                      "problem.sigma")
        source = presets.time_profile(grid, prob.get("f", {"preset": "constant", "value": 0.0}),
                                      "problem.f")
        z0 = presets.initial_state(grid, prob.get("z0", {"preset": "zero"}),
                                   lam, nl, source, weight)
        data = ProblemData(grid=grid, lam=lam, weight=weight, source=source,
                           initial=z0, horizon=prob.get("T", 1.0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"problem block: {exc}") from exc
    return data, nl, prob.get("m", 100), prob.get("quad_pts", QUAD_PTS)


def build_solver_options(cfg: dict) -> SolverOptions:
    return SolverOptions(**cfg.get("solver", {}))


def _output_dir(cfg: dict, override: str | None) -> Path:
    """The output directory; only a command that writes creates it."""
    return Path(override or cfg.get("output", {}).get("directory", "irrev_out"))


def _save(traj: Trajectory, cfg: dict, out_dir: Path) -> None:
    """Print the per-step lines when verbose, then write the trajectory."""
    _print_steps(traj)
    save_trajectory(traj, out_dir, **_given(cfg.get("output", {}), "stride"))


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _solver_failed(exc: EvolutionError, cfg: dict, out_dir: Path) -> int:
    """Keep a failed run's partial trajectory, with a ``.partial`` marker."""
    _save(exc.partial, cfg, out_dir)
    (out_dir / "trajectory.partial").write_text(f"{exc}\n")
    print(f"solver failure: {exc}")
    return EXIT_SOLVER_FAILED


def cmd_check(cfg: dict, out_dir: Path) -> int:
    data, nl, _, _ = build_problem(cfg)
    report = validate(data, nl)
    for line in report.lines():
        print(line)
    print(f"coercivity margin: {report.lambda0:.17g}")
    print(f"admissibility residual: {report.admissibility_residual:.17g}")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _report(out_dir: Path, traj: Trajectory, verdicts: list[CheckVerdict],
            detail: str) -> int:
    """Write ``verdicts.json``, print the movement, ``detail`` and the verdicts."""
    (out_dir / "verdicts.json").write_text(verdicts_to_json(verdicts) + "\n")
    movement = traj.max_movement()
    tag = "  [no evolution]" if movement <= 1e-10 else ""
    print(f"max movement: {movement:.17g}{tag}")
    print(detail)
    ok = True
    for v in verdicts:
        status = "PASS" if v.passed else "FAIL"
        ok &= v.passed
        print(f"{status}  {v.name}: violation={v.max_violation:.3g} tol={v.tolerance:.3g}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_run(cfg: dict, out_dir: Path, force: bool = False) -> int:
    data, nl, m, quad_pts = build_problem(cfg)
    opts = build_solver_options(cfg)

    report = validate(data, nl)
    if not report.ok:
        for line in report.lines():
            print(line)
        convex = report.lambda0 >= MARGIN_FLOOR        # a nan margin refuses too
        if not force or not convex:
            # a nonconvex step problem is never attempted, --force or not
            print("validation failed; not running" +
                  ("" if convex else " (convexity margin not positive)"))
            return EXIT_CHECK_FAILED
        print("validation failed; continuing under --force")

    try:
        traj = run_evolution(data, nl, m, opts=opts, quad_pts=quad_pts,
                             validate_first=False)
    except EvolutionError as exc:
        return _solver_failed(exc, cfg, out_dir)

    _save(traj, cfg, out_dir)
    energy_report = balance_residual(traj, data, nl, quad_pts=quad_pts)
    with open(out_dir / "energy_report.json", "w") as fh:
        json.dump({"energies": list(map(float, energy_report.energies)),
                   "residuals": list(map(float, energy_report.residuals)),
                   "max_abs": energy_report.max_abs,
                   "total_abs": energy_report.total_abs},
                  fh, sort_keys=True, indent=1)

    tol = cfg.get("tolerances", {})
    verdicts = [
        check_irreversibility(traj, **_given(tol, "irreversibility", "tol")),
        check_lewy_stampacchia(traj, data.lam, nl, **_given(tol, "lewy_stampacchia", "tol")),
        check_dissipation_sign(traj, nl, data.lam, **_given(tol, "dissipation", "tol")),
        check_unilateral_minimality(traj, nl, data.lam, **_given(tol, "minimality", "tol")),
    ]
    return _report(out_dir, traj, verdicts,
                   f"balance: max|residual|={energy_report.max_abs:.3g} "
                   f"total={energy_report.total_abs:.3g}")


def cmd_refine(cfg: dict, out_dir: Path) -> int:
    data, nl, _, quad_pts = build_problem(cfg)
    opts = build_solver_options(cfg)
    # the regridded runs skip this gate (see refinement_study); the base
    # problem does not
    report = validate(data, nl)
    if not report.ok:
        raise ValidationError(report)
    block = cfg.get("refine", {})
    rows = refinement_study(data, nl, block.get("m_list", [50, 100, 200]),
                            block.get("n_list", []), opts=opts, quad_pts=quad_pts)
    write_refinement_csv(rows, out_dir / "refinement.csv")

    ok = True
    tau_gaps = [r.gap_v for r in rows if r.kind == "tau" and r.gap_v is not None]
    for a, b in zip(tau_gaps, tau_gaps[1:]):
        ok &= b < a
    for r in rows:
        gap = "" if r.gap_v is None else f" gap_V={r.gap_v:.6g}"
        order = "" if r.order_estimate is None else f" order={r.order_estimate:.3f}"
        print(f"{r.kind}: m={r.m} n={r.n}{gap} balance_sum={r.balance_sum:.6g}{order}")
    print("refinement gaps decrease" if ok else "refinement gaps do NOT decrease")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_longtime(cfg: dict, out_dir: Path) -> int:
    data, nl, _, quad_pts = build_problem(cfg)
    opts = build_solver_options(cfg)
    block = cfg.get("longtime", {})
    horizon = block.get("horizon", 40.0)
    m_per_unit = block.get("m_per_unit", M_PER_UNIT)
    if round(horizon * m_per_unit) < 1:
        raise ConfigError(f"longtime.horizon * longtime.m_per_unit = "
                          f"{horizon * m_per_unit:.3g} rounds to no step")

    try:
        result = run_longtime(data, nl, horizon, m_per_unit, opts=opts,
                              quad_pts=quad_pts)
    except EvolutionError as exc:
        return _solver_failed(exc, cfg, out_dir)

    _save(result.traj, cfg, out_dir)
    write_csv(out_dir / "gap.csv", ("t", "gap_V"), (result.traj.times, result.gaps))

    print(f"final gap: {result.final_gap:.17g}")
    print(f"gap monotone: {result.gap_monotone} "
          f"(max increase {result.max_gap_increase:.3g})")
    print(f"limit below trajectory: {result.sandwich_ok} "
          f"(violation {result.sandwich_violation:.3g})")
    if not (result.weight_time_independent and result.source_above_limit):
        print("warning: limit characterization preconditions not met "
              f"(weight constant in t: {result.weight_time_independent}, "
              f"source above limit: {result.source_above_limit})")
    ok = (result.gap_monotone and result.sandwich_ok
          and result.final_gap <= block.get("final_gap_tol", 1e-6))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_stationary(cfg: dict, out_dir: Path) -> int:
    data, nl, _, _ = build_problem(cfg)
    opts = build_solver_options(cfg)
    block = cfg.get("stationary", {})
    g = data.grid
    x = g.nodes
    try:
        given = {key: presets.space_values(g, block[key], f"stationary.{key}")
                 for key in ("f_inf", "sigma") if key in block}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"stationary block: {exc}") from exc
    # the problem's own data at its settled times: a fault there is a data fault
    f_inf = given["f_inf"] if "f_inf" in given else data.source(x, data.horizon)
    weight = given["sigma"] if "sigma" in given else data.weight(x, 0.0)

    for name, values in (("settled source", f_inf), ("weight", weight)):
        if not np.all(np.isfinite(values)):
            print(f"FAIL  data_finite: the stationary {name} is not finite")
            return EXIT_CHECK_FAILED
    res = solve_stationary(StationaryProblem(grid=g, obstacle=data.initial, source=f_inf,
                                             weight=weight, lam=data.lam, nl=nl), opts=opts)

    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "z_inf.csv", ("x", "z", "eta"), (x, res.z, res.eta))
    with open(out_dir / "stationary.json", "w") as fh:
        json.dump({"kkt_residual": res.kkt_residual, "iters": res.iters,
                   "active": [int(i) for i in res.active]}, fh, sort_keys=True, indent=1)
    print(f"stationary state written; kkt_residual={res.kkt_residual:.3g} "
          f"active nodes={res.active.size}")
    return EXIT_OK


def cmd_fracture(cfg: dict, out_dir: Path) -> int:
    block = cfg.get("fracture", {})
    missing = [key for key in ("eps", "delta_eps") if key not in block]
    if missing:
        raise ConfigError(f"fracture block: missing {missing}")
    grid = Grid(a=-1.0, b=1.0, n=block.get("n", 101), bc_left=BC.DIRICHLET,
                bc_right=BC.DIRICHLET)
    try:
        params = ATParams(eps=block["eps"], delta=block["delta_eps"],
                          load=presets.fracture_load(block.get("load", {"preset": "zero"})))
        z0 = presets.space_values(grid, block["z0"], "fracture.z0") if "z0" in block else None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"fracture block: {exc}") from exc
    try:
        result = run_fracture(params, grid, block.get("T", 1.0), block.get("m", 100), z0=z0,
                              opts=build_solver_options(cfg),
                              quad_pts=block.get("quad_pts", QUAD_PTS))
    except FractureSetupError as exc:
        print(exc)
        return EXIT_CHECK_FAILED
    except EvolutionError as exc:
        return _solver_failed(exc, cfg, out_dir)

    traj = result.traj
    _save(traj, cfg, out_dir)
    st = result.coupled
    write_long_csv(out_dir / "displacement.csv", st.t, st.x_full,
                   {"u": st.u_full, "u_x": st.ux_full})
    write_csv(out_dir / "at_energy.csv", ("t", "at_energy"), (traj.times, result.at_energies))

    # consistency of the reduction: weight*fn(z) must equal z*u_x^2/eps
    worst = float(np.abs(st.sigma * np.asarray(result.nl.fn(st.z), float)
                         - st.z * st.ux_full[:, 1:-1] ** 2 / params.eps).max())
    verdicts = [
        check_irreversibility(traj),
        check_lewy_stampacchia(traj, result.data.lam, result.nl),
        CheckVerdict(name="reduction_consistency", max_violation=worst,
                     tolerance=1e-10, passed=worst <= 1e-10),
    ]
    return _report(out_dir, traj, verdicts, f"min phase field: {traj.states.min():.6g}")


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error (exit 3), not argparse's exit 2,
    which this front end keeps for solver failures."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="irrev",
        description="irreversible obstacle-type evolutions on an interval")
    parser.add_argument("command",
                        choices=["check", "run", "refine", "longtime",
                                 "stationary", "fracture"])
    parser.add_argument("config", help="path to a JSON configuration file")
    parser.add_argument("--output-dir", default=None,
                        help="override the configured output directory")
    parser.add_argument("--force", action="store_true",
                        help="run even if validation fails (a convexity "
                             "margin below its floor still refuses)")

    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        out_dir = _output_dir(cfg, args.output_dir)
        if args.command == "check":
            return cmd_check(cfg, out_dir)
        if args.command == "run":
            return cmd_run(cfg, out_dir, force=args.force)
        if args.command == "refine":
            return cmd_refine(cfg, out_dir)
        if args.command == "longtime":
            return cmd_longtime(cfg, out_dir)
        if args.command == "stationary":
            return cmd_stationary(cfg, out_dir)
        return cmd_fracture(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ValidationError as exc:
        for line in exc.report.lines():
            if line.startswith("FAIL"):
                print(line)
        return EXIT_CHECK_FAILED
    except CoercivityLost as exc:
        # a solve outside any step (z0 equilibrium, stationary) writes nothing
        print(f"FAIL  coercivity_margin: value={exc.margin:.6g} tol={MARGIN_FLOOR:.3g}")
        return EXIT_CHECK_FAILED
    except ObstacleError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILED


if __name__ == "__main__":
    sys.exit(main())
