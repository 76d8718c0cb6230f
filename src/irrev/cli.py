"""Configuration-driven command line front end.

One JSON configuration file drives one experiment; command-line flags only
override the output directory and the seed, so every run is reproducible
from a single artifact.  Unknown configuration keys and an output stride
below 1 abort before any computation (fail-closed).

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
    3  configuration error

The environment variable ``IRREV_VERBOSE=1`` makes ``run``, ``longtime`` and
``fracture`` print one line per step (PDAS sweeps, contact-set size, KKT
residual), for a failed run's partial trajectory too; no other environment
coupling exists.
"""

from __future__ import annotations

import argparse
import json
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
                        write_csv)
from .fracture import ATParams, FractureSetupError, run_fracture
from .grid import BC, Field, Grid
from .model import ProblemData, validate
from .obstacle import ObstacleError, SolverOptions
from .stationary import StationaryProblem, run_longtime, solve_stationary

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

#: the keys each configuration block accepts
_BLOCK_KEYS = {
    "problem": {"grid", "lambda", "gamma", "sigma", "f", "z0", "T", "m", "quad_pts"},
    "solver": {"tol_kkt", "max_outer"},
    "output": {"directory", "stride"},
    "tolerances": {"irreversibility", "lewy_stampacchia", "minimality", "dissipation"},
    "refine": {"m_list", "n_list"},
    "longtime": {"horizon", "m_per_unit", "final_gap_tol"},
    "stationary": {"f_inf", "sigma"},
    "fracture": {"eps", "delta_eps", "load", "z0", "n", "T", "m", "quad_pts",
                 "scan_range"},
}
_GRID_KEYS = {"a", "b", "n", "bc_left", "bc_right"}


def _check_block(block, allowed: set[str], where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def load_config(path: str | Path) -> dict:
    """Read a configuration and check the keys of every block and the
    output stride, before any computation."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_block(cfg, set(_BLOCK_KEYS) | {"seed"}, "config")
    for name, allowed in _BLOCK_KEYS.items():
        if name in cfg:
            _check_block(cfg[name], allowed, name)
    if "grid" in cfg.get("problem", {}):
        _check_block(cfg["problem"]["grid"], _GRID_KEYS, "problem.grid")
    stride = cfg.get("output", {}).get("stride", 1)
    if type(stride) is not int or stride < 1:
        raise ConfigError(f"output.stride must be an integer >= 1, got {stride!r}")
    return cfg


def _build_grid(spec: dict) -> Grid:
    try:
        return Grid(a=float(spec.get("a", 0.0)), b=float(spec.get("b", 1.0)),
                    n=int(spec["n"]),
                    bc_left=BC(spec.get("bc_left", BC.DIRICHLET)),
                    bc_right=BC(spec.get("bc_right", BC.DIRICHLET)))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"problem.grid: {exc}") from exc


def build_problem(cfg: dict):
    """Problem block -> (ProblemData, Nonlinearity, m, quad_pts)."""
    try:
        prob = cfg["problem"]
    except KeyError:
        raise ConfigError("config needs a 'problem' block") from None
    try:
        grid = _build_grid(prob.get("grid", {"n": 101}))
        lam = float(prob.get("lambda", 1.0))
        nl = presets.nonlinearity(prob.get("gamma", {"preset": "zero"}))
        weight = presets.time_profile(grid, prob.get("sigma", {"preset": "constant", "value": 0.0}),
                                      "problem.sigma")
        source = presets.time_profile(grid, prob.get("f", {"preset": "constant", "value": 0.0}),
                                      "problem.f")
        z0 = presets.initial_state(grid, prob.get("z0", {"preset": "zero"}),
                                   lam, nl, source, weight)
        data = ProblemData(grid=grid, lam=lam, weight=weight, source=source,
                           initial=z0, horizon=float(prob.get("T", 1.0)))
    except presets.PresetError as exc:
        raise ConfigError(str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"problem block: {exc}") from exc
    m = int(prob.get("m", 100))
    quad_pts = int(prob.get("quad_pts", 8))
    if m < 1 or quad_pts < 1:
        raise ConfigError("problem.m and problem.quad_pts must be >= 1")
    return data, nl, m, quad_pts


def build_solver_options(cfg: dict) -> SolverOptions:
    block = cfg.get("solver", {})
    try:
        return SolverOptions(tol_kkt=float(block.get("tol_kkt", 1e-10)),
                             max_outer=int(block.get("max_outer", 100)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver block: {exc}") from exc


def _output_dir(cfg: dict, override: str | None) -> Path:
    block = cfg.get("output", {})
    directory = Path(override or block.get("directory", "irrev_out"))
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _stride(cfg: dict) -> int:
    return cfg.get("output", {}).get("stride", 1)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _solver_failed(exc: EvolutionError, cfg: dict, out_dir: Path) -> int:
    """Keep a failed run's partial trajectory, with a ``.partial`` marker."""
    _print_steps(exc.partial)
    save_trajectory(exc.partial, out_dir, stride=_stride(cfg))
    (out_dir / "trajectory.partial").write_text(f"{exc}\n")
    print(f"solver failure: {exc}")
    return EXIT_SOLVER_FAILED


def cmd_check(cfg: dict, out_dir: Path, seed: int) -> int:
    data, nl, _, _ = build_problem(cfg)
    report = validate(data, nl, seed=seed)
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
        if not v.applicable:
            print(f"SKIP  {v.name}: {v.note}")
            continue
        status = "PASS" if v.passed else "FAIL"
        ok &= v.passed
        print(f"{status}  {v.name}: violation={v.max_violation:.3g} tol={v.tolerance:.3g}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_run(cfg: dict, out_dir: Path, seed: int, force: bool = False) -> int:
    data, nl, m, quad_pts = build_problem(cfg)
    opts = build_solver_options(cfg)

    report = validate(data, nl, seed=seed)
    if not report.ok:
        for line in report.lines():
            print(line)
        if not force or report.lambda0 <= 0:
            # a nonconvex step problem is never attempted, --force or not
            print("validation failed; not running" +
                  (" (convexity margin not positive)" if report.lambda0 <= 0 else ""))
            return EXIT_CHECK_FAILED
        print("validation failed; continuing under --force")

    try:
        traj = run_evolution(data, nl, m, opts=opts, quad_pts=quad_pts,
                             validate_first=False)
    except EvolutionError as exc:
        return _solver_failed(exc, cfg, out_dir)

    _print_steps(traj)
    save_trajectory(traj, out_dir, stride=_stride(cfg))
    energy_report = balance_residual(traj, data, nl, quad_pts=quad_pts)
    with open(out_dir / "energy_report.json", "w") as fh:
        json.dump({"energies": list(map(float, energy_report.energies)),
                   "residuals": list(map(float, energy_report.residuals)),
                   "max_abs": energy_report.max_abs,
                   "total_abs": energy_report.total_abs,
                   "used_fd_derivatives": energy_report.used_fd_derivatives},
                  fh, sort_keys=True, indent=1)

    tol = cfg.get("tolerances", {})
    verdicts = [
        check_irreversibility(traj, tol=float(tol.get("irreversibility", 1e-12))),
        check_lewy_stampacchia(traj, traj.disc, data.lam, nl,
                               tol=float(tol.get("lewy_stampacchia", 1e-8))),
        check_dissipation_sign(traj, nl, data.lam,
                               tol=float(tol.get("dissipation", 1e-12))),
    ]
    stamp_ids = np.unique(np.linspace(0, traj.m, 5).round().astype(int))
    for k in stamp_ids:
        verdicts.append(check_unilateral_minimality(
            traj, data, nl, traj.times[k], n_samples=200, seed=seed + int(k),
            tol=float(tol.get("minimality", 1e-10))))
    return _report(out_dir, traj, verdicts,
                   f"balance: max|residual|={energy_report.max_abs:.3g} "
                   f"total={energy_report.total_abs:.3g}")


def cmd_refine(cfg: dict, out_dir: Path, seed: int) -> int:
    data, nl, _, quad_pts = build_problem(cfg)
    opts = build_solver_options(cfg)
    block = cfg.get("refine", {})
    m_list = [int(v) for v in block.get("m_list", [50, 100, 200])]
    n_list = [int(v) for v in block.get("n_list", [])]
    rows = refinement_study(data, nl, m_list, n_list, opts=opts, quad_pts=quad_pts)
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


def cmd_longtime(cfg: dict, out_dir: Path, seed: int) -> int:
    data, nl, _, quad_pts = build_problem(cfg)
    opts = build_solver_options(cfg)
    block = cfg.get("longtime", {})
    horizon = float(block.get("horizon", 40.0))
    m_per_unit = int(block.get("m_per_unit", 16))
    final_tol = float(block.get("final_gap_tol", 1e-6))

    try:
        result = run_longtime(data, nl, horizon, m_per_unit, opts=opts,
                              quad_pts=quad_pts)
    except EvolutionError as exc:
        return _solver_failed(exc, cfg, out_dir)

    _print_steps(result.traj)
    save_trajectory(result.traj, out_dir, stride=_stride(cfg))
    write_csv(out_dir / "gap.csv", ("t", "gap_V"), [(result.traj.times, result.gaps)])

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
          and result.final_gap <= final_tol)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_stationary(cfg: dict, out_dir: Path, seed: int) -> int:
    data, nl, _, _ = build_problem(cfg)
    opts = build_solver_options(cfg)
    block = cfg.get("stationary", {})
    g = data.grid
    x = g.nodes
    f_inf = Field(g, presets.space_values(g, block["f_inf"], "stationary.f_inf")) \
        if "f_inf" in block else Field(g, data.source(x, data.horizon))
    weight = Field(g, presets.space_values(g, block["sigma"], "stationary.sigma")) \
        if "sigma" in block else Field(g, data.weight(x, 0.0))

    try:
        res = solve_stationary(StationaryProblem(
            grid=g, obstacle=data.initial, source=f_inf, weight=weight,
            lam=data.lam, nl=nl), opts=opts)
    except ValueError as exc:
        print(f"FAIL  {exc}")
        return EXIT_CHECK_FAILED

    write_csv(out_dir / "z_inf.csv", ("x", "z", "eta"), [(x, res.z.values, res.eta.values)])
    with open(out_dir / "stationary.json", "w") as fh:
        json.dump({"kkt_residual": res.kkt_residual, "iters": res.iters,
                   "active": [int(i) for i in res.active]}, fh, sort_keys=True, indent=1)
    print(f"stationary state written; kkt_residual={res.kkt_residual:.3g} "
          f"active nodes={res.active.size}")
    return EXIT_OK


def cmd_fracture(cfg: dict, out_dir: Path, seed: int) -> int:
    block = cfg.get("fracture", {})
    try:
        eps = float(block["eps"])
        delta = float(block["delta_eps"])
        load = presets.fracture_load(block.get("load", {"preset": "zero"}))
        n = int(block.get("n", 101))
        horizon = float(block.get("T", 1.0))
        m = int(block.get("m", 100))
        quad_pts = int(block.get("quad_pts", 8))
        scan_range = float(block.get("scan_range", 10.0))
    except KeyError as exc:
        raise ConfigError(f"fracture block: missing {exc}") from exc
    except presets.PresetError as exc:
        raise ConfigError(str(exc)) from exc
    grid = Grid(a=-1.0, b=1.0, n=n, bc_left=BC.DIRICHLET, bc_right=BC.DIRICHLET)
    params = ATParams(eps=eps, delta=delta, load=load)

    z0 = None
    if "z0" in block:
        z0 = Field(grid, presets.space_values(grid, block["z0"], "fracture.z0"))
    opts = build_solver_options(cfg)
    try:
        result = run_fracture(params, grid, horizon, m, z0=z0, opts=opts,
                              quad_pts=quad_pts, scan_range=scan_range)
    except FractureSetupError as exc:
        print(exc)
        return EXIT_CHECK_FAILED
    except EvolutionError as exc:
        return _solver_failed(exc, cfg, out_dir)

    traj = result.traj
    _print_steps(traj)
    save_trajectory(traj, out_dir, stride=_stride(cfg))
    write_csv(out_dir / "displacement.csv", ("t", "x", "u", "u_x"),
              ((np.full(st.x_full.size, st.t), st.x_full, st.u_full, st.ux_full)
               for st in result.coupled))
    write_csv(out_dir / "at_energy.csv", ("t", "at_energy"), [(traj.times, result.at_energies)])

    verdicts = [
        check_irreversibility(traj),
        check_lewy_stampacchia(traj, traj.disc, result.data.lam, result.nl),
    ]
    # consistency of the reduction: weight*fn(z) must equal z*u_x^2/eps
    worst = 0.0
    for st in result.coupled:
        zv = st.z.values
        lhs = st.sigma * np.asarray(result.nl.fn(zv), float)
        rhs = zv * st.ux_full[1:-1] ** 2 / params.eps
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    verdicts.append(CheckVerdict(name="reduction_consistency", max_violation=worst,
                                 tolerance=1e-10, passed=worst <= 1e-10))
    return _report(out_dir, traj, verdicts, f"min phase field: {traj.states.min():.6g}")


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="irrev",
        description="irreversible obstacle-type evolutions on an interval")
    parser.add_argument("command",
                        choices=["check", "run", "refine", "longtime",
                                 "stationary", "fracture"])
    parser.add_argument("config", help="path to a JSON configuration file")
    parser.add_argument("--output-dir", default=None,
                        help="override the configured output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured seed")
    parser.add_argument("--force", action="store_true",
                        help="run even if validation fails (a nonpositive "
                             "convexity margin still refuses)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out_dir = _output_dir(cfg, args.output_dir)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        if args.command == "check":
            return cmd_check(cfg, out_dir, seed)
        if args.command == "run":
            return cmd_run(cfg, out_dir, seed, force=args.force)
        if args.command == "refine":
            return cmd_refine(cfg, out_dir, seed)
        if args.command == "longtime":
            return cmd_longtime(cfg, out_dir, seed)
        if args.command == "stationary":
            return cmd_stationary(cfg, out_dir, seed)
        return cmd_fracture(cfg, out_dir, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ObstacleError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILED


if __name__ == "__main__":
    sys.exit(main())
