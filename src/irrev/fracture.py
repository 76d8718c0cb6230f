"""1-D phase-field fracture reduction (Ambrosio-Tortorelli type).

On the interval (-1, 1) with the phase field pinned to 0 at both ends and a
zero-flux displacement, the coupled first-order system

    -( (z^2 + delta) u_x )_x = load,
    rate-constrained balance for z with stiffness eps

reduces to a single scalar evolution for z after integrating the first
equation from the left end: with H(x,t) the cumulative load, the
displacement gradient is u_x = -H/(z^2 + delta) and the z-equation becomes
the generic model with

    lam = 1/eps^2,  source = 1/eps^2,  weight = H^2,
    fn(s) = s / (eps * (s^2 + delta)^2).

This module builds those ingredients, recovers the displacement from a
phase field, and drives coupled quasistatic runs.

Known limitation: the convexity margin ``lam - L*sup(weight)`` uses the
global slope bound ``L = 1/(4*eps*delta^2)`` of ``fn``, while the weight
grows with the square of the load.  For a ``ramp_sine`` load at eps = 0.1,
delta = 1e-3 the margin is positive only for load scales below
``pi*sqrt(1e-5)``, about 0.0099, and under such a load the phase field
barely moves: the front end validates that run but cannot crack.  The
bound is sharp on the real line, so the margin is not loosened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import BC, Grid, full_values
from .model import (MARGIN_FLOOR, QUAD_PTS, ZERO_NONLINEARITY, Nonlinearity, ProblemData,
                    TimeProfile, constant_profile, node_row, validate)
from .obstacle import SolverOptions, solve_unconstrained


class FractureSetupError(RuntimeError):
    """The derived problem violates a solvability hypothesis.

    The message starts with ``FAIL  <check>:``, the form in which the
    command line prints failed verdicts.
    """


@dataclass(frozen=True)
class ATParams:
    """Regularization length, residual stiffness and the driving load.

    ``load`` must have zero spatial average at every time (the displacement
    problem is pure zero-flux; a nonzero mean load is incompatible).  The
    average is checked by trapezoid quadrature on the grid actually used.
    """

    eps: float
    delta: float
    load: TimeProfile

    def __post_init__(self) -> None:
        if not (self.eps > 0 and self.delta > 0):
            raise ValueError("eps and delta must be positive")

    @property
    def lam(self) -> float:
        return 1.0 / self.eps ** 2


@dataclass(frozen=True)
class CoupledState:
    """Phase field plus recovered displacement at one instant ``t``, or one
    row per stamp when ``t`` holds several times.

    The displacement solves a pure zero-flux problem, hence is determined
    only up to a constant; the gauge here pins ``u`` to 0 at the left end.
    ``u_full``/``ux_full`` live on all nodes including the endpoints.
    """

    z: np.ndarray
    x_full: np.ndarray
    u_full: np.ndarray
    ux_full: np.ndarray
    sigma: np.ndarray       # weight H^2 on the interior nodes
    t: float | np.ndarray


def at_nonlinearity(params: ATParams) -> Nonlinearity:
    """Degradation nonlinearity ``fn(s) = s / (eps*(s^2+delta)^2)``.

    The primitive is analytic (normalized to vanish at 0).  The one-sided
    slope bound is global: ``fn'(s) = (delta - 3s^2)/(eps*(s^2+delta)^3)``
    is smallest at ``s = +-sqrt(delta)``, where it equals
    ``-1/(4*eps*delta^2)``, and it tends to 0 from below as ``|s|`` grows,
    so ``L = -fn'(sqrt(delta))`` holds on the whole real line.
    """
    eps, delta = params.eps, params.delta

    def fn(s):
        s = np.asarray(s, dtype=float)
        return s / (eps * (s * s + delta) ** 2)

    def primitive(s):
        s = np.asarray(s, dtype=float)
        return 1.0 / (2.0 * eps * delta) - 1.0 / (2.0 * eps * (s * s + delta))

    def deriv(s):
        s = np.asarray(s, dtype=float)
        return (delta - 3.0 * s * s) / (eps * (s * s + delta) ** 3)

    slope_bound = float(-deriv(np.sqrt(delta)))

    # |fn| attains its maximum at s = +-sqrt(delta/3)
    s_peak = np.sqrt(delta / 3.0)
    growth = float(abs(fn(s_peak)))

    return Nonlinearity(fn=fn, primitive=primitive, deriv=deriv,
                        slope_bound=slope_bound, growth=growth)


def _cumtrapz(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid of ``y`` along its last axis."""
    out = np.zeros_like(y)
    out[..., 1:] = np.cumsum(0.5 * np.diff(x) * (y[..., :-1] + y[..., 1:]), axis=-1)
    return out


def cumulative_load(grid: Grid, params: ATParams, t) -> np.ndarray:
    """H on all nodes: trapezoid integral of the load from the left end.

    A scalar ``t`` gives shape ``(n+2,)``, an array of times one row per
    time.  Checks the zero-average requirement on every row (``|H(right
    end)|`` must vanish within quadrature tolerance) and raises on the
    first violation.
    """
    x_full = grid.nodes_full
    H = _cumtrapz(x_full, params.load(x_full, t))
    rows = np.atleast_2d(H)
    scale = np.abs(rows).max(axis=1)
    bad = np.flatnonzero(np.abs(rows[:, -1]) > 1e-8 * scale + 1e-14)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"load has nonzero spatial average at t={np.atleast_1d(t)[i]:.6g}: "
            f"H(end)={rows[i, -1]:.3g} vs scale {scale[i]:.3g}")
    return H


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x, xp, fp[i])`` for every row ``i`` of ``fp`` in one pass
    (a single row when 1-D), for query points ``x`` of shape ``(n,)``, knots
    ``xp`` in increasing order and a finite table.

    The bracket of each point is found once, with ``np.interp``'s rules: a
    point at a knot or outside ``[xp[0], xp[-1]]`` takes the table value
    there as it stands, any other ``slope*(x - xp[j]) + fp[j]`` with
    ``slope = (fp[j+1] - fp[j])/(xp[j+1] - xp[j])``, which is
    ``np.interp``'s own formula, so each row equals it to the last bit.
    """
    j = np.searchsorted(xp, x, side="right") - 1         # xp[j] <= x < xp[j+1]
    knot = np.clip(j, 0, xp.size - 1)
    between = (j >= 0) & (j < xp.size - 1) & (xp[knot] != x)
    out = fp[..., knot]
    jb = j[between]
    lo = fp[..., jb]
    out[..., between] = (fp[..., jb + 1] - lo) / (xp[jb + 1] - xp[jb]) * (x[between] - xp[jb]) + lo
    return out


def load_to_sigma(grid: Grid, params: ATParams) -> TimeProfile:
    """Weight profile ``H(x,t)^2`` induced by the load, with its exact time
    derivative ``2*H*dH/dt``.

    Grid-bound: H is integrated on the construction grid and linearly
    interpolated at requested coordinates (exact at the grid's own nodes).
    H is integrated over the whole grid once per time (the first entry of
    each row of the broadcast ``t``), and all its rows are interpolated at
    the node row (:func:`~irrev.model.node_row`) in one pass.
    """
    x_full = grid.nodes_full

    def evaluator(x, t):
        H = cumulative_load(grid, params, t[..., 0])
        return _interp_rows(node_row(x), x_full, H) ** 2

    def dt_evaluator(x, t):
        H = cumulative_load(grid, params, t[..., 0])
        dH = _cumtrapz(x_full, params.load.dt(x_full, t[..., 0]))
        xr = node_row(x)
        return 2.0 * _interp_rows(xr, x_full, H) * _interp_rows(xr, x_full, dH)

    return TimeProfile(evaluator, dt_evaluator)


def recover_displacement(grid: Grid, z: np.ndarray, params: ATParams,
                         t: float | np.ndarray) -> CoupledState:
    """Displacement from a phase field ``z`` of shape ``(n,)`` at one time:
    ``u_x = -H/(z^2+delta)``, ``u(-1)=0``.

    The sign follows from integrating the displacement equation from the
    left end; ``u`` itself is the cumulative trapezoid of ``u_x``.  The
    residual stiffness keeps the division regular even at ``z = 0``.  A
    stack ``(k, n)`` at ``k`` times gives the single-stamp results as rows,
    to the last bit, from one evaluation of the load.
    """
    x_full = grid.nodes_full
    z_full = full_values(grid, z)
    H = cumulative_load(grid, params, t)
    ux = -H / (z_full * z_full + params.delta)
    return CoupledState(z=z_full[..., 1:-1], x_full=x_full, u_full=_cumtrapz(x_full, ux),
                        ux_full=ux, sigma=H[..., 1:-1] ** 2, t=t)


def relaxed_profile(grid: Grid, params: ATParams,
                    opts: Optional[SolverOptions] = None) -> np.ndarray:
    """Load-free equilibrium phase field: solves -z'' + lam*(z - 1) = 0.

    Close to 1 in the interior with boundary layers of width eps at the
    pinned ends.  With a load that starts from zero this state satisfies
    the initial admissibility condition exactly.
    """
    lam = params.lam
    ones = np.full(grid.n, lam)
    zeros = np.zeros(grid.n)
    return solve_unconstrained(grid, ones, zeros, lam, ZERO_NONLINEARITY, opts=opts)


def build_problem(grid: Grid, params: ATParams, z0: Optional[np.ndarray],
                  horizon: float) -> tuple[ProblemData, Nonlinearity]:
    """Assemble the scalar evolution equivalent to the coupled system."""
    if grid.bc_left is not BC.DIRICHLET or grid.bc_right is not BC.DIRICHLET:
        raise ValueError("the fracture reduction pins the phase field at both ends")
    nl = at_nonlinearity(params)
    if z0 is None:
        z0 = relaxed_profile(grid, params)
    data = ProblemData(grid=grid, lam=params.lam, weight=load_to_sigma(grid, params),
                       source=constant_profile(params.lam), initial=z0,
                       horizon=horizon)
    return data, nl


@dataclass(frozen=True)
class FractureResult:
    traj: object
    data: ProblemData
    nl: Nonlinearity
    params: ATParams
    coupled: CoupledState     # one row per stored stamp
    at_energies: np.ndarray   # surrogate fracture energy trace


def at_energy(grid: Grid, state: CoupledState, params: ATParams):
    """Surrogate fracture energy: degraded elastic part + gradient part +
    deviation-from-intact part, one value per stamp of ``state``.  Logged
    along runs; finiteness is the only contract."""
    x_full = state.x_full
    z_full = full_values(grid, state.z)
    elastic = 0.5 * np.trapezoid((z_full ** 2 + params.delta) * state.ux_full ** 2, x_full)
    dz = np.diff(z_full) / grid.h
    gradient = 0.5 * params.eps * grid.h * (dz * dz).sum(axis=-1)
    tightness = np.trapezoid((1.0 - z_full) ** 2, x_full) / (2.0 * params.eps)
    return elastic + gradient + tightness


def run_fracture(params: ATParams, grid: Grid, horizon: float, m: int,
                 z0: Optional[np.ndarray] = None,
                 opts: Optional[SolverOptions] = None,
                 quad_pts: int = QUAD_PTS) -> FractureResult:
    """Coupled quasistatic run: evolve the phase field, recover displacements.

    Builds the derived scalar problem, validates it (reporting the load
    magnitude that would restore the convexity margin when it fails), runs
    the evolution and attaches a recovered displacement and the surrogate
    energy at every stored stamp.
    """
    from .evolution import run_evolution

    data, nl = build_problem(grid, params, z0, horizon)
    report = validate(data, nl)
    if not report.ok:
        msg = "; ".join(ln for ln in report.lines() if ln.startswith("FAIL"))
        if report.lambda0 < MARGIN_FLOOR:
            # the weight scales with the square of the load amplitude, and
            # L*sup(weight) = lam - margin must fall below lam
            admissible = float(np.sqrt(data.lam / (data.lam - report.lambda0)))
            msg += (f"; convexity would hold for load amplitudes scaled "
                    f"below {0.99 * admissible:.4g} of the current one")
        raise FractureSetupError(msg)

    traj = run_evolution(data, nl, m, opts=opts, quad_pts=quad_pts,
                         validate_first=False)
    coupled = recover_displacement(grid, traj.states, params, traj.times)
    energies = at_energy(grid, coupled, params)
    if not np.all(np.isfinite(energies)):
        raise FractureSetupError("FAIL  at_energy: surrogate fracture energy is not finite")
    return FractureResult(traj=traj, data=data, nl=nl, params=params,
                          coupled=coupled, at_energies=energies)
