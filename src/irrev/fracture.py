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

A ramp load (``ramp_linear``, ``ramp_sine``) holds its value after
``ramp_time``, so the weight has the same bits at every later time, and a
run under it ends in a held stretch: from the second step whose interval
lies past the ramp on, each step repeats the data of the step before, and
:func:`irrev.evolution.run_evolution` copies its state instead of solving.

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

    # |fn| attains its maximum at s = +-sqrt(delta/3)
    return Nonlinearity(fn=fn, primitive=primitive, deriv=deriv,
                        slope_bound=float(-deriv(np.sqrt(delta))),
                        growth=float(abs(fn(np.sqrt(delta / 3.0)))))


def _cumtrapz(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid of ``y`` along its last axis."""
    out = np.zeros_like(y)
    out[..., 1:] = np.cumsum(0.5 * np.diff(x) * (y[..., :-1] + y[..., 1:]), axis=-1)
    return out


def cumulative_load(grid: Grid, params: ATParams, t) -> np.ndarray:
    """H on all nodes: trapezoid integral of the load from the left end.

    A scalar ``t`` gives shape ``(n+2,)``, an array of times one row per
    time.  Raises on the first row that fails :func:`_check_zero_average`.
    """
    x_full = grid.nodes_full
    H = _cumtrapz(x_full, params.load(x_full, t))
    _check_zero_average(H, t)
    return H


def _check_zero_average(H: np.ndarray, t=None) -> None:
    """Raise unless every row of ``H``, the cumulative load at the times ``t``
    (or its space factor's), ends within quadrature tolerance of 0."""
    rows = np.atleast_2d(H)
    scale = np.abs(rows).max(axis=1)
    bad = np.flatnonzero(np.abs(rows[:, -1]) > 1e-8 * scale + 1e-14)
    if bad.size:
        i = int(bad[0])
        when = "in its space factor" if t is None else f"at t={np.atleast_1d(t)[i]:.6g}"
        raise ValueError(f"load has nonzero spatial average {when}: "
                         f"H(end)={rows[i, -1]:.3g} vs scale {scale[i]:.3g}")


def _cumulative_space(grid: Grid, params: ATParams) -> np.ndarray:
    """``C``, the cumulative space factor of a load ``space(x)*b(t)`` of one
    term, checked for zero average: the load's ``H`` is ``b*C``."""
    x_full, space = grid.nodes_full, params.load.terms[0][0]
    C = _cumtrapz(x_full, np.broadcast_to(space(x_full), x_full.shape).astype(float))
    _check_zero_average(C)
    return C


def load_to_sigma(grid: Grid, params: ATParams) -> TimeProfile:
    """Weight profile ``H(x,t)^2`` induced by the load, with its exact time
    derivative ``2*H*dH/dt``.

    Grid-bound: H is integrated on the construction grid and linearly
    interpolated at requested coordinates (exact at the grid's own nodes).
    A load ``space(x)*b(t)`` of one term (every load preset) has ``H = b*C``
    with ``C`` the cumulative ``space``, integrated and checked for zero
    average once, here: the weight is the term ``(C^2, b^2, 2*b*b')``.  Any
    other load is integrated and interpolated row by row at each time.
    """
    x_full = grid.nodes_full
    if len(params.load.terms) == 1:
        _, b, db = params.load.terms[0]
        C = _cumulative_space(grid, params)
        return TimeProfile(terms=[(lambda x: np.interp(x, x_full, C) ** 2,
                                   None if b is None else lambda t: b(t) ** 2,
                                   None if db is None else lambda t: 2.0 * b(t) * db(t))])

    def rows(x, H):
        xr = node_row(x)
        return np.reshape([np.interp(xr, x_full, h) for h in H.reshape(-1, H.shape[-1])],
                          H.shape[:-1] + xr.shape)

    def dt_evaluator(x, t):
        dH = _cumtrapz(x_full, params.load.dt(x_full, t[..., 0]))
        return 2.0 * rows(x, cumulative_load(grid, params, t[..., 0])) * rows(x, dH)

    return TimeProfile(lambda x, t: rows(x, cumulative_load(grid, params, t[..., 0])) ** 2,
                       dt_evaluator)


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
    if len(params.load.terms) == 1:   # H = b*C, as in load_to_sigma
        b = params.load.terms[0][1] or np.ones_like
        H = b(np.asarray(t, dtype=float)[..., None]) * _cumulative_space(grid, params)
    else:
        H = cumulative_load(grid, params, t)
    ux = -H / (z_full * z_full + params.delta)
    return CoupledState(z=z_full[..., 1:-1], x_full=x_full, u_full=_cumtrapz(x_full, ux),
                        ux_full=ux, sigma=H[..., 1:-1] ** 2, t=t)


def relaxed_profile(grid: Grid, params: ATParams) -> np.ndarray:
    """Load-free equilibrium phase field: solves -z'' + lam*(z - 1) = 0.

    Close to 1 in the interior with boundary layers of width eps at the
    pinned ends.  With a load that starts from zero this state satisfies
    the initial admissibility condition exactly.
    """
    lam = params.lam
    ones = np.full(grid.n, lam)
    zeros = np.zeros(grid.n)
    return solve_unconstrained(grid, ones, zeros, lam, ZERO_NONLINEARITY)


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
