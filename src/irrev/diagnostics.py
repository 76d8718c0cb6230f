"""Post-hoc verdicts on trajectories: energy accounting and structural checks.

Everything here is pure post-processing over an immutable trajectory and is
deterministic given its inputs.  Tolerances follow two regimes: algebraic
identities are asserted at 1e-10..1e-12, discretization-limited statements
are reported as refinement trends rather than absolute numbers.

Every verdict and series works on the whole stack of states in array
passes, one per block of times where profiles are evaluated; each stacked
evaluation equals the one-state call on its row to the last bit.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .grid import Grid, full_values, laplacian_diagonals, norm_h1
from .model import (QUAD_PTS, ZERO_NONLINEARITY, DiscretizedData, Nonlinearity, ProblemData,
                    _step_residual, time_blocks)
from .obstacle import SolverOptions, step_energy


def energy(data: ProblemData, nl: Nonlinearity, u: np.ndarray, t: float) -> float:
    """Energy of a state ``u`` of shape ``(n,)`` at time ``t``: quadratic
    part plus the weighted primitive of the nonlinearity minus the work of
    the source.

    Evaluates ``0.5*|D+ u|^2 + 0.5*lam*|u|^2 + sum(weight(t)*primitive(u))
    - (source(t), u)`` with the grid inner products.  This is the same
    expression as the per-step energy with the instantaneous data in place
    of the interval averages, and it is the single evaluation path used for
    every stored trajectory energy.
    """
    x = data.grid.nodes
    return step_energy(data.grid, u, data.source(x, t), data.weight(x, t),
                       data.lam, nl)


def energies(data: ProblemData, nl: Nonlinearity, states: np.ndarray,
             times: np.ndarray) -> np.ndarray:
    """:func:`energy` of ``states[k]`` at ``times[k]`` for every ``k``, equal to
    the last bit, from one stacked step energy and data evaluation per block
    of times; reads only the first ``len(times)`` rows of ``states``."""
    g = data.grid
    x = g.nodes
    out = np.empty(len(times))
    for sl in time_blocks(len(times), g.n):
        out[sl] = step_energy(g, states[sl], data.source(x, times[sl]),
                              data.weight(x, times[sl]), data.lam, nl)
    return out


@dataclass(frozen=True)
class EnergyReport:
    """Per-interval balance residuals of one run.

    ``residuals[k-1]`` compares the stored energy increment over
    ``(t_{k-1}, t_k]`` with the work of the explicit time dependence of the
    data along the piecewise constant interpolant, integrated by the
    midpoint rule.  The identity is exact in the time-continuous limit, so
    the meaningful statement is the decay of ``total_abs`` under step
    refinement.
    """

    energies: np.ndarray
    residuals: np.ndarray
    max_abs: float
    total_abs: float


@dataclass(frozen=True)
class CheckVerdict:
    name: str
    max_violation: float
    tolerance: float
    passed: bool
    worst: tuple = ()
    note: str = ""


def _verdict(name: str, violation: float, tol: float, worst=(), note="") -> CheckVerdict:
    return CheckVerdict(name=name, max_violation=float(violation), tolerance=tol,
                        passed=bool(violation <= tol), worst=tuple(worst), note=note)


# --------------------------------------------------------------------------
# energy balance
# --------------------------------------------------------------------------

def balance_residual(traj, data: ProblemData, nl: Nonlinearity,
                     quad_pts: int = QUAD_PTS) -> EnergyReport:
    """Residual of the energy balance over each step interval.

    For each interval the left side is the stored energy increment; the
    right side integrates ``sum(d/dt weight * primitive(z)) - (d/dt source,
    z)`` in time by the composite midpoint rule, holding the state at its
    end-of-interval value (the constant interpolant, matching the scheme's
    own accuracy).  The time derivatives and both inner products are
    evaluated in one stacked pass per block of quadrature points.
    """
    g = traj.grid
    x = g.nodes
    h = g.h
    t0, t1 = traj.times[:-1], traj.times[1:]
    # quadrature point j of step k is entry k*quad_pts + j
    pts = (t0[:, None] + (np.arange(quad_pts) + 0.5) * ((t1 - t0) / quad_pts)[:, None]).ravel()
    z = traj.states[1:]
    gz = np.asarray(nl.primitive(z), float)
    react, work = np.empty(pts.size), np.empty(pts.size)
    for sl in time_blocks(pts.size, g.n):
        k = np.arange(sl.start, sl.stop) // quad_pts
        react[sl] = h * np.vecdot(data.weight.dt(x, pts[sl]), gz[k])
        work[sl] = h * np.vecdot(data.source.dt(x, pts[sl]), z[k])
    # the per-step sums keep the order of a running sum over the points
    rhs = np.zeros(traj.m)
    for j in range(quad_pts):
        rhs += react[j::quad_pts]
        rhs -= work[j::quad_pts]
    rhs *= (t1 - t0) / quad_pts
    residuals = (traj.energies[1:] - traj.energies[:-1]) - rhs
    abs_res = np.abs(residuals)
    return EnergyReport(energies=traj.energies.copy(), residuals=residuals,
                        max_abs=float(abs_res.max()), total_abs=float(abs_res.sum()))


# --------------------------------------------------------------------------
# unilateral minimality
# --------------------------------------------------------------------------

def _averaged_data(traj) -> DiscretizedData:
    if traj.disc is None:
        raise ValueError("trajectory carries no interval-averaged data")
    return traj.disc


def check_unilateral_minimality(traj, nl: Nonlinearity, lam: float,
                                tol: float = 1e-10) -> CheckVerdict:
    """Certified bound on how far each step state is from minimal below itself.

    Step ``k`` minimized the step energy ``J_k`` with the interval-averaged
    data, which is ``mu_k``-strongly convex (``mu_k > 0`` the convexity
    margin, which every step solve requires), and the normal cone of
    ``{v <= z_k}`` at ``z_k`` is the nonnegative orthant.  So with
    ``eta_k = f_k - (-Lap z_k + lam z_k + w_k fn(z_k))`` every competitor
    ``v <= z_k`` satisfies

        J_k(z_k) - J_k(v) <= h * sum(min(eta_k, 0)^2) / (2 mu_k).

    Violation is the largest bound over all steps; ``worst`` is that step
    and the node of its most negative ``eta_k``.  Needs the trajectory's
    averaged data, ``traj.disc``; all steps are evaluated in one pass.
    """
    disc = _averaged_data(traj)
    eta = -_step_residual(traj.states[1:], disc.source_avg, disc.weight_avg, lam, nl,
                          laplacian_diagonals(traj.grid))
    neg = np.minimum(eta, 0.0)
    bounds = (traj.grid.h * (neg * neg).sum(axis=1)
              / (2.0 * nl.convexity_margin(lam, disc.weight_avg)))
    k = int(np.argmax(bounds))
    return _verdict("unilateral_minimality", bounds[k], tol,
                    worst=(k + 1, int(np.argmin(eta[k]))),
                    note=f"averaged-data certificate over {traj.m} steps")


# --------------------------------------------------------------------------
# two-sided operator bound per step
# --------------------------------------------------------------------------

def check_lewy_stampacchia(traj, lam: float, nl: Nonlinearity,
                           tol: float = 1e-8) -> CheckVerdict:
    """Nodewise two-sided bound pinning the step operator output.

    At every step the elliptic output of the new state must lie between the
    averaged source from above and, from below, the minimum of that source
    and the previous state's elliptic output (with the nonlinear term frozen
    at the new state):

        min(f_k, -Lap z_{k-1} + lam z_{k-1} + w_k fn(z_k))
            <= -Lap z_k + lam z_k + w_k fn(z_k) <= f_k.

    With the step residual ``G_k`` and ``A = -Lap + lam`` that reads ``G_k
    <= 0`` and ``min(-G_k, A(z_{k-1} - z_k)) <= 0``, checked for all steps
    in one pass.  Needs the trajectory's averaged data, ``traj.disc``.
    """
    disc = _averaged_data(traj)
    lap = laplacian_diagonals(traj.grid)
    z = traj.states[1:]
    G = _step_residual(z, disc.source_avg, disc.weight_avg, lam, nl, lap)
    drop = _step_residual(traj.states[:-1] - z, 0.0, 0.0, lam, ZERO_NONLINEARITY, lap)
    viol = np.maximum(np.minimum(-G, drop), G)
    k, i = np.unravel_index(int(np.argmax(viol)), viol.shape)
    return _verdict("lewy_stampacchia", max(float(viol[k, i]), 0.0), tol,
                    worst=(int(k) + 1, int(i)))


def check_irreversibility(traj, tol: float = 1e-12) -> CheckVerdict:
    """Largest nodewise increase between consecutive states (must be ~0)."""
    inc = np.diff(traj.states, axis=0)
    worst = float(inc.max(initial=-np.inf))
    k, i = np.unravel_index(int(np.argmax(inc)), inc.shape) if inc.size else (0, 0)
    return _verdict("irreversibility", max(worst, 0.0), tol, worst=(int(k) + 1, int(i)))


def check_dissipation_sign(traj, nl: Nonlinearity, lam: float,
                           tol: float = 1e-12) -> CheckVerdict:
    """Each step must not increase its own frozen-data step energy (one pass)."""
    g = traj.grid
    disc = _averaged_data(traj)
    rise = (step_energy(g, traj.states[1:], disc.source_avg, disc.weight_avg, lam, nl)
            - step_energy(g, traj.states[:-1], disc.source_avg, disc.weight_avg, lam, nl))
    k = int(np.argmax(rise))
    return _verdict("dissipation_sign", max(float(rise[k]), 0.0), tol, worst=(k + 1,))


# --------------------------------------------------------------------------
# refinement studies
# --------------------------------------------------------------------------

def regrid_problem(data: ProblemData, n: int) -> ProblemData:
    """Rebuild the problem on a grid with ``n`` interior nodes.

    The time profiles transfer unchanged; the initial state is linearly
    interpolated with endpoint values following the boundary tags (0 at a
    pinned end, flat extension at a zero-flux end).  A user-supplied source
    floor is interpolated the same way; a default floor stays default.
    """
    g = data.grid
    new_grid = Grid(a=g.a, b=g.b, n=n, bc_left=g.bc_left, bc_right=g.bc_right)

    def regrid_field(f: np.ndarray) -> np.ndarray:
        xs = np.concatenate(([g.a], g.nodes, [g.b]))
        return np.interp(new_grid.nodes, xs, full_values(g, f))

    return ProblemData(
        grid=new_grid, lam=data.lam, weight=data.weight, source=data.source,
        initial=regrid_field(data.initial), horizon=data.horizon,
        source_floor=None if data.source_floor is None else regrid_field(data.source_floor))


@dataclass(frozen=True)
class RefinementRow:
    kind: str                    # "tau" or "h"
    m: int
    n: int
    gap_v: Optional[float]       # sup-in-t H1 gap to the previous refinement
    balance_sum: float
    order_estimate: Optional[float]
    step_rate: float             # max_k |z_k - z_{k-1}|_H1 / sqrt(tau)


def refinement_study(data: ProblemData, nl: Nonlinearity, m_list, n_list,
                     opts: Optional[SolverOptions] = None,
                     quad_pts: int = QUAD_PTS) -> list[RefinementRow]:
    """Gap-between-refinements table in the step count and in the mesh size.

    For consecutive step refinements the gap is the sup over the coarser
    run's stamps of the H1 norm of the difference of states; for mesh
    refinements the finer state is interpolated onto the coarser nodes
    first.  Also reports the per-run total balance residual (with measured
    order between consecutive rows of the same kind) and the trend quantity
    ``max_k |z_k - z_{k-1}|_H1 / sqrt(tau)``, whose boundedness under
    refinement is the practical form of the scheme's rate estimate.

    Regridding the initial state perturbs its admissibility at the
    interpolation-error level, so the runs skip that gate; the per-step
    convexity guard still applies.
    """
    from .evolution import interp_constant, run_evolution

    def step_rate(traj) -> float:
        return float(norm_h1(traj.grid, np.diff(traj.states, axis=0)).max()
                     / np.sqrt(traj.tau))

    m_h = int(max(m_list)) if len(m_list) else 100
    runs = ([("tau", int(m), data) for m in sorted(m_list)]
            + [("h", m_h, regrid_problem(data, int(n))) for n in sorted(n_list)])
    rows: list[RefinementRow] = []
    prev = None
    for kind, m, pdata in runs:
        traj = run_evolution(pdata, nl, m, opts=opts, quad_pts=quad_pts,
                             validate_first=False)
        bal = balance_residual(traj, pdata, nl, quad_pts=quad_pts).total_abs
        gap = order = None
        if prev is not None and prev[0] == kind:
            _, prev_traj, prev_sum = prev
            g, cg = traj.grid, prev_traj.grid
            if kind == "tau":
                fine = np.array([interp_constant(traj, t) for t in prev_traj.times])
            else:
                fine_full_x = np.concatenate(([g.a], g.nodes, [g.b]))
                fine = np.array([np.interp(cg.nodes, fine_full_x, row) for row in
                                 full_values(g, traj.states[:prev_traj.m + 1])])
            gap = float(norm_h1(cg, fine - prev_traj.states).max())
            if bal > 0:
                order = float(np.log2(prev_sum / bal))
        rows.append(RefinementRow(kind, m, pdata.grid.n, gap, bal, order, step_rate(traj)))
        prev = (kind, traj, bal)
    return rows


def write_refinement_csv(rows: list[RefinementRow], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "m", "n", "gap_V", "balance_sum",
                         "order_estimate", "step_rate"])
        for r in rows:
            writer.writerow([
                r.kind, r.m, r.n,
                "" if r.gap_v is None else f"{r.gap_v:.17g}",
                f"{r.balance_sum:.17g}",
                "" if r.order_estimate is None else f"{r.order_estimate:.17g}",
                f"{r.step_rate:.17g}",
            ])
    return path


def verdicts_to_json(verdicts: list[CheckVerdict]) -> str:
    # verdicts.json keeps its "applicable" key, true for every verdict, until
    # its format next changes
    return json.dumps([{**asdict(v), "applicable": True} for v in verdicts],
                      sort_keys=True, indent=1)
