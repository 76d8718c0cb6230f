"""Post-hoc verdicts on trajectories: the energy balance and structural checks.

Everything here is pure post-processing over an immutable trajectory and is
deterministic given its inputs.  Tolerances follow two regimes: statements
the discrete scheme satisfies exactly are verdicts, gated at 1e-12..1e-8
(the energy bracket relative to its step's energy scale, the others
absolutely or at a residual's rounding floor where larger);
discretization-limited quantities, the gaps between refinements and the
summed energy bracket width, are reported as refinement trends.

Every verdict and series works on the states in array passes, one per
block of times of :func:`~irrev.model.time_blocks`, so the memory beyond
the trajectory is a few blocks; each stacked evaluation equals the
one-state call on its row to the last bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .evolution import _csv_rows, _json, _rewrite, interp_constant, run_evolution
from .grid import Grid, forward_jumps, full_values, laplacian_diagonals, norm_h1
from .model import (QUAD_PTS, ZERO_NONLINEARITY, DiscretizedData, Nonlinearity, ProblemData,
                    _step_residual, floor_of_sizes, rounding_sizes, time_blocks)
from .obstacle import SolverOptions, step_energy


def energy(data: ProblemData, nl: Nonlinearity, u: np.ndarray, t: float) -> float:
    """Energy of a state ``u`` of shape ``(n,)`` at time ``t``: quadratic
    part plus the weighted primitive of the nonlinearity minus the work of
    the source.

    Evaluates ``0.5*|D+ u|^2 + 0.5*lam*|u|^2 + sum(weight(t)*primitive(u))
    - (source(t), u)`` with the grid inner products.  This is the same
    expression as the per-step energy with the instantaneous data in place
    of the interval averages.  The stored trajectory energies come from
    :func:`energies`, which equals it to the last bit.
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
# unilateral minimality
# --------------------------------------------------------------------------

def _averaged_data(traj) -> DiscretizedData:
    if traj.disc is None:
        raise ValueError("trajectory carries no interval-averaged data")
    return traj.disc


def check_unilateral_minimality(traj, nl: Nonlinearity, lam: float) -> CheckVerdict:
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
    averaged data, ``traj.disc``; the steps are evaluated in the blocks of
    :func:`~irrev.model.time_blocks`, each bound equal to the one-step
    evaluation to the last bit.
    """
    disc = _averaged_data(traj)
    lap = laplacian_diagonals(traj.grid)
    bounds, nodes = np.empty(traj.m), np.empty(traj.m, dtype=int)
    for sl in time_blocks(traj.m, traj.grid.n):
        eta = -_step_residual(traj.states[sl.start + 1:sl.stop + 1], disc.source_avg[sl],
                              disc.weight_avg[sl], lam, nl, lap)
        neg = np.minimum(eta, 0.0)
        bounds[sl] = (traj.grid.h * (neg * neg).sum(axis=1)
                      / (2.0 * nl.convexity_margin(lam, disc.weight_avg[sl])))
        nodes[sl] = np.argmin(eta, axis=1)
    k = int(np.argmax(bounds))
    return _verdict("unilateral_minimality", bounds[k], 1e-10, worst=(k + 1, int(nodes[k])),
                    note=f"averaged-data certificate over {traj.m} steps")


# --------------------------------------------------------------------------
# two-sided operator bound per step
# --------------------------------------------------------------------------

def check_lewy_stampacchia(traj, lam: float, nl: Nonlinearity) -> CheckVerdict:
    """Nodewise two-sided bound pinning the step operator output.

    At every step the elliptic output of the new state must lie between the
    averaged source from above and, from below, the minimum of that source
    and the previous state's elliptic output (with the nonlinear term frozen
    at the new state):

        min(f_k, -Lap z_{k-1} + lam z_{k-1} + w_k fn(z_k))
            <= -Lap z_k + lam z_k + w_k fn(z_k) <= f_k.

    With the step residual ``G_k`` and ``A = -Lap + lam`` that reads ``G_k
    <= 0`` and ``min(-G_k, A(z_{k-1} - z_k)) <= 0``, checked in the blocks of
    steps of :func:`~irrev.model.time_blocks`.  Needs the trajectory's
    averaged data, ``traj.disc``.  Where 1e-8 fails, the tolerance is the
    larger of 1e-8 and the steps' :func:`~irrev.model.rounding_floor` (kappa
    = 1, from the sup norms of all steps): the solver accepted each ``G_k``
    within it or ``TOL_KKT``, and the drop is <= 0 at contact nodes.
    """
    disc = _averaged_data(traj)
    lap = laplacian_diagonals(traj.grid)
    blocks = time_blocks(traj.m, traj.grid.n)

    def steps(sl: slice):
        """The residual's state and data for the steps ``sl.start+1..sl.stop``."""
        return traj.states[sl.start + 1:sl.stop + 1], disc.source_avg[sl], disc.weight_avg[sl]

    peaks, nodes = np.empty(traj.m), np.empty(traj.m, dtype=int)
    for sl in blocks:
        z, f, w = steps(sl)
        G = _step_residual(z, f, w, lam, nl, lap)
        drop = _step_residual(traj.states[sl] - z, 0.0, 0.0, lam, ZERO_NONLINEARITY, lap)
        viol = np.maximum(np.minimum(-G, drop), G)
        nodes[sl] = np.argmax(viol, axis=1)
        peaks[sl] = np.take_along_axis(viol, nodes[sl, None], axis=1)[:, 0]
    k = int(np.argmax(peaks))
    worst = max(float(peaks[k]), 0.0)
    tol = 1e-8
    if worst > tol:
        sizes = np.max([rounding_sizes(*steps(sl), nl) for sl in blocks], axis=0)
        tol = max(tol, floor_of_sizes(sizes, lam, lap))
    return _verdict("lewy_stampacchia", worst, tol, worst=(k + 1, int(nodes[k])))


def check_irreversibility(traj) -> CheckVerdict:
    """Largest nodewise increase between consecutive states (must be ~0).

    The steps are walked in the blocks of :func:`~irrev.model.time_blocks`,
    each block with the last state of the block before; ``worst`` is the
    first step, and its first node, where the largest increase occurs.
    """
    m = traj.states.shape[0] - 1
    # a run of no steps reads one row of no increase, at (1, 0)
    peaks, nodes = np.full(max(m, 1), -np.inf), np.zeros(max(m, 1), dtype=int)
    for sl in time_blocks(m, traj.grid.n):
        inc = np.diff(traj.states[sl.start:sl.stop + 1], axis=0)
        nodes[sl] = np.argmax(inc, axis=1)
        peaks[sl] = np.take_along_axis(inc, nodes[sl, None], axis=1)[:, 0]
    k = int(np.argmax(peaks))
    return _verdict("irreversibility", max(float(peaks[k]), 0.0), 1e-12,
                    worst=(k + 1, int(nodes[k])))


# --------------------------------------------------------------------------
# energy balance
# --------------------------------------------------------------------------

def energy_bracket(traj, nl: Nonlinearity, lam: float):
    """The two-sided energy estimate of every step ``k = 1..m``,

        D_k(z_k) <= J_k(z_k) - J_{k-1}(z_{k-1}) <= D_k(z_{k-1}),

    as the arrays ``(lower, rise, upper, scale)`` of shape ``(m,)``.

    ``J_k`` is step ``k``'s energy with the averaged data (``J_0`` with the
    data at ``t = 0``) and ``D_k(u) = J_k(u) - J_{k-1}(u) = h*sum((w_k -
    w_{k-1})*primitive(u)) - h*(f_k - f_{k-1}, u)`` is the pure data work, so
    ``lam`` and the Laplacian cancel from it exactly.  The upper half holds
    because ``z_{k-1}`` is admissible in step ``k``, the lower half because
    ``z_k <= z_{k-1}`` is admissible in step ``k-1`` (for ``k = 1`` when the
    initial state is admissible); summed over the steps this is the discrete
    energy balance of time-incremental minimization, and ``sum(upper -
    lower)``, the summed bracket width, shrinks as ``tau`` for data smooth
    in time.  ``scale`` is the larger of the two stamps' ``h*sum(|quadratic|
    + |w*primitive| + |f*u|)``, the size of the terms whose rounding the
    bracket carries.  The states are walked in the blocks of
    :func:`~irrev.model.time_blocks`, each block with the last stamp of the
    block before, so no array of all the stamps is stacked and the peak
    memory beyond the trajectory is a few blocks; each entry equals the
    one-step evaluation to the last bit.  Needs ``traj.disc``.
    """
    disc = _averaged_data(traj)
    g = traj.grid
    h = g.h
    m1 = traj.states.shape[0]
    energies, size = np.empty(m1), np.empty(m1)
    lower, upper = np.empty(m1 - 1), np.empty(m1 - 1)
    for sl in time_blocks(m1, g.n):
        j = max(sl.start - 1, 0)      # stamps j..stop-1: the steps j+1..stop-1
        z = traj.states[j:sl.stop]
        f = _stamp_rows(disc.source_init, disc.source_avg, j, sl.stop)
        w = _stamp_rows(disc.weight_init, disc.weight_avg, j, sl.stop)
        p = np.asarray(nl.primitive(z), float)
        du = forward_jumps(g, z)
        quad = 0.5 * h * np.vecdot(du, du) + 0.5 * lam * h * np.vecdot(z, z)
        energies[j:sl.stop] = quad + h * np.vecdot(w, p) - h * np.vecdot(f, z)
        size[j:sl.stop] = (quad + h * np.vecdot(np.abs(w), np.abs(p))
                           + h * np.vecdot(np.abs(f), np.abs(z)))
        df, dw = np.diff(f, axis=0), np.diff(w, axis=0)
        lower[j:sl.stop - 1] = h * np.vecdot(dw, p[1:]) - h * np.vecdot(df, z[1:])
        upper[j:sl.stop - 1] = h * np.vecdot(dw, p[:-1]) - h * np.vecdot(df, z[:-1])
    return lower, np.diff(energies), upper, np.maximum(size[:-1], size[1:])


def _stamp_rows(init: np.ndarray, avg: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows ``start..stop-1`` of the stamp data ``[init, *avg]``: a view of
    ``avg`` when ``start > 0``, else ``init`` stacked on the rows of ``avg``
    (a copy of one block)."""
    return avg[start - 1:stop - 1] if start else np.vstack((init, avg[:stop - 1]))


def check_energy_balance(traj, nl: Nonlinearity, lam: float) -> CheckVerdict:
    """Every step's energy increment lies in its bracket, :func:`energy_bracket`.

    The violation is the largest excess beyond either end relative to that
    step's energy scale, gated at 1e-12.  A faulty state ``z_k`` breaks the
    brackets of steps ``k`` and ``k+1``, so ``worst`` is the first step
    beyond the gate (the step of the largest excess when none is); the note
    carries the summed bracket width.
    """
    tol = 1e-12
    lower, rise, upper, scale = energy_bracket(traj, nl, lam)
    excess = np.maximum(np.maximum(lower - rise, rise - upper), 0.0)
    ratio = excess / np.maximum(scale, np.finfo(float).tiny)
    beyond = np.flatnonzero(ratio > tol)
    k = int(beyond[0]) if beyond.size else int(np.argmax(ratio))
    return _verdict("energy_balance", ratio.max(), tol, worst=(k + 1,),
                    note=f"bracket width {(upper - lower).sum():.3g} summed over {traj.m} steps")


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
        return np.interp(new_grid.nodes, g.nodes_full, full_values(g, f))

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
    bracket_width: float         # summed energy bracket width of the run
    order_estimate: Optional[float]
    step_rate: float             # max_k |z_k - z_{k-1}|_H1 / sqrt(tau)


def refinement_study(data: ProblemData, nl: Nonlinearity, m_list, n_list,
                     opts: Optional[SolverOptions] = None,
                     quad_pts: int = QUAD_PTS) -> list[RefinementRow]:
    """Gap-between-refinements table in the step count and in the mesh size.

    For consecutive step refinements the gap is the sup over the coarser
    run's stamps of the H1 norm of the difference of states; for mesh
    refinements the finer state is interpolated onto the coarser nodes
    first.  Also reports each run's summed energy bracket width (see
    :func:`energy_bracket`; order 1 in ``tau``), with its measured order
    between consecutive ``tau`` rows; an ``h`` row has none, since the width
    measures the time discretization and barely moves with ``h``.  Each row
    also carries the trend quantity ``max_k |z_k - z_{k-1}|_H1 / sqrt(tau)``,
    whose boundedness under refinement is the practical form of the scheme's
    rate estimate.

    Regridding the initial state perturbs its admissibility at the
    interpolation-error level, so the runs skip that gate; the per-step
    convexity guard still applies.
    """
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
        lower, _, upper, _ = energy_bracket(traj, nl, pdata.lam)
        width = float((upper - lower).sum())
        gap = order = None
        if prev is not None and prev[0] == kind:
            _, prev_traj, prev_width = prev
            g, cg = traj.grid, prev_traj.grid
            if kind == "tau":
                fine = np.array([interp_constant(traj, t) for t in prev_traj.times])
            else:
                fine = np.array([np.interp(cg.nodes, g.nodes_full, row) for row in
                                 full_values(g, traj.states[:prev_traj.m + 1])])
            gap = float(norm_h1(cg, fine - prev_traj.states).max())
            if kind == "tau" and width > 0:
                order = float(np.log2(prev_width / width))
        rows.append(RefinementRow(kind, m, pdata.grid.n, gap, width, order, step_rate(traj)))
        prev = (kind, traj, width)
    return rows


def write_refinement_csv(rows: list[RefinementRow], path: str | Path) -> Path:
    """One line per row, its float values in the shortest text that reloads
    to their bits (as :func:`~irrev.evolution.write_csv` writes them), an
    empty cell for a missing gap or order; lines end in ``\\n``."""
    floats = [[r.gap_v, r.bracket_width, r.order_estimate, r.step_rate] for r in rows]
    texts = iter(_csv_rows(np.array([[v for row in floats for v in row if v is not None]]))
                 .decode().rstrip("\n").split(","))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["kind,m,n,gap_V,bracket_width,order_estimate,step_rate"]
    lines += [",".join([r.kind, str(r.m), str(r.n),
                        *("" if v is None else next(texts) for v in row)])
              for r, row in zip(rows, floats)]
    with _rewrite(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode())
    return path


def verdicts_to_json(verdicts: list[CheckVerdict]) -> bytes:
    return _json([asdict(v) for v in verdicts])
