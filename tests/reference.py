"""Test-only references that the suites check ``irrev`` against.

Nothing here is a production path.  The references stay independent of the
code they check: they import only public ``irrev`` names, and their discrete
operator, :func:`neg_laplacian`, reads each endpoint's ghost value from the
grid's boundary tag instead of taking the matrix of
:func:`irrev.grid.laplacian_diagonals`.  A fault in the production stencil
therefore shows up as a disagreement with the references rather than being
shared by both sides.

One reference is the exception: :func:`frozen_solve_step` is a frozen copy
of an earlier step kernel that the production one must reproduce bit for
bit, so it shares the production operator and residual and differs only in
how the sweeps and Newton iterations are organised.  It predates the
rounding floor: its ``opts`` must carry ``tol_kkt`` and ``max_outer``, and
it raises a Newton stall that the production kernel may accept within the
floor.  :func:`plain_long_csv` is a frozen copy of the long-table writer as
it was before repeated stamps were copied, formatting the whole table in one
pass.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Optional

import numpy as np
import orjson
from scipy.linalg.lapack import dgtsv

from irrev import (BC, CheckVerdict, CoercivityLost, Grid, MaxIterations, NewtonFailure,
                   Nonlinearity, ObstacleError, ObstacleResult, ProblemData,
                   SolverOptions, Trajectory, discretize_time, run_evolution, step_energy)
from irrev.grid import forward_jumps, laplacian_diagonals
from irrev.model import MARGIN_FLOOR, QUAD_PTS, _step_residual
from irrev.obstacle import COARSEST_N, MAX_NEWTON, NEWTON_DAMPING, TOL_KKT

PG_MAX_ITERS = 200_000     # projected-gradient iteration budget
BACKTRACK = 0.5            # projected-gradient step shrink factor
ORACLE_FEAS_TOL = 1e-12    # oracle: slack allowed in the sign of eta and in u <= psi
ORACLE_AMB_TOL = 1e-9      # oracle: largest spread tolerated among accepted KKT points


# --------------------------------------------------------------------------
# grid operators
# --------------------------------------------------------------------------

def neg_laplacian(grid: Grid, u) -> np.ndarray:
    """Second difference ``(-u_{i-1} + 2 u_i - u_{i+1}) / h^2`` on the interior
    nodes, with the ghost value beyond each end taken from its tag: 0 beyond a
    Dirichlet end, the adjacent interior value beyond a Neumann end."""
    v = np.asarray(u, dtype=float)
    left = v[0] if grid.bc_left is BC.NEUMANN else 0.0
    right = v[-1] if grid.bc_right is BC.NEUMANN else 0.0
    padded = np.concatenate(([left], v, [right]))
    c = 1.0 / grid.h ** 2
    return 2.0 * c * v - c * padded[2:] - c * padded[:-2]


def inner_l2(grid: Grid, u, v) -> float:
    """Discrete L2 pairing ``h * sum(u_i v_i)`` over the interior nodes."""
    return grid.h * float(np.dot(np.asarray(u, dtype=float), np.asarray(v, dtype=float)))


def grad_inner(grid: Grid, u, v) -> float:
    """Discrete Dirichlet form ``h * sum(D+u * D+v)`` over all jumps; summation
    by parts makes it ``inner_l2(neg_laplacian(u), v)`` up to rounding."""
    return grid.h * float(np.dot(forward_jumps(grid, u), forward_jumps(grid, v)))


def step_gradient(grid: Grid, u: np.ndarray, source, weight, lam: float,
                  nl: Nonlinearity) -> np.ndarray:
    """``-Lap u + lam*u + w*fn(u) - f``, the l2 gradient of the step energy."""
    return (neg_laplacian(grid, u) + lam * u
            + weight * np.asarray(nl.fn(u), float) - source)


def _natural_residual(eta: np.ndarray, slack: np.ndarray) -> float:
    """Worst nodewise |min(eta, slack)|; zero exactly at a KKT point."""
    return float(np.abs(np.minimum(eta, slack)).max())


def _require_convex(weight: np.ndarray, lam: float, nl: Nonlinearity) -> None:
    margin = nl.convexity_margin(lam, weight)
    if not margin >= MARGIN_FLOOR:
        raise CoercivityLost(float(margin))


# --------------------------------------------------------------------------
# projected gradient with monotone backtracking
# --------------------------------------------------------------------------

def solve_step_pg(grid: Grid, obstacle, source, weight, lam: float, nl: Nonlinearity,
                  record_energy: Optional[list] = None) -> ObstacleResult:
    """Projected-gradient descent on the step energy over ``{u <= psi}``.

    Steps ``u -> min(u - s*grad, psi)`` with a spectral (Barzilai-Borwein)
    step proposal and monotone Armijo backtracking, so the step energy is
    nonincreasing along accepted iterates; when ``record_energy`` is a
    list, the energy of the start and of every accepted iterate is appended
    to it.  Terminates when the nodewise residual ``|min(eta, psi - u)|``
    is within ``TOL_KKT``, the certificate :func:`irrev.solve_step` reports.
    """
    psi = np.asarray(obstacle, dtype=float)
    fv = np.asarray(source, dtype=float)
    wv = np.asarray(weight, dtype=float)
    _require_convex(wv, lam, nl)
    h = grid.h

    # curvature scale of the quadratic part, for the fallback step
    mu = 4.0 / h ** 2 + lam + nl.slope_bound * float(wv.max(initial=0.0)) + 1.0
    s_fallback = 1.0 / mu

    u = psi.copy()
    J = step_energy(grid, u, fv, wv, lam, nl)
    g = step_gradient(grid, u, fv, wv, lam, nl)
    if record_energy is not None:
        record_energy.append(J)
    prev_u: Optional[np.ndarray] = None
    prev_g: Optional[np.ndarray] = None
    kkt = _natural_residual(-g, psi - u)

    it = 0
    while kkt > TOL_KKT and it < PG_MAX_ITERS:
        it += 1
        s = s_fallback
        if prev_u is not None:
            du = u - prev_u
            dg = g - prev_g
            denom = float(np.dot(du, dg))
            if denom > 0.0:
                s = float(np.dot(du, du)) / denom
                s = min(max(s, 1e-6 * s_fallback), 1e12 * s_fallback)

        # steps at or below 1/curvature descend in exact arithmetic, so the
        # Armijo test only gates the aggressive spectral proposals; a noise
        # floor keeps it meaningful once energy decrements reach roundoff
        slope = np.abs(nl.deriv(u))
        s_safe = 0.5 / (4.0 / h ** 2 + lam + float((wv * slope).max(initial=0.0)) + 1.0)
        moved = False
        while True:
            u_try = np.minimum(u - s * g, psi)
            d = u_try - u
            dd = h * float(np.dot(d, d))
            if dd == 0.0:
                break
            J_try = step_energy(grid, u_try, fv, wv, lam, nl)
            noise = 1e-14 * (abs(J) + abs(J_try) + 1.0)
            if J_try <= J - 1e-4 * dd / s + noise or s <= s_safe:
                moved = True
                break
            s *= BACKTRACK
        if not moved:
            break
        prev_u, prev_g = u, g
        u, J = u_try, J_try
        g = step_gradient(grid, u, fv, wv, lam, nl)
        if record_energy is not None:
            record_energy.append(J)
        kkt = _natural_residual(-g, psi - u)

    contact = u >= psi  # projection lands exactly on psi where it clips
    eta = np.where(contact, -g, 0.0)
    result = ObstacleResult(
        z=u, eta=eta,
        active=np.flatnonzero(contact & (eta > 0.0)), iters=it, kkt_residual=kkt)
    if kkt > TOL_KKT:
        raise MaxIterations(
            f"projected gradient stalled at KKT residual {kkt:.3g} "
            f"after {it} iterations", result=result)
    return result


# --------------------------------------------------------------------------
# exhaustive active-set enumeration (certifying oracle for small grids)
# --------------------------------------------------------------------------

class NoCandidate(ObstacleError):
    """No active set produced an admissible KKT point (bug or lost convexity)."""


class AmbiguousCandidates(ObstacleError):
    """Two active sets produced genuinely different KKT points."""


def oracle_enumerate(grid: Grid, obstacle, source, weight, lam: float,
                     nl: Nonlinearity) -> ObstacleResult:
    """Try every subset of nodes as the contact set and keep the KKT-admissible one.

    For each of the 2^n subsets: pin ``u = psi`` there, solve the force
    balance on the complement with a dense Newton iteration on the matrix
    of :func:`neg_laplacian`, recover the multiplier on the subset, and
    accept iff the multiplier is nonnegative and the state is below the
    obstacle (within ``ORACLE_FEAS_TOL``).  Strict convexity makes the KKT
    point unique, so all accepted candidates must agree up to tolerance
    ties; the one with the smallest recomputed KKT residual is returned.
    Quadratic cost in 2^n: refuses ``n > 12``.
    """
    n = grid.n
    if n > 12:
        raise ValueError("enumeration oracle is limited to n <= 12")
    psi = np.asarray(obstacle, dtype=float)
    fv = np.asarray(source, dtype=float)
    wv = np.asarray(weight, dtype=float)
    _require_convex(wv, lam, nl)
    lap_dense = np.column_stack([neg_laplacian(grid, e) for e in np.eye(n)])

    def dense_residual(u: np.ndarray) -> np.ndarray:
        return lap_dense @ u + lam * u + wv * np.asarray(nl.fn(u), float) - fv

    def dense_newton(u: np.ndarray, free_idx: np.ndarray) -> Optional[np.ndarray]:
        for _ in range(80):
            G = dense_residual(u)
            r = float(np.abs(G[free_idx]).max())
            if r <= 1e-13 * (1.0 + float(np.abs(fv).max())):
                return u
            jac = lap_dense[np.ix_(free_idx, free_idx)].copy()
            jac[np.diag_indices_from(jac)] += lam + wv[free_idx] * nl.deriv(u[free_idx])
            try:
                delta = np.linalg.solve(jac, -G[free_idx])
            except np.linalg.LinAlgError:
                return None
            alpha = 1.0
            while alpha > 1e-12:
                u_try = u.copy()
                u_try[free_idx] += alpha * delta
                if float(np.abs(dense_residual(u_try)[free_idx]).max()) <= (1 - 1e-4 * alpha) * r:
                    u = u_try
                    break
                alpha *= 0.5
            else:
                return None
        return None

    accepted: list[ObstacleResult] = []
    for mask_bits in range(2 ** n):
        active = np.array([(mask_bits >> i) & 1 for i in range(n)], dtype=bool)
        u = psi.copy()
        free_idx = np.flatnonzero(~active)
        if free_idx.size:
            solved = dense_newton(u, free_idx)
            if solved is None:
                continue
            u = solved
        G = dense_residual(u)
        eta = np.where(active, -G, 0.0)
        if eta.min(initial=0.0) < -ORACLE_FEAS_TOL:
            continue
        if (u - psi).max() > ORACLE_FEAS_TOL:
            continue
        kkt = _natural_residual(-G, psi - u)
        accepted.append(ObstacleResult(
            z=u, eta=eta,
            active=np.flatnonzero(active), iters=1, kkt_residual=kkt))

    if not accepted:
        raise NoCandidate("no active set yields an admissible KKT point")
    zs = np.array([res.z for res in accepted])
    spread = float(np.abs(zs - zs[0]).max())
    if spread > ORACLE_AMB_TOL:
        raise AmbiguousCandidates(
            f"{len(accepted)} KKT points differ by {spread:.3g} in max norm")
    return min(accepted, key=lambda res: res.kkt_residual)


# --------------------------------------------------------------------------
# frozen step kernel (bit-for-bit reference of irrev.obstacle.solve_step)
# --------------------------------------------------------------------------

def _frozen_solve_free_jacobian(lap, idx: np.ndarray, jd: np.ndarray,
                                rhs: np.ndarray) -> np.ndarray:
    if idx.size == 1:
        return rhs / jd
    sub, _, sup = lap
    consec = (idx[1:] - idx[:-1]) == 1
    dl = np.where(consec, sub[idx[:-1]], 0.0)
    du = np.where(consec, sup[idx[:-1]], 0.0)
    _, _, _, x, info = dgtsv(dl, jd, du, rhs, overwrite_dl=1, overwrite_d=1,
                             overwrite_du=1, overwrite_b=1)
    if info != 0:
        raise NewtonFailure(f"singular step Jacobian (dgtsv info={info})")
    return x


def _frozen_newton_on_subset(u: np.ndarray, free: np.ndarray, fv: np.ndarray,
                             wv: np.ndarray, lam: float, nl: Nonlinearity, lap,
                             tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on the nodes flagged by the mask ``free``, gathering and
    scattering through their indices on every iteration."""
    G = _step_residual(u, fv, wv, lam, nl, lap)
    idx = free.nonzero()[0]
    if idx.size == 0:
        return u, G
    r = float(np.abs(G[idx]).max())
    if not math.isfinite(r):
        raise NewtonFailure(f"non-finite residual {r} on the free nodes: "
                            "the step data or state is not finite")
    alpha_floor = NEWTON_DAMPING ** 40

    for _ in range(MAX_NEWTON):
        if r <= tol:
            return u, G
        jd = lap[1][idx] + lam + wv[idx] * nl.deriv(u[idx])
        delta = _frozen_solve_free_jacobian(lap, idx, jd, -G[idx])

        alpha = 1.0
        while True:
            u_try = u.copy()
            u_try[idx] += alpha * delta
            G_try = _step_residual(u_try, fv, wv, lam, nl, lap)
            r_try = float(np.abs(G_try[idx]).max())
            if r_try <= (1.0 - 1e-4 * alpha) * r or r_try <= tol:
                u, G, r = u_try, G_try, r_try
                break
            alpha *= NEWTON_DAMPING
            if alpha < alpha_floor:
                raise NewtonFailure(
                    f"Newton stalled at residual {r:.3g} (damping floor reached)")
    if r <= tol:
        return u, G
    raise NewtonFailure(f"Newton did not reach tolerance {tol:.3g}; residual {r:.3g}")


def frozen_solve_step(grid: Grid, obstacle, source, weight, lam: float, nl: Nonlinearity,
                      opts: Optional[SolverOptions] = None,
                      initial_active: Optional[np.ndarray] = None) -> ObstacleResult:
    """The primal-dual active-set step of :func:`irrev.solve_step` as it was
    when its Newton gathered and scattered the free nodes: boolean masks,
    ``np.where`` multiplier, predictor ``eta + (u - psi) > 0``, a fresh
    result every sweep, and nested iteration through
    :func:`_frozen_coarse_active`."""
    opts = opts or SolverOptions()
    psi = np.asarray(obstacle, dtype=float)
    fv = np.asarray(source, dtype=float)
    wv = np.asarray(weight, dtype=float)
    margin = lam - nl.slope_bound * np.max(wv, axis=-1, initial=0.0)
    if not margin >= MARGIN_FLOOR:
        raise CoercivityLost(margin)
    lap = laplacian_diagonals(grid)
    tol_inner = 0.1 * opts.tol_kkt

    active = np.zeros(grid.n, bool)
    if initial_active is not None:
        active[np.asarray(initial_active, dtype=int)] = True

    u = psi.copy()
    best: Optional[ObstacleResult] = None
    for outer in range(1, opts.max_outer + 1):
        u[active] = psi[active]
        u, G = _frozen_newton_on_subset(u, ~active, fv, wv, lam, nl, lap, tol_inner)
        eta = np.where(active, -G, 0.0)
        kkt = _natural_residual(-G, psi - u)
        result = ObstacleResult(
            z=u.copy(), eta=eta,
            active=active.nonzero()[0], iters=outer, kkt_residual=kkt)
        if best is None or kkt < best.kkt_residual:
            best = result
        new_active = (eta + (u - psi)) > 0.0
        if kkt <= opts.tol_kkt and (new_active == active).all():
            return result
        if (outer == 1 and opts.max_outer > 1 and (grid.n - 1) // 2 >= COARSEST_N
                and not active.any()):
            new_active = _frozen_coarse_active(grid, psi, fv, wv, lam, nl, opts, new_active)
        active = new_active
    raise MaxIterations(
        f"no stable active set within {opts.max_outer} sweeps "
        f"(best KKT residual {best.kkt_residual:.3g})", result=best)


def _frozen_coarse_active(grid: Grid, psi: np.ndarray, fv: np.ndarray, wv: np.ndarray,
                          lam: float, nl: Nonlinearity, opts: SolverOptions,
                          fallback: np.ndarray) -> np.ndarray:
    """Nested-iteration guess from the frozen solve on ``(n-1)//2`` nodes."""
    coarse = Grid(grid.a, grid.b, (grid.n - 1) // 2, grid.bc_left, grid.bc_right)
    xf, xc = grid.nodes, coarse.nodes
    try:
        res = frozen_solve_step(coarse, np.interp(xc, xf, psi), np.interp(xc, xf, fv),
                                np.interp(xc, xf, wv), lam, nl, opts)
    except MaxIterations as exc:
        res = exc.result
    except ObstacleError:
        return fallback
    indicator = np.zeros(coarse.n)
    indicator[res.active] = 1.0
    return np.interp(xf, xc, indicator) >= 0.5


# --------------------------------------------------------------------------
# trajectories
# --------------------------------------------------------------------------

def interp_linear(traj: Trajectory, t: float) -> np.ndarray:
    """Piecewise linear-in-time interpolant of the stored states on ``[0, T]``."""
    if not 0.0 <= t <= traj.times[-1]:
        raise ValueError(f"time {t} outside [0, {traj.times[-1]}]")
    k = max(int(np.searchsorted(traj.times, t, side="left")), 1)
    t0, t1 = traj.times[k - 1], traj.times[k]
    theta = (t - t0) / (t1 - t0)
    return traj.states[k - 1] + theta * (traj.states[k] - traj.states[k - 1])


def check_comparison(data_a: ProblemData, data_b: ProblemData, nl: Nonlinearity,
                     m: int, opts: Optional[SolverOptions] = None,
                     quad_pts: int = QUAD_PTS, tol: float = 1e-10) -> CheckVerdict:
    """Ordered data must produce ordered trajectories.

    Requires ``initial_a <= initial_b`` nodewise and ``source_a <= source_b``
    on the interval averages the scheme uses (the same weight, coefficient
    and nonlinearity are the caller's responsibility); an unordered pair
    raises ``ValueError``.  Ordering is the only hypothesis used, so the runs
    skip the initial-admissibility gate (the per-step convexity guard still
    applies).
    """
    if data_a.grid != data_b.grid:
        raise ValueError("comparison requires a common grid")
    disc_a = discretize_time(data_a, m, quad_pts)
    disc_b = discretize_time(data_b, m, quad_pts)
    pre_gap = max(float((data_a.initial - data_b.initial).max()),
                  float((disc_a.source_avg - disc_b.source_avg).max()))
    if pre_gap > 1e-12:
        raise ValueError(f"comparison requires ordered data; the pair is out of "
                         f"order by {pre_gap:.3g}")

    traj_a, traj_b = (run_evolution(d, nl, m, opts=opts, quad_pts=quad_pts,
                                    validate_first=False) for d in (data_a, data_b))
    gap = traj_a.states - traj_b.states
    k, i = np.unravel_index(int(np.argmax(gap)), gap.shape)
    worst = max(float(gap[k, i]), 0.0)
    return CheckVerdict(name="comparison", max_violation=worst, tolerance=tol,
                        passed=worst <= tol, worst=(int(k), int(i)))


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def plain_csv_rows(table: np.ndarray) -> bytes:
    """The rows of a float table (its last axis) as CSV text, every value in
    its shortest round-trip text and ``nan``, ``inf``, ``-inf`` for the
    non-finite ones: orjson's dump with every row's last separator turned
    into a line end and each ``null`` replaced in turn by its value's name."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    if table.size == 0:
        return b""
    width = table.shape[-1]
    chars = np.frombuffer(bytearray(orjson.dumps(table.ravel(),
                                                 option=orjson.OPT_SERIALIZE_NUMPY)), np.uint8)
    chars[np.flatnonzero(chars == ord(","))[width - 1::width]] = ord("\n")
    chars[-1] = ord("\n")
    text = chars[1:].tobytes()
    finite = np.isfinite(table)
    if not finite.all():
        bad = table[~finite]
        names = map((b"nan", b"inf", b"-inf").__getitem__, ((bad > 0) + 2 * (bad < 0)).tolist())
        parts = text.split(b"null")
        text = b"".join(chain.from_iterable(zip(parts, names))) + parts[-1]
    return text


def plain_long_csv(times, x, fields: dict) -> bytes:
    """The bytes of :func:`irrev.evolution.write_long_csv` for the same
    arguments: the header, then the whole table of ``t, x, fields...`` rows,
    stamp by stamp, in one :func:`plain_csv_rows` pass."""
    times, x = np.asarray(times, dtype=float), np.asarray(x, dtype=float)
    table = np.empty((times.size, x.size, 2 + len(fields)))
    table[..., 0] = times[:, None]
    table[..., 1] = x
    for j, rows in enumerate(fields.values(), 2):
        table[..., j] = np.reshape(rows, (times.size, x.size))
    return (",".join(["t", "x", *fields]) + "\n").encode() + plain_csv_rows(table)
