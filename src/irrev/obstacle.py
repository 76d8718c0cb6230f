"""One implicit step: the elliptic obstacle problem under the previous state.

Each step solves, for a given upper obstacle ``psi`` (the previous state),
interval-averaged data ``f``/``w`` and coefficient ``lam``:

    find z <= psi with   eta := f - (-z'' + lam*z + w*fn(z)) >= 0
    and                  eta * (psi - z) = 0   nodewise.

Equivalently z minimizes the strictly convex step energy

    E(u) = 0.5*|D+ u|^2 + 0.5*lam*|u|^2 + sum w*primitive(u) - (f, u)

over ``{u <= psi}``; strict convexity requires the margin
``lam - slope_bound * max(w) > 0``, which every entry point checks.

The solver is a primal-dual active-set iteration with a damped-Newton inner
solve (:func:`solve_step`).  Two independent references share its KKT
contract so that tests can check it: a projected-gradient descent
(:func:`solve_step_pg`) and, for small grids, an exhaustive enumeration of
active sets that also certifies uniqueness of the KKT point
(:func:`oracle_enumerate`).  Neither is a selectable solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_banded

from .grid import Field, Grid, as_values, forward_jumps, laplacian_diagonals
from .model import Nonlinearity


class ObstacleError(RuntimeError):
    """Base class for per-step solver failures."""


class CoercivityLost(ObstacleError):
    """The convexity margin ``lam - L*max(weight)`` is not positive."""


class MaxIterations(ObstacleError):
    """No stable active set / no convergence within the iteration budget.

    Carries the best iterate found in ``result``.
    """

    def __init__(self, msg: str, result: Optional["ObstacleResult"] = None):
        super().__init__(msg)
        self.result = result


class NewtonFailure(ObstacleError):
    """The inner Newton solve stalled after reaching the damping floor."""


NEWTON_DAMPING = 0.5       # backtracking shrink factor
MAX_NEWTON = 60            # Newton iterations per inner solve
PG_MAX_ITERS = 200_000     # projected-gradient iteration budget
EPS_COERCE = 1e-12         # reject convexity margins below this
ORACLE_FEAS_TOL = 1e-12    # oracle: slack allowed in the sign of eta and in u <= psi
ORACLE_AMB_TOL = 1e-9      # oracle: largest spread tolerated among accepted KKT points


@dataclass(frozen=True)
class SolverOptions:
    tol_kkt: float = 1e-10
    max_outer: int = 100

    def __post_init__(self) -> None:
        if not self.tol_kkt > 0 or self.max_outer < 1:
            raise ValueError("solver.tol_kkt must be positive and solver.max_outer at least 1")


@dataclass(frozen=True)
class ObstacleResult:
    """Solution of one step with its KKT certificate.

    ``eta`` is the multiplier of the rate constraint for the step inclusion
    written per unit step (not scaled by the step size; the admissible-cone
    multiplier is invariant under that scaling).  ``active`` holds the node
    indices where the solution sits on the obstacle, ``kkt_residual`` the
    worst nodewise value of ``|min(eta, psi - z)|`` with ``eta`` recomputed
    from the returned state.
    """

    z: Field
    eta: Field
    active: np.ndarray
    iters: int
    kkt_residual: float
    j_history: Optional[np.ndarray] = None   # projected gradient only


# --------------------------------------------------------------------------
# step energy and residual
# --------------------------------------------------------------------------

def step_energy(grid: Grid, u, source, weight, lam: float, nl: Nonlinearity) -> float:
    """Frozen-data convex energy whose constrained minimizer is the step solution."""
    uv = as_values(grid, u)
    fv = as_values(grid, source)
    wv = as_values(grid, weight)
    du = forward_jumps(grid, uv)
    h = grid.h
    quad = 0.5 * h * float(np.dot(du, du)) + 0.5 * lam * h * float(np.dot(uv, uv))
    react = h * float(np.dot(wv, np.asarray(nl.primitive(uv), float)))
    work = h * float(np.dot(fv, uv))
    return quad + react - work


def _residual(grid: Grid, u: np.ndarray, fv: np.ndarray, wv: np.ndarray,
              lam: float, nl: Nonlinearity,
              lap: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """G(u) = -u'' + lam*u + w*fn(u) - f;  the l2 gradient of the step energy."""
    sub, diag, sup = lap
    out = diag * u
    if u.size > 1:
        out[:-1] += sup * u[1:]
        out[1:] += sub * u[:-1]
    out += lam * u + wv * np.asarray(nl.fn(u), float) - fv
    return out


def _require_coercive(wv: np.ndarray, lam: float, nl: Nonlinearity) -> None:
    margin = nl.convexity_margin(lam, wv)
    if margin < EPS_COERCE:
        raise CoercivityLost(
            f"convexity margin lam - L*max(weight) = {margin:.6g} "
            f"is below the floor {EPS_COERCE:.3g}")


def _natural_residual(eta: np.ndarray, slack: np.ndarray) -> float:
    """Worst nodewise |min(eta, slack)|; zero exactly at a KKT point."""
    return float(np.abs(np.minimum(eta, slack)).max())


# --------------------------------------------------------------------------
# Newton inner solve on a node subset
# --------------------------------------------------------------------------

def _newton_on_subset(grid: Grid, u: np.ndarray, free: np.ndarray,
                      fv: np.ndarray, wv: np.ndarray, lam: float,
                      nl: Nonlinearity,
                      lap: tuple[np.ndarray, np.ndarray, np.ndarray],
                      tol: float) -> np.ndarray:
    """Solve G(u) = 0 on the nodes flagged by ``free``, the rest held fixed.

    The Jacobian is the tridiagonal matrix -Lap + lam + w*fn'(u); its
    restriction to the free nodes stays tridiagonal (non-adjacent free nodes
    simply decouple).  Damped Newton with multiplicative backtracking.
    """
    idx = np.flatnonzero(free)
    if idx.size == 0:
        return u
    sub, diag, sup = lap
    nfree = idx.size
    consec = (idx[1:] - idx[:-1]) == 1 if nfree > 1 else np.zeros(0, bool)

    G = _residual(grid, u, fv, wv, lam, nl, lap)
    r = float(np.abs(G[idx]).max())
    alpha_floor = NEWTON_DAMPING ** 40

    for _ in range(MAX_NEWTON):
        if r <= tol:
            return u
        jd = diag[idx] + lam + wv[idx] * nl.deriv(u[idx])
        ab = np.zeros((3, nfree))
        ab[1] = jd
        if nfree > 1:
            ab[0, 1:][consec] = sup[idx[:-1][consec]]
            ab[2, :-1][consec] = sub[idx[:-1][consec]]
        try:
            delta = solve_banded((1, 1), ab, -G[idx])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD by margin
            raise NewtonFailure(f"singular step Jacobian: {exc}") from exc

        alpha = 1.0
        while True:
            u_try = u.copy()
            u_try[idx] += alpha * delta
            G_try = _residual(grid, u_try, fv, wv, lam, nl, lap)
            r_try = float(np.abs(G_try[idx]).max())
            if r_try <= (1.0 - 1e-4 * alpha) * r or r_try <= tol:
                u, G, r = u_try, G_try, r_try
                break
            alpha *= NEWTON_DAMPING
            if alpha < alpha_floor:
                raise NewtonFailure(
                    f"Newton stalled at residual {r:.3g} (damping floor reached)")
    if r <= tol:
        return u
    raise NewtonFailure(f"Newton did not reach tolerance {tol:.3g}; residual {r:.3g}")


def solve_unconstrained(grid: Grid, source, weight, lam: float, nl: Nonlinearity,
                        opts: Optional[SolverOptions] = None,
                        start: Optional[np.ndarray] = None) -> Field:
    """Plain Newton solve of -u'' + lam*u + w*fn(u) = f on all nodes."""
    opts = opts or SolverOptions()
    fv = as_values(grid, source)
    wv = as_values(grid, weight)
    _require_coercive(wv, lam, nl)
    lap = laplacian_diagonals(grid)
    u = np.zeros(grid.n) if start is None else np.array(start, dtype=float)
    u = _newton_on_subset(grid, u, np.ones(grid.n, bool), fv, wv, lam, nl,
                          lap, tol=0.1 * opts.tol_kkt)
    return Field(grid, u)


# --------------------------------------------------------------------------
# primal-dual active set
# --------------------------------------------------------------------------

def solve_step(grid: Grid, obstacle, source, weight, lam: float, nl: Nonlinearity,
               opts: Optional[SolverOptions] = None,
               initial_active: Optional[np.ndarray] = None) -> ObstacleResult:
    """Primal-dual active-set solve of one obstacle step.

    Starting from the obstacle (or from a caller-supplied active-set guess;
    :func:`irrev.evolution.run_evolution` passes the previous step's
    contact set, from which a sweep or two usually suffice), each sweep
    fixes the active nodes on the obstacle, Newton-solves the force balance
    on the rest, recovers the multiplier on the active set and
    re-predicts it from ``eta + (u - psi) > 0`` (only signs enter, so a
    scaling constant on ``u - psi`` would select the same set).  Terminates when the set
    is stable and the recomputed KKT residual is within ``tol_kkt``.

    A node sitting exactly on the obstacle with zero multiplier is
    classified inactive (the predictor uses a strict inequality), matching
    the convention that the rate constraint's multiplier vanishes off
    contact.
    """
    opts = opts or SolverOptions()
    psi = as_values(grid, obstacle)
    fv = as_values(grid, source)
    wv = as_values(grid, weight)
    _require_coercive(wv, lam, nl)
    lap = laplacian_diagonals(grid)
    tol_inner = 0.1 * opts.tol_kkt

    n = grid.n
    if initial_active is None:
        active = np.zeros(n, bool)
    else:
        active = np.zeros(n, bool)
        active[np.asarray(initial_active, dtype=int)] = True

    u = psi.copy()
    best: Optional[ObstacleResult] = None
    for outer in range(1, opts.max_outer + 1):
        u[active] = psi[active]
        u = _newton_on_subset(grid, u, ~active, fv, wv, lam, nl, lap, tol_inner)
        G = _residual(grid, u, fv, wv, lam, nl, lap)
        eta = np.where(active, -G, 0.0)
        kkt = _natural_residual(-G, psi - u)
        result = ObstacleResult(
            z=Field(grid, u), eta=Field(grid, eta),
            active=np.flatnonzero(active), iters=outer, kkt_residual=kkt)
        if best is None or kkt < best.kkt_residual:
            best = result
        new_active = (eta + (u - psi)) > 0.0
        if np.array_equal(new_active, active) and kkt <= opts.tol_kkt:
            return result
        active = new_active
    raise MaxIterations(
        f"no stable active set within {opts.max_outer} sweeps "
        f"(best KKT residual {best.kkt_residual:.3g})", result=best)


# --------------------------------------------------------------------------
# projected gradient with monotone backtracking
# --------------------------------------------------------------------------

def solve_step_pg(grid: Grid, obstacle, source, weight, lam: float, nl: Nonlinearity,
                  opts: Optional[SolverOptions] = None,
                  record_energy: bool = False) -> ObstacleResult:
    """Projected-gradient descent on the step energy over ``{u <= psi}``.

    Steps ``u -> min(u - s*grad, psi)`` with a spectral (Barzilai-Borwein)
    step proposal and monotone Armijo backtracking, so the step energy is
    nonincreasing along accepted iterates.  Terminates when the nodewise
    residual ``|min(eta, psi - u)|`` (``eta = f - gradient part``) is within
    ``tol_kkt`` -- the same certificate the active-set solver reports, which
    makes the two directly comparable.  A test reference for
    :func:`solve_step`, not a production path.
    """
    opts = opts or SolverOptions()
    psi = as_values(grid, obstacle)
    fv = as_values(grid, source)
    wv = as_values(grid, weight)
    _require_coercive(wv, lam, nl)
    lap = laplacian_diagonals(grid)
    h = grid.h

    # curvature scale of the quadratic part, for the fallback step
    mu = 4.0 / h ** 2 + lam + nl.slope_bound * float(wv.max(initial=0.0)) + 1.0
    s_fallback = 1.0 / mu

    u = psi.copy()
    J = step_energy(grid, u, fv, wv, lam, nl)
    g = _residual(grid, u, fv, wv, lam, nl, lap)
    history = [J] if record_energy else None
    prev_u: Optional[np.ndarray] = None
    prev_g: Optional[np.ndarray] = None
    kkt = _natural_residual(-g, psi - u)

    it = 0
    while kkt > opts.tol_kkt and it < PG_MAX_ITERS:
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
            s *= NEWTON_DAMPING
        if not moved:
            break
        prev_u, prev_g = u, g
        u, J = u_try, J_try
        g = _residual(grid, u, fv, wv, lam, nl, lap)
        if record_energy:
            history.append(J)
        kkt = _natural_residual(-g, psi - u)

    contact = u >= psi  # projection lands exactly on psi where it clips
    eta = np.where(contact, -g, 0.0)
    result = ObstacleResult(
        z=Field(grid, u), eta=Field(grid, eta),
        active=np.flatnonzero(contact & (eta > 0.0)), iters=it,
        kkt_residual=kkt,
        j_history=np.asarray(history) if record_energy else None)
    if kkt > opts.tol_kkt:
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
    balance on the complement with a self-contained dense Newton iteration,
    recover the multiplier on the subset, and accept iff the multiplier is
    nonnegative and the state is below the obstacle (within ``ORACLE_FEAS_TOL``).
    Strict convexity makes the KKT point unique, so all accepted candidates
    must agree up to tolerance ties; the one with the smallest recomputed
    KKT residual is returned.  Quadratic cost in 2^n: refuses ``n > 12``.
    """
    n = grid.n
    if n > 12:
        raise ValueError("enumeration oracle is limited to n <= 12")
    psi = as_values(grid, obstacle)
    fv = as_values(grid, source)
    wv = as_values(grid, weight)
    _require_coercive(wv, lam, nl)

    sub, diag, sup = laplacian_diagonals(grid)
    lap_dense = np.diag(diag)
    if n > 1:
        lap_dense += np.diag(sup, 1) + np.diag(sub, -1)

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
            z=Field(grid, u), eta=Field(grid, eta),
            active=np.flatnonzero(active), iters=1, kkt_residual=kkt))

    if not accepted:
        raise NoCandidate("no active set yields an admissible KKT point")
    zs = np.array([res.z.values for res in accepted])
    spread = float(np.abs(zs - zs[0]).max())
    if spread > ORACLE_AMB_TOL:
        raise AmbiguousCandidates(
            f"{len(accepted)} KKT points differ by {spread:.3g} in max norm")
    return min(accepted, key=lambda res: res.kkt_residual)
