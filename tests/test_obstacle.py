from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from irrev import (CoercivityLost, DiscretizedData, Grid, MaxIterations, NewtonFailure,
                   SolverOptions, Trajectory, check_unilateral_minimality, solve_step,
                   solve_unconstrained, step_energy)
from irrev import obstacle as obstacle_module
from irrev.grid import laplacian_diagonals
from irrev.model import MARGIN_FLOOR, _step_residual, discretize_time, rounding_floor
from irrev.obstacle import TOL_KKT, TOL_NEWTON, _solve_free_jacobian, solve_held_steps
from irrev.presets import nonlinearity

from helpers import random_step_instance, smooth_values
from test_evolution import TANH, contact_data, relax_data
from reference import (frozen_solve_step, inner_l2, neg_laplacian, oracle_enumerate,
                       solve_step_pg)

ZERO = nonlinearity({"preset": "zero"})
TANH1 = nonlinearity({"preset": "tanh", "amplitude": 1.0})
SCALAR = Grid(0.0, 2.0, 1)  # single interior node, h = 1
OBS0 = [0.0]


def kkt_violation(grid, res, obstacle, source, weight, lam, nl):
    """Worst nodewise |min(eta, psi - z)| with eta recomputed from the state."""
    psi = np.asarray(obstacle)
    eta = (np.asarray(source, float) - neg_laplacian(grid, res.z)
           - lam * res.z - np.asarray(weight, float) * np.asarray(nl.fn(res.z), float))
    return float(np.abs(np.minimum(eta, psi - res.z)).max())


# --------------------------------------------------------------------------
# step energy
# --------------------------------------------------------------------------

def test_step_energy_zero_state():
    g = Grid(0.0, 1.0, 4)
    assert step_energy(g, np.zeros(4), np.ones(4), np.ones(4), 1.0, ZERO) == 0.0


def test_step_energy_hand_value():
    # n=1, h=1, Dirichlet ends, lam=1, w=0, f=3, u=1: 0.5*2 + 0.5 - 3
    assert step_energy(SCALAR, [1.0], [3.0], [0.0], 1.0, ZERO) == pytest.approx(-1.5)


@pytest.mark.parametrize("seed", range(8))
def test_step_energy_midpoint_convexity(seed):
    grid, _, source, weight, lam, nl = random_step_instance(seed, n_max=9)
    rng = np.random.default_rng(seed + 100)
    u = smooth_values(rng, grid, 1.0)
    v = smooth_values(rng, grid, 1.0)
    ju = step_energy(grid, u, source, weight, lam, nl)
    jv = step_energy(grid, v, source, weight, lam, nl)
    jm = step_energy(grid, 0.5 * (u + v), source, weight, lam, nl)
    assert jm <= 0.5 * ju + 0.5 * jv + 1e-12


STACK_NLS = {
    "zero": ZERO,
    "linear": nonlinearity({"preset": "linear", "slope": -0.3}),
    "tanh": nonlinearity({"preset": "tanh", "amplitude": 0.7}),
    "at": nonlinearity({"preset": "at", "eps": 0.1, "delta": 1e-3}),
}


@pytest.mark.parametrize("nl_name", sorted(STACK_NLS))
@pytest.mark.parametrize("n", [1, 2, 41])
@pytest.mark.parametrize("bcs", [("dirichlet", "dirichlet"), ("dirichlet", "neumann"),
                                 ("neumann", "dirichlet"), ("neumann", "neumann")])
def test_step_energy_of_a_stack_equals_its_rows(bcs, n, nl_name):
    grid = Grid(0.0, 1.3, n, *bcs)
    nl = STACK_NLS[nl_name]
    rng = np.random.default_rng(n)
    u, f, w = rng.normal(size=(3, 6, 2 * n))
    # contiguous rows, then every other column: rows that are strided views
    for cols in (slice(0, n), slice(0, 2 * n, 2)):
        uk, fk, wk = u[:, cols], f[:, cols], w[:, cols]
        rows = np.array([step_energy(grid, uk[k], fk[k], wk[k], 1.5, nl) for k in range(6)])
        np.testing.assert_array_equal(step_energy(grid, uk, fk, wk, 1.5, nl), rows)
        # data of one state shared by every row of the stack
        rows = np.array([step_energy(grid, uk[k], fk[0], wk[0], 1.5, nl) for k in range(6)])
        np.testing.assert_array_equal(step_energy(grid, uk, fk[0], wk[0], 1.5, nl), rows)
    assert type(step_energy(grid, u[0, :n], f[0, :n], w[0, :n], 1.5, nl)) is float


# --------------------------------------------------------------------------
# active-set solver: hand cases
# --------------------------------------------------------------------------

def test_scalar_constrained_case():
    res = solve_step(SCALAR, OBS0, [3.0], [0.0], 1.0, ZERO)
    np.testing.assert_allclose(res.z, [0.0], atol=1e-14)
    np.testing.assert_allclose(res.eta, [3.0], atol=1e-12)
    np.testing.assert_array_equal(res.active, [0])


def test_scalar_unconstrained_case():
    res = solve_step(SCALAR, OBS0, [-3.0], [0.0], 1.0, ZERO)
    np.testing.assert_allclose(res.z, [-1.0], atol=1e-12)
    np.testing.assert_allclose(res.eta, [0.0], atol=1e-12)
    assert res.active.size == 0


def test_obstacle_already_solves_equality():
    # f = operator output of the obstacle: the step leaves the state in place
    grid, obstacle, _, weight, lam, nl = random_step_instance(4, n_max=8)
    psi = obstacle
    f_eq = (neg_laplacian(grid, psi) + lam * psi
            + weight * np.asarray(nl.fn(psi), float))
    res = solve_step(grid, obstacle, f_eq, weight, lam, nl)
    np.testing.assert_allclose(res.z, psi, atol=1e-10)
    np.testing.assert_allclose(res.eta, 0.0, atol=1e-9)


def test_coercivity_guard():
    nl = nonlinearity({"preset": "linear", "slope": -2.0})  # L = 2
    with pytest.raises(CoercivityLost):
        solve_step(SCALAR, OBS0, [0.0], [1.0], 1.0, nl)


@pytest.mark.parametrize("solver", [solve_step_pg, oracle_enumerate])
def test_reference_solvers_keep_the_coercivity_guard(solver):
    nl = nonlinearity({"preset": "linear", "slope": -2.0})  # margin 1 - 2*1 = -1
    with pytest.raises(CoercivityLost, match="= -1 is below") as caught:
        solver(SCALAR, OBS0, [0.0], [1.0], 1.0, nl)
    assert caught.value.margin == -1.0


@pytest.mark.parametrize("free", [
    [7],                        # one free node
    list(range(41)),            # every node
    [0, 1, 2, 5, 6, 9, 20, 40],  # blocks with gaps, singletons among them
    [3, 5, 7, 9],               # no two adjacent
], ids=["single", "all", "gaps", "isolated"])
def test_free_jacobian_solve_equals_solve_banded_bit_for_bit(free):
    # the whole-array system with held nodes as identity rows solves the
    # free nodes to the bits of their compacted system, the held ones to 0;
    # the off-diagonal, zero next to a held node, is built once and survives
    # every solve
    grid = Grid(0.0, 1.0, 41)
    lap = laplacian_diagonals(grid)
    sub, diag, sup = lap
    idx = np.asarray(free)
    mask = np.zeros(grid.n, bool)
    mask[idx] = True
    consec = np.diff(idx) == 1
    off = np.where(mask[1:] & mask[:-1], sub, 0.0)
    kept = off.copy()
    rng = np.random.default_rng(len(free))
    for _ in range(20):
        # SPD: the Laplacian's diagonal dominates, and lam + w*fn' > 0
        jd = diag[idx] + rng.uniform(0.01, 50.0, idx.size)
        rhs = rng.normal(size=idx.size) * 10.0 ** rng.integers(-8, 8)
        ab = np.zeros((3, idx.size))
        ab[1] = jd
        ab[0, 1:][consec] = sup[idx[:-1][consec]]
        ab[2, :-1][consec] = sub[idx[:-1][consec]]
        want = solve_banded((1, 1), ab, rhs)
        full_jd, full_rhs = np.ones(grid.n), np.zeros(grid.n)
        full_jd[idx], full_rhs[idx] = jd, rhs
        got = _solve_free_jacobian(off, full_jd, full_rhs)
        assert got[idx].tobytes() == want.tobytes()
        assert got[~mask].tobytes() == np.zeros(grid.n - idx.size).tobytes()
        assert off.tobytes() == kept.tobytes()
    # a stack of rows on the same free nodes: zero seams decouple the rows
    jd = np.where(mask, diag + rng.uniform(0.01, 50.0, (3, grid.n)), 1.0)
    rhs = np.where(mask, rng.normal(size=(3, grid.n)), 0.0)
    stacked = np.tile(np.append(off, 0.0), len(jd))[:-1]   # zero at the seams
    got = _solve_free_jacobian(stacked, jd.copy(), rhs.copy())
    for row, j, b in zip(got, jd, rhs):
        assert row.tobytes() == _solve_free_jacobian(off, j.copy(), b.copy()).tobytes()


@pytest.mark.parametrize("entry", ["solve_step", "solve_unconstrained"])
def test_nonfinite_source_raises_newton_failure_at_once(entry):
    # also at n = 10001, where the rounding floor of 9e-8 accepts no nan residual
    nl = nonlinearity({"preset": "tanh", "amplitude": 0.5})
    for n in (9, 10001):
        g = Grid(0.0, 1.0, n)
        f = np.ones(g.n)
        f[n // 2] = np.nan
        ones = np.ones(g.n)
        with pytest.raises(NewtonFailure, match="non-finite residual"):
            if entry == "solve_step":
                solve_step(g, ones, f, ones, 1.0, nl)
            else:
                solve_unconstrained(g, f, ones, 1.0, nl)


@pytest.mark.parametrize("n", [101, 10001])
def test_a_residual_above_its_floor_still_raises(n, monkeypatch):
    # one Newton iteration from zero leaves a residual far above the floor
    monkeypatch.setattr(obstacle_module, "MAX_NEWTON", 1)
    g = Grid(0.0, 1.0, n)
    ones = np.ones(g.n)
    with pytest.raises(NewtonFailure, match="did not reach tolerance 1e-11"):
        solve_unconstrained(g, ones, ones, 1.0, TANH1)


def run_contact_first_step(n):
    """Obstacle, source and weight of the first step of a run whose source
    rises where sin(2 pi x) > 0, from the equilibrium state on ``n`` nodes."""
    g = Grid(0.0, 1.0, n)
    ones = np.ones(g.n)
    psi = solve_unconstrained(g, ones, ones, 1.0, TANH1)
    return g, psi, 1.0 + 0.01 * np.sin(2.0 * np.pi * g.nodes), ones


def test_newton_stops_at_its_rounding_floor(monkeypatch):
    # at n = 10001 rounding alone leaves a residual above TOL_NEWTON; there
    # a full step that fails the Armijo test ends the solve, so a Newton
    # iteration costs at most two residuals, not one per halving of the step
    counts = {"residuals": 0, "iterations": 0}

    def residual(*args):
        counts["residuals"] += 1
        return _step_residual(*args)

    def jacobian_solve(*args):
        counts["iterations"] += 1
        return _solve_free_jacobian(*args)

    monkeypatch.setattr(obstacle_module, "_step_residual", residual)
    monkeypatch.setattr(obstacle_module, "_solve_free_jacobian", jacobian_solve)
    g, psi, f, ones = run_contact_first_step(10001)
    res = solve_step(g, psi, f, ones, 1.0, TANH1)
    assert res.kkt_residual <= rounding_floor(res.z, f, ones, 1.0, TANH1, laplacian_diagonals(g))
    assert counts["iterations"] > 0
    assert counts["residuals"] <= 2 * counts["iterations"]


def test_best_iterate_certifies_its_own_state():
    # a warm start from a one-node guess at the edge of the contact set moves
    # its boundary one node per sweep (dozens of sweeps; a nonempty guess is
    # not nested); five stop it, and the best iterate, an earlier one than
    # the last, must still hold the state its KKT residual was computed from
    g, psi, f, ones = run_contact_first_step(301)
    with pytest.raises(MaxIterations) as info:
        solve_step(g, psi, f, ones, 1.0, TANH1, SolverOptions(max_outer=5),
                   initial_active=[0])
    best = info.value.result
    assert best.iters < 5
    G = _step_residual(best.z, f, ones, 1.0, TANH1, laplacian_diagonals(g))
    assert best.kkt_residual == float(np.abs(np.minimum(-G, psi - best.z)).max())


@pytest.mark.parametrize("n", [101, 201, 301, 401, 1001, 10001])
def test_cold_step_takes_a_bounded_number_of_sweeps(n):
    # from an empty set the contact boundary moves one node per sweep
    # (23 to 84 sweeps up to n = 401); nested iteration starts from the
    # coarse set.  On the finer grids the certificate is TOL_KKT or the
    # state's rounding floor, whichever is larger (9e-9 at n = 10001).
    g, psi, f, ones = run_contact_first_step(n)
    res = solve_step(g, psi, f, ones, 1.0, TANH1)
    tol = TOL_KKT
    if n > 401:
        tol = max(TOL_KKT, rounding_floor(res.z, f, ones, 1.0, TANH1, laplacian_diagonals(g)))
    assert res.iters <= 4
    assert res.kkt_residual <= tol
    assert kkt_violation(g, res, psi, f, ones, 1.0, TANH1) <= tol
    if n == 101:
        ref = solve_step_pg(g, psi, f, ones, 1.0, TANH1)
        np.testing.assert_allclose(res.z, ref.z, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(res.eta, ref.eta, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("failure", ["max_iterations", "newton"])
def test_a_failed_coarse_solve_does_not_fail_the_cold_solve(failure, monkeypatch):
    # a coarse MaxIterations hands over its best iterate's set, any other
    # failure the fine first sweep's own prediction; the fine solve still
    # reaches the cold solution
    g, psi, f, ones = run_contact_first_step(101)
    want = solve_step(g, psi, f, ones, 1.0, TANH1)
    fine_solve = obstacle_module.solve_step
    coarse_grids = []

    def failing(grid, *args, **kwargs):
        coarse_grids.append(grid.n)
        if failure == "newton":
            raise NewtonFailure("stalled")
        return fine_solve(grid, *args[:5], SolverOptions(max_outer=1))

    monkeypatch.setattr(obstacle_module, "solve_step", failing)
    got = fine_solve(g, psi, f, ones, 1.0, TANH1)
    assert coarse_grids == [50]
    assert got.kkt_residual <= TOL_KKT
    np.testing.assert_allclose(got.z, want.z, rtol=0.0, atol=1e-10)


# --------------------------------------------------------------------------
# held steps: a stack of steps that keep the contact set of the step before
# --------------------------------------------------------------------------

def second_step(data, nl, m):
    """The grid, the state and contact set after step 1 of ``data`` in ``m``
    steps, and the averaged data of every step."""
    disc = discretize_time(data, m)
    first = solve_step(data.grid, data.initial, disc.source_avg[0], disc.weight_avg[0],
                       data.lam, nl)
    return data.grid, first.z, first.active, disc


@pytest.mark.parametrize("case", ["run-contact", "no-contact"])
def test_held_steps_row_0_is_the_one_sweep_step_solve_to_the_bit(case):
    # run-contact's step 2 keeps step 1's 89 contact nodes; a relaxing
    # source keeps the empty set
    data, nl = contact_data(301) if case == "run-contact" else (relax_data(), TANH)
    g, z1, active, disc = second_step(data, nl, 50)
    assert active.size == (89 if case == "run-contact" else 0)
    step = solve_step(g, z1, disc.source_avg[1], disc.weight_avg[1], data.lam, nl,
                      initial_active=active)
    assert step.iters == 1
    Z, eta, kkt = solve_held_steps(g, z1, active, disc.source_avg[1:5], disc.weight_avg[1:5],
                                   data.lam, nl)
    assert len(Z) == 4
    assert Z[0].tobytes() == step.z.tobytes()
    assert eta[0].tobytes() == step.eta.tobytes()
    assert kkt[0] == step.kkt_residual


#: gamma(s) = -s/2: the convexity margin is lam - w/2
SOFTENING = nonlinearity({"preset": "linear", "slope": -0.5})


def falling_rows(levels, weights=None, n=21):
    """Grid, a high obstacle and the rows of a source at each of ``levels``
    (unit weight unless ``weights`` are given), none of which touches it."""
    g = Grid(0.0, 1.0, n)
    w = np.ones((len(levels), n)) if weights is None else np.outer(weights, np.ones(n))
    return g, np.full(n, 10.0), np.outer(levels, np.ones(n)), w


def test_held_steps_stop_at_the_first_row_without_the_convexity_margin():
    # row 2's margin is 1 - 3/2 < 0; row 3 has it again, and is not solved
    g, start, f, w = falling_rows([1.0, 0.9, 0.8, 0.7], [1.0, 1.0, 3.0, 1.0])
    Z, eta, kkt = solve_held_steps(g, start, np.array([], int), f, w, 1.0, SOFTENING)
    assert len(Z) == len(eta) == len(kkt) == 2
    # every row with the margin would pass
    assert len(solve_held_steps(g, start, np.array([], int), f, np.ones_like(w), 1.0,
                                SOFTENING)[0]) == 4


def test_held_steps_drop_the_rows_after_the_first_rejected_row():
    # row 1's source rises, so its state rises above row 0's: the predictor
    # moves the set and row 1 is rejected; rows 2 and 3 fall below row 1's
    # state, pass from there, and are dropped all the same
    g, start, f, w = falling_rows([1.0, 1.2, 1.1, 1.0])
    Z, eta, kkt = solve_held_steps(g, start, np.array([], int), f, w, 1.0, SOFTENING)
    assert len(Z) == len(eta) == len(kkt) == 1
    z1 = solve_unconstrained(g, f[1], w[1], 1.0, SOFTENING)
    assert len(solve_held_steps(g, z1, np.array([], int), f[2:], w[2:], 1.0, SOFTENING)[0]) == 2


def per_row_held_steps(grid, start, active, sources, weights, lam, nl):
    """:func:`solve_held_steps` with the per-row rule it had before the rows
    were tested as one array: ``_settled`` on every row in turn (oracle)."""
    fv, wv = np.asarray(sources, dtype=float), np.asarray(weights, dtype=float)
    psi = np.asarray(start, dtype=float)
    held = np.zeros(grid.n, bool)
    held[active] = True
    k = int(np.logical_and.accumulate(nl.convexity_margin(lam, wv) >= MARGIN_FLOOR).sum())
    lap = laplacian_diagonals(grid)
    Z, G = obstacle_module._newton_on_subset(np.repeat(psi[None], k, axis=0), ~held,
                                             fv[:k], wv[:k], lam, nl, lap)
    eta, kkt, predicted = obstacle_module._sweep_certificate(
        Z, G, np.concatenate([psi[None], Z])[:-1], held)
    same = (predicted == held).all(axis=-1)
    keep = 0
    while keep < k and same[keep] and obstacle_module._settled(kkt[keep], Z[keep], fv[keep],
                                                               wv[keep], lam, nl, lap):
        keep += 1
    return Z[:keep], eta[:keep], kkt[:keep]


def floor_row_stack():
    """Constant states 0.6, 0.5, 0.2 + 0.01x, 0.15 and 0.1 on 21 nodes with
    zero-flux ends, the middle one under a weight of 1e8: only that row's
    residual is rounding of size 1e8, beyond TOL_KKT but within its floor."""
    g = Grid(0.0, 1.0, 21, "neumann", "neumann")
    states = [np.full(g.n, 0.6), np.full(g.n, 0.5), 0.2 + 0.01 * g.nodes,
              np.full(g.n, 0.15), np.full(g.n, 0.1)]
    w = np.outer([1.0, 1.0, 1e8, 1.0, 1.0], np.ones(g.n))
    f = np.array([u + wk * np.asarray(TANH.fn(u)) for u, wk in zip(states, w)])
    return g, np.full(g.n, 10.0), f, w, TANH


@pytest.mark.parametrize("case", ["tol_kkt", "floor_row", "set_moves", "no_margin"])
def test_held_steps_keep_the_rows_of_the_per_row_rule(monkeypatch, case):
    # the rows are tested as one array, and only a row beyond TOL_KKT asks
    # for its rounding floor; the kept rows are the per-row rule's, bit for bit
    if case == "floor_row":
        g, start, f, w, nl = floor_row_stack()
    else:
        levels, weights = {"tol_kkt": ([1.0, 0.9, 0.8, 0.7], None),
                           # row 2 rises above row 1 by rounding: within
                           # TOL_KKT, but its predictor takes nodes into contact
                           "set_moves": ([1.0, 0.9, 0.9 + 1e-12, 0.8], None),
                           "no_margin": ([1.0, 0.9, 0.8], [3.0, 1.0, 1.0])}[case]
        g, start, f, w = falling_rows(levels, weights)
        nl = SOFTENING
    want = per_row_held_steps(g, start, np.array([], int), f, w, 1.0, nl)
    calls, settled = [], obstacle_module._settled

    def counted(kkt, *args):
        calls.append(kkt)
        return settled(kkt, *args)

    monkeypatch.setattr(obstacle_module, "_settled", counted)
    got = solve_held_steps(g, start, np.array([], int), f, w, 1.0, nl)
    assert len(got[0]) == len(want[0]) == {"tol_kkt": 4, "floor_row": 5, "set_moves": 2,
                                           "no_margin": 0}[case]
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    kkt = got[2]
    if case == "floor_row":
        floor = rounding_floor(got[0][2], f[2], w[2], 1.0, nl, laplacian_diagonals(g))
        assert TOL_KKT < kkt[2] <= floor
        assert np.delete(kkt, 2).max() <= TOL_KKT
        assert calls == [kkt[2]]   # the one row beyond TOL_KKT
    else:
        assert kkt.max(initial=0.0) <= TOL_KKT and calls == []


def test_contact_nodes_on_a_negative_zero_obstacle_keep_its_sign():
    # the source pushes up on the left half, where the obstacle is -0.0, and
    # a held node must keep the obstacle's bits through every Newton update
    g = Grid(0.0, 1.0, 41)
    left = g.nodes < 0.5
    psi = np.where(left, -0.0, 1.0)
    ones = np.ones(g.n)
    res = solve_step(g, psi, ones, ones, 1.0, TANH1)
    assert res.iters > 1 and np.array_equal(res.active, np.flatnonzero(left))
    assert np.signbit(res.z[left]).all() and res.z[left].tobytes() == psi[left].tobytes()
    Z, _, _ = solve_held_steps(g, res.z, res.active, np.outer([0.9, 0.8], ones),
                               np.ones((2, g.n)), 1.0, TANH1)
    assert len(Z) == 2
    assert np.signbit(Z[:, left]).all()


# --------------------------------------------------------------------------
# projected gradient
# --------------------------------------------------------------------------

def test_pg_matches_pdas_on_scalar_cases():
    for f in ([3.0], [-3.0]):
        a = solve_step(SCALAR, OBS0, f, [0.0], 1.0, ZERO)
        b = solve_step_pg(SCALAR, OBS0, f, [0.0], 1.0, ZERO)
        np.testing.assert_allclose(b.z, a.z, atol=1e-9)
        np.testing.assert_allclose(b.eta, a.eta, atol=1e-9)


def test_pg_unconstrained_matches_banded_solve():
    # an obstacle far above the solution never binds: compare to the plain
    # tridiagonal solve of the linear problem
    g = Grid(0.0, 1.0, 31)
    rng = np.random.default_rng(0)
    f = smooth_values(rng, g, 1.0)
    lam = 1.0
    res = solve_step_pg(g, np.full(g.n, 1e8), f, np.zeros(g.n), lam, ZERO)
    sub, diag, sup = laplacian_diagonals(g)
    ab = np.zeros((3, g.n))
    ab[1] = diag + lam
    ab[0, 1:] = sup
    ab[2, :-1] = sub
    direct = solve_banded((1, 1), ab, f)
    np.testing.assert_allclose(res.z, direct, atol=1e-9)


def test_pg_energy_monotone_from_obstacle():
    grid, obstacle, source, weight, lam, nl = random_step_instance(2, n_max=9)
    history = []
    solve_step_pg(grid, obstacle, source, weight, lam, nl, record_energy=history)
    drops = np.diff(history)
    assert np.all(drops <= 1e-12)


# --------------------------------------------------------------------------
# enumeration oracle
# --------------------------------------------------------------------------

def test_enumeration_scalar_cases():
    r1 = oracle_enumerate(SCALAR, OBS0, [3.0], [0.0], 1.0, ZERO)
    np.testing.assert_allclose(r1.z, [0.0], atol=1e-13)
    np.testing.assert_array_equal(r1.active, [0])
    r2 = oracle_enumerate(SCALAR, OBS0, [-3.0], [0.0], 1.0, ZERO)
    np.testing.assert_allclose(r2.z, [-1.0], atol=1e-12)
    assert r2.active.size == 0


def test_enumeration_refuses_large_grids():
    g = Grid(0.0, 1.0, 13)
    with pytest.raises(ValueError):
        oracle_enumerate(g, np.zeros(13), np.zeros(13), np.zeros(13),
                         1.0, ZERO)


def test_enumeration_tolerates_touching_ties():
    # unconstrained solution exactly on the obstacle: several active sets
    # yield the same state; the oracle must not call that ambiguous
    grid, obstacle, _, weight, lam, nl = random_step_instance(9, n_max=4)
    psi = obstacle
    f_eq = (neg_laplacian(grid, psi) + lam * psi
            + weight * np.asarray(nl.fn(psi), float))
    res = oracle_enumerate(grid, obstacle, f_eq, weight, lam, nl)
    np.testing.assert_allclose(res.z, psi, atol=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_enumeration_agrees_with_pdas_n3(seed):
    grid, obstacle, source, weight, lam, nl = random_step_instance(seed, n_max=3)
    a = solve_step(grid, obstacle, source, weight, lam, nl)
    b = oracle_enumerate(grid, obstacle, source, weight, lam, nl)
    np.testing.assert_allclose(a.z, b.z, atol=1e-9)


GAMMAS = st.one_of(
    st.just({"preset": "zero"}),
    st.builds(lambda g: {"preset": "linear", "slope": g}, st.floats(-0.4, 0.6)),
    st.builds(lambda a: {"preset": "tanh", "amplitude": a}, st.floats(0.0, 0.5)))
#: ``at`` has a slope bound of order 1/(eps*delta^2), so its weight is tiny
AT_GAMMAS = st.builds(lambda e, d: {"preset": "at", "eps": e, "delta": d},
                      st.floats(0.05, 0.5), st.floats(1e-3, 0.1))


@st.composite
def step_instances(draw, sizes=st.integers(1, 12), gammas=GAMMAS, margin=0.3):
    """One well-posed obstacle step with a node count drawn from ``sizes``,
    any pair of endpoint conditions, a convexity margin of at least
    ``margin``, and a contact-set guess to warm-start from.  Up to 12 nodes
    every nodal value is drawn; on larger grids a constant and three sine
    modes, so the data stay within the same ranges."""
    n = draw(sizes)
    bcs = draw(st.sampled_from([("dirichlet", "dirichlet"), ("dirichlet", "neumann"),
                                ("neumann", "dirichlet"), ("neumann", "neumann")]))
    grid = Grid(0.0, draw(st.floats(0.8, 1.6)), n, *bcs)

    def values(lo, hi):
        if n <= 12:
            return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))
        c = draw(st.lists(st.floats(lo / 4, hi / 4), min_size=4, max_size=4))
        x = np.pi * (grid.nodes - grid.a) / (grid.b - grid.a)
        return c[0] + sum(c[k] * np.sin(k * x) for k in (1, 2, 3))

    lam = draw(st.floats(0.7, 2.0))
    nl = nonlinearity(draw(gammas))
    weight = np.abs(values(0.0, 1.0))
    if nl.slope_bound * weight.max() > lam - margin:
        weight *= (lam - margin) / (nl.slope_bound * weight.max())
    active = np.array(draw(st.lists(st.integers(0, n - 1), max_size=min(n, 12),
                                    unique=True)), int)
    return grid, values(-1.0, 1.0), values(-2.0, 2.0), weight, lam, nl, active


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(step_instances())
def test_pdas_matches_enumeration_oracle_cold_and_warm(instance):
    # with up to 12 nodes, a cold solve whose first sweep does not settle
    # takes its second sweep's set from a coarser grid (nested iteration)
    grid, obstacle, source, weight, lam, nl, active = instance
    ref = oracle_enumerate(grid, obstacle, source, weight, lam, nl).z
    for guess in (None, active):
        res = solve_step(grid, obstacle, source, weight, lam, nl, initial_active=guess)
        np.testing.assert_allclose(res.z, ref, rtol=0.0, atol=1e-10)


def _outcome(solver, *args, **kwargs):
    """A solve's result as bytes, or the failure it raised with its message."""
    try:
        res, kind = solver(*args, **kwargs), "converged"
    except MaxIterations as exc:
        res, kind = exc.result, "MaxIterations"
    except NewtonFailure as exc:
        return "NewtonFailure", str(exc)
    return kind, (res.z.tobytes(), res.eta.tobytes(), res.active.tobytes(), res.iters,
                  np.float64(res.kkt_residual).tobytes())


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(step_instances(sizes=st.one_of(st.integers(1, 12), st.sampled_from([1, 2, 3, 41, 301])),
                      gammas=st.one_of(GAMMAS, AT_GAMMAS)),
       st.sampled_from([100, 2, 1]), st.integers(0, 5).map(lambda k: k == 5))
def test_step_kernel_matches_the_frozen_kernel_bit_for_bit(instance, max_outer, nan_source):
    # cold, empty-guess and warm starts; a short sweep budget makes
    # MaxIterations, a non-finite source value NewtonFailure.  With a rounding
    # floor of 0 the step kernel is the frozen kernel, which has none.  With
    # its floor it stops Newton there (where the frozen kernel backtracks on
    # or stalls), so where the two differ the step kernel must return a state
    # whose free-node residual is within the floor
    grid, obstacle, source, weight, lam, nl, active = instance
    if nan_source:
        source = source.copy()
        source[grid.n // 2] = np.nan
    frozen_opts = SimpleNamespace(tol_kkt=TOL_KKT, max_outer=max_outer)
    args = (grid, obstacle, source, weight, lam, nl)
    for guess in (None, np.array([], int), active):
        want = _outcome(frozen_solve_step, *args, frozen_opts, initial_active=guess)
        with mock.patch.object(obstacle_module, "rounding_floor", lambda *_: 0.0):
            assert _outcome(solve_step, *args, SolverOptions(max_outer=max_outer),
                            initial_active=guess) == want
        if _outcome(solve_step, *args, SolverOptions(max_outer=max_outer),
                    initial_active=guess) == want:
            continue
        try:
            res = solve_step(*args, SolverOptions(max_outer=max_outer), initial_active=guess)
        except MaxIterations as exc:
            res = exc.result
        lap = laplacian_diagonals(grid)
        G = _step_residual(res.z, source, weight, lam, nl, lap)
        free = np.setdiff1d(np.arange(grid.n), res.active)
        assert np.abs(G[free]).max(initial=0.0) <= max(
            TOL_NEWTON, rounding_floor(res.z, source, weight, lam, nl, lap))


# --------------------------------------------------------------------------
# randomized cross-solver and contract suite
# --------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_three_solvers_agree(seed):
    grid, obstacle, source, weight, lam, nl = random_step_instance(seed + 40)
    a = solve_step(grid, obstacle, source, weight, lam, nl)
    b = solve_step_pg(grid, obstacle, source, weight, lam, nl)
    c = oracle_enumerate(grid, obstacle, source, weight, lam, nl)
    np.testing.assert_allclose(a.z, c.z, atol=1e-8)
    np.testing.assert_allclose(b.z, a.z, atol=1e-8)


@pytest.mark.parametrize("seed", range(12))
def test_kkt_certificate(seed):
    grid, obstacle, source, weight, lam, nl = random_step_instance(seed + 70)
    for solver in (solve_step, solve_step_pg):
        res = solver(grid, obstacle, source, weight, lam, nl)
        psi = obstacle
        assert res.eta.min(initial=0.0) >= -TOL_KKT
        assert (res.z - psi).max() <= TOL_KKT
        assert np.abs(res.eta * (res.z - psi)).max() <= TOL_KKT
        assert kkt_violation(grid, res, obstacle, source, weight, lam, nl) <= TOL_KKT


def minimality_certificate(grid, state, source, weight, lam, nl):
    """``check_unilateral_minimality``'s bound for ``state`` as the one step
    of a trajectory with data ``(source, weight)``."""
    one = np.ones((1, grid.n))
    disc = DiscretizedData(m=1, tau=1.0, times=np.array([0.0, 1.0]),
                           source_avg=source * one, weight_avg=weight * one,
                           source_init=source, weight_init=weight)
    traj = Trajectory(grid=grid, times=disc.times, states=np.stack([state, state]),
                      multipliers=np.zeros((1, grid.n)), energies=np.zeros(2),
                      tau=1.0, step_meta=(), disc=disc)
    return check_unilateral_minimality(traj, nl, lam).max_violation


@pytest.mark.parametrize("seed", range(10))
def test_minimality_against_random_admissible_states(seed):
    grid, obstacle, source, weight, lam, nl = random_step_instance(seed + 200)
    res = solve_step(grid, obstacle, source, weight, lam, nl)
    j_star = step_energy(grid, res.z, source, weight, lam, nl)
    rng = np.random.default_rng(seed)
    for _ in range(100):
        v = obstacle - np.abs(smooth_values(rng, grid, rng.uniform(0.05, 1.5)))
        assert j_star <= step_energy(grid, v, source, weight, lam, nl) + 1e-10

    # the certificate bounds the gain of every competitor below a state: the
    # solved one (a bound near 0) and one lifted off it (a bound far from 0)
    lifted = res.z + np.abs(smooth_values(rng, grid, 0.1))
    for state in (res.z, lifted):
        bound = minimality_certificate(grid, state, source, weight, lam, nl)
        j_state = step_energy(grid, state, source, weight, lam, nl)
        for _ in range(100):
            p = np.abs(smooth_values(rng, grid, 10.0 ** rng.uniform(-4, 0.2)))
            gain = j_state - step_energy(grid, state - p, source, weight, lam, nl)
            assert gain <= bound + 1e-14


@pytest.mark.parametrize("seed", range(10))
def test_two_sided_operator_bound_per_step(seed):
    grid, obstacle, source, weight, lam, nl = random_step_instance(seed + 300)
    res = solve_step(grid, obstacle, source, weight, lam, nl)
    z, psi = res.z, obstacle
    react = weight * np.asarray(nl.fn(z), float)
    mid = neg_laplacian(grid, z) + lam * z + react
    low = np.minimum(source, neg_laplacian(grid, psi) + lam * psi + react)
    assert (low - mid).max() <= 1e-8
    assert (mid - source).max() <= 1e-8


@pytest.mark.parametrize("seed", range(10))
def test_step_comparison_principle(seed):
    grid, obstacle, source, weight, lam, nl = random_step_instance(seed + 500)
    rng = np.random.default_rng(seed)
    obstacle_hi = obstacle + np.abs(smooth_values(rng, grid, 0.5))
    source_hi = source + np.abs(smooth_values(rng, grid, 0.8))
    lo = solve_step(grid, obstacle, source, weight, lam, nl)
    hi = solve_step(grid, obstacle_hi, source_hi, weight, lam, nl)
    assert (lo.z - hi.z).max() <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_pdas_independent_of_initialization(seed):
    grid, obstacle, source, weight, lam, nl = random_step_instance(seed + 800)
    a = solve_step(grid, obstacle, source, weight, lam, nl)
    b = solve_step(grid, obstacle, source, weight, lam, nl,
                   initial_active=np.arange(grid.n))
    np.testing.assert_allclose(a.z, b.z, atol=1e-10)


def test_unconstrained_helper_solves_semilinear_equation():
    grid, _, source, weight, lam, nl = random_step_instance(33, n_max=9)
    u = solve_unconstrained(grid, source, weight, lam, nl)
    resid = (neg_laplacian(grid, u) + lam * u
             + weight * np.asarray(nl.fn(u), float) - source)
    assert np.abs(resid).max() <= 1e-10
