import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from irrev import (CoercivityLost, DiscretizedData, Grid, MaxIterations, NewtonFailure,
                   SolverOptions, Trajectory, check_unilateral_minimality, solve_step,
                   solve_unconstrained, step_energy)
from irrev.grid import laplacian_diagonals
from irrev.model import _step_residual
from irrev.obstacle import _solve_free_jacobian
from irrev.presets import nonlinearity

from helpers import random_step_instance, smooth_values
from reference import inner_l2, neg_laplacian, oracle_enumerate, solve_step_pg

ZERO = nonlinearity({"preset": "zero"})
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


@pytest.mark.parametrize("free", [
    [7],                        # one free node
    list(range(41)),            # every node
    [0, 1, 2, 5, 6, 9, 20, 40],  # blocks with gaps, singletons among them
    [3, 5, 7, 9],               # no two adjacent
], ids=["single", "all", "gaps", "isolated"])
def test_free_jacobian_solve_equals_solve_banded_bit_for_bit(free):
    grid = Grid(0.0, 1.0, 41)
    lap = laplacian_diagonals(grid)
    sub, diag, sup = lap
    idx = np.asarray(free)
    consec = np.diff(idx) == 1
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
        got = _solve_free_jacobian(lap, idx, jd.copy(), rhs.copy())
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("entry", ["solve_step", "solve_unconstrained"])
def test_nonfinite_source_raises_newton_failure_at_once(entry):
    g = Grid(0.0, 1.0, 9)
    f = np.ones(g.n)
    f[4] = np.nan
    ones = np.ones(g.n)
    nl = nonlinearity({"preset": "tanh", "amplitude": 0.5})
    with pytest.raises(NewtonFailure, match="non-finite residual"):
        if entry == "solve_step":
            solve_step(g, ones, f, ones, 1.0, nl)
        else:
            solve_unconstrained(g, f, ones, 1.0, nl)


def test_best_iterate_certifies_its_own_state():
    # the first step of a run whose source rises where sin(2 pi x) > 0 needs
    # dozens of cold sweeps; five stop it, and the best iterate it carries
    # must still hold the state its KKT residual was computed from
    g = Grid(0.0, 1.0, 301)
    nl = nonlinearity({"preset": "tanh", "amplitude": 1.0})
    ones = np.ones(g.n)
    psi = solve_unconstrained(g, ones, ones, 1.0, nl)
    f = 1.0 + 0.01 * np.sin(2.0 * np.pi * g.nodes)
    with pytest.raises(MaxIterations) as info:
        solve_step(g, psi, f, ones, 1.0, nl, SolverOptions(max_outer=5))
    best = info.value.result
    G = _step_residual(best.z, f, ones, 1.0, nl, laplacian_diagonals(g))
    assert best.kkt_residual == float(np.abs(np.minimum(-G, psi - best.z)).max())


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


@st.composite
def step_instances(draw, n_max=8, margin=0.3):
    """One well-posed obstacle step with at most ``n_max`` nodes, any pair of
    endpoint conditions, a convexity margin of at least ``margin``, and a
    random contact-set guess to warm-start from."""
    n = draw(st.integers(1, n_max))
    bcs = draw(st.sampled_from([("dirichlet", "dirichlet"), ("dirichlet", "neumann"),
                                ("neumann", "dirichlet"), ("neumann", "neumann")]))
    grid = Grid(0.0, draw(st.floats(0.8, 1.6)), n, *bcs)

    def values(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    lam = draw(st.floats(0.7, 2.0))
    nl = nonlinearity(draw(st.one_of(
        st.just({"preset": "zero"}),
        st.builds(lambda g: {"preset": "linear", "slope": g}, st.floats(-0.4, 0.6)),
        st.builds(lambda a: {"preset": "tanh", "amplitude": a}, st.floats(0.0, 0.5)))))
    weight = values(0.0, 1.0)
    if nl.slope_bound * weight.max() > lam - margin:
        weight *= (lam - margin) / (nl.slope_bound * weight.max())
    active = np.array(draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)), int)
    return grid, values(-1.0, 1.0), values(-2.0, 2.0), weight, lam, nl, active


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(step_instances())
def test_pdas_matches_enumeration_oracle_cold_and_warm(instance):
    grid, obstacle, source, weight, lam, nl, active = instance
    ref = oracle_enumerate(grid, obstacle, source, weight, lam, nl).z
    for guess in (None, active):
        res = solve_step(grid, obstacle, source, weight, lam, nl, initial_active=guess)
        np.testing.assert_allclose(res.z, ref, rtol=0.0, atol=1e-10)


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
    opts = SolverOptions()
    for solver in (solve_step, solve_step_pg):
        res = solver(grid, obstacle, source, weight, lam, nl, opts)
        psi = obstacle
        assert res.eta.min(initial=0.0) >= -opts.tol_kkt
        assert (res.z - psi).max() <= opts.tol_kkt
        assert np.abs(res.eta * (res.z - psi)).max() <= opts.tol_kkt
        assert kkt_violation(grid, res, obstacle, source, weight, lam, nl) <= opts.tol_kkt


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
