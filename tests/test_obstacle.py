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
from irrev.model import _step_residual
from irrev.obstacle import _solve_free_jacobian
from irrev.presets import nonlinearity

from helpers import random_step_instance, smooth_values
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


def run_contact_first_step(n):
    """Obstacle, source and weight of the first step of a run whose source
    rises where sin(2 pi x) > 0, from the equilibrium state on ``n`` nodes."""
    g = Grid(0.0, 1.0, n)
    ones = np.ones(g.n)
    psi = solve_unconstrained(g, ones, ones, 1.0, TANH1)
    return g, psi, 1.0 + 0.01 * np.sin(2.0 * np.pi * g.nodes), ones


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


@pytest.mark.parametrize("n", [101, 201, 301, 401])
def test_cold_step_takes_a_bounded_number_of_sweeps(n):
    # from an empty set the contact boundary moves one node per sweep
    # (23 to 84 sweeps here); nested iteration starts from the coarse set
    g, psi, f, ones = run_contact_first_step(n)
    opts = SolverOptions()
    res = solve_step(g, psi, f, ones, 1.0, TANH1, opts)
    assert res.iters <= 4
    assert res.kkt_residual <= opts.tol_kkt
    assert kkt_violation(g, res, psi, f, ones, 1.0, TANH1) <= opts.tol_kkt
    if n == 101:
        ref = solve_step_pg(g, psi, f, ones, 1.0, TANH1, opts)
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
    assert got.kkt_residual <= SolverOptions().tol_kkt
    np.testing.assert_allclose(got.z, want.z, rtol=0.0, atol=1e-10)


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
    # MaxIterations, a non-finite source value NewtonFailure
    grid, obstacle, source, weight, lam, nl, active = instance
    if nan_source:
        source = source.copy()
        source[grid.n // 2] = np.nan
    opts = SolverOptions(max_outer=max_outer)
    for guess in (None, np.array([], int), active):
        args = (grid, obstacle, source, weight, lam, nl, opts)
        want = _outcome(frozen_solve_step, *args, initial_active=guess)
        assert _outcome(solve_step, *args, initial_active=guess) == want


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
