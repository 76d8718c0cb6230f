import numpy as np
import pytest

from irrev import (EvolutionError, Field, Grid, ProblemData, TimeProfile,
                   ValidationError, constant_profile, interp_constant,
                   interp_linear, load_trajectory, norm_h1, run_evolution,
                   save_trajectory, solve_step, solve_unconstrained)
from irrev.presets import nonlinearity, time_profile

from helpers import smooth_values

ZERO = nonlinearity({"preset": "zero"})
TANH = nonlinearity({"preset": "tanh", "amplitude": 0.5})


def stationary_data(n=31, lam=2.0):
    g = Grid(0.0, 1.0, n)
    x = g.nodes
    source = constant_profile(0.0)
    source = TimeProfile(lambda xx, t: 1.0 + np.sin(np.pi * np.asarray(xx)),
                         lambda xx, t: np.zeros(np.shape(xx)))
    weight = TimeProfile(lambda xx, t: 0.4 + 0.3 * np.asarray(xx),
                         lambda xx, t: np.zeros(np.shape(xx)))
    z0 = solve_unconstrained(g, source(x, 0.0), weight(x, 0.0), lam, TANH)
    return ProblemData(grid=g, lam=lam, weight=weight, source=source,
                       initial=z0, horizon=1.0)


def ramp_data(n=21, lam=2.0, T=1.0):
    """Source decays in part of the domain: genuine movement."""
    g = Grid(0.0, 1.0, n)

    def ev(x, t):
        x = np.asarray(x)
        return -1.2 * np.sin(np.pi * x) + np.exp(-t) * np.cos(np.pi * x)

    def dev(x, t):
        return -np.exp(-t) * np.cos(np.pi * np.asarray(x))

    source = TimeProfile(ev, dev)
    weight = TimeProfile(lambda x, t: (0.6 + 0.3 * np.sin(np.pi * np.asarray(x)))
                         * (1.0 + 0.5 * np.exp(-2.0 * t)),
                         lambda x, t: (0.6 + 0.3 * np.sin(np.pi * np.asarray(x)))
                         * (-1.0 * np.exp(-2.0 * t)))
    z0 = solve_unconstrained(g, source(g.nodes, 0.0), weight(g.nodes, 0.0), lam, TANH)
    return ProblemData(grid=g, lam=lam, weight=weight, source=source,
                       initial=z0, horizon=T)


# --------------------------------------------------------------------------
# driver behavior
# --------------------------------------------------------------------------

def test_stationary_data_produces_no_evolution():
    data = stationary_data()
    traj = run_evolution(data, TANH, m=20)
    assert traj.max_movement() <= 1e-10
    assert np.abs(np.diff(traj.energies)).max() <= 1e-10


def test_all_zero_problem_stays_zero():
    g = Grid(0.0, 1.0, 9)
    data = ProblemData(grid=g, lam=1.0, weight=constant_profile(0.0),
                       source=constant_profile(0.0),
                       initial=Field(g, np.zeros(9)), horizon=1.0)
    traj = run_evolution(data, ZERO, m=5)
    np.testing.assert_array_equal(traj.states, np.zeros((6, 9)))


def test_scalar_two_step_hand_trajectory():
    g = Grid(0.0, 2.0, 1)  # h = 1
    step = time_profile(g, {"preset": "step_t", "before": 0.0, "after": -3.0,
                            "t_switch": 0.5}, "f")
    data = ProblemData(grid=g, lam=1.0, weight=constant_profile(0.0),
                       source=step, initial=Field(g, [0.0]), horizon=1.0,
                       source_floor=Field(g, [-3.0]))
    traj = run_evolution(data, ZERO, m=2)
    np.testing.assert_allclose(traj.states[:, 0], [0.0, 0.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(traj.multipliers[:, 0], [0.0, 0.0], atol=1e-12)


def test_times_are_uniform_and_increasing():
    traj = run_evolution(stationary_data(n=7), TANH, m=8)
    np.testing.assert_allclose(np.diff(traj.times), traj.tau, rtol=1e-12)
    assert traj.m == 8


def test_monotone_states_on_moving_run():
    data = ramp_data()
    traj = run_evolution(data, TANH, m=16)
    assert traj.max_movement() > 1e-6  # the instance genuinely moves
    assert np.diff(traj.states, axis=0).max() <= 1e-12


def test_validation_gate():
    g = Grid(0.0, 1.0, 5)
    data = ProblemData(grid=g, lam=1.0, weight=constant_profile(0.0),
                       source=constant_profile(-1.0),
                       initial=Field(g, np.zeros(5)), horizon=1.0,
                       source_floor=Field(g, np.full(5, -1.0)))
    with pytest.raises(ValidationError):
        run_evolution(data, ZERO, m=2)


def test_step_failure_attaches_partial_trajectory():
    # the weight grows in time until the convexity margin is gone mid-run
    g = Grid(0.0, 1.0, 5)
    nl = nonlinearity({"preset": "linear", "slope": -1.0})  # L = 1
    weight = TimeProfile(lambda x, t: np.full(np.shape(x), 2.0 * t),
                         lambda x, t: np.full(np.shape(x), 2.0))
    data = ProblemData(grid=g, lam=1.0, weight=weight,
                       source=constant_profile(0.0),
                       initial=Field(g, np.zeros(5)), horizon=1.0)
    with pytest.raises(EvolutionError) as err:
        run_evolution(data, nl, m=10, validate_first=False)
    exc = err.value
    assert 1 <= exc.step <= 10
    assert exc.partial.times.size == exc.step
    np.testing.assert_array_equal(exc.partial.states[0], np.zeros(5))


def contact_data(n):
    """f = 1 + t*sin(2 pi x): rises on (0, 1/2), where the state sits on its
    obstacle, and falls on (1/2, 1), where it moves; z0 is the equilibrium."""
    g = Grid(0.0, 1.0, n)
    nl = nonlinearity({"preset": "tanh", "amplitude": 1.0})
    source = time_profile(g, {"preset": "linear_t",
                              "base": {"preset": "constant", "value": 1.0},
                              "rate": {"preset": "sine", "amplitude": 1.0, "mode": 2}}, "f")
    weight = constant_profile(1.0)
    z0 = solve_unconstrained(g, source(g.nodes, 0.0), weight(g.nodes, 0.0), 1.0, nl)
    return ProblemData(grid=g, lam=1.0, weight=weight, source=source,
                       initial=z0, horizon=1.0), nl


@pytest.mark.parametrize("n", [101, 301])
def test_warm_start_matches_cold_steps(n):
    data, nl = contact_data(n)
    traj = run_evolution(data, nl, m=50)
    cold = [solve_step(data.grid, traj.states[k - 1], traj.disc.source_avg[k - 1],
                       traj.disc.weight_avg[k - 1], data.lam, nl)
            for k in range(1, traj.m + 1)]
    sweeps = [s.iters for s in traj.step_meta]
    assert sweeps[0] == cold[0].iters > 2   # the first step starts cold
    assert max(sweeps[1:]) <= 2             # later ones from the last contact set
    assert [s.n_active for s in traj.step_meta] == [res.active.size for res in cold]
    assert min(res.active.size for res in cold) > 0
    for k, res in enumerate(cold, start=1):
        np.testing.assert_allclose(traj.states[k], res.z.values, rtol=0, atol=1e-12)


# --------------------------------------------------------------------------
# interpolants
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def moving_traj():
    return run_evolution(ramp_data(), TANH, m=12)


def test_interp_endpoint_identity(moving_traj):
    for k in range(moving_traj.m + 1):
        t = moving_traj.times[k]
        np.testing.assert_array_equal(interp_linear(moving_traj, t).values,
                                      moving_traj.states[k])
        np.testing.assert_array_equal(interp_constant(moving_traj, t).values,
                                      moving_traj.states[k])


def test_interp_linear_midpoint(moving_traj):
    k = 5
    t = 0.5 * (moving_traj.times[k - 1] + moving_traj.times[k])
    np.testing.assert_allclose(
        interp_linear(moving_traj, t).values,
        0.5 * (moving_traj.states[k - 1] + moving_traj.states[k]), rtol=1e-14)


def test_interp_constant_right_continuous_convention(moving_traj):
    k = 4
    t = moving_traj.times[k] - moving_traj.tau / 3.0
    np.testing.assert_array_equal(interp_constant(moving_traj, t).values,
                                  moving_traj.states[k])


def test_interp_constant_at_zero(moving_traj):
    np.testing.assert_array_equal(interp_constant(moving_traj, 0.0).values,
                                  moving_traj.states[0])


def test_interp_out_of_range(moving_traj):
    with pytest.raises(ValueError):
        interp_linear(moving_traj, -0.1)
    with pytest.raises(ValueError):
        interp_constant(moving_traj, moving_traj.times[-1] * 1.01)


def test_interp_linear_monotone_in_time(moving_traj):
    ts = np.linspace(0.0, moving_traj.times[-1], 40)
    prev = interp_linear(moving_traj, ts[0]).values
    for t in ts[1:]:
        cur = interp_linear(moving_traj, t).values
        assert (cur - prev).max() <= 1e-12
        prev = cur


def test_interpolant_gap_bounded_by_step_increment(moving_traj):
    g = moving_traj.grid
    max_step = max(norm_h1(g, moving_traj.states[k] - moving_traj.states[k - 1])
                   for k in range(1, moving_traj.m + 1))
    ts = np.linspace(1e-9, moving_traj.times[-1], 60)
    sup_gap = max(norm_h1(g, interp_linear(moving_traj, t).values
                          - interp_constant(moving_traj, t).values) for t in ts)
    assert sup_gap <= max_step + 1e-13


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def test_trajectory_round_trip(tmp_path, moving_traj):
    save_trajectory(moving_traj, tmp_path)
    back = load_trajectory(tmp_path)
    np.testing.assert_array_equal(back.states, moving_traj.states)
    np.testing.assert_array_equal(back.multipliers, moving_traj.multipliers)
    np.testing.assert_array_equal(back.times, moving_traj.times)
    np.testing.assert_array_equal(back.energies, moving_traj.energies)
    assert back.grid == moving_traj.grid
    assert [s.kkt_residual for s in back.step_meta] == \
        [s.kkt_residual for s in moving_traj.step_meta]


def test_trajectory_stride_keeps_ends(tmp_path, moving_traj):
    save_trajectory(moving_traj, tmp_path / "thin", stride=5)
    back = load_trajectory(tmp_path / "thin")
    np.testing.assert_array_equal(back.states[0], moving_traj.states[0])
    np.testing.assert_array_equal(back.states[-1], moving_traj.states[-1])
    assert back.times.size < moving_traj.times.size
