import math

import numpy as np
import pytest

from irrev import evolution, model, obstacle
from irrev import (EvolutionError, Grid, NewtonFailure, ProblemData, TimeProfile,
                   ValidationError, constant_profile, energy, interp_constant,
                   load_trajectory, norm_h1, run_evolution, save_trajectory,
                   solve_step, solve_unconstrained)
from irrev.diagnostics import energies
from irrev.fracture import ATParams, build_problem
from irrev.obstacle import TOL_KKT
from irrev.presets import fracture_load, nonlinearity, time_profile

from helpers import smooth_values
from reference import interp_linear

ZERO = nonlinearity({"preset": "zero"})
TANH = nonlinearity({"preset": "tanh", "amplitude": 0.5})


def stationary_data(n=31, lam=2.0):
    g = Grid(0.0, 1.0, n)
    x = g.nodes
    source = constant_profile(0.0)
    source = TimeProfile(lambda xx, t: 1.0 + np.sin(np.pi * np.asarray(xx)))
    weight = TimeProfile(lambda xx, t: 0.4 + 0.3 * np.asarray(xx))
    z0 = solve_unconstrained(g, source(x, 0.0), weight(x, 0.0), lam, TANH)
    return ProblemData(grid=g, lam=lam, weight=weight, source=source,
                       initial=z0, horizon=1.0)


def ramp_data(n=21, lam=2.0, T=1.0):
    """Source decays in part of the domain: genuine movement."""
    g = Grid(0.0, 1.0, n)

    def ev(x, t):
        x = np.asarray(x)
        return -1.2 * np.sin(np.pi * x) + np.exp(-t) * np.cos(np.pi * x)

    source = TimeProfile(ev)
    weight = TimeProfile(lambda x, t: (0.6 + 0.3 * np.sin(np.pi * np.asarray(x)))
                         * (1.0 + 0.5 * np.exp(-2.0 * t)))
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
                       initial=np.zeros(9), horizon=1.0)
    traj = run_evolution(data, ZERO, m=5)
    np.testing.assert_array_equal(traj.states, np.zeros((6, 9)))


def test_scalar_two_step_hand_trajectory():
    g = Grid(0.0, 2.0, 1)  # h = 1
    step = time_profile(g, {"preset": "step_t", "before": 0.0, "after": -3.0,
                            "t_switch": 0.5}, "f")
    data = ProblemData(grid=g, lam=1.0, weight=constant_profile(0.0),
                       source=step, initial=[0.0], horizon=1.0,
                       source_floor=[-3.0])
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
                       initial=np.zeros(5), horizon=1.0,
                       source_floor=np.full(5, -1.0))
    with pytest.raises(ValidationError):
        run_evolution(data, ZERO, m=2)


def test_step_failure_attaches_partial_trajectory():
    # the weight grows in time until the convexity margin is gone mid-run
    g = Grid(0.0, 1.0, 5)
    nl = nonlinearity({"preset": "linear", "slope": -1.0})  # L = 1
    weight = TimeProfile(lambda x, t: np.full(np.shape(x), 2.0 * t))
    data = ProblemData(grid=g, lam=1.0, weight=weight,
                       source=constant_profile(0.0),
                       initial=np.zeros(5), horizon=1.0)
    with pytest.raises(EvolutionError) as err:
        run_evolution(data, nl, m=10, validate_first=False)
    exc = err.value
    # step k averages the weight to (2k-1)/10: the margin 1 - (2k-1)/10 is
    # first below MARGIN_FLOOR at k = 6, inside a stack of contact-free steps
    assert exc.step == 6
    assert exc.partial.times.size == exc.step
    np.testing.assert_array_equal(exc.partial.states[0], np.zeros(5))
    partial = exc.partial
    np.testing.assert_array_equal(
        partial.energies,
        [energy(data, nl, partial.states[k], t) for k, t in enumerate(partial.times)])
    # the stacked pass reads only the rows of the stamps it is given
    tail = np.vstack([partial.states, np.full((3, 5), np.nan)])
    np.testing.assert_array_equal(energies(data, nl, tail, partial.times), partial.energies)


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
    sweeps = traj.step_meta.iters.tolist()
    assert sweeps[0] == cold[0].iters > 2   # the first step starts cold
    assert max(sweeps[1:]) <= 2             # later ones from the last contact set
    assert traj.step_meta.n_active.tolist() == [res.active.size for res in cold]
    assert min(res.active.size for res in cold) > 0
    for k, res in enumerate(cold, start=1):
        np.testing.assert_allclose(traj.states[k], res.z, rtol=0, atol=1e-12)


def trace_rows(trace):
    """``(k, iters, n_active)`` of every step of a :class:`StepTrace`."""
    return list(zip(range(1, len(trace) + 1), trace.iters.tolist(), trace.n_active.tolist()))


def assert_trace_is(trace, results, first=1):
    """The rows of ``trace`` from step ``first`` on are the ``solve_step``
    ``results``: sweeps and contact-set sizes equal, KKT residuals to the bit."""
    rows = slice(first - 1, first - 1 + len(results))
    assert trace.iters[rows].tolist() == [res.iters for res in results]
    assert trace.n_active[rows].tolist() == [res.active.size for res in results]
    assert trace.kkt_residual[rows].tobytes() == \
        np.array([res.kkt_residual for res in results]).tobytes()


def bump(x):
    return np.exp(-((np.asarray(x) - 0.5) / 0.2) ** 2)


def profile_data(source, n=41, horizon=1.0):
    """Weight 1, lam 1, z0 the equilibrium of the source at t = 0."""
    g = Grid(0.0, 1.0, n)
    weight = constant_profile(1.0)
    z0 = solve_unconstrained(g, source(g.nodes, 0.0), weight(g.nodes, 0.0), 1.0, TANH)
    return ProblemData(grid=g, lam=1.0, weight=weight, source=source,
                       initial=z0, horizon=horizon)


def relax_data(n=41, horizon=4.0):
    """f = 1/2 + exp(-t)*bump: the source falls everywhere, so no step has contact."""
    return profile_data(TimeProfile(lambda x, t: 0.5 + np.exp(-t) * bump(x)), n, horizon)


def onset_data(n=41):
    """f = 1/2 + 4*(t - 1/2)^2*bump: the source falls until t = 1/2 and rises
    after, so contact starts in the middle of a contact-free stretch."""
    return profile_data(TimeProfile(lambda x, t: 0.5 + 4.0 * (t - 0.5) ** 2 * bump(x)), n)


def travelling_data(n=301):
    """f = 1 + t*sin(2 pi (x - 0.3 t)): the rising half of the source moves
    right, so the contact set moves almost every step."""
    def phase(x, t):
        return 2.0 * np.pi * (np.asarray(x) - 0.3 * t)

    return profile_data(TimeProfile(lambda x, t: 1.0 + t * np.sin(phase(x, t))), n)


def step_walk(data, traj, warm, nl=TANH):
    """``solve_step`` one step after another on the run's own step data,
    from the last step's contact set (``warm``) or from none."""
    states, results, active = [traj.states[0]], [], None
    for k in range(traj.m):
        res = solve_step(data.grid, states[-1], traj.disc.source_avg[k],
                         traj.disc.weight_avg[k], data.lam, nl,
                         initial_active=active if warm else None)
        states.append(res.z)
        results.append(res)
        active = res.active
    return np.array(states), results


def test_contact_free_stretch_matches_the_cold_walk():
    data = relax_data()
    traj = run_evolution(data, TANH, m=40)
    states, cold = step_walk(data, traj, warm=False)
    assert traj.max_movement() > 1e-3
    np.testing.assert_allclose(traj.states, states, rtol=0, atol=1e-12)
    assert trace_rows(traj.step_meta) == \
        [(k, res.iters, res.active.size) for k, res in enumerate(cold, start=1)]
    assert [res.active.size for res in cold] == [0] * traj.m
    assert traj.step_meta.kkt_residual.max() <= TOL_KKT
    assert (traj.states[1:] <= traj.states[:-1]).all()


def test_contact_onset_in_a_stretch_matches_the_cold_walk():
    data = onset_data()
    traj = run_evolution(data, TANH, m=40)
    states, cold = step_walk(data, traj, warm=False)
    n_active = [res.active.size for res in cold]
    assert n_active[0] == 0 and n_active[-1] > 0  # the stretch ends in contact
    assert traj.step_meta.n_active.tolist() == n_active
    np.testing.assert_allclose(traj.states, states, rtol=0, atol=1e-12)
    assert (traj.states[1:] <= traj.states[:-1]).all()


#: (data, nonlinearity) makers; contact is the golden run-contact config
RUNS = {"relax_data": lambda: (relax_data(), TANH), "onset_data": lambda: (onset_data(), TANH),
        "contact": lambda: contact_data(301)}


@pytest.mark.parametrize("name", list(RUNS))
def test_one_row_stacks_equal_the_sequential_walk(monkeypatch, name):
    # with one time block of one row each stack starts from the state
    # before, with its contact set held, as the first sweep of solve_step
    # does from that set, to the last bit
    monkeypatch.setattr(model, "EVAL_BLOCK", 1)
    data, nl = RUNS[name]()
    traj = run_evolution(data, nl, m=40)
    states, warm = step_walk(data, traj, warm=True, nl=nl)
    np.testing.assert_array_equal(traj.states, states)
    np.testing.assert_array_equal(traj.multipliers, [res.eta for res in warm])
    assert len(traj.step_meta) == traj.m
    assert_trace_is(traj.step_meta, warm)


@pytest.mark.parametrize("name", list(RUNS))
def test_failed_stacks_fall_back_to_the_warm_walk(monkeypatch, name):
    # every stack fails, so each step it held goes to solve_step from the
    # contact set of the step before
    failures = []

    def failing(*args):
        failures.append(args[0])
        raise NewtonFailure("stalled")

    monkeypatch.setattr(evolution, "solve_held_steps", failing)
    data, nl = RUNS[name]()
    traj = run_evolution(data, nl, m=40)
    assert failures
    states, warm = step_walk(data, traj, warm=True, nl=nl)
    np.testing.assert_array_equal(traj.states, states)
    np.testing.assert_array_equal(traj.multipliers, [res.eta for res in warm])
    assert_trace_is(traj.step_meta, warm)


@pytest.mark.parametrize("name", ["contact", "onset_data"])
def test_held_set_stretch_matches_the_warm_walk(name):
    data, nl = RUNS[name]()
    traj = run_evolution(data, nl, m=50)
    states, warm = step_walk(data, traj, warm=True, nl=nl)
    meta = trace_rows(traj.step_meta)
    assert meta == [(k, res.iters, res.active.size) for k, res in enumerate(warm, start=1)]
    # a stretch of steps that keep a nonempty contact set
    assert sum(1 for (_, iters, n_active) in meta[1:] if iters == 1 and n_active) > 10
    np.testing.assert_allclose(traj.states, states, rtol=0, atol=1e-12)
    assert (traj.states[1:] <= traj.states[:-1]).all()
    assert traj.multipliers.min() >= -TOL_KKT


def counted_run(monkeypatch, data, nl, m):
    """``run_evolution`` with its ``solve_step`` calls, its stacked Newton
    runs, the stack rows it asks for (``rows``) and does not keep
    (``rows_lost``) and the rounding-floor tests (``settled``) counted."""
    counts = {"solve_step": 0, "stacks": 0, "rows": 0, "rows_lost": 0, "settled": 0}

    def counted_step(*args, **kwargs):
        counts["solve_step"] += 1
        return solve_step(*args, **kwargs)

    def counted_held(grid, start, active, sources, *args):
        out = held(grid, start, active, sources, *args)
        counts["rows"] += len(sources)
        counts["rows_lost"] += len(sources) - len(out[0])
        return out

    def counted_newton(u, *args):
        counts["stacks"] += np.ndim(u) == 2
        return newton(u, *args)

    def counted_settled(*args):
        counts["settled"] += 1
        return settled(*args)

    newton, held = obstacle._newton_on_subset, evolution.solve_held_steps
    settled = obstacle._settled
    monkeypatch.setattr(obstacle, "_settled", counted_settled)
    monkeypatch.setattr(evolution, "solve_step", counted_step)
    monkeypatch.setattr(evolution, "solve_held_steps", counted_held)
    monkeypatch.setattr(obstacle, "_newton_on_subset", counted_newton)
    return run_evolution(data, nl, m=m), counts


def test_long_contact_free_run_takes_few_stacked_solves(monkeypatch):
    m = 640
    traj, counts = counted_run(monkeypatch, relax_data(horizon=40.0), TANH, m)
    assert traj.step_meta.n_active.tolist() == [0] * m
    assert counts["solve_step"] == 1
    # stacks of 2, 4, 8, ... rows
    assert 1 <= counts["stacks"] <= 2 * math.ceil(math.log2(m))
    # a stacked row within TOL_KKT asks for no rounding floor: only the
    # sweeps of solve_step do
    assert counts["settled"] == traj.step_meta.iters[0] == 1


def test_held_contact_set_run_takes_two_step_solves(monkeypatch):
    # run-contact keeps one contact set from step 1 on: step 1 finds it
    # cold, step 2 confirms it in one sweep, and stacks solve the rest
    m = 50
    traj, counts = counted_run(monkeypatch, *contact_data(301), m)
    assert traj.step_meta.n_active.min() > 0
    assert counts["solve_step"] == 2
    assert 1 <= counts["stacks"] <= 2 * math.ceil(math.log2(m))
    assert counts["rows_lost"] == 0


def test_a_moving_contact_set_wastes_few_stack_rows(monkeypatch):
    # stacks follow only a step whose set held, so a set that moves almost
    # every step asks for few rows that it cannot keep
    data, nl = travelling_data(), TANH
    traj, counts = counted_run(monkeypatch, data, nl, 200)
    iters = traj.step_meta.iters.tolist()
    assert sum(i > 1 for i in iters) > 150    # the set moves
    assert counts["rows_lost"] <= 4
    states, warm = step_walk(data, traj, warm=True, nl=nl)
    np.testing.assert_allclose(traj.states, states, rtol=0, atol=1e-12)
    assert iters == [res.iters for res in warm]


def fracture_data(n=101):
    """The fracture reduction under a ``ramp_sine`` load that ramps up to
    t = 0.55 and holds after, so every step from the first whose interval
    lies in the hold repeats the data of the step before to the last bit."""
    grid = Grid(-1.0, 1.0, n, "dirichlet", "dirichlet")
    load = fracture_load({"preset": "ramp_sine", "scale": 0.009, "ramp_time": 0.55})
    return build_problem(grid, ATParams(eps=0.1, delta=1e-3, load=load), None, 1.0)


def rise_and_hold_data():
    """f = 1/2 + min(t, 0.3)*(bump - 0.4): rises in the middle and falls at
    the sides until t = 0.3, then holds, with 7 of 41 nodes in contact."""
    source = TimeProfile(lambda x, t: 0.5 + np.minimum(t, 0.3) * (bump(x) - 0.4))
    return profile_data(source), TANH


def ramp_hold_ramp_data():
    """f = 1/2 + g(t)*bump with g falling on (0, 0.3), held on (0.3, 0.6) and
    falling again: a contact-free run whose hold sits inside a stack."""
    def g(t):
        return 1.0 - np.minimum(t, 0.3) - np.maximum(t - 0.6, 0.0)

    return profile_data(TimeProfile(lambda x, t: 0.5 + g(t) * bump(x))), TANH


HOLDS = {"fracture": fracture_data, "rise_and_hold": rise_and_hold_data}


def held_steps(traj):
    """The steps k >= 2 whose source and weight rows have the bits of step k-1's."""
    bits = [v.view(np.uint64) for v in (traj.disc.source_avg, traj.disc.weight_avg)]
    return [k for k in range(2, traj.m + 1) if all((b[k - 1] == b[k - 2]).all() for b in bits)]


@pytest.mark.parametrize("name", list(HOLDS))
def test_held_steps_equal_the_warm_walk_bit_for_bit(monkeypatch, name):
    # with one-row stacks every solved step is the walk's own solve, so the
    # held copies must be what solve_step returns from the state before
    monkeypatch.setattr(model, "EVAL_BLOCK", 1)
    data, nl = HOLDS[name]()
    traj = run_evolution(data, nl, m=100)
    held = held_steps(traj)
    assert len(held) > 40 and held[-1] == traj.m
    assert all(traj.step_meta.n_active[k - 1] == (7 if name == "rise_and_hold" else 0)
               for k in held)
    states, warm = step_walk(data, traj, warm=True, nl=nl)
    np.testing.assert_array_equal(traj.states, states)
    np.testing.assert_array_equal(traj.multipliers, [res.eta for res in warm])
    assert len(traj.step_meta) == traj.m
    assert_trace_is(traj.step_meta, warm)


@pytest.mark.parametrize("name", list(HOLDS))
def test_held_steps_copy_the_step_before_and_call_no_solver(monkeypatch, name):
    data, nl = HOLDS[name]()
    m = 100
    traj, counts = counted_run(monkeypatch, data, nl, m)
    held = held_steps(traj)
    assert len(held) > 40
    # every solver row, in solve_step or in a stack, is a step that is not held
    assert counts["solve_step"] + counts["rows"] - counts["rows_lost"] == m - len(held)
    for k in held:
        assert traj.states[k].tobytes() == traj.states[k - 1].tobytes()
        assert traj.multipliers[k - 1].tobytes() == traj.multipliers[k - 2].tobytes()
        # what solve_step returns from the run's own state before and its set
        res = solve_step(data.grid, traj.states[k - 1], traj.disc.source_avg[k - 1],
                         traj.disc.weight_avg[k - 1], data.lam, nl,
                         initial_active=np.flatnonzero(traj.multipliers[k - 2] > 0))
        assert res.z.tobytes() == traj.states[k].tobytes()
        assert res.eta.tobytes() == traj.multipliers[k - 1].tobytes()
        assert_trace_is(traj.step_meta, [res], first=k)


def test_a_hold_inside_a_stack_loses_no_stack_row(monkeypatch):
    # the stack from step 16 to 31 starts inside the hold (steps 14 to 24);
    # stacked from their start, the held rows moved a few ulps above it and
    # were lost, 26 rows over the run with four solve_step calls, until the
    # held steps were copied out of the stacks
    data, nl = ramp_hold_ramp_data()
    m = 40
    traj, counts = counted_run(monkeypatch, data, nl, m)
    held = held_steps(traj)
    assert held == list(range(14, 25))
    assert traj.step_meta.n_active.tolist() == [0] * m
    assert counts["solve_step"] == 1 and counts["rows_lost"] == 0
    assert counts["rows"] == m - 1 - len(held)
    states, cold = step_walk(data, traj, warm=False)
    np.testing.assert_allclose(traj.states, states, rtol=0, atol=1e-12)
    assert (traj.states[1:] <= traj.states[:-1]).all()


# --------------------------------------------------------------------------
# interpolants
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def moving_traj():
    return run_evolution(ramp_data(), TANH, m=12)


def test_interp_endpoint_identity(moving_traj):
    for k in range(moving_traj.m + 1):
        t = moving_traj.times[k]
        np.testing.assert_array_equal(interp_linear(moving_traj, t),
                                      moving_traj.states[k])
        np.testing.assert_array_equal(interp_constant(moving_traj, t),
                                      moving_traj.states[k])


def test_interp_linear_midpoint(moving_traj):
    k = 5
    t = 0.5 * (moving_traj.times[k - 1] + moving_traj.times[k])
    np.testing.assert_allclose(
        interp_linear(moving_traj, t),
        0.5 * (moving_traj.states[k - 1] + moving_traj.states[k]), rtol=1e-14)


def test_interp_constant_right_continuous_convention(moving_traj):
    k = 4
    t = moving_traj.times[k] - moving_traj.tau / 3.0
    np.testing.assert_array_equal(interp_constant(moving_traj, t),
                                  moving_traj.states[k])


def test_interp_constant_at_zero(moving_traj):
    np.testing.assert_array_equal(interp_constant(moving_traj, 0.0),
                                  moving_traj.states[0])


def test_interp_out_of_range(moving_traj):
    with pytest.raises(ValueError):
        interp_linear(moving_traj, -0.1)
    with pytest.raises(ValueError):
        interp_constant(moving_traj, moving_traj.times[-1] * 1.01)


def test_interp_linear_monotone_in_time(moving_traj):
    ts = np.linspace(0.0, moving_traj.times[-1], 40)
    prev = interp_linear(moving_traj, ts[0])
    for t in ts[1:]:
        cur = interp_linear(moving_traj, t)
        assert (cur - prev).max() <= 1e-12
        prev = cur


def test_interpolant_gap_bounded_by_step_increment(moving_traj):
    g = moving_traj.grid
    max_step = max(norm_h1(g, moving_traj.states[k] - moving_traj.states[k - 1])
                   for k in range(1, moving_traj.m + 1))
    ts = np.linspace(1e-9, moving_traj.times[-1], 60)
    sup_gap = max(norm_h1(g, interp_linear(moving_traj, t)
                          - interp_constant(moving_traj, t)) for t in ts)
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
    assert back.step_meta.kkt_residual.tobytes() == moving_traj.step_meta.kkt_residual.tobytes()


def test_trajectory_stride_keeps_ends(tmp_path, moving_traj):
    save_trajectory(moving_traj, tmp_path / "thin", stride=5)
    back = load_trajectory(tmp_path / "thin")
    np.testing.assert_array_equal(back.states[0], moving_traj.states[0])
    np.testing.assert_array_equal(back.states[-1], moving_traj.states[-1])
    assert back.times.size < moving_traj.times.size
