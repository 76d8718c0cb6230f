"""The array contract of TimeProfile and the blocked evaluation of the data.

Every preset evaluated over an array of times must equal, to the last bit,
the same preset evaluated one time at a time; and the blocked stages must
equal the per-time loops they replaced (``reference_data``).
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from irrev import (Grid, ProblemData, TimeProfile, balance_residual,
                   default_lower_envelope, discretize_time, run_evolution, run_longtime,
                   solve_unconstrained)
from irrev.fracture import ATParams, cumulative_load, load_to_sigma
from irrev.model import EVAL_BLOCK, QUAD_PTS, time_blocks
from irrev.presets import fracture_load, nonlinearity, time_profile

from reference_data import per_step_averages, per_step_balance, per_time_envelope

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: node counts: one time per block when n > EVAL_BLOCK, several otherwise
NODE_COUNTS = (1, 7, 41, 5000, EVAL_BLOCK + 3)


def assert_bitwise(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def time_presets(grid: Grid, knot: float) -> dict:
    """One spec per time preset; ``knot`` is the switch time and a table knot."""
    bump = {"preset": "bump", "amplitude": 0.8, "center": 0.4, "width": 0.2}
    sine = {"preset": "sine", "amplitude": 1.3, "mode": 2}
    table_times = [-0.5, knot, knot + 0.75, 2.0]
    rng = np.random.default_rng(7)
    return {
        "constant": {"preset": "constant", "value": 1.7},
        "constant-space": {"preset": "constant", "space": bump},
        "linear_t": {"preset": "linear_t", "base": sine, "rate": bump},
        "exp_relax": {"preset": "exp_relax", "limit": sine, "bump": bump, "rate": 0.9},
        "step_t": {"preset": "step_t", "before": -1.0, "after": 2.5, "t_switch": knot},
        "tabulated": {"preset": "tabulated", "times": table_times,
                      "values": rng.normal(size=(4, grid.n)).tolist()},
    }


LOADS = ("zero", "ramp_linear", "ramp_sine")


def load_spec(kind: str) -> dict:
    return {"preset": kind} if kind == "zero" else {"preset": kind, "scale": 0.3,
                                                    "ramp_time": 0.6}


def profiles(kind: str, name: str, n: int, knot: float):
    """The profile under test and the coordinates it is evaluated at."""
    if kind == "time":
        grid = Grid(0.0, 1.0, n)
        return time_profile(grid, time_presets(grid, knot)[name]), grid.nodes
    if kind == "load":
        grid = Grid(-1.0, 1.0, n)
        return fracture_load(load_spec(name)), grid.nodes_full
    grid = Grid(-1.0, 1.0, n)
    params = ATParams(eps=0.1, delta=1e-3, load=fracture_load(load_spec(name)))
    return load_to_sigma(grid, params), grid.nodes


CASES = ([("time", name) for name in time_presets(Grid(0.0, 1.0, 1), 0.5)]
         + [("load", name) for name in LOADS] + [("sigma", name) for name in LOADS])


def times_strategy(knot: float):
    """Times inside and outside [0, 2], with the preset knots among them."""
    t = st.one_of(st.floats(-1.0, 3.0, allow_nan=False), st.sampled_from(
        [0.0, knot, knot + 0.75, 0.6, 2.0, -0.5]))
    return st.lists(t, min_size=1, max_size=9)


@pytest.mark.parametrize("kind,name", CASES)
@SETTINGS
@given(n=st.sampled_from(NODE_COUNTS), knot=st.sampled_from([0.25, 0.5]),
       data=st.data())
def test_array_evaluation_matches_per_time(kind, name, n, knot, data):
    ts = np.array(data.draw(times_strategy(knot)))
    profile, x = profiles(kind, name, n, knot)
    for fn in (profile, profile.dt):
        stacked = np.stack([fn(x, t) for t in ts])
        assert_bitwise(fn(x, ts), stacked)
        blocks = [fn(x, ts[sl]) for sl in time_blocks(ts.size, x.size)]
        assert_bitwise(np.concatenate(blocks), stacked)
        assert fn(x, float(ts[0])).shape == (x.size,)


@SETTINGS
@given(n=st.sampled_from(NODE_COUNTS), n_times=st.integers(1, 9))
def test_cumulative_load_rows_match_per_time(n, n_times):
    grid = Grid(-1.0, 1.0, n)
    params = ATParams(eps=0.1, delta=1e-3, load=fracture_load(load_spec("ramp_sine")))
    ts = np.linspace(0.0, 1.0, n_times)
    assert_bitwise(cumulative_load(grid, params, ts),
                   np.stack([cumulative_load(grid, params, t) for t in ts]))


def test_cumulative_load_checks_every_row():
    grid = Grid(-1.0, 1.0, 11)
    # zero average up to t = 1, a uniform load added after it
    load = TimeProfile(lambda x, t: x + np.where(t > 1.0, 1.0, 0.0),
                       lambda x, t: np.zeros(np.shape(x)))
    params = ATParams(eps=0.1, delta=1e-3, load=load)
    cumulative_load(grid, params, np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError, match="nonzero spatial average at t=1.5"):
        cumulative_load(grid, params, np.array([0.0, 1.5, 2.0]))


def test_tabulated_derivative_is_the_slope_of_the_interval_to_the_right():
    grid = Grid(0.0, 1.0, 2)
    prof = time_profile(grid, {"preset": "tabulated", "times": [0.0, 1.0, 3.0],
                               "values": [[0.0, 0.0], [2.0, 4.0], [3.0, 0.0]]})
    x = grid.nodes
    np.testing.assert_array_equal(prof.dt(x, np.array([-0.5, 0.0, 0.5])),
                                  [[0.0, 0.0], [2.0, 4.0], [2.0, 4.0]])
    np.testing.assert_array_equal(prof.dt(x, 1.0), [0.5, -2.0])
    np.testing.assert_array_equal(prof.dt(x, np.array([3.0, 4.0])), np.zeros((2, 2)))
    np.testing.assert_array_equal(prof(x, 2.0), [2.5, 2.0])


# --------------------------------------------------------------------------
# the blocked stages against the per-time loops they replaced
# --------------------------------------------------------------------------

def problem(n: int, source: dict, weight: dict, horizon: float) -> ProblemData:
    grid = Grid(0.0, 1.0, n)
    return ProblemData(grid=grid, lam=1.0, weight=time_profile(grid, weight),
                       source=time_profile(grid, source),
                       initial=np.zeros(n), horizon=horizon)


@SETTINGS
@given(n=st.sampled_from((1, 7, 101)), m=st.integers(1, 400),
       quad_pts=st.sampled_from((1, 3, QUAD_PTS)),
       source=st.sampled_from(["linear_t", "exp_relax", "step_t", "tabulated"]),
       weight=st.sampled_from(["constant-space", "exp_relax"]))
def test_discretize_time_matches_per_step_loop(n, m, quad_pts, source, weight):
    specs = time_presets(Grid(0.0, 1.0, n), 0.5)
    data = problem(n, specs[source], specs[weight], horizon=1.5)
    disc = discretize_time(data, m, quad_pts)
    x = data.grid.nodes
    assert_bitwise(disc.source_avg,
                   per_step_averages(data.source, x, disc.times, disc.tau, quad_pts))
    assert_bitwise(disc.weight_avg,
                   per_step_averages(data.weight, x, disc.times, disc.tau, quad_pts))


@SETTINGS
@given(n=st.sampled_from((1, 7, 101)), n_quad=st.integers(1, 3000),
       source=st.sampled_from(["linear_t", "exp_relax", "tabulated"]))
def test_lower_envelope_matches_per_time_loop(n, n_quad, source):
    data = problem(n, time_presets(Grid(0.0, 1.0, n), 0.5)[source],
                   {"preset": "constant", "value": 1.0}, horizon=2.0)
    assert_bitwise(default_lower_envelope(data, n_quad=n_quad),
                   per_time_envelope(data, n_quad))


@pytest.mark.parametrize("m", [3, 40])
def test_balance_residual_matches_per_step_loop(m):
    # at m = 40 the 320 quadrature points on 101 nodes span two blocks, the
    # first ending inside a step
    n = 101
    specs = time_presets(Grid(0.0, 1.0, n), 0.5)
    data = problem(n, specs["exp_relax"], specs["linear_t"], horizon=1.0)
    tanh = nonlinearity({"preset": "tanh", "amplitude": 0.5})
    traj = run_evolution(data, tanh, m, validate_first=False)
    assert_bitwise(balance_residual(traj, data, tanh).residuals,
                   per_step_balance(traj, data, tanh, QUAD_PTS))


# --------------------------------------------------------------------------
# profile calls grow with the number of blocks, not with m * quad_pts
# --------------------------------------------------------------------------

def counted(fn, calls: list):
    def wrapped(x, t):
        calls.append(t.size)
        return fn(x, t)
    return wrapped


def longtime_data(n: int, calls: list) -> ProblemData:
    """The longtime benchmark's data shape: a bump decaying toward 0.5."""
    grid = Grid(0.0, 1.0, n)
    bump = np.exp(-((grid.nodes - 0.5) / 0.2) ** 2)
    ev = lambda x, t: 0.5 + np.exp(-0.8 * t) * np.interp(x, grid.nodes, bump)
    dev = lambda x, t: -0.8 * np.exp(-0.8 * t) * np.interp(x, grid.nodes, bump)
    source = TimeProfile(counted(ev, calls), counted(dev, calls),
                         limit=np.full(n, 0.5))
    weight = TimeProfile(counted(lambda x, t: np.ones(np.shape(x)), calls),
                         counted(lambda x, t: np.zeros(np.shape(x)), calls))
    tanh = nonlinearity({"preset": "tanh", "amplitude": 0.5})
    z0 = solve_unconstrained(grid, ev(grid.nodes, 0.0), np.ones(n), 1.0, tanh)
    return ProblemData(grid=grid, lam=1.0, weight=weight, source=source,
                       initial=z0, horizon=1.0), tanh


def test_discretize_time_calls_per_block():
    n, m = 41, 6400
    calls = []
    data, _ = longtime_data(n, calls)
    discretize_time(data, m)
    # per profile: QUAD_PTS calls per block of steps and one at t = 0
    assert len(calls) == 2 * (QUAD_PTS * len(time_blocks(m, n)) + 1)
    assert max(calls) <= EVAL_BLOCK


def test_longtime_profile_calls_grow_with_blocks_not_steps():
    n, m_per_unit = 41, 16
    counts = {}
    for horizon in (40.0, 400.0):
        calls = []
        data, tanh = longtime_data(n, calls)
        result = run_longtime(data, tanh, horizon, m_per_unit)
        m = result.traj.m
        counts[m] = len(calls)
        assert max(calls) <= EVAL_BLOCK
        n_quad = int(256 * horizon)      # the lower envelope's points
        blocks = math.ceil(m * n / EVAL_BLOCK) + 1
        assert len(calls) <= (2 * QUAD_PTS + 4) * blocks \
            + math.ceil(n_quad * n / EVAL_BLOCK) + 16
    assert counts[6400] < 6400 < 6400 * QUAD_PTS
    # ten times the steps, about ten times the blocks
    assert counts[6400] <= 11 * counts[640]
