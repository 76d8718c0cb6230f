"""The array contract of TimeProfile and the blocked evaluation of the data.

Every preset evaluated over an array of times must equal, to the last bit,
the same preset evaluated one time at a time; and the blocked stages must
equal the per-time loops they replaced (``reference_data``).
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from irrev import (Grid, ProblemData, TimeProfile, default_lower_envelope, discretize_time,
                   run_evolution, run_longtime, solve_unconstrained)
from irrev import model
from irrev.diagnostics import check_energy_balance, energy_bracket
from irrev.fracture import ATParams, _cumtrapz, _interp_rows, cumulative_load, load_to_sigma
from irrev.model import EVAL_BLOCK, QUAD_PTS, time_blocks
from irrev.presets import fracture_load, nonlinearity, time_profile

from reference_data import per_step_averages, per_step_bracket, per_time_envelope

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


@pytest.mark.parametrize("kind,name", CASES)
def test_no_times_give_no_rows(kind, name):
    profile, x = profiles(kind, name, 7, 0.5)
    for fn in (profile, profile.dt):
        assert fn(x, np.array([])).shape == (0, x.size)


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
# the space factor once per node row, the time factor once per time
# --------------------------------------------------------------------------

def query_points(grid: Grid) -> np.ndarray:
    """Interior nodes, both endpoints, midpoints, points just off the nodes
    and points outside [a, b]."""
    full = grid.nodes_full
    mids = 0.5 * (full[:-1] + full[1:])
    near = np.concatenate([np.nextafter(full, -np.inf), np.nextafter(full, np.inf)])
    outside = [grid.a - 0.5, grid.b + 1e-12, grid.b + 3.0]
    return np.concatenate([grid.nodes, [grid.a, grid.b], mids, near, outside])


@SETTINGS
@given(n_knots=st.integers(2, 12), n_rows=st.integers(1, 5), data=st.data())
def test_interp_rows_matches_np_interp_per_row(n_knots, n_rows, data):
    value = st.one_of(st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from([0.0, -0.0]))
    xp = np.cumsum(np.array(data.draw(st.lists(st.floats(1e-3, 2.0), min_size=n_knots,
                                                max_size=n_knots))))
    fp = np.array(data.draw(st.lists(st.lists(value, min_size=n_knots, max_size=n_knots),
                                     min_size=n_rows, max_size=n_rows)))
    x = np.concatenate([xp, 0.5 * (xp[:-1] + xp[1:]), [xp[0] - 1.0, xp[-1] + 1.0],
                        data.draw(st.lists(st.floats(-5.0, 30.0), max_size=8))])
    assert_bitwise(_interp_rows(x, xp, fp), np.stack([np.interp(x, xp, row) for row in fp]))
    assert_bitwise(_interp_rows(x, xp, fp[0]), np.interp(x, xp, fp[0]))


@pytest.mark.parametrize("load", LOADS)
@pytest.mark.parametrize("n", [1, 8, 41])
def test_load_to_sigma_matches_per_row_interpolation(load, n):
    """H on the construction grid, interpolated per row by np.interp, at
    nodes, off-grid points, both endpoints and outside [a, b], for a scalar
    t and for arrays of t."""
    grid = Grid(-1.0, 1.0, n)
    params = ATParams(eps=0.1, delta=1e-3, load=fracture_load(load_spec(load)))
    sigma = load_to_sigma(grid, params)
    x, x_full = query_points(grid), grid.nodes_full

    def per_row(t):
        H = cumulative_load(grid, params, t)
        dH = _cumtrapz(x_full, params.load.dt(x_full, t))
        h = np.interp(x, x_full, H)
        return h ** 2, 2.0 * h * np.interp(x, x_full, dH)

    for ts in (0.0, 0.35, 0.6, 2.0, np.array([0.25]),
               np.array([0.0, 0.1, 0.6, 0.59, 1.3, 0.2, 5.0])):
        rows = [per_row(t) for t in np.atleast_1d(ts)]
        want = [np.stack([r[i] for r in rows]) for i in (0, 1)]
        if np.ndim(ts) == 0:
            want = [w[0] for w in want]
        assert_bitwise(sigma(x, ts), want[0])
        assert_bitwise(sigma.dt(x, ts), want[1])


def interpolating_profiles(n: int):
    """(name, profile, coordinates) of every profile that interpolates a
    nodal table or a cumulative load."""
    grid = Grid(0.0, 1.0, n)
    specs = time_presets(grid, 0.5)
    out = [(name, time_profile(grid, specs[name]), grid.nodes)
           for name in ("constant-space", "linear_t", "exp_relax", "tabulated")]
    for load in LOADS[1:]:
        frac = Grid(-1.0, 1.0, n)
        out.append((load, fracture_load(load_spec(load)), frac.nodes_full))
        params = ATParams(eps=0.1, delta=1e-3, load=fracture_load(load_spec(load)))
        out.append((f"sigma-{load}", load_to_sigma(frac, params), frac.nodes))
    return out


@pytest.mark.parametrize("k", [1, 7, 399])
def test_space_factors_per_node_row_and_time_factors_per_time(k, monkeypatch):
    """A k-time evaluation interpolates node rows (n points, n+2 for the
    cumulative load), takes the sine once per node and exp and the ramp's
    switch once per time, never on all k*n values."""
    n = 41
    ts = np.linspace(-0.5, 2.5, k)
    cases = interpolating_profiles(n)
    sizes = {name: [] for name in ("interp", "sin", "exp", "where")}

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            sizes[name].append(np.size(args[0]))
            return fn(*args, **kwargs)
        return wrapped

    for name in sizes:
        monkeypatch.setattr(np, name, recording(name, getattr(np, name)))
    for label, profile, x in cases:
        limits = {"interp": x.size, "sin": n + 2, "exp": k, "where": k}
        for fn in (profile, profile.dt):
            for calls in sizes.values():
                calls.clear()
            assert fn(x, ts).shape == (k, x.size)
            for name, limit in limits.items():
                assert max(sizes[name], default=0) <= limit, (label, name, sizes[name])


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
# one node: numpy would sum the single column pairwise, not in time order
@example(n=1, n_quad=26, source="exp_relax")
def test_lower_envelope_matches_per_time_loop(n, n_quad, source):
    data = problem(n, time_presets(Grid(0.0, 1.0, n), 0.5)[source],
                   {"preset": "constant", "value": 1.0}, horizon=2.0)
    assert_bitwise(default_lower_envelope(data, n_quad=n_quad),
                   per_time_envelope(data, n_quad))


@pytest.mark.parametrize("m", [3, 40])
def test_energy_balance_matches_per_step_loop(m):
    # the weight varies in time, so the bracket's weight term is not zero;
    # the zero initial state does not minimize J_0 below itself, so step 1
    # breaks the lower half of its bracket
    n = 101
    specs = time_presets(Grid(0.0, 1.0, n), 0.5)
    data = problem(n, specs["exp_relax"], specs["linear_t"], horizon=1.0)
    tanh = nonlinearity({"preset": "tanh", "amplitude": 0.5})
    traj = run_evolution(data, tanh, m, validate_first=False)
    ref = per_step_bracket(traj, tanh, data.lam)
    assert_bitwise(np.array(energy_bracket(traj, tanh, data.lam)), ref)
    lower, rise, upper, scale = ref
    ratio = np.maximum(np.maximum(lower - rise, rise - upper), 0.0) / scale
    v = check_energy_balance(traj, tanh, data.lam)
    assert v.max_violation == ratio.max() > 1e-12 and v.worst == (1,)
    assert np.all(ratio[1:] <= 1e-12)


@pytest.mark.parametrize("eval_block", [1, 250])
def test_energy_bracket_matches_per_step_loop_across_blocks(eval_block, monkeypatch):
    # 101 nodes: one stamp a block, or two; each block starts with the
    # last stamp of the block before
    n, m = 101, 9
    specs = time_presets(Grid(0.0, 1.0, n), 0.5)
    data = problem(n, specs["exp_relax"], specs["linear_t"], horizon=1.0)
    tanh = nonlinearity({"preset": "tanh", "amplitude": 0.5})
    traj = run_evolution(data, tanh, m, validate_first=False)
    monkeypatch.setattr(model, "EVAL_BLOCK", eval_block)
    assert len(time_blocks(m + 1, n)) == {1: 10, 250: 5}[eval_block]
    assert_bitwise(np.array(energy_bracket(traj, tanh, data.lam)),
                   per_step_bracket(traj, tanh, data.lam))


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
