"""The array contract of TimeProfile and the two ways the stages evaluate data.

Every preset evaluated over an array of times must equal, to the last bit,
the same preset evaluated one time at a time.  The blocked stages, which
evaluate a profile at every time point, must equal the per-time loops they
replaced (``reference_data``) to the last bit; they are pinned here on
``tabulated`` and on copies of factored presets stripped of their terms.
The factored stages, which average and bound each scalar time factor once,
sum in another order, so they must equal those loops to 1e-14 of the
data's size.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from irrev import (Grid, ProblemData, TimeProfile, default_lower_envelope, discretize_time,
                   run_evolution, run_longtime, solve_unconstrained)
from irrev import model
from irrev.diagnostics import check_energy_balance, energy_bracket
from irrev.fracture import ATParams, _cumtrapz, cumulative_load, load_to_sigma
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


def assert_close(got, want):
    """Equal within 1e-14 of the largest magnitude of ``want``."""
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max(initial=0.0))


def stripped(profile: TimeProfile) -> TimeProfile:
    """The profile's own evaluators without its terms: the stages then take
    the blocked path, on the same pointwise values."""
    return TimeProfile(profile._eval, limit=profile.limit)


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
    load = fracture_load(load_spec(name))
    # "integrated": the weight of a load given by evaluators, not by terms
    params = ATParams(eps=0.1, delta=1e-3, load=stripped(load) if kind == "integrated" else load)
    return load_to_sigma(grid, params), grid.nodes


CASES = ([("time", name) for name in time_presets(Grid(0.0, 1.0, 1), 0.5)]
         + [(kind, name) for kind in ("load", "sigma", "integrated") for name in LOADS])


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
    stacked = np.stack([profile(x, t) for t in ts])
    assert_bitwise(profile(x, ts), stacked)
    blocks = [profile(x, ts[sl]) for sl in time_blocks(ts.size, x.size)]
    assert_bitwise(np.concatenate(blocks), stacked)
    assert profile(x, float(ts[0])).shape == (x.size,)


@pytest.mark.parametrize("kind,name", CASES)
def test_no_times_give_no_rows(kind, name):
    profile, x = profiles(kind, name, 7, 0.5)
    assert profile(x, np.array([])).shape == (0, x.size)


def test_a_profile_takes_one_evaluator_and_no_derivative():
    ev = lambda x, t: np.ones(np.shape(x))
    with pytest.raises(TypeError):
        TimeProfile(ev, lambda x, t: np.zeros(np.shape(x)))
    assert not hasattr(TimeProfile(ev), "dt")
    assert all(len(term) == 2 for term in fracture_load(load_spec("ramp_sine")).terms)


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
    load = TimeProfile(lambda x, t: x + np.where(t > 1.0, 1.0, 0.0))
    params = ATParams(eps=0.1, delta=1e-3, load=load)
    cumulative_load(grid, params, np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError, match="nonzero spatial average at t=1.5"):
        cumulative_load(grid, params, np.array([0.0, 1.5, 2.0]))


def test_tabulated_is_linear_between_knots_and_constant_outside():
    grid = Grid(0.0, 1.0, 2)
    prof = time_profile(grid, {"preset": "tabulated", "times": [0.0, 1.0, 3.0],
                               "values": [[0.0, 0.0], [2.0, 4.0], [3.0, 0.0]]})
    x = grid.nodes
    np.testing.assert_array_equal(prof(x, np.array([-0.5, 0.0, 0.5, 1.0])),
                                  [[0.0, 0.0], [0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])
    np.testing.assert_array_equal(prof(x, 2.0), [2.5, 2.0])
    np.testing.assert_array_equal(prof(x, np.array([3.0, 4.0])), [[3.0, 0.0], [3.0, 0.0]])


@pytest.mark.parametrize("rate", [0.9, 0.0, -0.9])
def test_exp_relax_knows_its_limit_only_when_the_bump_decays(rate):
    grid = Grid(0.0, 1.0, 7)
    spec = dict(time_presets(grid, 0.5)["exp_relax"], rate=rate)
    prof = time_profile(grid, spec)
    if rate > 0:
        np.testing.assert_allclose(prof(grid.nodes, 60.0), prof.limit, rtol=0, atol=1e-20)
    else:
        assert prof.limit is None


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


@pytest.mark.parametrize("load", LOADS)
@pytest.mark.parametrize("n", [1, 8, 41])
def test_load_to_sigma_matches_per_row_interpolation(load, n):
    """The one-term weight ``(C^2, b^2)`` of a load ``space*b``, with ``C``
    the cumulative space factor interpolated by np.interp, at nodes,
    off-grid points, both endpoints and outside [a, b], for a scalar t and
    for arrays of t; and, to rounding, H^2 of the cumulative load
    interpolated per row."""
    grid = Grid(-1.0, 1.0, n)
    params = ATParams(eps=0.1, delta=1e-3, load=fracture_load(load_spec(load)))
    sigma = load_to_sigma(grid, params)
    x, x_full = query_points(grid), grid.nodes_full
    space, b = params.load.terms[0]
    C = _cumtrapz(x_full, np.broadcast_to(space(x_full), x_full.shape).astype(float))
    c2 = np.interp(x, x_full, C) ** 2

    def per_row(t):
        return c2 if b is None else c2 * b(t) ** 2

    def integrated(t):
        return np.interp(x, x_full, cumulative_load(grid, params, t)) ** 2

    for ts in (0.0, 0.35, 0.6, 2.0, np.array([0.25]),
               np.array([0.0, 0.1, 0.6, 0.59, 1.3, 0.2, 5.0])):
        for reference, close in ((per_row, assert_bitwise), (integrated, assert_close)):
            want = np.stack([reference(np.float64(t)) for t in np.atleast_1d(ts)])
            close(sigma(x, ts), want[0] if np.ndim(ts) == 0 else want)


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
        for calls in sizes.values():
            calls.clear()
        assert profile(x, ts).shape == (k, x.size)
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


FACTORED = ("constant", "constant-space", "linear_t", "exp_relax", "step_t")


@SETTINGS
@given(n=st.sampled_from((1, 7, 101)), m=st.integers(1, 400),
       quad_pts=st.sampled_from((1, 3, QUAD_PTS)),
       source=st.sampled_from(["linear_t", "exp_relax", "step_t", "tabulated"]),
       weight=st.sampled_from(["constant-space", "exp_relax"]))
def test_discretize_time_matches_per_step_loop(n, m, quad_pts, source, weight):
    # the blocked path: tabulated, and the factored presets stripped of terms
    specs = time_presets(Grid(0.0, 1.0, n), 0.5)
    data = problem(n, specs[source], specs[weight], horizon=1.5)
    data = dataclasses.replace(data, source=stripped(data.source),
                               weight=stripped(data.weight))
    disc = discretize_time(data, m, quad_pts)
    x = data.grid.nodes
    assert_bitwise(disc.source_avg,
                   per_step_averages(data.source, x, disc.times, disc.tau, quad_pts))
    assert_bitwise(disc.weight_avg,
                   per_step_averages(data.weight, x, disc.times, disc.tau, quad_pts))


@SETTINGS
@given(n=st.sampled_from((1, 7, 101)), m=st.integers(1, 400),
       quad_pts=st.sampled_from((1, 3, QUAD_PTS)), knot=st.sampled_from([0.25, 0.5]),
       source=st.sampled_from(FACTORED), weight=st.sampled_from(FACTORED))
def test_factored_averages_match_per_step_loop(n, m, quad_pts, knot, source, weight):
    specs = time_presets(Grid(0.0, 1.0, n), knot)
    data = problem(n, specs[source], specs[weight], horizon=1.5)
    assert data.source.terms and data.weight.terms
    disc = discretize_time(data, m, quad_pts)
    x = data.grid.nodes
    assert_close(disc.source_avg,
                 per_step_averages(data.source, x, disc.times, disc.tau, quad_pts))
    assert_close(disc.weight_avg,
                 per_step_averages(data.weight, x, disc.times, disc.tau, quad_pts))


@pytest.mark.parametrize("load", LOADS)
@pytest.mark.parametrize("n", [1, 41, 1001])
def test_factored_fracture_weight_averages_match_per_step_loop(load, n):
    grid = Grid(-1.0, 1.0, n)
    params = ATParams(eps=0.1, delta=1e-3, load=fracture_load(load_spec(load)))
    data = ProblemData(grid=grid, lam=params.lam, weight=load_to_sigma(grid, params),
                       source=model.constant_profile(params.lam), initial=np.zeros(n),
                       horizon=1.0)
    disc = discretize_time(data, 37)
    # the reference integrates the load at every quadrature point
    integrated = load_to_sigma(grid, dataclasses.replace(params, load=stripped(params.load)))
    assert not integrated.terms
    assert_close(disc.weight_avg, per_step_averages(integrated, grid.nodes, disc.times,
                                                    disc.tau, QUAD_PTS))


def test_factored_averages_evaluate_each_space_factor_once():
    """Per profile, each space factor once for all the averages and once for
    the value at t = 0, whatever m."""
    n, m = 41, 6400
    calls = []
    specs = time_presets(Grid(0.0, 1.0, n), 0.5)
    data = problem(n, specs["exp_relax"], specs["linear_t"], horizon=1.0)

    def counted_terms(profile):
        terms = [(counted_space(space, calls), time) for space, time in profile.terms]
        return TimeProfile(terms=terms, limit=profile.limit)

    data = dataclasses.replace(data, source=counted_terms(data.source),
                               weight=counted_terms(data.weight))
    discretize_time(data, m)
    assert sorted(calls) == sorted([id(space) for profile in (data.source, data.weight)
                                    for space, *_ in profile.terms] * 2)


def counted_space(space, calls: list):
    def wrapped(x):
        calls.append(id(wrapped))
        return space(x)
    return wrapped


@SETTINGS
@given(n=st.sampled_from((1, 7, 101)), n_quad=st.integers(1, 3000),
       source=st.sampled_from(["linear_t", "exp_relax", "tabulated"]))
# one node: numpy would sum the single column pairwise, not in time order
@example(n=1, n_quad=26, source="exp_relax")
def test_lower_envelope_matches_per_time_loop(n, n_quad, source):
    data = problem(n, time_presets(Grid(0.0, 1.0, n), 0.5)[source],
                   {"preset": "constant", "value": 1.0}, horizon=2.0)
    data = dataclasses.replace(data, source=stripped(data.source))
    assert_bitwise(default_lower_envelope(data, n_quad=n_quad),
                   per_time_envelope(data, n_quad))


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("eval_block", [1, 5])
@pytest.mark.parametrize("source", ["step_t", "tabulated"])
def test_lower_envelope_carries_each_block_into_the_next(n, eval_block, source, monkeypatch):
    """Blocks of one time, or of a few: the first increment of a block starts
    from the last sample of the block before."""
    data = problem(n, time_presets(Grid(0.0, 1.0, n), 0.5)[source],
                   {"preset": "constant", "value": 1.0}, horizon=2.0)
    data = dataclasses.replace(data, source=stripped(data.source))
    monkeypatch.setattr(model, "EVAL_BLOCK", eval_block)
    assert len(time_blocks(101, n)) > 20
    assert_bitwise(default_lower_envelope(data, n_quad=100), per_time_envelope(data, 100))


def test_lower_envelope_locates_a_non_finite_sample():
    grid = Grid(0.0, 1.0, 3)
    spiked = TimeProfile(lambda x, t: np.where(t > 0.6, np.inf, 1.0 + x))
    data = ProblemData(grid=grid, lam=1.0, weight=model.constant_profile(1.0), source=spiked,
                       initial=np.zeros(3), horizon=1.0)
    with pytest.raises(ValueError, match="source non-finite at t=0.625"):
        default_lower_envelope(data, n_quad=8)
    # a factored source whose time factor is not finite is located the same way
    data = dataclasses.replace(data, source=TimeProfile(
        terms=[(lambda x: 1.0 + x, lambda t: np.where(t > 0.6, np.inf, 1.0))]))
    with pytest.raises(ValueError, match="source non-finite at t=0.625"):
        default_lower_envelope(data, n_quad=8)


#: a factored source that is not monotone in t: (1 + x) sin(2 pi t)
SWINGING = TimeProfile(terms=[(lambda x: 1.0 + x, lambda t: np.sin(2.0 * np.pi * t))])


@SETTINGS
@given(n=st.sampled_from((1, 7, 101)), n_quad=st.integers(1, 3000),
       knot=st.sampled_from([0.25, 0.5, 1.5]), source=st.sampled_from(FACTORED + ("swinging",)))
def test_factored_envelope_is_the_sampled_variation_bound(n, n_quad, knot, source):
    """``source(x, 0) - sum |space_i| V_i`` bounds the source at every sampled
    time; where every space factor keeps its sign it is the sampled
    variation of the values to rounding, and for ``step_t`` exactly
    ``before - |after - before|`` when the switch falls in [0, T)."""
    horizon = 2.0
    specs = time_presets(Grid(0.0, 1.0, n), knot)
    data = problem(n, specs.get(source, specs["constant"]),
                   {"preset": "constant", "value": 1.0}, horizon=horizon)
    if source == "swinging":
        data = dataclasses.replace(data, source=SWINGING)
    env = default_lower_envelope(data, n_quad=n_quad)
    s = np.linspace(0.0, horizon, n_quad + 1)
    values = data.source(data.grid.nodes, s)
    assert np.all(values - env >= -1e-14 * (1.0 + np.abs(values).max()))
    if source == "step_t":
        assert_bitwise(env, np.full(n, -1.0 - 3.5))
    else:
        scale = 1.0 + np.abs(values).max()
        assert np.abs(env - per_time_envelope(data, n_quad)).max() <= \
            (horizon / n_quad) ** 2 * scale


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
    source = TimeProfile(counted(ev, calls), limit=np.full(n, 0.5))
    weight = TimeProfile(counted(lambda x, t: np.ones(np.shape(x)), calls))
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
