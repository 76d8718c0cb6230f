import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from irrev import (Grid, ProblemData, TimeProfile, constant_profile,
                   default_lower_envelope, discretize_time, solve_unconstrained, validate)
from irrev.grid import laplacian_diagonals
from irrev.model import SAMPLE_POINTS, SAMPLE_RANGE, TOL_ADMISS, _step_residual, rounding_floor
from irrev.presets import PresetError, fracture_load, nonlinearity, space_values, time_profile

G = Grid(0.0, 1.0, 5)


def make_data(lam=1.0, weight=None, source=None, z0=None, T=1.0, floor=None):
    return ProblemData(
        grid=G, lam=lam,
        weight=weight or constant_profile(0.0),
        source=source or constant_profile(0.0),
        initial=z0 if z0 is not None else np.zeros(G.n),
        horizon=T, source_floor=floor)


# --------------------------------------------------------------------------
# nonlinearity structure
# --------------------------------------------------------------------------

#: every gamma preset; at (0.05, 1e-2) the check grid holds s = sqrt(delta),
#: where fn' + L is 0 up to rounding
GAMMAS = [
    {"preset": "zero"},
    {"preset": "linear", "slope": -0.5},
    {"preset": "linear", "slope": 0.8},
    {"preset": "tanh", "amplitude": 0.7},
    {"preset": "at", "eps": 0.1, "delta": 1e-3},
    {"preset": "at", "eps": 0.05, "delta": 1e-2},
]
GRID = np.linspace(-SAMPLE_RANGE, SAMPLE_RANGE, SAMPLE_POINTS)


@pytest.mark.parametrize("spec", GAMMAS)
def test_nonlinearity_sampled_bounds(spec):
    nl = nonlinearity(spec)
    one_sided, growth = nl.structural_violations()
    assert one_sided <= 1e-14 and growth == 0.0
    # the growth bound is global; check it well past the grid of validate
    s = np.linspace(-50.0, 50.0, 2001)
    assert np.all(np.abs(nl.fn(s)) <= nl.growth * (np.abs(s) + 1.0))
    report = validate(make_data(), nl)
    assert report.ok, report.lines()


@pytest.mark.parametrize("spec", GAMMAS)
def test_deriv_and_primitive_match_fn(spec):
    # central differences on the check grid, relative to the largest value
    nl = nonlinearity(spec)
    h = 1e-6
    d = nl.deriv(GRID)
    f = nl.fn(GRID)
    assert np.abs((nl.fn(GRID + h) - nl.fn(GRID - h)) / (2 * h) - d).max() \
        <= 1e-6 * np.abs(d).max()
    assert np.abs((nl.primitive(GRID + h) - nl.primitive(GRID - h)) / (2 * h) - f).max() \
        <= 1e-6 * np.abs(f).max()


# the grid resolves the minimizer of fn' for these two; for at (0.1, 1e-3) it
# does not (sqrt(delta) lies between two grid points)
@pytest.mark.parametrize("spec", [GAMMAS[1], GAMMAS[5]])
def test_understated_slope_bound_fails(spec):
    nl = nonlinearity(spec)
    low = dataclasses.replace(nl, slope_bound=0.99 * nl.slope_bound)
    failed = [it.name for it in validate(make_data(), low).items if not it.passed]
    assert failed == ["nonlinearity_one_sided"]


def test_understated_growth_fails():
    # |3s| <= 2.7*(|s|+1) fails for |s| > 9
    nl = dataclasses.replace(nonlinearity({"preset": "linear", "slope": 3.0}), growth=2.7)
    failed = [it.name for it in validate(make_data(), nl).items if not it.passed]
    assert failed == ["nonlinearity_growth"]


def test_nonfinite_derivative_fails_the_slope_check():
    nl = dataclasses.replace(nonlinearity({"preset": "zero"}),
                             deriv=lambda s: np.where(s > 9.0, np.nan, 0.0))
    one_sided, growth = nl.structural_violations()
    assert np.isnan(one_sided) and growth == 0.0


#: both signs of a log-spaced scan out to |s| = 1e6, and 0
SCAN = np.concatenate([-np.logspace(-8.0, 6.0, 561)[::-1], [0.0], np.logspace(-8.0, 6.0, 561)])


def assert_structural_bounds(spec: dict, nl) -> None:
    """The slope bound L and the growth constant C of ``nl``, built from the
    preset ``spec``, hold on the whole line: ``at`` at the analytic minimizer
    of fn' and the analytic maximizer of |fn|, the others by their closed
    forms; and ``|fn(s)| <= C(|s|+1)`` on :data:`SCAN`."""
    L, C = nl.slope_bound, nl.growth
    kind = spec["preset"]
    if kind == "at":
        eps, delta = spec["eps"], spec["delta"]
        # fn' = (delta - 3s^2)/(eps (s^2+delta)^3) is smallest at s = +-sqrt(delta)
        exact = 1.0 / (4.0 * eps * delta ** 2)
        assert abs(L - exact) <= 1e-12 * exact
        r = np.sqrt(delta)
        assert (nl.deriv(np.array([-r, r])) + L).min() >= -4.0 * np.spacing(L)
        assert (nl.deriv(SCAN) + L).min() >= -4.0 * np.spacing(L)
        # |fn| = |s|/(eps (s^2+delta)^2) peaks at s = +-sqrt(delta/3)
        peak = np.sqrt(delta / 3.0)
        assert C >= (3.0 * np.sqrt(3.0) / 16.0) / (eps * delta ** 1.5) * (1.0 - 1e-12)
        assert np.all(np.abs(nl.fn(np.array([-peak, peak]))) <= C * (peak + 1.0))
    else:
        # fn' is 0 (zero), the constant g (linear) or a/cosh^2 >= 0 (tanh),
        # and |fn| is 0, |g s| or at most a
        if kind == "zero":
            assert (L, C) == (0.0, 1.0)
        elif kind == "linear":
            g = spec["slope"]
            assert (L, C) == (max(0.0, -g), max(abs(g), 1e-12))
        else:
            assert (L, C) == (0.0, max(spec["amplitude"], 1e-12))
        assert (nl.deriv(SCAN) + L).min() >= 0.0
    assert np.all(np.abs(nl.fn(SCAN)) <= C * (np.abs(SCAN) + 1.0))


PRESET_SPECS = st.one_of(
    st.just({"preset": "zero"}),
    st.builds(lambda g: {"preset": "linear", "slope": g}, st.floats(-10.0, 10.0)),
    st.builds(lambda a: {"preset": "tanh", "amplitude": a}, st.floats(0.0, 10.0)),
    st.builds(lambda e, d: {"preset": "at", "eps": e, "delta": d},
              st.floats(1e-3, 10.0), st.floats(1e-6, 1e3)))


@given(PRESET_SPECS)
def test_preset_structural_bounds_hold_on_the_whole_line(spec):
    assert_structural_bounds(spec, nonlinearity(spec))


def test_understated_at_slope_bound_fails_off_the_grid():
    # at (0.1, 1e-3): fn' is smallest at sqrt(delta) = 0.0316, between two
    # points of the check grid, so validate passes a bound 39 % low
    spec = {"preset": "at", "eps": 0.1, "delta": 1e-3}
    nl = nonlinearity(spec)
    low = dataclasses.replace(nl, slope_bound=0.61 * nl.slope_bound)
    assert validate(make_data(), low).ok
    with pytest.raises(AssertionError):
        assert_structural_bounds(spec, low)


@pytest.mark.parametrize("spec", [
    {"preset": "linear", "slope": -0.5},
    {"preset": "tanh", "amplitude": 0.7},
])
def test_primitive_matches_quadrature(spec):
    nl = nonlinearity(spec)
    assert float(nl.primitive(0.0)) == 0.0
    for s in (-3.0, -0.7, 0.4, 2.5):
        ref, _ = quad(lambda r: float(nl.fn(r)), 0.0, s)
        assert float(nl.primitive(s)) == pytest.approx(ref, abs=1e-8)


# --------------------------------------------------------------------------
# the step operator and the convexity margin on stacks
# --------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("bcs", [("dirichlet", "dirichlet"), ("dirichlet", "neumann"),
                                 ("neumann", "dirichlet"), ("neumann", "neumann")])
def test_step_residual_of_a_stack_equals_its_rows(bcs, n):
    grid = Grid(0.0, 1.3, n, *bcs)
    lap = laplacian_diagonals(grid)
    nl = nonlinearity({"preset": "tanh", "amplitude": 0.7})
    rng = np.random.default_rng(11)
    u, f, w = rng.normal(size=(3, 5, n))
    rows = np.array([_step_residual(u[k], f[k], w[k], 1.5, nl, lap) for k in range(5)])
    np.testing.assert_array_equal(_step_residual(u, f, w, 1.5, nl, lap), rows)


def test_rounding_floor_grows_as_h_to_the_minus_two():
    # a unit state without data or lam: the floor is eps * 4/h^2, and each
    # halving of h multiplies it by 4
    nl = nonlinearity({"preset": "tanh", "amplitude": 0.7})
    floors = []
    for n in (101, 203, 407, 815):
        g = Grid(0.0, 1.0, n)
        lap = laplacian_diagonals(g)
        floors.append(rounding_floor(np.ones(n), 0.0, np.zeros(n), 0.0, nl, lap))
        assert floors[-1] == pytest.approx(np.finfo(float).eps * 4.0 / g.h ** 2, rel=1e-14)
    np.testing.assert_allclose(np.array(floors[1:]) / floors[:-1], 4.0, rtol=1e-12)


def test_rounding_floor_is_zero_for_zero_data_and_covers_every_row_of_a_stack():
    nl = nonlinearity({"preset": "tanh", "amplitude": 0.7})
    g = Grid(0.0, 1.0, 1001)
    lap = laplacian_diagonals(g)
    zeros = np.zeros(g.n)
    assert rounding_floor(zeros, zeros, zeros, 1.0, nl, lap) == 0.0
    rng = np.random.default_rng(3)
    u, f, w = rng.normal(size=(3, 4, g.n))
    rows = [rounding_floor(u[k], f[k], w[k], 1.0, nl, lap) for k in range(4)]
    assert rounding_floor(u, f, w, 1.0, nl, lap) >= max(rows)


def test_convexity_margin_is_per_row():
    nl = nonlinearity({"preset": "linear", "slope": -2.0})  # L = 2
    w = np.array([[0.1, 0.3], [-1.0, -2.0], [0.5, 0.0]])
    np.testing.assert_array_equal(nl.convexity_margin(1.0, w), [0.4, 1.0, 0.0])
    assert nl.convexity_margin(1.0, w[0]) == 1.0 - 2.0 * 0.3


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------

def test_validate_reports_nonfinite_data_as_one_failed_item():
    # 65 samples on [0, 1]: the first one past t = 0.5 is t = 33/64
    bad = TimeProfile(lambda x, t: np.full(np.shape(x), np.where(t > 0.5, np.inf, 0.0)))
    rep = validate(make_data(source=bad), nonlinearity({"preset": "zero"}))
    assert [(it.name, it.passed) for it in rep.items] == [("data_finite", False)]
    assert rep.items[0].value == 33 / 64
    assert np.isnan(rep.lambda0) and np.isnan(rep.admissibility_residual)


def test_validate_trivial_passes():
    nl = nonlinearity({"preset": "zero"})
    rep = validate(make_data(lam=1.0), nl)
    assert rep.ok
    assert rep.lambda0 == pytest.approx(1.0)
    assert rep.admissibility_residual == pytest.approx(0.0, abs=1e-14)


def test_validate_flags_negative_margin():
    nl = nonlinearity({"preset": "linear", "slope": -2.0})  # L = 2
    rep = validate(make_data(lam=1.0, weight=constant_profile(1.0)), nl)
    assert rep.lambda0 == pytest.approx(-1.0)
    assert not rep.ok
    failed = {it.name for it in rep.items if not it.passed}
    assert "coercivity_margin" in failed


def test_validate_flags_inadmissible_initial():
    nl = nonlinearity({"preset": "zero"})
    rep = validate(make_data(lam=1.0, source=constant_profile(-1.0),
                             floor=np.full(G.n, -1.0)), nl)
    assert rep.admissibility_residual == pytest.approx(1.0)
    failed = {it.name for it in rep.items if not it.passed}
    assert "initial_admissibility" in failed


def test_initial_admissibility_allows_the_rounding_floor_only_above_its_tolerance():
    # the equilibrium state at n = 10001 carries a residual of about 6e-9,
    # all rounding: above TOL_ADMISS, within the floor of about 9e-9
    nl = nonlinearity({"preset": "tanh", "amplitude": 1.0})
    tols = {}
    for n in (101, 10001):
        g = Grid(0.0, 1.0, n)
        ones = np.ones(n)
        z0 = solve_unconstrained(g, ones, ones, 1.0, nl)
        data = ProblemData(grid=g, lam=1.0, weight=constant_profile(1.0),
                           source=constant_profile(1.0), initial=z0, horizon=1.0,
                           source_floor=ones)
        rep = validate(data, nl)
        assert rep.ok
        item = next(it for it in rep.items if it.name == "initial_admissibility")
        tols[n] = item.tolerance
        floor = rounding_floor(z0, ones, ones, 1.0, nl, laplacian_diagonals(g))
        assert item.tolerance == (TOL_ADMISS if item.value <= TOL_ADMISS else floor)
    assert tols[101] == TOL_ADMISS
    assert tols[10001] > TOL_ADMISS


def test_problem_data_refuses_a_wrong_shape():
    with pytest.raises(ValueError, match="initial has shape"):
        make_data(z0=np.zeros(G.n - 1))
    with pytest.raises(ValueError, match="source_floor has shape"):
        make_data(floor=np.zeros((1, G.n)))


@pytest.mark.parametrize("spec", [
    {"preset": "values", "values": [1.0, np.nan, 2.0, 3.0, 4.0]},
    {"preset": "constant", "value": np.inf},
    {"preset": "bump", "amplitude": 1.0, "width": 0.0},
])
@pytest.mark.filterwarnings("error")  # the refusal is the only report
def test_space_values_refuse_nonfinite_values(spec):
    with pytest.raises(PresetError, match="non-finite"):
        space_values(G, spec, "z0")


@pytest.mark.parametrize("build,key", [
    (lambda: nonlinearity({"preset": "tanh", "amplitude": np.inf}), "amplitude"),
    (lambda: fracture_load({"preset": "ramp_sine", "scale": 0.005, "ramp_time": np.inf}),
     "ramp_time"),
    (lambda: time_profile(G, {"preset": "step_t", "before": 0.0, "after": -np.inf,
                              "t_switch": 0.5}), "after"),
    (lambda: time_profile(G, {"preset": "tabulated", "times": [0.0, 1.0],
                              "values": [[0.0] * G.n, [1.0, 1.0, np.nan, 1.0, 1.0]]}), "values"),
], ids=["tanh-amplitude", "ramp_sine-ramp_time", "step_t-after", "tabulated-values"])
def test_preset_parameters_refuse_nonfinite_numbers(build, key):
    # an infinite amplitude would give growth inf, an infinite ramp a load 0 at every time
    with pytest.raises(PresetError, match=f"non-finite {key} "):
        build()


def test_validate_is_idempotent():
    nl = nonlinearity({"preset": "tanh", "amplitude": 0.3})
    data = make_data(lam=1.5, source=constant_profile(2.0),
                     weight=constant_profile(0.5))
    before = data.initial.copy()
    rep1 = validate(data, nl)
    rep2 = validate(data, nl)
    assert rep1 == rep2
    np.testing.assert_array_equal(data.initial, before)


# --------------------------------------------------------------------------
# time discretization
# --------------------------------------------------------------------------

@pytest.mark.parametrize("quad_pts", [1, 3, 8])
def test_averages_of_constant(quad_pts):
    data = make_data(source=constant_profile(2.5), T=2.0)
    disc = discretize_time(data, 4, quad_pts)
    np.testing.assert_allclose(disc.source_avg, 2.5, rtol=1e-15)
    np.testing.assert_allclose(disc.source_init, 2.5)
    assert disc.tau == pytest.approx(0.5)
    np.testing.assert_allclose(disc.times, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_averages_of_linear_in_t_exact():
    ramp = TimeProfile(lambda x, t: np.full(np.shape(x), t))
    data = make_data(source=ramp, T=1.0)
    disc = discretize_time(data, 2, quad_pts=1)
    np.testing.assert_allclose(disc.source_avg[0], 0.25, atol=1e-13)
    np.testing.assert_allclose(disc.source_avg[1], 0.75, atol=1e-13)


def test_averages_of_separable_profile():
    prof = TimeProfile(lambda x, t: np.asarray(x) * t)
    data = make_data(source=prof, T=1.0)
    m = 5
    disc = discretize_time(data, m, quad_pts=4)
    for k in range(1, m + 1):
        mid = 0.5 * (disc.times[k - 1] + disc.times[k])
        np.testing.assert_allclose(disc.source_avg[k - 1], G.nodes * mid, atol=1e-13)


def test_averages_telescope_to_total_integral():
    prof = TimeProfile(lambda x, t: np.full(np.shape(x), np.sin(3 * t)))
    data = make_data(source=prof, T=2.0,
                     floor=np.full(G.n, -1.0))
    for m in (3, 7):
        disc = discretize_time(data, m, quad_pts=64)
        total = disc.tau * disc.source_avg.sum(axis=0)
        ref = (1 - np.cos(6.0)) / 3.0
        np.testing.assert_allclose(total, ref, atol=1e-5)


def test_nonfinite_evaluator_reports_location():
    bad = TimeProfile(lambda x, t: np.full(np.shape(x), np.where(t > 0.5, np.inf, 0.0)))
    data = make_data(source=bad)
    with pytest.raises(ValueError, match="non-finite"):
        discretize_time(data, 4, quad_pts=2)


# --------------------------------------------------------------------------
# lower envelope
# --------------------------------------------------------------------------

def test_envelope_of_constant_source():
    data = make_data(source=constant_profile(1.5))
    np.testing.assert_allclose(default_lower_envelope(data), 1.5, atol=1e-12)


def test_envelope_of_decreasing_ramp():
    prof = TimeProfile(lambda x, t: np.full(np.shape(x), 1.0 - t))
    data = make_data(source=prof, T=1.0)
    np.testing.assert_allclose(default_lower_envelope(data), 0.0, atol=1e-12)


def test_envelope_of_sine_source():
    prof = TimeProfile(lambda x, t: np.full(np.shape(x), np.sin(t)))
    data = make_data(source=prof, T=np.pi)
    env = default_lower_envelope(data, n_quad=20000)
    np.testing.assert_allclose(env, -2.0, atol=1e-6)

