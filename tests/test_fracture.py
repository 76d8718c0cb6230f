import numpy as np
import pytest

from irrev import (ATParams, Grid, at_nonlinearity, constant_profile, recover_displacement,
                   run_fracture)
from irrev.fracture import at_energy, cumulative_load
from irrev.presets import fracture_load

EPS, DELTA = 0.1, 1e-3


def sine_params(scale):
    """Load ``scale*sin(pi*x)`` from t = 1 on (ramp time 1)."""
    load = fracture_load({"preset": "ramp_sine", "scale": scale, "ramp_time": 1.0})
    return ATParams(eps=EPS, delta=DELTA, load=load)


def test_displacement_matches_closed_form_for_constant_phase_field():
    # H(x) = -scale*(1 + cos(pi*x))/pi, so u_x = scale*(1 + cos(pi*x))/(pi*(c^2 + delta))
    grid = Grid(-1.0, 1.0, 401)
    scale, c = 0.5, 0.7
    st = recover_displacement(grid, np.full(grid.n, c), sine_params(scale), t=1.0)
    x = grid.nodes
    exact = scale * (1.0 + np.cos(np.pi * x)) / (np.pi * (c * c + DELTA))
    # the trapezoid rule integrates the load to O(h^2)
    assert np.abs(st.ux_full[1:-1] - exact).max() <= 1e-4 * np.abs(exact).max()
    np.testing.assert_array_equal(st.x_full, grid.nodes_full)
    assert st.u_full[0] == 0.0
    # the phase field is pinned to 0 at both ends
    H = cumulative_load(grid, sine_params(scale), 1.0)
    assert st.ux_full[0] == -H[0] / DELTA and st.ux_full[-1] == -H[-1] / DELTA


def test_recovery_of_a_stack_equals_its_rows():
    grid = Grid(-1.0, 1.0, 31)
    params = sine_params(0.5)
    rng = np.random.default_rng(2)
    z = rng.uniform(0.0, 1.0, size=(4, grid.n))
    t = np.array([0.0, 0.3, 0.8, 1.0])
    stack = recover_displacement(grid, z, params, t)
    rows = [recover_displacement(grid, z[k], params, t[k]) for k in range(4)]
    for name in ("z", "u_full", "ux_full", "sigma"):
        np.testing.assert_array_equal(getattr(stack, name),
                                      np.array([getattr(r, name) for r in rows]))
    np.testing.assert_array_equal(at_energy(grid, stack, params),
                                  [at_energy(grid, r, params) for r in rows])


def test_cumulative_load_rejects_nonzero_mean():
    params = ATParams(eps=EPS, delta=DELTA, load=constant_profile(1.0))
    with pytest.raises(ValueError, match="nonzero spatial average"):
        cumulative_load(Grid(-1.0, 1.0, 21), params, 0.5)


@pytest.fixture(scope="module")
def fracture_run():
    params = sine_params(0.005)
    return params, run_fracture(params, Grid(-1.0, 1.0, 41), horizon=1.0, m=5)


def test_reduction_consistency_identity(fracture_run):
    # weight*fn(z) == z*u_x^2/eps on the interior nodes at every stamp
    params, result = fracture_run
    st = result.coupled
    assert st.z.shape == (result.traj.m + 1, result.traj.grid.n)
    for k in range(result.traj.m + 1):
        z = st.z[k]
        lhs = st.sigma[k] * np.asarray(result.nl.fn(z), float)
        rhs = z * st.ux_full[k, 1:-1] ** 2 / params.eps
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_at_energy_is_finite(fracture_run):
    params, result = fracture_run
    assert np.all(np.isfinite(result.at_energies))
    assert np.all(result.at_energies > 0.0)
    traj = result.traj
    st = recover_displacement(traj.grid, traj.states[-1], params, traj.times[-1])
    assert at_energy(traj.grid, st, params) == result.at_energies[-1]


def test_at_slope_bound_is_global():
    # fn' is smallest at s = +-sqrt(delta) = +-14.1, outside the grid that
    # validate checks, so the bound is checked at the minimizer itself
    eps, delta = 0.1, 200.0
    nl = at_nonlinearity(ATParams(eps=eps, delta=delta, load=constant_profile(0.0)))
    exact = 1.0 / (4.0 * eps * delta ** 2)
    assert abs(nl.slope_bound - exact) <= 1e-15 * exact
    r = np.sqrt(delta)
    s = np.concatenate([np.linspace(-50.0, 50.0, 2001), [-r, r]])
    assert (nl.deriv(s) + nl.slope_bound).min() >= -1e-15 * nl.slope_bound
    assert nl.structural_violations() == (0.0, 0.0)
