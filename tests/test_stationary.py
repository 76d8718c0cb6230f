import numpy as np
import pytest

from irrev import (CoercivityLost, Grid, ProblemData, StationaryProblem, TimeProfile,
                   constant_profile, run_longtime, solve_stationary, solve_step)
from irrev.presets import nonlinearity

from helpers import random_step_instance
from reference import neg_laplacian, oracle_enumerate

ZERO = nonlinearity({"preset": "zero"})
TANH = nonlinearity({"preset": "tanh", "amplitude": 0.5})


def test_equality_case_keeps_obstacle():
    grid, obstacle, _, weight, lam, nl = random_step_instance(12, n_max=9)
    psi = obstacle
    f_eq = (neg_laplacian(grid, psi) + lam * psi
            + weight * np.asarray(nl.fn(psi), float))
    p = StationaryProblem(grid=grid, obstacle=obstacle, source=f_eq,
                          weight=weight, lam=lam, nl=nl)
    res = solve_stationary(p)
    np.testing.assert_allclose(res.z, psi, atol=1e-10)
    np.testing.assert_allclose(res.eta, 0.0, atol=1e-9)


def test_scalar_stationary_hand_case():
    g = Grid(0.0, 2.0, 1)
    p = StationaryProblem(grid=g, obstacle=[0.0],
                          source=[-3.0], weight=[0.0],
                          lam=1.0, nl=ZERO)
    res = solve_stationary(p)
    np.testing.assert_allclose(res.z, [-1.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_agreement_with_enumeration(seed):
    grid, obstacle, source, weight, lam, nl = random_step_instance(seed + 900)
    p = StationaryProblem(grid=grid, obstacle=obstacle, source=source,
                          weight=weight, lam=lam, nl=nl)
    a = solve_stationary(p)
    b = oracle_enumerate(grid, obstacle, source, weight, lam, nl)
    np.testing.assert_allclose(a.z, b.z, atol=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_limit_state_contract(seed):
    grid, obstacle, source, weight, lam, nl = random_step_instance(seed + 950)
    p = StationaryProblem(grid=grid, obstacle=obstacle, source=source,
                          weight=weight, lam=lam, nl=nl)
    res = solve_stationary(p)
    z = res.z
    assert (z - obstacle).max() <= 1e-12
    op_out = (neg_laplacian(grid, z) + lam * z
              + weight * np.asarray(nl.fn(z), float))
    assert (op_out - source).max() <= 1e-8


@pytest.mark.parametrize("seed", range(6))
def test_uniqueness_across_initializations(seed):
    grid, obstacle, source, weight, lam, nl = random_step_instance(seed + 970)
    p = StationaryProblem(grid=grid, obstacle=obstacle, source=source,
                          weight=weight, lam=lam, nl=nl)
    a = solve_stationary(p)
    b = solve_step(grid, p.obstacle, p.source, p.weight, p.lam, p.nl,
                   initial_active=np.arange(grid.n))
    np.testing.assert_allclose(a.z, b.z, atol=1e-10)


def test_rejects_nonpositive_margin():
    g = Grid(0.0, 1.0, 3)
    nl = nonlinearity({"preset": "linear", "slope": -2.0})
    p = StationaryProblem(grid=g, obstacle=np.zeros(3), source=np.zeros(3),
                          weight=np.ones(3), lam=1.0, nl=nl)
    with pytest.raises(CoercivityLost):
        solve_stationary(p)


# --------------------------------------------------------------------------
# long-horizon relaxation
# --------------------------------------------------------------------------

def scalar_relaxation_data():
    g = Grid(0.0, 2.0, 1)
    src = TimeProfile(lambda x, t: np.full(np.shape(x), -3.0 + 4.0 * np.exp(-t)),
                      limit=np.array([-3.0]))
    return ProblemData(grid=g, lam=1.0, weight=constant_profile(0.0),
                       source=src, initial=[0.0], horizon=1.0)


def test_scalar_longtime_relaxation():
    data = scalar_relaxation_data()
    result = run_longtime(data, ZERO, horizon=25.0, m_per_unit=8)
    np.testing.assert_allclose(result.stationary.z, [-1.0], atol=1e-12)
    assert result.gap_monotone, result.max_gap_increase
    assert result.final_gap <= 1e-8
    assert result.sandwich_ok
    assert result.weight_time_independent
    assert result.source_above_limit


def test_longtime_fixed_point_case():
    # source already at its limit and the initial state solves the limit
    # problem: the gap vanishes for all time
    g = Grid(0.0, 2.0, 1)
    data = ProblemData(grid=g, lam=1.0, weight=constant_profile(0.0),
                       source=constant_profile(-3.0),
                       initial=[-1.0], horizon=1.0,
                       source_floor=[-3.0])
    result = run_longtime(data, ZERO, horizon=5.0, m_per_unit=4)
    assert result.final_gap <= 1e-12
    assert float(np.abs(result.gaps).max()) <= 1e-12


def test_longtime_uses_profile_limit():
    data = scalar_relaxation_data()
    # short horizon: sampling the source at the horizon would give a wrong
    # limit, the declared profile limit must win
    result = run_longtime(data, ZERO, horizon=3.0, m_per_unit=8)
    np.testing.assert_allclose(result.stationary.z, [-1.0], atol=1e-12)
