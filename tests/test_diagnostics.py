import numpy as np
import pytest

from irrev import (Grid, ProblemData, Trajectory, balance_residual,
                   check_irreversibility, check_lewy_stampacchia,
                   check_unilateral_minimality, constant_profile, energy,
                   load_trajectory, refinement_study, run_evolution, save_trajectory,
                   step_energy)
from irrev.diagnostics import check_dissipation_sign, verdicts_to_json
from irrev.presets import nonlinearity, time_profile

from helpers import smooth_values
from reference import check_comparison
from test_evolution import TANH, ZERO, ramp_data, stationary_data


@pytest.fixture(scope="module")
def stationary_traj():
    data = stationary_data()
    return data, run_evolution(data, TANH, m=12)


@pytest.fixture(scope="module")
def moving():
    data = ramp_data()
    return data, run_evolution(data, TANH, m=16)


# --------------------------------------------------------------------------
# energy evaluation
# --------------------------------------------------------------------------

def test_energy_zero_state():
    g = Grid(0.0, 1.0, 4)
    data = ProblemData(grid=g, lam=1.0, weight=constant_profile(1.0),
                       source=constant_profile(2.0),
                       initial=np.zeros(4), horizon=1.0)
    assert energy(data, ZERO, np.zeros(4), 0.3) == 0.0


def test_energy_hand_value():
    g = Grid(0.0, 2.0, 1)  # h = 1
    data = ProblemData(grid=g, lam=1.0, weight=constant_profile(0.0),
                       source=constant_profile(3.0),
                       initial=[0.0], horizon=1.0)
    assert energy(data, ZERO, [1.0], 0.0) == pytest.approx(-1.5)


def test_energy_equals_step_energy_on_frozen_data(moving):
    data, traj = moving
    x = data.grid.nodes
    rng = np.random.default_rng(1)
    u = smooth_values(rng, data.grid, 0.7)
    t = traj.times[3]
    assert energy(data, TANH, u, t) == step_energy(
        data.grid, u, data.source(x, t), data.weight(x, t), data.lam, TANH)


def test_stored_energies_match_single_evaluation_path(moving):
    data, traj = moving
    for k in (0, 5, traj.m):
        recomputed = energy(data, TANH, traj.states[k], traj.times[k])
        assert recomputed == traj.energies[k]  # bitwise


# --------------------------------------------------------------------------
# balance residual
# --------------------------------------------------------------------------

def test_balance_vanishes_on_stationary_run(stationary_traj):
    data, traj = stationary_traj
    rep = balance_residual(traj, data, TANH)
    assert rep.max_abs <= 1e-10


def test_balance_hand_ledger_scalar_two_step():
    # f steps 0 -> -3 at T/2; states 0, 0, -1; the pointwise time derivative
    # of the step profile vanishes, so each residual is the bare energy
    # increment: 0 for the first interval, E(-1, t2) - E(0, t1) = -1.5 for
    # the second
    g = Grid(0.0, 2.0, 1)
    step = time_profile(g, {"preset": "step_t", "before": 0.0, "after": -3.0,
                            "t_switch": 0.5}, "f")
    data = ProblemData(grid=g, lam=1.0, weight=constant_profile(0.0),
                       source=step, initial=[0.0], horizon=1.0,
                       source_floor=[-3.0])
    traj = run_evolution(data, ZERO, m=2)
    rep = balance_residual(traj, data, ZERO)
    np.testing.assert_allclose(rep.residuals, [0.0, -1.5], atol=1e-12)


def test_balance_decays_linearly_under_step_refinement():
    data = ramp_data(n=21)
    rows = refinement_study(data, TANH, m_list=[8, 16, 32, 64], n_list=[])
    totals = np.array([r.balance_sum for r in rows])
    orders = np.array([r.order_estimate for r in rows[1:]])
    assert np.all(np.diff(totals) < 0)
    assert orders.mean() >= 0.9


# --------------------------------------------------------------------------
# unilateral minimality
# --------------------------------------------------------------------------

def test_minimality_on_stationary_run(stationary_traj):
    data, traj = stationary_traj
    v = check_unilateral_minimality(traj, TANH, data.lam)
    assert v.passed
    assert v.max_violation <= 1e-10
    assert v.note == f"averaged-data certificate over {traj.m} steps"


def test_minimality_needs_averaged_data(stationary_traj, tmp_path):
    data, traj = stationary_traj
    save_trajectory(traj, tmp_path)
    with pytest.raises(ValueError):
        check_unilateral_minimality(load_trajectory(tmp_path), TANH, data.lam)


def test_minimality_detects_injected_fault(stationary_traj):
    data, traj = stationary_traj
    corrupted_states = traj.states.copy()
    corrupted_states[1:] += 1e-3  # push every post-initial state upward
    energies = np.array([energy(data, TANH, corrupted_states[k],
                                traj.times[k]) for k in range(traj.m + 1)])
    corrupted = Trajectory(grid=traj.grid, times=traj.times,
                           states=corrupted_states, multipliers=traj.multipliers,
                           energies=energies, tau=traj.tau,
                           step_meta=traj.step_meta, disc=traj.disc)
    v = check_unilateral_minimality(corrupted, TANH, data.lam)
    assert not v.passed


@pytest.mark.parametrize("run", ["stationary_traj", "moving"])
def test_step_verdicts_name_the_faulty_step_and_node(run, request):
    data, traj = request.getfixturevalue(run)
    k, i = traj.m // 2, traj.grid.n // 2
    states = traj.states.copy()
    states[k, i] += 1e-3
    bad = Trajectory(grid=traj.grid, times=traj.times, states=states,
                     multipliers=traj.multipliers, energies=traj.energies,
                     tau=traj.tau, step_meta=traj.step_meta, disc=traj.disc)
    for v in (check_unilateral_minimality(bad, TANH, data.lam),
              check_lewy_stampacchia(bad, data.lam, TANH)):
        assert not v.passed and v.worst == (k, i), v


def test_minimality_deterministic(moving):
    data, traj = moving
    a = check_unilateral_minimality(traj, TANH, data.lam)
    b = check_unilateral_minimality(traj, TANH, data.lam)
    assert verdicts_to_json([a]) == verdicts_to_json([b])


# --------------------------------------------------------------------------
# two-sided bound, irreversibility, dissipation
# --------------------------------------------------------------------------

def test_lewy_stampacchia_on_runs(stationary_traj, moving):
    for data, traj in (stationary_traj, moving):
        v = check_lewy_stampacchia(traj, data.lam, TANH)
        assert v.passed, v


def test_lewy_stampacchia_scalar_hand_cases():
    g = Grid(0.0, 2.0, 1)
    for f_val, z_expect in ((3.0, 0.0), (-3.0, -1.0)):
        data = ProblemData(grid=g, lam=1.0, weight=constant_profile(0.0),
                           source=constant_profile(f_val),
                           initial=[0.0], horizon=1.0,
                           source_floor=[min(f_val, 0.0)])
        traj = run_evolution(data, ZERO, m=1, validate_first=False)
        assert traj.states[1, 0] == pytest.approx(z_expect, abs=1e-12)
        v = check_lewy_stampacchia(traj, 1.0, ZERO)
        assert v.passed


def test_irreversibility_check(moving):
    _, traj = moving
    assert check_irreversibility(traj).passed


def test_irreversibility_check_detects_upward_motion(moving):
    _, traj = moving
    bad_states = traj.states.copy()
    bad_states[-1] += 1e-6
    bad = Trajectory(grid=traj.grid, times=traj.times, states=bad_states,
                     multipliers=traj.multipliers, energies=traj.energies,
                     tau=traj.tau, step_meta=traj.step_meta, disc=traj.disc)
    assert not check_irreversibility(bad).passed


def test_dissipation_sign(stationary_traj, moving):
    for data, traj in (stationary_traj, moving):
        assert check_dissipation_sign(traj, TANH, data.lam).passed


# --------------------------------------------------------------------------
# comparison principle
# --------------------------------------------------------------------------

def test_comparison_identical_data(moving):
    data, _ = moving
    v = check_comparison(data, data, TANH, m=8)
    assert v.passed
    assert v.max_violation == 0.0


def test_comparison_scalar_ordered_sources():
    g = Grid(0.0, 2.0, 1)

    def mk(f_val):
        return ProblemData(grid=g, lam=1.0, weight=constant_profile(0.0),
                           source=constant_profile(f_val),
                           initial=[0.0], horizon=1.0,
                           source_floor=[min(f_val, 0.0)])

    v = check_comparison(mk(-3.0), mk(3.0), ZERO, m=1)
    assert v.passed


@pytest.mark.parametrize("seed", range(10))
def test_comparison_random_ordered_pairs(seed):
    rng = np.random.default_rng(seed)
    g = Grid(0.0, 1.0, 9)
    lift = np.abs(smooth_values(rng, g, 0.8))
    base = -1.0 + 0.3 * np.sin(np.pi * g.nodes)

    def mk(shift):
        def ev(x, t):
            return np.interp(np.asarray(x), g.nodes, base + shift) * (1 - 0.5 * np.exp(-t)) - t

        def dev(x, t):
            return np.interp(np.asarray(x), g.nodes, base + shift) * 0.5 * np.exp(-t) - 1.0

        from irrev.model import TimeProfile
        return ProblemData(grid=g, lam=1.5, weight=constant_profile(0.4),
                           source=TimeProfile(ev, dev),
                           initial=np.zeros(9), horizon=1.0)

    # identical weight/coefficient, ordered sources, equal initial states
    v = check_comparison(mk(np.zeros(9)), mk(lift), TANH, m=6)
    assert v.passed, v


def test_comparison_refuses_unordered_data(moving):
    data, _ = moving
    shifted = ProblemData(grid=data.grid, lam=data.lam, weight=data.weight,
                          source=data.source,
                          initial=data.initial + 1.0,
                          horizon=data.horizon)
    with pytest.raises(ValueError, match="comparison requires ordered data"):
        check_comparison(shifted, data, TANH, m=4)


# --------------------------------------------------------------------------
# refinement study
# --------------------------------------------------------------------------

def test_refinement_stationary_gaps_vanish():
    data = stationary_data(n=15)
    rows = refinement_study(data, TANH, m_list=[4, 8, 16], n_list=[])
    gaps = [r.gap_v for r in rows if r.gap_v is not None]
    assert all(g <= 1e-10 for g in gaps)


def test_refinement_tau_gaps_decrease_on_smooth_ramp():
    data = ramp_data(n=21)
    rows = refinement_study(data, TANH, m_list=[8, 16, 32, 64], n_list=[])
    gaps = [r.gap_v for r in rows if r.kind == "tau" and r.gap_v is not None]
    assert len(gaps) == 3
    assert gaps[0] > gaps[1] > gaps[2]


def test_refinement_h_gaps_recorded_and_decreasing(tmp_path):
    from irrev.diagnostics import write_refinement_csv
    data = ramp_data(n=25)
    rows = refinement_study(data, TANH, m_list=[16], n_list=[25, 51, 103])
    h_rows = [r for r in rows if r.kind == "h"]
    gaps = [r.gap_v for r in h_rows if r.gap_v is not None]
    assert len(gaps) == 2
    assert gaps[1] < gaps[0]
    assert all(np.isfinite(r.step_rate) for r in rows)
    path = write_refinement_csv(rows, tmp_path / "table.csv")
    header = path.read_text().splitlines()[0]
    assert header == "kind,m,n,gap_V,balance_sum,order_estimate,step_rate"
