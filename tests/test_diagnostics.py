import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from pathlib import Path

from irrev import (CheckVerdict, DiscretizedData, Grid, ProblemData, Trajectory,
                   check_energy_balance, check_irreversibility, check_lewy_stampacchia,
                   check_unilateral_minimality, cli, constant_profile, energy,
                   load_trajectory, refinement_study, run_evolution, save_trajectory,
                   solve_unconstrained, step_energy)
from irrev import model
from irrev.diagnostics import energy_bracket, verdicts_to_json
from irrev.grid import laplacian_diagonals
from irrev.model import EVAL_BLOCK, ZERO_NONLINEARITY, _step_residual, rounding_floor
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
# energy balance
# --------------------------------------------------------------------------

def test_balance_vanishes_on_stationary_run(stationary_traj):
    # constant data do no work: every bracket closes on an increment of 0
    data, traj = stationary_traj
    lower, rise, upper, _ = energy_bracket(traj, TANH, data.lam)
    assert np.abs(np.concatenate((lower, rise, upper))).max() <= 1e-15
    v = check_energy_balance(traj, TANH, data.lam)
    assert v.passed and v.note == f"bracket width 0 summed over {traj.m} steps", v


def test_balance_hand_ledger_scalar_two_step():
    # f steps 0 -> -3 at T/2; states 0, 0, -1 with h = 1, so J = 0, 0, -1.5
    # (J_2(-1) = 1 + 0.5 - 3); the data work of step 2 is D_2(u) = 3u, so
    # D_2(z_2) = -3 <= -1.5 <= 0 = D_2(z_1), and step 1 does no work
    g = Grid(0.0, 2.0, 1)
    step = time_profile(g, {"preset": "step_t", "before": 0.0, "after": -3.0,
                            "t_switch": 0.5}, "f")
    data = ProblemData(grid=g, lam=1.0, weight=constant_profile(0.0),
                       source=step, initial=[0.0], horizon=1.0,
                       source_floor=[-3.0])
    traj = run_evolution(data, ZERO, m=2)
    lower, rise, upper, _ = energy_bracket(traj, ZERO, data.lam)
    np.testing.assert_allclose(lower, [0.0, -3.0], atol=1e-12)
    np.testing.assert_allclose(rise, [0.0, -1.5], atol=1e-12)
    np.testing.assert_allclose(upper, [0.0, 0.0], atol=1e-12)
    v = check_energy_balance(traj, ZERO, data.lam)
    assert v.passed and v.note == "bracket width 3 summed over 2 steps", v


def test_balance_decays_linearly_under_step_refinement():
    data = ramp_data(n=21)
    rows = refinement_study(data, TANH, m_list=[8, 16, 32, 64], n_list=[])
    totals = np.array([r.bracket_width for r in rows])
    orders = np.array([r.order_estimate for r in rows[1:]])
    assert np.all(np.diff(totals) < 0)
    assert orders.mean() >= 0.9


def test_bracket_width_has_order_one_on_the_run_contact_data():
    cfg = cli.load_config(Path(__file__).parent / "golden" / "run-contact.json")
    data, nl, _, quad_pts = cli.build_problem(cfg)
    rows = refinement_study(data, nl, m_list=[25, 50, 100, 200], n_list=[],
                            quad_pts=quad_pts)
    np.testing.assert_allclose([r.bracket_width for r in rows],
                               [3.09e-4, 1.57e-4, 7.91e-5, 3.97e-5], rtol=0.01)
    for r in rows[1:]:
        assert abs(r.order_estimate - 1.0) <= 0.1, r


def test_energy_bracket_peak_memory_is_a_few_blocks():
    # states, data and multipliers are made before tracing: 8.1 MB each
    import tracemalloc
    from irrev import DiscretizedData
    g = Grid(0.0, 1.0, 10001)
    m = 100
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 1.0, m + 1)
    disc = DiscretizedData(m=m, tau=1.0 / m, times=times,
                           source_avg=rng.normal(size=(m, g.n)),
                           weight_avg=rng.uniform(0.0, 1.0, (m, g.n)),
                           source_init=rng.normal(size=g.n),
                           weight_init=rng.uniform(0.0, 1.0, g.n))
    traj = Trajectory(grid=g, times=times, states=rng.normal(size=(m + 1, g.n)),
                      multipliers=np.zeros((m, g.n)), energies=np.zeros(m + 1),
                      tau=disc.tau, step_meta=(), disc=disc)
    tracemalloc.start()
    try:
        bracket = energy_bracket(traj, TANH, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak
    assert all(np.all(np.isfinite(a)) and a.shape == (m,) for a in bracket)


def synthetic_trajectory(n: int, m: int, seed: int) -> Trajectory:
    """Random states and averaged data on ``n`` nodes over ``m`` steps, rows
    scaled apart so that each sup norm peaks at its own step, and so far
    that the rounding floor of the steps exceeds 1e-8 from ``n = 50``."""
    g = Grid(0.0, 1.0, n)
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, m + 1)

    def scaled(rows):
        return rng.normal(size=(rows, n)) * 10.0 ** rng.uniform(-1, 5, (rows, 1))

    disc = DiscretizedData(m=m, tau=1.0 / m, times=times, source_avg=scaled(m),
                           weight_avg=rng.uniform(0.0, 1.0, (m, n)),
                           source_init=rng.normal(size=n), weight_init=rng.uniform(0.0, 1.0, n))
    return Trajectory(grid=g, times=times, states=scaled(m + 1), multipliers=np.zeros((m, n)),
                      energies=np.zeros(m + 1), tau=disc.tau, step_meta=(), disc=disc)


def tied_trajectory(n: int, m: int) -> Trajectory:
    """Constant data, under which the initial state is an equilibrium, and
    that state lifted by one amount at one node in every third step: the
    step verdicts' rows tie, so the first must win."""
    traj = synthetic_trajectory(n, m, seed=6)
    disc = traj.disc
    z = traj.states[0]
    f = _step_residual(z, 0.0, disc.weight_avg[0], 1.0, TANH, laplacian_diagonals(traj.grid))
    states = np.tile(z, (m + 1, 1))
    states[3::3, n // 2] += 1e-3
    disc = DiscretizedData(m=m, tau=disc.tau, times=disc.times, source_avg=np.tile(f, (m, 1)),
                           weight_avg=np.tile(disc.weight_avg[0], (m, 1)),
                           source_init=disc.source_init, weight_init=disc.weight_init)
    return Trajectory(grid=traj.grid, times=traj.times, states=states,
                      multipliers=traj.multipliers, energies=traj.energies, tau=traj.tau,
                      step_meta=(), disc=disc)


def stacked_minimality(traj, nl, lam):
    """:func:`check_unilateral_minimality` on the whole stack of steps at once."""
    disc = traj.disc
    eta = -_step_residual(traj.states[1:], disc.source_avg, disc.weight_avg, lam, nl,
                          laplacian_diagonals(traj.grid))
    neg = np.minimum(eta, 0.0)
    bounds = (traj.grid.h * (neg * neg).sum(axis=1)
              / (2.0 * nl.convexity_margin(lam, disc.weight_avg)))
    k = int(np.argmax(bounds))
    return bounds[k], 1e-10, (k + 1, int(np.argmin(eta[k])))


def stacked_lewy_stampacchia(traj, lam, nl):
    """:func:`check_lewy_stampacchia` on the whole stack of steps at once."""
    disc = traj.disc
    lap = laplacian_diagonals(traj.grid)
    step = (traj.states[1:], disc.source_avg, disc.weight_avg, lam, nl, lap)
    G = _step_residual(*step)
    drop = _step_residual(traj.states[:-1] - step[0], 0.0, 0.0, lam, ZERO_NONLINEARITY, lap)
    viol = np.maximum(np.minimum(-G, drop), G)
    k, i = np.unravel_index(int(np.argmax(viol)), viol.shape)
    worst = max(float(viol[k, i]), 0.0)
    tol = 1e-8 if worst <= 1e-8 else max(1e-8, rounding_floor(*step))
    return worst, tol, (int(k) + 1, int(i))


@pytest.mark.parametrize("eval_block", [1, 250, EVAL_BLOCK])
def test_step_verdicts_match_their_stacked_form_across_blocks(monkeypatch, moving, eval_block):
    # the 50-node trajectories: one step a block, five, or all in one block
    data, traj = moving
    synthetic, tied = synthetic_trajectory(50, 40, seed=7), tied_trajectory(50, 40)
    monkeypatch.setattr(model, "EVAL_BLOCK", eval_block)
    for run, lam in ((traj, data.lam), (synthetic, 1.0), (tied, 1.0)):
        for got, want in ((check_unilateral_minimality(run, TANH, lam),
                           stacked_minimality(run, TANH, lam)),
                          (check_lewy_stampacchia(run, lam, TANH),
                           stacked_lewy_stampacchia(run, lam, TANH))):
            assert (got.max_violation, got.tolerance, got.worst) == want, (got, want)
            assert np.float64(got.max_violation).tobytes() == np.float64(want[0]).tobytes()
    assert check_lewy_stampacchia(tied, 1.0, TANH).worst == (3, 25)
    assert check_unilateral_minimality(tied, TANH, 1.0).worst == (3, 25)
    assert check_lewy_stampacchia(synthetic, 1.0, TANH).tolerance > 1e-8


@pytest.mark.parametrize("check", [check_lewy_stampacchia, check_unilateral_minimality])
def test_step_verdict_peak_memory_is_a_few_blocks(check):
    # states and data are made before tracing: 8.1 MB each; the stacked
    # forms peaked at 40.2 MB (two-sided bound) and 24.0 MB (minimality)
    import tracemalloc
    traj = synthetic_trajectory(10001, 100, seed=5)
    args = (traj, 1.0, TANH) if check is check_lewy_stampacchia else (traj, TANH, 1.0)
    tracemalloc.start()
    try:
        v = check(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak
    assert np.isfinite(v.max_violation) and np.isfinite(v.tolerance)


def test_energy_balance_on_runs(stationary_traj, moving):
    for data, traj in (stationary_traj, moving):
        assert check_energy_balance(traj, TANH, data.lam).passed


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
    # a lifted z_k also breaks the energy brackets of steps k and k+1, and
    # the energy verdict names the first
    data, traj = request.getfixturevalue(run)
    i = traj.grid.n // 2
    for k in (1, traj.m // 2, traj.m):
        states = traj.states.copy()
        states[k, i] += 1e-3
        bad = Trajectory(grid=traj.grid, times=traj.times, states=states,
                         multipliers=traj.multipliers, energies=traj.energies,
                         tau=traj.tau, step_meta=traj.step_meta, disc=traj.disc)
        for v in (check_unilateral_minimality(bad, TANH, data.lam),
                  check_lewy_stampacchia(bad, data.lam, TANH)):
            assert not v.passed and v.worst == (k, i), v
        v = check_energy_balance(bad, TANH, data.lam)
        assert not v.passed and v.worst == (k,), v


def test_minimality_deterministic(moving):
    data, traj = moving
    a = check_unilateral_minimality(traj, TANH, data.lam)
    b = check_unilateral_minimality(traj, TANH, data.lam)
    assert verdicts_to_json([a]) == verdicts_to_json([b])


def test_verdicts_json_is_one_strict_line_with_sorted_keys():
    # a nan violation is written as null, so no reader meets a NaN token
    v = CheckVerdict(name="x", max_violation=float("nan"), tolerance=1e-12, passed=False,
                     worst=(3, 4))
    text = verdicts_to_json([v])
    assert text.endswith(b"\n") and text.count(b"\n") == 1

    def refuse(name):
        raise ValueError(name)

    [got] = json.loads(text, parse_constant=refuse)
    assert list(got) == sorted(got)
    assert got == {"max_violation": None, "name": "x", "note": "", "passed": False,
                   "tolerance": 1e-12, "worst": [3, 4]}


# --------------------------------------------------------------------------
# two-sided bound, irreversibility
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


def test_lewy_stampacchia_widens_to_the_rounding_floor_and_no_further():
    # a state of size 10 on 10001 nodes holds residuals of about 6e-8 from
    # rounding alone: above 1e-8, within the steps' floor; a lift of 1e-6 at
    # one node is far above that floor
    g = Grid(0.0, 1.0, 10001)
    nl = nonlinearity({"preset": "tanh", "amplitude": 1.0})
    source = time_profile(g, {"preset": "linear_t",
                              "base": {"preset": "constant", "value": 10.0},
                              "rate": {"preset": "sine", "amplitude": 1.0, "mode": 2}}, "f")
    ones = np.ones(g.n)
    z0 = solve_unconstrained(g, source(g.nodes, 0.0), ones, 1.0, nl)
    data = ProblemData(grid=g, lam=1.0, weight=constant_profile(1.0), source=source,
                       initial=z0, horizon=1.0)
    traj = run_evolution(data, nl, m=2, validate_first=False)
    v = check_lewy_stampacchia(traj, 1.0, nl)
    assert v.passed and v.max_violation > 1e-8 and v.tolerance < 1e-6, v
    states = traj.states.copy()
    states[1, g.n // 3] += 1e-6
    bad = Trajectory(grid=g, times=traj.times, states=states, multipliers=traj.multipliers,
                     energies=traj.energies, tau=traj.tau, step_meta=traj.step_meta,
                     disc=traj.disc)
    v = check_lewy_stampacchia(bad, 1.0, nl)
    assert not v.passed and v.worst == (1, g.n // 3), v


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


def whole_run_irreversibility(states):
    """The verdict's value and ``worst`` from one diff over the whole run."""
    inc = np.diff(states, axis=0)
    if not inc.size:
        return 0.0, (1, 0)
    k, i = np.unravel_index(int(np.argmax(inc)), inc.shape)
    return max(float(inc.max()), 0.0), (int(k) + 1, int(i))


@pytest.mark.parametrize("eval_block", [1, 10, EVAL_BLOCK])
@pytest.mark.parametrize("case", ["falling", "rises", "ties", "nan", "no-steps"])
def test_irreversibility_walks_blocks_with_the_whole_run_verdict(case, eval_block,
                                                                monkeypatch):
    # 4 nodes: one step a block, two, or all 12
    g = Grid(0.0, 1.0, 4)
    states = np.cumsum(-np.random.default_rng(5).uniform(0.5, 1.0, (13, g.n)), axis=0)
    if case == "rises":
        states[7, 2] += 2.0
    elif case == "ties":   # a rise of 0.25, up to rounding, at every node of steps 5 and 10
        states[4] = states[5] - 0.25
        states[9] = states[10] - 0.25
    elif case == "nan":
        states[6, 3] = states[9, 0] = np.nan
    elif case == "no-steps":
        states = states[:1]
    monkeypatch.setattr(model, "EVAL_BLOCK", eval_block)
    v = check_irreversibility(SimpleNamespace(grid=g, states=states))
    value, worst = whole_run_irreversibility(states)
    assert np.float64(v.max_violation).tobytes() == np.float64(value).tobytes()
    assert v.worst == worst
    assert v.passed == (case in ("falling", "no-steps"))


def test_irreversibility_holds_one_block_of_increases():
    # n = 10001, m = 100: one diff of the whole run would hold 8 MB
    g = Grid(0.0, 1.0, 10001)
    states = np.cumsum(np.full((101, g.n), -1e-3), axis=0)
    tracemalloc.start()
    try:
        v = check_irreversibility(SimpleNamespace(grid=g, states=states))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.passed
    assert peak < 1_000_000


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

        from irrev.model import TimeProfile
        return ProblemData(grid=g, lam=1.5, weight=constant_profile(0.4),
                           source=TimeProfile(ev),
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
    assert header == "kind,m,n,gap_V,bracket_width,order_estimate,step_rate"


def test_refinement_h_rows_carry_no_order(tmp_path):
    # the bracket width measures the time discretization: no order in h
    from irrev.diagnostics import write_refinement_csv
    rows = refinement_study(ramp_data(n=13), TANH, m_list=[8, 16], n_list=[13, 25])
    assert [(r.kind, r.order_estimate is None) for r in rows] == [
        ("tau", True), ("tau", False), ("h", True), ("h", True)]
    assert rows[3].gap_v is not None
    lines = write_refinement_csv(rows, tmp_path / "table.csv").read_text().splitlines()
    assert [line.split(",")[5] == "" for line in lines[1:]] == [True, False, True, True]
