import csv
import json
from pathlib import Path

import numpy as np
import pytest

from irrev import cli, load_trajectory, run_longtime

from test_cli import LONGTIME, RUN, fracture_config, run_cli


def with_blocks(cfg, **blocks):
    out = json.loads(json.dumps(cfg))
    out.update(blocks)
    return out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_check_exit_codes(tmp_path, capsys):
    assert run_cli(tmp_path, "check", RUN, "ok")[0] == cli.EXIT_OK
    assert "coercivity margin: " in capsys.readouterr().out
    nonconvex = with_blocks(RUN)
    nonconvex["problem"]["gamma"] = {"preset": "linear", "slope": -2.0}
    nonconvex["problem"]["sigma"] = {"preset": "constant", "value": 1.0}
    nonconvex["problem"]["z0"] = {"preset": "zero"}
    assert run_cli(tmp_path, "check", nonconvex, "bad")[0] == cli.EXIT_CHECK_FAILED
    assert "FAIL  coercivity_margin: " in capsys.readouterr().out


@pytest.mark.parametrize("after,gap", [(0.5, "0"), (1.5, "0.5")],
                         ids=["decreasing", "increasing"])
def test_check_accepts_a_step_source_either_way(tmp_path, capsys, after, gap):
    # the default envelope sees the jump through the sampled variation of the
    # step's time factor: before - |after - before| = 0.5 either way
    cfg = with_blocks(LONGTIME)
    cfg["problem"].update(T=1.0, f={"preset": "step_t", "before": 1.0, "after": after,
                                    "t_switch": 0.5})
    assert run_cli(tmp_path, "check", cfg)[0] == cli.EXIT_OK
    assert f"PASS  source_above_floor: value={gap} " in capsys.readouterr().out


def test_check_and_run_accept_a_tabulated_source_with_off_grid_knots(tmp_path, capsys):
    # the knot at t = 0.1 lies between the envelope's sample times: the
    # sampled variation 0.5 + 0.3 still bounds the source from below
    n = 21
    cfg = with_blocks(RUN)
    cfg["problem"].update(grid={"n": n}, sigma={"preset": "constant", "value": 1.0},
                          f={"preset": "tabulated", "times": [0.0, 0.1, 1.0],
                             "values": [[v] * n for v in (1.0, 0.5, 0.2)]})
    assert run_cli(tmp_path, "check", cfg)[0] == cli.EXIT_OK
    line = [ln for ln in capsys.readouterr().out.splitlines() if "source_above_floor" in ln]
    assert line[0].startswith("PASS  source_above_floor: ")
    assert run_cli(tmp_path, "run", cfg)[0] == cli.EXIT_OK


def test_refine_writes_refinement_csv(tmp_path):
    cfg = with_blocks(RUN, refine={"m_list": [5, 10, 20], "n_list": [21, 41]})
    rc, out = run_cli(tmp_path, "refine", cfg)
    assert rc == cli.EXIT_OK
    assert b"\r" not in (out / "refinement.csv").read_bytes()
    rows = read_csv(out / "refinement.csv")
    assert rows[0] == ["kind", "m", "n", "gap_V", "bracket_width", "order_estimate",
                       "step_rate"]
    assert [r[:3] for r in rows[1:]] == [["tau", "5", "41"], ["tau", "10", "41"],
                                         ["tau", "20", "41"], ["h", "20", "21"],
                                         ["h", "20", "41"]]
    # a gap needs a coarser run of the same kind
    assert [r[3] == "" for r in rows[1:]] == [True, False, False, True, False]
    assert float(rows[3][3]) < float(rows[2][3])


@pytest.mark.parametrize("m_list", [[7], [7, 14]])
def test_refine_exits_1_when_it_compares_no_gaps(m_list, tmp_path, capsys):
    cfg = json.loads((Path(__file__).parent / "golden" / "run-contact.json").read_text())
    cfg["problem"]["grid"]["n"] = 21
    rc, out = run_cli(tmp_path, "refine", with_blocks(cfg, refine={"m_list": m_list,
                                                                   "n_list": []}))
    assert rc == cli.EXIT_CHECK_FAILED
    text = capsys.readouterr().out
    assert text.endswith("refinement gaps not compared: need at least three step counts\n")
    assert len(read_csv(out / "refinement.csv")) == 1 + len(m_list)


def test_refine_exits_1_when_tau_gaps_do_not_decrease(tmp_path, capsys):
    # the weight of RUN switches at t = 1/2, a stamp for m = 10 but not for
    # m = 5 or 11, so the gap from 10 to 11 exceeds the gap from 5 to 10
    cfg = with_blocks(RUN, refine={"m_list": [5, 10, 11], "n_list": []})
    rc, out = run_cli(tmp_path, "refine", cfg)
    assert rc == cli.EXIT_CHECK_FAILED
    assert "refinement gaps do NOT decrease" in capsys.readouterr().out
    rows = read_csv(out / "refinement.csv")
    gaps = [float(r[3]) for r in rows[2:]]
    assert len(gaps) == 2 and gaps[1] >= gaps[0]


def test_usage_errors_exit_3(tmp_path, capsys):
    # exit 2 means a solver failure, so argparse's own exit code is not used
    path = tmp_path / "run.json"
    path.write_text(json.dumps(RUN))
    out = tmp_path / "out"
    for argv, message in [
            (["check", str(path), "--seed", "-1"], "unrecognized arguments: --seed -1"),
            (["run"], "the following arguments are required: config"),
            (["solve", str(path)], "invalid choice: 'solve'"),
            ([], "the following arguments are required: command, config")]:
        assert cli.main([*argv, "--output-dir", str(out)]) == cli.EXIT_CONFIG_ERROR, argv
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_seed_key_changes_nothing(tmp_path, capsys):
    outs = []
    for seed in (0, 7):
        assert run_cli(tmp_path, "check", with_blocks(RUN, seed=seed))[0] == cli.EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_check_creates_no_output_directory(tmp_path):
    rc, out = run_cli(tmp_path, "check", RUN)
    assert rc == cli.EXIT_OK
    assert not out.exists()


#: a source whose exp(1000 t) term overflows from t = 0.71 on
NONFINITE = with_blocks(LONGTIME)
NONFINITE["problem"]["f"]["rate"] = -1000.0


@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
@pytest.mark.parametrize("argv", [["check"], ["run"], ["run", "--force"], ["longtime"],
                                  ["refine"], ["stationary"]],
                         ids=["check", "run", "run-force", "longtime", "refine", "stationary"])
def test_nonfinite_data_exit_1_and_write_nothing(tmp_path, capsys, argv):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(NONFINITE))
    out = tmp_path / "out"
    rc = cli.main([argv[0], str(path), "--output-dir", str(out), *argv[1:]])
    assert rc == cli.EXIT_CHECK_FAILED
    assert "FAIL  data_finite: " in capsys.readouterr().out
    assert not out.exists()


def test_stationary_writes_z_inf_csv(tmp_path):
    cfg = with_blocks(LONGTIME, stationary={"f_inf": {"preset": "constant", "value": 0.5}})
    rc, out = run_cli(tmp_path, "stationary", cfg)
    assert rc == cli.EXIT_OK
    rows = read_csv(out / "z_inf.csv")
    assert rows[0] == ["x", "z", "eta"]
    assert len(rows) == 1 + 21
    assert json.loads((out / "stationary.json").read_text())["kkt_residual"] <= 1e-10


def test_stationary_without_f_inf_solves_the_longtime_limit(tmp_path):
    # the exp_relax source's known limit, not the source at problem.T
    rc, out = run_cli(tmp_path, "stationary", LONGTIME)
    assert rc == cli.EXIT_OK
    data, nl, _, _ = cli.build_problem(LONGTIME)
    block = LONGTIME["longtime"]
    limit = run_longtime(data, nl, block["horizon"], block["m_per_unit"]).stationary
    z = np.array([float(row[1]) for row in read_csv(out / "z_inf.csv")[1:]])
    assert z.tobytes() == limit.z.tobytes()


def test_longtime_writes_gap_csv(tmp_path):
    rc, out = run_cli(tmp_path, "longtime", LONGTIME)
    assert rc == cli.EXIT_OK
    rows = read_csv(out / "gap.csv")
    assert rows[0] == ["t", "gap_V"]
    assert len(rows) == 1 + 161
    assert not (out / "trajectory.partial").exists()


def test_fracture_writes_displacement_and_energy_csv(tmp_path):
    rc, out = run_cli(tmp_path, "fracture", fracture_config(0.005, n=41, m=5))
    assert rc == cli.EXIT_OK
    rows = read_csv(out / "displacement.csv")
    assert rows[0] == ["t", "x", "u", "u_x"]
    assert len(rows) == 1 + 6 * 43
    rows = read_csv(out / "at_energy.csv")
    assert rows[0] == ["t", "at_energy"]
    assert len(rows) == 1 + 6


def test_longtime_keeps_partial_trajectory_on_solver_failure(tmp_path, capsys):
    # the source drops, then rises past the state at t in (1/2, 1]: the
    # contact set that forms there needs a second sweep
    n = 21
    cfg = with_blocks(LONGTIME, solver={"max_outer": 1})
    cfg["problem"]["f"] = {"preset": "tabulated", "times": [0.0, 0.5, 1.0],
                           "values": [[1.0] * n, [0.5] * n, [2.0] * n]}
    rc, out = run_cli(tmp_path, "longtime", cfg)
    assert rc == cli.EXIT_SOLVER_FAILED
    assert capsys.readouterr().out.startswith("solver failure: step ")
    assert (out / "trajectory.partial").read_text().startswith("step ")
    assert not (out / "gap.csv").exists()
    partial = load_trajectory(out)
    assert 2 <= partial.times.size <= 5


@pytest.mark.parametrize("blocks", [
    {"solver": {"method": "pdas"}},
    {"solver": {"method": "projected_gradient"}},
    {"solver": {"pdas_c": 1.0}},
    {"solver": {"max_outer": 0}},
    {"tolerances": {"irreversibilty": 1e-12}},
    {"output": {"stride": 0}},
    {"output": {"stride": "2"}},
    {"refine": {"n_lst": [11]}},
    {"problem": dict(RUN["problem"], grid={"n": 41, "bc": "neumann"})},
    {"solver": []},
    {"tolerances": {"minimality": "tight"}},
    {"seed": "x"},
    {"fracture": {"eps": "abc", "delta_eps": 1e-3}},
    {"fracture": {"eps": -0.1, "delta_eps": 1e-3}},
    {"fracture": {"eps": 0.1, "delta_eps": 1e-3, "T": -1}},
    {"fracture": {"eps": 0.1, "delta_eps": 1e-3, "m": 0}},
    {"fracture": {"eps": 0.1, "delta_eps": 1e-3, "n": 0}},
    {"refine": {"m_list": [0, 5]}},
    {"refine": {"n_list": [0, 11]}},
    {"problem": dict(RUN["problem"], m=2.5)},
    {"problem": dict(RUN["problem"], m="3")},
    {"problem": dict(RUN["problem"], grid={"n": True})},
    {"refine": {"m_list": [5.7, 10.2]}},
    {"fracture": {"eps": 0.1, "delta_eps": 1e-3, "n": "41"}},
    {"solver": {"tol_kkt": "1e-9"}},
    {"fracture": {"eps": 0.1, "delta_eps": 1e-3, "scan_range": 10}},
    {"problem": dict(RUN["problem"], gamma={"preset": "at", "eps": 0.1, "delta": 1e-3,
                                            "scan_range": 10})},
    # with z0 zero no data is evaluated while the problem is built
    {"problem": dict(RUN["problem"], z0={"preset": "zero"},
                     sigma={"preset": "constant", "value": float("nan")})},
    {"problem": dict(RUN["problem"], z0={"preset": "zero"},
                     f={"preset": "tabulated", "times": [0.0], "values": [[1.0] * 41]})},
    # formerly valid tolerance keys: the tolerances are fixed or derived now
    {"tolerances": {"minimality": 1e-10}},
    {"solver": {"tol_kkt": 1e-9}},
    {"longtime": {"final_gap_tol": 1e-6}},
], ids=["method-pdas", "method-pg", "pdas_c", "max_outer-0", "tolerances-key",
        "stride-0", "stride-str", "refine-key", "grid-key", "solver-list",
        "minimality-str", "seed-str", "eps-str", "eps-negative", "fracture-T-negative",
        "fracture-m-0", "fracture-n-0", "m_list-0", "n_list-0", "m-float", "m-str",
        "grid-n-bool", "m_list-float", "fracture-n-str", "tol_kkt-str", "scan_range",
        "gamma-at-scan_range", "nan-literal", "tabulated-one-knot", "removed-tolerances",
        "removed-tol_kkt", "removed-final_gap_tol"])
def test_config_errors_exit_3_and_write_nothing(tmp_path, capsys, blocks):
    rc, out = run_cli(tmp_path, "run", with_blocks(RUN, **blocks))
    assert rc == cli.EXIT_CONFIG_ERROR
    assert "config error: " in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("problem,named", [
    ({"f": {"preset": "constant", "space": {"preset": "sine", "amplitude": 1.0, "mode": 1.5}}},
     "mode must be an integer, got 1.5"),
    ({"gamma": {"preset": "tanh", "amplitude": "1"}}, "amplitude must be numeric, got '1'"),
    ({"f": {"preset": "constant", "value": True}}, "value must be numeric, got True"),
], ids=["mode-float", "amplitude-str", "value-bool"])
def test_preset_parameters_fail_closed_and_exit_3(tmp_path, capsys, problem, named):
    # float() would take the string and the boolean, int() truncate the mode
    rc, out = run_cli(tmp_path, "check", with_blocks(RUN, problem=dict(RUN["problem"], **problem)))
    assert rc == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "config error: " in err and named in err
    assert not out.exists()


#: a number beyond a double, as the text of a config writes it
BEYOND_A_DOUBLE = "1e400"


@pytest.mark.parametrize("command,cfg", [
    # read as inf, the amplitude would give nan in nonlinearity_growth
    ("check", with_blocks(RUN, problem=dict(RUN["problem"], z0={"preset": "zero"}, gamma={
        "preset": "tanh", "amplitude": BEYOND_A_DOUBLE}))),
    # ... and the ramp time a load that is 0 at every time
    ("fracture", {"fracture": dict(fracture_config(0.005)["fracture"], load={
        "preset": "ramp_sine", "scale": 0.005, "ramp_time": BEYOND_A_DOUBLE})}),
], ids=["tanh-amplitude", "ramp_sine-ramp_time"])
def test_numbers_beyond_a_double_exit_3_and_write_nothing(tmp_path, capsys, command, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace(f'"{BEYOND_A_DOUBLE}"', BEYOND_A_DOUBLE))
    out = tmp_path / "out"
    assert cli.main([command, str(path), "--output-dir", str(out)]) == cli.EXIT_CONFIG_ERROR
    assert "config error: config is not valid JSON: " in capsys.readouterr().err
    assert not out.exists()


def test_a_config_that_is_not_utf8_exits_3(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(json.dumps(RUN).encode().replace(b"tanh", b"t\xe2nh"))
    assert cli.main(["check", str(path)]) == cli.EXIT_CONFIG_ERROR
    assert "config error: config is not valid JSON: " in capsys.readouterr().err


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("command,config", [
    ("run", "run-contact.json"),
    ("stationary", "longtime-relax-stationary.json"),
])
def test_commands_succeed_at_default_settings_on_a_fine_grid(tmp_path, capsys, command,
                                                             config):
    # at n = 10001 rounding alone leaves residuals near 1e-8, above the
    # solver's and validation's absolute tolerances; each gate accepts them
    # within the rounding floor
    cfg = json.loads((GOLDEN / config).read_text())
    cfg["problem"]["grid"]["n"] = 10001
    cfg["problem"]["m"] = 10
    rc, _ = run_cli(tmp_path, command, cfg)
    assert rc == cli.EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("command,cfg", [
    ("fracture", {"fracture": {"eps": 0.1, "delta_eps": 1e-3,
                               "load": {"preset": "ramp_sine", "scale": "abc"}}}),
    ("fracture", {"fracture": {"eps": 0.1, "delta_eps": 1e-3, "z0": {"preset": "nope"}}}),
    ("stationary", with_blocks(LONGTIME, stationary={"f_inf": {"preset": "nope"}})),
    ("longtime", with_blocks(LONGTIME, longtime={"m_per_unit": 4.9})),
    ("longtime", with_blocks(LONGTIME, longtime={"horizon": 0.01})),
], ids=["load-scale-str", "fracture-z0-preset", "stationary-f_inf-preset",
        "m_per_unit-float", "longtime-no-step"])
def test_command_config_errors_exit_3_and_write_nothing(tmp_path, capsys, command, cfg):
    rc, out = run_cli(tmp_path, command, cfg)
    assert rc == cli.EXIT_CONFIG_ERROR
    assert "config error: " in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def nonconvex(cfg):
    """``cfg`` with gamma(s) = -2s under a unit weight: margin 1 - 2 = -1."""
    out = with_blocks(cfg)
    out["problem"].update(gamma={"preset": "linear", "slope": -2.0},
                          sigma={"preset": "constant", "value": 1.0}, z0={"preset": "zero"})
    return out


#: convex in exact arithmetic, but the margin 1 - 0.9999999999999 = 1e-13 is
#: below the floor every check of the margin applies
THIN_MARGIN = with_blocks(LONGTIME)
THIN_MARGIN["problem"].update(gamma={"preset": "linear", "slope": -1.0},
                              sigma={"preset": "constant", "value": 0.9999999999999},
                              z0={"preset": "zero"})


@pytest.mark.parametrize("argv,fail", [
    (["check"], "FAIL  coercivity_margin: value=1.00031e-13 tol=1e-12 "),
    (["run"], "FAIL  coercivity_margin: "),
    (["run", "--force"], "FAIL  coercivity_margin: "),
    (["longtime"], "FAIL  coercivity_margin: "),
    (["refine"], "FAIL  coercivity_margin: "),
    (["stationary"], "FAIL  coercivity_margin: value=1.00031e-13 tol=1e-12\n"),
], ids=["check", "run", "run-force", "longtime", "refine", "stationary"])
def test_margin_below_floor_exits_1_before_any_solve(tmp_path, capsys, argv, fail):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(THIN_MARGIN))
    out = tmp_path / "out"
    rc = cli.main([argv[0], str(path), "--output-dir", str(out), *argv[1:]])
    assert rc == cli.EXIT_CHECK_FAILED
    assert fail in capsys.readouterr().out
    assert not out.exists()


def test_longtime_exits_1_on_data_that_fails_validation(tmp_path, capsys):
    rc, out = run_cli(tmp_path, "longtime", nonconvex(LONGTIME))
    assert rc == cli.EXIT_CHECK_FAILED
    assert capsys.readouterr().out.startswith("FAIL  coercivity_margin: ")
    assert not out.exists() or not any(out.iterdir())


def test_stationary_exits_1_on_nonpositive_margin(tmp_path, capsys):
    # convex evolution data, but the stationary weight 4 gives 1 - 0.5*4 = -1
    cfg = with_blocks(LONGTIME, stationary={"sigma": {"preset": "constant", "value": 4.0}})
    cfg["problem"]["gamma"] = {"preset": "linear", "slope": -0.5}
    rc, out = run_cli(tmp_path, "stationary", cfg)
    assert rc == cli.EXIT_CHECK_FAILED
    assert capsys.readouterr().out == "FAIL  coercivity_margin: value=-1 tol=1e-12\n"
    assert not out.exists() or not any(out.iterdir())


def test_run_force(tmp_path, capsys):
    def run_forced(cfg, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / name
        return cli.main(["run", str(path), "--output-dir", str(out), "--force"]), out

    inadmissible = with_blocks(RUN)
    inadmissible["problem"]["z0"] = {"preset": "constant", "value": 5.0}
    rc, out = run_forced(inadmissible, "forced")
    assert rc in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
    text = capsys.readouterr().out
    assert "FAIL  initial_admissibility: " in text
    assert "validation failed; continuing under --force" in text
    assert sorted(p.name for p in out.iterdir()) == [
        "trajectory.csv", "trajectory.json", "verdicts.json"]

    rc, out = run_forced(nonconvex(RUN), "refused")
    assert rc == cli.EXIT_CHECK_FAILED
    assert "(convexity margin not positive)" in capsys.readouterr().out
    assert not out.exists() or not any(out.iterdir())


#: a bump of width 0 is 0/0 at its center, a node of both grids
BUMP_0 = {"preset": "bump", "amplitude": 1.0, "width": 0.0}


@pytest.mark.parametrize("command,cfg", [
    ("check", with_blocks(RUN, problem=dict(RUN["problem"], z0=BUMP_0))),
    ("run", with_blocks(RUN, problem=dict(RUN["problem"], z0=BUMP_0))),
    ("fracture", {"fracture": dict(fracture_config(0.005)["fracture"], z0=BUMP_0)}),
    # a time profile's space preset is refused too, before any data is sampled
    ("check", with_blocks(RUN, problem=dict(RUN["problem"],
                                            f={"preset": "constant", "space": BUMP_0}))),
], ids=["z0-check", "z0-run", "z0-fracture", "f-check"])
def test_nonfinite_space_preset_exits_3_and_writes_nothing(tmp_path, capsys, command, cfg):
    rc, out = run_cli(tmp_path, command, cfg)
    assert rc == cli.EXIT_CONFIG_ERROR
    assert "non-finite values" in capsys.readouterr().err
    assert not out.exists()


def equilibrium(cfg):
    """``cfg`` with the equilibrium initial state, whose solve checks the margin."""
    out = with_blocks(cfg)
    out["problem"]["z0"] = {"preset": "equilibrium"}
    return out


@pytest.mark.parametrize("command", ["check", "run", "longtime", "stationary", "refine"])
@pytest.mark.parametrize("cfg,value", [
    (equilibrium(nonconvex(LONGTIME)), "-1"),
    (equilibrium(THIN_MARGIN), "1.00031e-13"),
], ids=["negative", "thin"])
def test_margin_below_floor_in_the_initial_solve_exits_1(tmp_path, capsys, command, cfg,
                                                         value):
    rc, out = run_cli(tmp_path, command, cfg)
    assert rc == cli.EXIT_CHECK_FAILED
    assert capsys.readouterr().out == f"FAIL  coercivity_margin: value={value} tol=1e-12\n"
    assert not out.exists()


#: the weight spikes between two of the times validation samples (k/64), so
#: only the step average, over midpoints 1/6, 1/2 and 5/6, loses convexity
SPIKE_IN_STEP = with_blocks(RUN)
SPIKE_IN_STEP["problem"].update(
    gamma={"preset": "linear", "slope": -0.5}, z0={"preset": "zero"},
    f={"preset": "constant", "value": 0.0}, m=1, quad_pts=3,
    sigma={"preset": "tabulated", "times": [0.0, 1 / 6 - 0.004, 1 / 6, 1 / 6 + 0.004, 1.0],
           "values": [[v] * 41 for v in (1.0, 1.0, 100.0, 1.0, 1.0)]})


def test_margin_below_floor_inside_a_step_exits_2_with_a_partial_trajectory(tmp_path,
                                                                             capsys):
    rc, out = run_cli(tmp_path, "run", SPIKE_IN_STEP)
    assert rc == cli.EXIT_SOLVER_FAILED
    assert capsys.readouterr().out.startswith("solver failure: step 1 failed: convexity margin")
    assert (out / "trajectory.partial").exists()
    assert load_trajectory(out).times.size == 1


#: a successful run of each command that writes a trajectory
SUCCESSES = pytest.mark.parametrize("command,cfg", [
    ("run", RUN), ("longtime", LONGTIME), ("fracture", fracture_config(0.005, n=41, m=5)),
], ids=["run", "longtime", "fracture"])


@SUCCESSES
def test_a_successful_run_removes_the_partial_marker_of_a_failed_one(tmp_path, capsys,
                                                                    command, cfg):
    rc, out = run_cli(tmp_path, "run", SPIKE_IN_STEP)
    assert rc == cli.EXIT_SOLVER_FAILED
    assert (out / "trajectory.partial").exists()
    rc, same = run_cli(tmp_path, command, cfg)
    assert same == out and rc == cli.EXIT_OK, capsys.readouterr().out
    assert not (out / "trajectory.partial").exists()
    assert load_trajectory(out).times.size > 2


@SUCCESSES
def test_a_failed_run_removes_the_outputs_derived_from_a_successful_one(tmp_path, capsys,
                                                                       command, cfg):
    rc, out = run_cli(tmp_path, command, cfg)
    assert rc == cli.EXIT_OK
    rc, same = run_cli(tmp_path, "run", SPIKE_IN_STEP)
    assert same == out and rc == cli.EXIT_SOLVER_FAILED, capsys.readouterr().out
    assert (out / "trajectory.partial").exists()
    assert load_trajectory(out).times.size == 1
    left = [name for name in ("verdicts.json", "gap.csv", "displacement.csv", "at_energy.csv")
            if (out / name).exists()]
    assert left == []
