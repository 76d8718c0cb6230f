import csv
import json

import pytest

from irrev import cli, load_trajectory

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


def test_refine_writes_refinement_csv(tmp_path):
    cfg = with_blocks(RUN, refine={"m_list": [5, 10], "n_list": [21, 41]})
    rc, out = run_cli(tmp_path, "refine", cfg)
    assert rc == cli.EXIT_OK
    rows = read_csv(out / "refinement.csv")
    assert rows[0] == ["kind", "m", "n", "gap_V", "balance_sum", "order_estimate",
                       "step_rate"]
    assert [r[:3] for r in rows[1:]] == [["tau", "5", "41"], ["tau", "10", "41"],
                                         ["h", "10", "21"], ["h", "10", "41"]]
    # a gap needs a coarser run of the same kind
    assert [r[3] == "" for r in rows[1:]] == [True, False, True, False]


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
], ids=["method-pdas", "method-pg", "pdas_c", "max_outer-0", "tolerances-key",
        "stride-0", "stride-str", "refine-key", "grid-key", "solver-list",
        "minimality-str", "seed-str", "eps-str", "eps-negative", "fracture-T-negative",
        "fracture-m-0", "fracture-n-0", "m_list-0", "n_list-0", "m-float", "m-str",
        "grid-n-bool", "m_list-float", "fracture-n-str", "tol_kkt-str", "scan_range",
        "gamma-at-scan_range", "nan-literal", "tabulated-one-knot"])
def test_config_errors_exit_3_and_write_nothing(tmp_path, capsys, blocks):
    rc, out = run_cli(tmp_path, "run", with_blocks(RUN, **blocks))
    assert rc == cli.EXIT_CONFIG_ERROR
    assert "config error: " in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


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
        "energy_report.json", "trajectory.csv", "trajectory.json", "verdicts.json"]

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


def test_margin_below_floor_inside_a_step_exits_2_with_a_partial_trajectory(tmp_path,
                                                                             capsys):
    # the weight spikes between two of the times validation samples (k/64),
    # so only the step average, over midpoints 1/6, 1/2 and 5/6, loses convexity
    cfg = with_blocks(RUN)
    cfg["problem"].update(
        gamma={"preset": "linear", "slope": -0.5}, z0={"preset": "zero"},
        f={"preset": "constant", "value": 0.0}, m=1, quad_pts=3,
        sigma={"preset": "tabulated", "times": [0.0, 1 / 6 - 0.004, 1 / 6, 1 / 6 + 0.004, 1.0],
               "values": [[v] * 41 for v in (1.0, 1.0, 100.0, 1.0, 1.0)]})
    rc, out = run_cli(tmp_path, "run", cfg)
    assert rc == cli.EXIT_SOLVER_FAILED
    assert capsys.readouterr().out.startswith("solver failure: step 1 failed: convexity margin")
    assert (out / "trajectory.partial").exists()
    assert load_trajectory(out).times.size == 1
