"""Benchmark for ``irrev``: one workload per call, checked from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload run-contact --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload's CLI command untraced and prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics from a run
under the span recorder (see ``spans.py``) together with the recorder's
overhead.  Every run checks the command's outputs (see ``checks.py``) and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

An operation is one execution of the workload's CLI command (and, for
longtime-relax, the one ``irrev stationary`` run that exposes the limit to
the checks); it fails when its exit code is not 0.  A run is correct only if
every failed operation exits 1 with exactly the FAIL verdicts of the
workload's known fault, and no other operation prints a FAIL verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: one compute thread for this process and every interpreter it starts
THREADS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                            "NUMEXPR_NUM_THREADS")}
os.environ.update(THREADS)

#: counted setup probes per run, after one uncounted warm-up probe
SETUP_PROBES = 15
CHILD_TIMEOUT = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + str(HERE)
    # a fixed string-hash seed removes one source of process-to-process spread
    env["PYTHONHASHSEED"] = "0"
    env.pop("IRREV_VERBOSE", None)
    return env


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args[0]} exited with {proc.returncode}")
    return proc


def measure_setup(spec: Path) -> tuple[float, float]:
    """Median raw and normalized setup time over the counted probes."""
    import reference

    reference.kernel()
    run_child(["setup", str(spec)])
    raw, ratios = [], []
    for _ in range(SETUP_PROBES):
        probe = json.loads(run_child(["setup", str(spec)]).stdout.splitlines()[-1])
        raw.append(probe["setup_s"])
        ratios.append(probe["setup_s"] / reference.timed())
    return statistics.median(raw), reference.NOMINAL_S * statistics.median(ratios)


def normalized_median(reps: list[dict], ref0: float) -> float:
    """Median over repetitions of the command's time divided by the mean of
    the reference kernel runs just before and just after it."""
    before = [ref0] + [r["ref"] for r in reps[:-1]]
    return statistics.median(r["wall"] / (0.5 * (b + r["ref"])) for r, b in zip(reps, before))


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "irrev" / "__init__.py").is_file():
        print(f"irrev sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import checks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)

    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    out, stat_out, scratch = work / "out", work / "stationary", work / "round_trip"
    for d in (out, stat_out, scratch):
        d.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(wl.config, indent=1))
    spec = work / "setup.json"
    spec.write_text(json.dumps({"command": wl.command, "config": str(config)}))

    job = {"argv": [wl.command, str(config), "--output-dir", str(out)],
           "out_dir": str(out), "seconds": args.seconds, "trace": args.trace,
           "result": str(work / "result.json"), "stored": str(work / "stored.npz")}
    if wl.stationary_config is not None:
        stat_cfg = work / "stationary.json"
        stat_cfg.write_text(json.dumps(wl.stationary_config, indent=1))
        job["extra_argv"] = ["stationary", str(stat_cfg), "--output-dir", str(stat_out)]
    (work / "job.json").write_text(json.dumps(job))

    setup_raw, setup_s = (None, None) if args.trace else measure_setup(spec)
    run_child(["run", str(work / "job.json")])
    res = json.loads((work / "result.json").read_text())

    # ---- operations -----------------------------------------------------
    ops = [res["warmup"], *res["reps"]] + ([res["extra"]] if "extra" in res else [])
    attempted, failed = len(ops), sum(op["code"] != 0 for op in ops)
    print(f"exit codes: {sorted({op['code'] for op in ops})}; the program's own FAIL "
          f"verdicts: {sorted({name for op in ops for name in op['fails']})}")

    # ---- outside checks --------------------------------------------------
    results = checks.run_all(wl, out, stat_out, scratch, work / "stored.npz", args.seed)
    results.append(checks.outcome_check(ops, wl.known_fault))
    digests = {res["warmup"]["digest"]} | {r["digest"] for r in res["reps"]}
    results.append(checks.Check("outputs.identical_across_repetitions",
                                0.0 if len(digests) == 1 else float("inf"),
                                f"{len(digests)} distinct output sets"))
    for c in results:
        status = "PASS" if c.passed else "FAIL"
        print(f"check {status}  {c.name}: worst/tolerance={c.ratio:.3g} {c.detail}".rstrip())
    correct = all(c.passed for c in results)

    # ---- metrics ---------------------------------------------------------
    if args.trace:
        traced = res["traced"]
        untraced = statistics.median(r["wall"] for r in res["reps"][:len(traced)])
        traced_wall = median_of(traced, "wall")
        # the recorder's layer names end in "_s" for times; the rest are counts
        layers = [name for name in traced[0] if name != "wall"]
        metrics = {name: {"value": median_of(traced, name),
                          "unit": "s" if name.endswith("_s") else "count"}
                   for name in layers}
        meta = json.loads((out / "trajectory.json").read_text())["step_meta"]
        sweeps = [s["iters"] for s in meta]
        metrics["obstacle.sweeps_per_step"] = {"value": sum(sweeps) / len(sweeps),
                                               "unit": "count"}
        metrics["obstacle.sweeps_max"] = {"value": max(sweeps), "unit": "count"}
        metrics["evolution.trajectory_csv_mb"] = {
            "value": (out / "trajectory.csv").stat().st_size / 1e6, "unit": "MB"}
        metrics["trace.command_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_wall / untraced - 1.0),
                                         "unit": "%"}
        for name in layers:
            values = {r[name] for r in traced}
            if metrics[name]["unit"] == "count" and len(values) != 1:
                print(f"check FAIL  count {name} differs between repetitions: {sorted(values)}")
                correct = False
        print(f"repetitions: {len(traced)} traced, {len(traced)} untraced")
    else:
        from reference import NOMINAL_S

        reps = res["reps"]
        walls = [r["wall"] for r in reps]
        metrics = {
            "wall_s": {"value": NOMINAL_S * normalized_median(reps, res["ref0"]), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"timed repetitions: {len(walls)}; raw medians: command "
              f"{statistics.median(walls):.4f} s, reference kernel "
              f"{statistics.median(r['ref'] for r in reps):.4f} s, setup {setup_raw:.4f} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"operations attempted={attempted} failed={failed}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
