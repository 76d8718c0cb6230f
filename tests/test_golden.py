"""Byte-identity of the CLI's outputs on the six committed configurations.

Each case runs one command through :func:`irrev.cli.main` and compares its
exit code, its stdout and the SHA-256 of every file it writes with
``golden/digests.json``, once into a new directory and once into one that
holds longer files of the same names, as a rerun finds it.  A change that
alters any output byte fails here; one that means to must regenerate the
digests and say why::

    PYTHONPATH=src python tests/test_golden.py

which prints every case whose exit code, stdout or file digest moved,
naming the file, or ``no output moved``.

The digests were made under the numpy and scipy versions recorded in the
file; a mismatch names them, since other builds may round differently.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from irrev import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"

#: case name -> (command, config file)
CASES = {
    "run-contact": ("run", "run-contact.json"),
    # n = 1001, where rounding alone exceeds the inner Newton tolerance
    "run-contact-fine": ("run", "run-contact-fine.json"),
    "run-contact-refine": ("refine", "run-contact-refine.json"),
    "longtime-relax": ("longtime", "longtime-relax.json"),
    "longtime-relax-stationary": ("stationary", "longtime-relax-stationary.json"),
    "fracture-ramp": ("fracture", "fracture-ramp.json"),
}


def run_case(name: str, out_dir: Path) -> dict:
    """Run one case into ``out_dir``; its exit code, stdout and file digests."""
    command, config = CASES[name]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([command, str(GOLDEN / config), "--output-dir", str(out_dir)])
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out_dir.iterdir())}
    return {"exit_code": code, "stdout": stdout.getvalue(), "files": files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_the_golden_digests(name, tmp_path, monkeypatch):
    monkeypatch.delenv("IRREV_VERBOSE", raising=False)
    golden = json.loads(DIGESTS.read_text())
    got = run_case(name, tmp_path / "out")
    versions = (f"digests made with numpy {golden['numpy']}, scipy {golden['scipy']}; "
                f"this run has numpy {np.__version__}, scipy {scipy.__version__}")
    assert got == golden["cases"][name], f"{name}: outputs differ ({versions})"


@pytest.fixture(scope="module")
def stale_bytes(tmp_path_factory) -> bytes:
    """The n = 1001 case's ``trajectory.csv`` twice over: longer than any
    file a case writes."""
    out = tmp_path_factory.mktemp("stale")
    run_case("run-contact-fine", out)
    return (out / "trajectory.csv").read_bytes() * 2


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_rerun_over_longer_files_matches_the_golden_digests(name, tmp_path, monkeypatch,
                                                              stale_bytes):
    # every file the case writes is there already, and longer: a writer that
    # overwrites without cutting leaves the old tail behind
    monkeypatch.delenv("IRREV_VERBOSE", raising=False)
    want = json.loads(DIGESTS.read_text())["cases"][name]
    out = tmp_path / "out"
    out.mkdir()
    for fname in want["files"]:
        (out / fname).write_bytes(stale_bytes)
    assert run_case(name, out) == want, f"{name}: a rerun's outputs differ"
    assert all(p.stat().st_size < len(stale_bytes) for p in out.iterdir())


def moved(old: dict | None, new: dict) -> list[str]:
    """What differs between two outcomes of one case, one line per item."""
    if old is None:
        return ["new case"]
    lines = []
    if old["exit_code"] != new["exit_code"]:
        lines.append(f"exit code {old['exit_code']} -> {new['exit_code']}")
    if old["stdout"] != new["stdout"]:
        lines.append(f"stdout {old['stdout']!r} -> {new['stdout']!r}")
    for fname in sorted(old["files"].keys() | new["files"].keys()):
        before, after = old["files"].get(fname), new["files"].get(fname)
        if before != after:
            lines.append(f"{fname} {before or 'absent'} -> {after or 'absent'}")
    return lines


def regenerate() -> None:
    """Rewrite ``digests.json`` from the current program and print every
    case whose exit code, stdout or file digests moved."""
    import tempfile

    os.environ.pop("IRREV_VERBOSE", None)
    old = json.loads(DIGESTS.read_text())["cases"] if DIGESTS.exists() else {}
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            cases[name] = run_case(name, Path(tmp) / name)
    report = [f"{name}: {line}" for name in sorted(CASES)
              for line in moved(old.get(name), cases[name])]
    report += [f"{name}: case removed" for name in sorted(old.keys() - CASES.keys())]
    print("\n".join(report) if report else "no output moved")
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "scipy": scipy.__version__,
                                   "cases": cases}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
