"""Byte-identity of the CLI's outputs on the four committed configurations.

Each case runs one command through :func:`irrev.cli.main` and compares its
exit code, its stdout and the SHA-256 of every file it writes with
``golden/digests.json``.  A change that alters any output byte fails here;
one that means to must regenerate the digests and say why::

    PYTHONPATH=src python tests/test_golden.py

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


def regenerate() -> None:
    """Rewrite ``digests.json`` from the current program."""
    import tempfile

    os.environ.pop("IRREV_VERBOSE", None)
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            cases[name] = run_case(name, Path(tmp) / name)
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "scipy": scipy.__version__,
                                   "cases": cases}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
