"""The package declaration in ``setup.py`` names the real package."""

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_setup_py_declares_the_package():
    proc = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"], cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["repro", "1.0.0"]
    assert repro.__version__ == "1.0.0"
