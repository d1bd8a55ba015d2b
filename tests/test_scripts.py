"""The scripts under scripts/ run as separate processes and print their tables."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=600)


def test_orbit_census_to_k2():
    result = run_script("orbit_census.py", "--max-k", "2")
    assert result.returncode == 0, result.stderr
    assert "  arf 1: orbit   6 x stabilizer  120 = 720" in result.stdout.splitlines()


def test_classification_table_json():
    result = run_script("classification_table.py", "--max-p", "6", "--json")
    assert result.returncode == 0, result.stderr
    assert '  "manifold": "S^4 x S^4 in S^10",' in result.stdout.splitlines()
    assert len(json.loads(result.stdout)) == 13


@pytest.mark.slow
def test_orbit_census_to_k3_enumerates_stabilizers():
    result = run_script("orbit_census.py", "--max-k", "3")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "  arf 0: orbit  36 x stabilizer 40320 = 1451520" in lines
    assert "  arf 1: orbit  28 x stabilizer 51840 = 1451520" in lines
