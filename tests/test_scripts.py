"""Smoke runs of the scripts, as a user runs them.

The experiment scripts run on a small synthetic beats file and exercise
`fit`, `distill`, `prune_and_retrain`, `fit_weights_only`, quantization
and all three eval modes end to end; the demo runs every CLI step,
`stream` included, on recordings it synthesizes. The output digest is
deterministic, so two checkouts can be compared line by line.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tinyecg.synthetic import separable_beatset

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def beats_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("scripts") / "beats.npz"
    separable_beatset(per_class=60, seed=0).save(path)  # 240 beats
    return path


def run_script(name, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args), "--epochs", "20"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result


def test_run_ablations(beats_path):
    out = run_script("run_ablations.py", "--beats", beats_path).stdout
    for line in ("base trained", "pruned + retrained", "distilled (61-4-4 student)",
                 "weights-only trained", "ablations below base accuracy:"):
        assert line in out
    table = out[out.index("model"):].splitlines()
    assert [row.split()[0] for row in table[1:5]] == [
        "base", "pruned", "distilled", "weights-only"]


def test_reproduce_full_scale(beats_path):
    out = run_script("reproduce_full_scale.py", "--beats", beats_path).stdout
    assert "split: " in out and "cost report:" in out
    for mode in ("default", "temporary-dequantized", "quantized-only"):
        assert f"=== {mode} ===" in out
    assert "mode ordering: default=" in out
    assert "quantized-only drop:" in out


def test_demo_synthetic(tmp_path):
    result = run_script("demo_synthetic.py", "--workdir", tmp_path)
    steps = [line for line in result.stdout.splitlines() if line.startswith("$ tinyecg ")]
    assert [step.split()[2] for step in steps] == [
        "ingest", "train", "quantize", "eval", "eval", "eval", "stream"]
    assert "# 10 beat(s) classified" in result.stderr


def test_output_digest():
    first, second = (run_script("output_digest.py").stdout.splitlines() for _ in range(2))
    assert first == second
    names = [line.split()[0] for line in first]
    assert len(set(names)) == len(names) > 80
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in first)
