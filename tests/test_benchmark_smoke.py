"""The benchmark still runs against this source tree: a tiny untraced and a
tiny traced run of ``perfbench/run.py`` on a copy of ``src/`` and
``perfbench/``, which would catch a renamed function the benchmark calls or
a tracer site whose signature changed before a full run does."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", [0, 1])
def test_a_tiny_benchmark_run_is_correct(tmp_path, trace):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zipf", "--seed",
         "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
