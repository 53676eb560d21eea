"""The repository's pytest settings report a failing property test as a
failure with its falsifying example, not as an internal error, and draw
the same examples on every run."""

import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
"""


def test_a_failing_property_test_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out  # 1: tests ran and one failed
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out


def test_a_property_test_draws_the_same_examples_on_every_run():
    # ``tests/conftest.py`` loads a derandomized profile with no database.
    assert settings.default.derandomize
    assert settings.default.database is None
    drawn = []

    @settings(max_examples=20)
    @given(st.integers())
    def draw(x):
        drawn[-1].append(x)

    for _ in range(2):
        drawn.append([])
        draw()
    assert drawn[0] == drawn[1]
