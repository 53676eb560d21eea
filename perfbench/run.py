"""Benchmark entry point: run one workload in a fresh, pinned process.

    python3 perfbench/run.py --workload zipf --seed 1 --seconds 55 --trace 0

Run it from the root of a grappa source tree; it imports ``grappa`` from
``./src`` and nowhere else. The workload runs in a child process whose
environment pins BLAS and OpenMP to one thread, so the settings never leak
into the caller. The child's last stdout line is the JSON result; the exit
code is non-zero when a correctness check fails or the run cannot start.
"""

from __future__ import annotations

import os
import subprocess
import sys

CHILD_TIMEOUT_S = 170
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str]) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "grappa", "__init__.py")):
        print(f"no grappa sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src,
               **{name: "1" for name in PINNED})
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "workload.py")
    try:
        done = subprocess.run([sys.executable, child, *argv], env=env,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"workload exceeded {CHILD_TIMEOUT_S} s and was stopped",
              file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
