"""Thread pinning and the environment record shared by the benchmark scripts.

Import this module before numpy: the BLAS thread count is read once, when
numpy loads its BLAS library, so the variables must be in place by then.
Unpinned OpenBLAS threads contend on a small machine and can change the
time of one coupling call by two orders of magnitude between processes.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    os.environ.update(PINNED_THREADS)


def child_env() -> dict[str, str]:
    """Environment for a child process: pinned threads, the checkout's src first."""
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    # A checkout without .git (an exported tree) has no commit to report; do
    # not let git search the parent directories for some other repository.
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    """Python, numpy, BLAS, CPU, thread pins, commit and seed of this run."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_threads": {k: os.environ.get(k) for k in PINNED_THREADS},
        "git_commit": _git_commit(),
        "seed": seed,
    }
