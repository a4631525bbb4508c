"""Shared helpers: checkout paths, run stamp, statistics, set-up probe."""

from __future__ import annotations

import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Sequence

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: set-up is repeated this many times per run and reported as the median
SETUP_REPS = 5

#: percentiles considered for a tail; the highest with >= 10 samples
#: beyond it is the one reported
TAIL_CANDIDATES = (99.9, 99.0, 90.0)


def child_env() -> Dict[str, str]:
    """Environment for the program's own processes (``python -m repro``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def scratch_dir(prefix: str) -> pathlib.Path:
    """A fresh directory under the checkout's output directory."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(prefix=prefix, dir=OUT / "tmp"))


def remove(path: pathlib.Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def git_sha() -> str:
    """HEAD of the checkout, or ``"unknown"`` when it is not a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp() -> dict:
    """Provenance attached to every output of a run."""
    import numpy

    from repro.analysis.trajectory import machine_fingerprint

    return {"git_sha": git_sha(), "machine": machine_fingerprint(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "clock": "time.perf_counter"}


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of unsorted values."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def timing_summary(values: Sequence[float]) -> dict:
    """Median, sample count, and the highest tail with 10 samples beyond."""
    out = {"n": len(values), "p50": median(values)}
    for q in TAIL_CANDIDATES:
        if len(values) * (1 - q / 100.0) >= 10:
            out[f"p{q:g}"] = percentile(values, q)
            break
    return out


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_probe(modules: Sequence[str], reps: int = SETUP_REPS) -> List[float]:
    """Wall seconds for a fresh interpreter to import the named layers.

    This is the start-up every command-line use of the program pays
    before its first scenario, so work moved to import time shows here.
    """
    code = "import " + ", ".join(modules)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=child_env(), cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times
