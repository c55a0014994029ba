"""The machine record every result carries, host speed, process memory.

Memory is read from ``/proc`` (Linux): the parent process plus every
live ``multiprocessing`` child, which covers the sharded engine's
workers.  Before a resident-memory sample the parent collects garbage
and hands its free heap back to the system (glibc ``malloc_trim``), so
the sample counts memory the program holds, not what the allocator
happened to keep: without the trim, ``rss_growth_mb`` on the three-center
arena jumped between about 70 and 87 MB from seed to seed, and read
61.0 +/- 0.2 MB with it.

Host speed is sampled with a fixed calibration unit.  On a shared
virtual machine the throughput a process gets drifts by up to 2x over
minutes as neighbours come and go, which no amount of repetition inside
a 20-second run averages out.  The benchmark therefore also reports its
times scaled to a reference speed: each interval is multiplied by
``CALIBRATION_REFERENCE_S`` over the calibration time measured around it.
"""

from __future__ import annotations

import ctypes
import gc
import multiprocessing
import os
import platform
import statistics
import subprocess
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

import repro.native

__all__ = [
    "CALIBRATION_REFERENCE_S",
    "calibration_s",
    "machine_record",
    "peak_rss_mb",
    "rss_mb",
    "stop_processes",
    "TIER_ENV",
]

#: The tier toggles whose values a result records (the benchmark sets none).
TIER_ENV = ("REPRO_NATIVE", "REPRO_MERGE_CACHE", "REPRO_MEGA_SHM")

_MB = float(1 << 20)

#: One calibration unit's median time on the 2-core Intel Xeon virtual
#: machine the benchmark was defined on, in a quiet period.  It only sets
#: the scale of the speed-normalised times.
CALIBRATION_REFERENCE_S = 0.010

_CAL_RNG = np.random.default_rng(0)
_CAL_POINTS = _CAL_RNG.normal(size=(9, 2))
_CAL_COVS = _CAL_RNG.normal(size=(9, 2, 2))


def _calibration_unit() -> None:
    # The program's own mix: interpreter work around numpy calls on tiny
    # arrays, byte keys into a dict.  No repro code runs here, so a change
    # to the program never moves it.
    points, covs = _CAL_POINTS, _CAL_COVS
    seen: Dict[bytes, Any] = {}
    for i in range(400):
        weights = np.abs(points[:, 0]) + 1.0
        mean = (weights[:, None] * points).sum(0) / weights.sum()
        diff = points - mean
        cov = np.einsum("i,ij,ik->jk", weights, diff, diff) / weights.sum()
        cov = cov + (weights[:, None, None] * covs).sum(0)
        seen[points[i % 9].tobytes() + bytes([i % 7])] = cov
        np.linalg.cholesky(cov @ cov.T + np.eye(2))


def calibration_s(repeats: int = 3) -> float:
    """Median seconds of ``repeats`` calibration units, GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            _calibration_unit()
            samples.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


def _git_sha(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(root: Path, exchange: str) -> Dict[str, Any]:
    """Where and how a result was measured.

    ``exchange`` is the cross-shard exchange tier the run actually used
    (``"shm"``/``"pipe"`` for the sharded engine, ``"single"`` for the
    arena, ``"in-process"`` for the kernel).
    """
    return {
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native": repro.native.status(),
        "exchange": exchange,
        "tier_env": {name: os.environ.get(name) for name in TIER_ENV},
    }


def _pids() -> List[int]:
    return [os.getpid()] + [child.pid for child in multiprocessing.active_children()]


try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError):  # not glibc: samples include free heap
    _MALLOC_TRIM = None


def rss_mb() -> float:
    """Resident memory now, parent plus live workers, free heap released."""
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for pid in _pids():
        try:
            with open(f"/proc/{pid}/statm", encoding="ascii") as handle:
                total += int(handle.read().split()[1]) * page
        except (OSError, IndexError, ValueError):
            continue  # a worker that exited between listing and reading
    return total / _MB


def peak_rss_mb() -> float:
    """Peak resident memory (VmHWM), parent plus live workers."""
    total_kb = 0
    for pid in _pids():
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except (OSError, ValueError):
            continue
    return total_kb * 1024 / _MB


def stop_processes(timeout: float = 10.0) -> None:
    """End every process this one started, and wait for each.

    The sharded engine's ``close`` joins its workers, but creating its
    shared-memory segments also starts ``multiprocessing``'s resource
    tracker, which is left to outlive its parent.  Stopping it here
    (closing its pipe and reaping it) means no process of the benchmark
    survives the benchmark.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
