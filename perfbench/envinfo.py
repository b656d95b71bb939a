"""Machine and library record stored next to every result."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _cache_sizes() -> dict:
    """Cache size per level as the kernel reports it for cpu0 (e.g. "2048K")."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in range(8):
        level = _read(f"{base}/index{idx}/level")
        kind = _read(f"{base}/index{idx}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(f"{base}/index{idx}/size")
    return out


def _blas() -> dict:
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": dep.get("name", ""), "version": dep.get("version", "")}
    except (TypeError, KeyError):
        info = {"name": "unknown", "version": ""}
    # OpenBLAS and OpenMP start one thread per core unless these are set
    info["threads"] = {var: os.environ.get(var, "unset (library default: nproc)")
                       for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "skyrme": getattr(sys.modules.get("skyrme"), "__version__", "unknown"),
    }
