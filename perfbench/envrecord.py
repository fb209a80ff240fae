"""Environment record written into every result.

BLAS details come from a fresh interpreter that has imported ``expopt.cli``
exactly as a CLI run does, so a library that pins BLAS threads at import
shows up here.  The benchmark sets no BLAS variable of its own.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# Runs in the child: reports where expopt was imported from and what BLAS
# the process loaded.  OpenBLAS is asked for its thread count through the
# symbol the wheel exports; other libraries report only their name.
_PROBE = r"""
import ctypes, json, sys
import expopt.cli
import numpy
info = {"expopt_file": expopt.cli.__file__, "numpy": numpy.__version__}
try:
    import scipy
    info["scipy"] = scipy.__version__
except ImportError:
    info["scipy"] = None
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
info["blas_name"] = blas.get("name")
info["blas_version"] = blas.get("version")
info["blas_threads"] = None
with open("/proc/self/maps") as fh:
    libs = sorted({ln.split()[-1] for ln in fh if "blas" in ln.lower() and ".so" in ln})
info["blas_libraries"] = libs
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            info["blas_threads"] = fn()
            break
print(json.dumps(info))
"""


def source_digest(src: Path) -> str:
    """sha256 over the library's Python sources, in path order."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path):
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def record(root: Path, child_env: dict, cli_threads: int) -> dict:
    """Environment of this run; raises RuntimeError if the probe fails."""
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE], env=child_env, cwd=root,
        capture_output=True, text=True, timeout=120, check=False,
    )
    if probe.returncode != 0:
        raise RuntimeError(f"environment probe failed: {probe.stderr.strip()}")
    child = json.loads(probe.stdout.strip().splitlines()[-1])
    if not Path(child["expopt_file"]).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"expopt imported from {child['expopt_file']}, not {root / 'src'}")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        **child,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root / "src"),
        "cli_threads": cli_threads,
    }
