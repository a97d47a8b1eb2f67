"""Machine/run header and the in-run roofline reference."""

import ctypes
import glob
import hashlib
import os
import platform
import time

import numpy as np
import scipy

COPY_CAP_BYTES = 128 << 20   # copy arrays stay this small on a shared host


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def llc_bytes():
    """Size of the highest-level CPU cache that cpu0 reports, or None."""
    best_level, size = 0, None
    for d in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(d, "level")) as f:
                level = int(f.read())
            with open(os.path.join(d, "size")) as f:
                text = f.read().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if level > best_level and digits.isdigit():
            best_level, size = level, int(digits) * mult
    return size


def _openblas():
    """ctypes handle of the OpenBLAS that numpy links, or None."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def blas_threads():
    """Thread count the linked OpenBLAS reports at run time, or None."""
    lib = _openblas()
    if lib is None:
        return None
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _git_commit(root):
    """HEAD commit read from .git without running git; None outside a checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src_dir):
    """sha256 over the package sources, which names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src_dir, "muvit", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def header(root, workload, seed, seconds, trace, threads_requested):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_requested": threads_requested, "threads_runtime": blas_threads()},
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(os.path.join(root, "src")),
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
    }


def roofline(reps=5):
    """Best-of-reps sgemm GFLOP/s and copy bandwidth.

    Copy bytes are computed as read + write of the array (2 x nbytes); the
    array is 4x the last-level cache unless that exceeds COPY_CAP_BYTES.
    """
    n = 1024
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    c = a @ b
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.matmul(a, b, out=c)
        best = min(best, time.perf_counter() - t0)
    gemm = 2.0 * n ** 3 / best / 1e9

    llc = llc_bytes()
    size = min(4 * llc, COPY_CAP_BYTES) if llc else COPY_CAP_BYTES
    src = np.ones(size // 4, dtype=np.float32)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    copy = 2.0 * src.nbytes / best / 1e9
    return {"sgemm_gflop_s": gemm, "sgemm_n": n, "copy_gb_s": copy,
            "copy_array_bytes": int(src.nbytes), "llc_bytes": llc,
            "copy_below_4x_llc": bool(llc and src.nbytes < 4 * llc)}
