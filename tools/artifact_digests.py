"""Digest every artifact of the default grids, to check a refactor byte for byte.

    python3 tools/artifact_digests.py

Run it from the repository root.  It imports mantra from ./src with
BLAS/OpenMP pinned to one thread, runs `mantra grid --task cls` and
`mantra grid --task sum` with their default rates and seeds into a temporary
directory, and prints to stdout one line per run directory and per summary.csv: the
name and a SHA-256 over the files in name order.  results.json is hashed
re-serialised without runtime_sec, the one field reruns may change.  The
first line names the numpy version, the BLAS build, the core type whose
kernels OpenBLAS dispatched to (OPENBLAS_CORETYPE overrides it) and the CPU
model, since floating-point results may differ on another build or machine.

Run it on two trees and diff the outputs: the same lines mean the same
artifacts.  Its output on the committed tree is the manifest
tests/artifact_digests.txt, which tier-1 rebuilds and compares:

    python3 tools/artifact_digests.py > tests/artifact_digests.txt
"""

import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
TASKS = ("cls", "sum")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_core(numpy):
    """The core name of numpy's bundled OpenBLAS, or 'unknown' without one."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode("ascii")
    return "unknown"


def environment():
    import numpy
    config = getattr(numpy.__config__, "CONFIG", {})     # numpy >= 1.26
    blas = config.get("Build Dependencies", {}).get("blas", {})
    build = " ".join(str(blas[key]) for key in ("name", "version") if key in blas)
    return (f"numpy {numpy.__version__}; blas {build or 'unknown'}; "
            f"blas core {_blas_core(numpy)}; cpu {_cpu_model()}")


def _file_bytes(path):
    """A file's bytes as digested: a results.json, which must hold runtime_sec,
    re-serialised without it."""
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "results.json":
        report = json.loads(data)
        report.pop("runtime_sec")
        data = json.dumps(report, sort_keys=True, indent=2).encode("utf-8")
    return data


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        data = _file_bytes(path)
        h.update(f"{os.path.basename(path)}\0{len(data)}\0".encode("utf-8"))
        h.update(data)
    return h.hexdigest()


def manifest(tmp):
    """Run both default grids into directory tmp and return the manifest's lines."""
    from mantra import cli
    lines = [environment()]
    for task in TASKS:
        out = os.path.join(tmp, task)
        with contextlib.redirect_stdout(sys.stderr):      # the grid's own report lines
            status = cli.main(["grid", "--task", task, "--out", out])
        if status != 0:
            raise RuntimeError(f"mantra grid --task {task} exited {status}")
        for name in sorted(os.listdir(out)):
            path = os.path.join(out, name)
            files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
                     if os.path.isdir(path) else [path])
            lines.append(f"{task}/{name} {_digest(files)}")
    return lines


def main():
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("MANTRA_OUT", None)       # it would override --out
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as tmp:
        try:
            lines = manifest(tmp)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
