"""Pipeline benchmark entry point.

    python3 perfbench/run.py --workload cls-sweep --seed 1 --seconds 25 --trace 0

Run it from the repository root.  The program is imported from ./src, so a
directory without the sources exits with status 2 and prints no result.
The benchmark runs as a closed loop with one client: one process, runs in
sequence, with BLAS/OpenMP pinned to one thread.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics of BENCHMARK.json for --trace 0 and the per-layer
metrics for --trace 1.  See perfbench/bench.py for the workloads.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def prepare_process():
    """Pin threads and point imports at ./src; must run before numpy loads.

    Returns False when the checkout holds no mantra sources.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("MANTRA_OUT", None)       # it would override --out
    if not os.path.isfile(os.path.join(SRC, "mantra", "__init__.py")):
        return False
    sys.path.insert(0, SRC)
    return True


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not prepare_process():
        print(f"error: no mantra sources under {SRC}", file=sys.stderr)
        return 2
    import bench
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    result = bench.run(ROOT, bench.WORKLOADS[args.workload], args.seed,
                       args.seconds, bool(args.trace))
    bench.print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
