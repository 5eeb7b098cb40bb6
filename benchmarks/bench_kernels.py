"""Time the sequence kernels on both backends.

The numba kernels are the default; the numpy versions exist as a portable
fallback (MANTRA_BACKEND=numpy).  This script times the (losses, grad sum,
greedy decode) triple on a benchmark-sized batch for each backend that is
importable and prints per-call medians plus the speedup.  The first numba
call absorbs JIT compilation, so each kernel is warmed before timing.

Run from the repo root:

    python3 benchmarks/bench_kernels.py --n-samples 1000 --repeats 20
"""

import argparse
import time

import numpy as np

from mantra import data, kernels, learner


def _time_call(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def bench_backend(name, model, batch, repeats):
    losses_fn, grad_fn, decode_fn = kernels.implementations(name)
    src, src_len, tgt, tgt_len = batch
    calls = {
        "losses": lambda: losses_fn(model.u, model.v, model.b,
                                    src, src_len, tgt, tgt_len, model.bos),
        "grad_sum": lambda: grad_fn(model.u, model.v, model.b,
                                    src, src_len, tgt, tgt_len, model.bos),
        "decode": lambda: decode_fn(model.u, model.v, model.b, src, src_len,
                                    model.bos, model.eos, data.MAX_TGT_LEN),
    }
    out = {}
    for label, call in calls.items():
        call()    # warmup; pays the JIT cost once on the numba path
        out[label] = _time_call(call, repeats)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-samples", type=int, default=1000,
                    help="batch size to pack (default 1000)")
    ap.add_argument("--repeats", type=int, default=20,
                    help="timed calls per kernel; median reported (default 20)")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    split = data.generate_summarization_dataset(args.seed, args.n_samples, 1, 1)
    model = learner.new_seq2seq(init_scale=0.2, seed=args.seed)
    packed = learner.pack(split.train)
    batch = packed.src, packed.src_len, packed.tgt, packed.tgt_len

    backends = ["numpy"] + (["numba"] if kernels.HAVE_NUMBA else [])
    results = {name: bench_backend(name, model, batch, args.repeats)
               for name in backends}

    print(f"batch: {args.n_samples} samples, median of {args.repeats} calls")
    header = f"{'kernel':<10}" + "".join(f"{name + ' (ms)':>14}" for name in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header)
    for label in ("losses", "grad_sum", "decode"):
        row = f"{label:<10}"
        for name in backends:
            row += f"{results[name][label] * 1e3:>14.3f}"
        if len(backends) == 2:
            row += f"{results['numpy'][label] / results['numba'][label]:>10.1f}x"
        print(row)
    if "numba" not in results:
        print("numba not importable; numpy fallback only")


if __name__ == "__main__":
    main()
