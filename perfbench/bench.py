"""Workloads, output checks and metrics of the pipeline benchmark.

A workload rep runs one sweep (through `mantra.cli.main`) or a set of API
runs (through `mantra.runner.run_experiment`).  Every run is timed by
wrapping `runner.run_experiment`, and its report and artifacts are checked.

Untraced (--trace 0) reps give the end-to-end metrics; rep k draws its
sweep seeds from (seed, k), so one result spans several data seeds and a
single unlucky draw moves the median less.  A traced (--trace 1) result
runs pairs of one untraced and one traced rep on the rep-0 seeds: the
traced rep's spans give the per-layer metrics, the pair's difference in wall
time at the reference speed (see REF_NOMINAL_S) is the tracing overhead, and
the two reps' artifacts must be byte-identical except
results.json:runtime_sec.

The rep count is fixed by --seconds and a per-workload nominal rep time,
not by the clock, so two commits compared at the same settings measure the
same inputs.
"""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np
from mantra import cli, kernels, runner

from tracer import Tracer, patched, pipeline_targets

MIN_REPS = 3
SETUP_REPEATS = 7
# The shared 2-core VM this was tuned on changes speed by up to 1.6x, for
# seconds to minutes at a time, which no affordable run length averages
# out.  Untraced times are therefore also given at a reference speed: a
# fixed numpy loop that runs no mantra code is timed before every run and
# setup sample and after the last, and a time t between two probes is
# reported as t * REF_NOMINAL_S / (mean of the two probe times).  The
# probes are not part of any timed stretch.  Raw seconds are printed and
# saved beside the scaled ones.
REF_NOMINAL_S = 0.020


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    rates: str             # comma-separated noise rates
    n_seeds: int
    sweep: bool            # True: `mantra grid` with artifacts; False: API baseline runs
    rep_s: float           # nominal rep wall time on a 2-core x86 box, numpy backend
    n_train: int | None = None

    @property
    def runs_per_rep(self):
        return len(self.rates.split(",")) * self.n_seeds * (2 if self.sweep else 1)


# Why these three: cls-sweep is dominated by gmm + scheduler and artifact
# writes and runs no kernel; sum-sweep shares that path with the sequence
# kernels, greedy decode and BLEU; sum-baseline-4k is kernels only, with no
# gmm, scheduler or writes.  Each layer's change has a workload that moves
# and one that should not.
WORKLOADS = {w.name: w for w in (
    Workload("cls-sweep", "cls", "0,0.05,0.10,0.15", 3, sweep=True, rep_s=6.5),
    Workload("sum-sweep", "sum", "0,0.15", 2, sweep=True, rep_s=6.9),
    Workload("sum-baseline-4k", "sum", "0.15", 2, sweep=False, rep_s=3.5,
             n_train=4000),
)}

# Layer self time: span duration minus its child spans.
SELF_TIME = {
    "scheduler.self_s": ("scheduler.evaluate_epoch",),
    "learner.self_s": ("learner.train_epoch", "learner.per_sample_losses",
                       "learner.predict"),
    "runner.self_s": ("runner.run_experiment",),
}
COUNTERS = ("gmm.fit_em_calls", "gmm.em_iters", "gmm.fits_nonconverged",
            "gmm.selected_nonconverged", "scheduler.dropped",
            "learner.samples_trained", "kernels.seq_grad_sum_calls",
            "kernels.tokens", "trajectory.rows")
KERNELS = ("kernels.seq_grad_sum", "kernels.seq_losses", "kernels.greedy_decode")

# Printed but not gated in BENCHMARK.json: the first six do not apply to
# every workload or can be zero or negative; the raw times and the
# reference loop time show what the scaled times were derived from.
REPORTED_UNITS = {"treated_run_s": "s", "runs_failed": "share",
                  "test_delta_mean": "metric", "recovered_share": "share",
                  "detect_f1_mean": "f1", "clean_test_metric": "metric",
                  "setup_raw_s": "s", "wall_raw_s": "s", "baseline_run_raw_s": "s",
                  "treated_run_raw_s": "s", "ref_loop_s": "s"}

ARTIFACTS = ("results.json", "model.ckpt.json", "trajectory.csv",
             "group_means.csv", "noise_mask.csv", "drops.csv", "gmm_trace.csv")


@dataclass
class Run:
    config: object
    out_dir: str | None
    seconds: float
    probe: float           # reference-loop seconds just before the run
    report: object = None
    error: str | None = None


@dataclass
class Rep:
    wall: float
    runs: list
    status: object         # cli exit code, or the exception that ended the rep
    restored: bool
    out_dir: str | None
    end_probe: float       # reference-loop seconds after the last run


def sweep_seeds(seed, rep, n):
    return random.Random(f"{seed}:{rep}").sample(range(1, 100_000), n)


def _timed(fn, log):
    def timed(config, out_dir=None):
        probe = reference_seconds()
        t0 = time.perf_counter()
        try:
            report = fn(config, out_dir=out_dir)
        except Exception as exc:
            log.append(Run(config, out_dir, time.perf_counter() - t0, probe,
                           error=repr(exc)))
            raise
        log.append(Run(config, out_dir, time.perf_counter() - t0, probe, report))
        return report
    return timed


def _drive(wl, seeds, out_dir):
    if wl.sweep:
        argv = ["grid", "--task", wl.task, "--rates", wl.rates,
                "--seeds", ",".join(map(str, seeds)), "--out", out_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    for rate in wl.rates.split(","):
        for seed in seeds:
            runner.run_experiment(runner.ExperimentConfig(
                task=wl.task, seed=seed, noise_rate=float(rate), mantra=False,
                n_train=wl.n_train))
    return 0


def run_rep(wl, seeds, out_dir, tracer=None):
    """Run the workload once, timing it and every run_experiment call.

    The run timer wraps the traced functions, so the speed probe it takes
    before each run lands in no span and in no timed stretch.
    """
    log = []
    traced = tracer.replacements(pipeline_targets()) if tracer else []
    with patched(traced) as traced_ok:
        timer = _timed(runner.run_experiment, log)
        with patched([(runner, "run_experiment", timer)]) as ok:
            t0 = time.perf_counter()
            try:
                status = _drive(wl, seeds, out_dir)
            except Exception as exc:   # count the rep's runs as failed, keep going
                traceback.print_exc()
                status = exc
            wall = time.perf_counter() - t0 - sum(r.probe for r in log)
    end_probe = reference_seconds()
    return Rep(wall, log, status, ok[0] and traced_ok[0],
               out_dir if wl.sweep else None, end_probe)


def _scale(before, after):
    return 2 * REF_NOMINAL_S / (before + after)


def scaled_times(rep):
    """The rep's wall time and its runs' times at the reference speed."""
    probes = [r.probe for r in rep.runs] + [rep.end_probe]
    scales = [_scale(a, b) for a, b in zip(probes, probes[1:])] or \
        [REF_NOMINAL_S / rep.end_probe]
    runs = [r.seconds * k for r, k in zip(rep.runs, scales)]
    rest = rep.wall - sum(r.seconds for r in rep.runs)
    return sum(runs) + rest * statistics.fmean(scales), runs


def _check_run(run):
    if run.error is not None:
        return f"raised {run.error}"
    cfg, rpt = run.config, run.report
    if not cfg.mantra and rpt.dropped_total != 0:
        return f"baseline arm dropped {rpt.dropped_total}"
    cap = math.floor(cfg.max_drop_frac * cfg.n_train)
    if rpt.dropped_total > cap or len(rpt.dropped_ids) != rpt.dropped_total:
        return f"dropped {rpt.dropped_total} ({len(rpt.dropped_ids)} ids), cap {cap}"
    if not 0.0 <= rpt.test_metric <= 1.0:
        return f"test metric {rpt.test_metric!r} outside [0, 1]"
    if run.out_dir is not None:
        want = list(ARTIFACTS) + [f"density_e{e}.csv" for e in range(1, cfg.epochs + 1)]
        missing = [f for f in want if not os.path.isfile(os.path.join(run.out_dir, f))]
        if missing:
            return f"missing artifacts {missing}"
    return None


def _check_summary(wl, rep):
    try:
        with open(os.path.join(rep.out_dir, "summary.csv"), newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
    except OSError as exc:
        return f"summary.csv unreadable: {exc}"
    if len(rows) != wl.runs_per_rep or len(rows) != len(rep.runs):
        return f"summary.csv has {len(rows)} rows for {len(rep.runs)} runs"
    for row, run in zip(rows, rep.runs):
        if run.report is not None and row[4] != repr(run.report.test_metric):
            return f"summary.csv row {row} disagrees with its run"
    return None


def check_rep(wl, rep):
    """Failure reason per attempted run; None where the run passed."""
    reasons = [_check_run(run) for run in rep.runs]
    reasons += [f"did not run (status {rep.status!r})"] * (wl.runs_per_rep - len(rep.runs))
    shared = None
    if rep.status != 0:
        shared = f"workload ended with status {rep.status!r}"
    elif rep.out_dir is not None:
        shared = _check_summary(wl, rep)
    if shared is None and not rep.restored:
        shared = "wrapped functions were not restored"
    return [r or shared for r in reasons]


def _artifact_bytes(run_dir):
    out = {}
    for name in sorted(os.listdir(run_dir)):
        with open(os.path.join(run_dir, name), "rb") as fh:
            data = fh.read()
        if name == "results.json":
            doc = json.loads(data)
            doc.pop("runtime_sec")
            data = json.dumps(doc, sort_keys=True).encode()
        out[name] = data
    return out


def compare_reps(plain, traced):
    """Per run, why the traced run's outputs differ from the untraced twin's."""
    reasons = []
    for a, b in zip(plain.runs, traced.runs):
        if a.report is None or b.report is None:
            reasons.append(None)       # already counted by check_rep
            continue
        da, db = a.report.as_dict(), b.report.as_dict()
        da.pop("runtime_sec")
        db.pop("runtime_sec")
        if json.dumps(da, sort_keys=True) != json.dumps(db, sort_keys=True):
            reasons.append("traced report differs from untraced")
        elif a.out_dir and _artifact_bytes(a.out_dir) != _artifact_bytes(b.out_dir):
            reasons.append("traced artifacts differ from untraced")
        else:
            reasons.append(None)
    if plain.out_dir and traced.out_dir:
        with open(os.path.join(plain.out_dir, "summary.csv"), "rb") as fa, \
                open(os.path.join(traced.out_dir, "summary.csv"), "rb") as fb:
            if fa.read() != fb.read():
                reasons = [r or "traced summary.csv differs" for r in reasons]
    return reasons


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def layer_metrics(tracer, rep):
    """Per-layer metrics of one traced rep."""
    totals = tracer.totals()
    out = {}
    for target in pipeline_targets():
        name = target[2]
        if name != Tracer.ROOT:
            out[f"{name}_s"] = totals.get(name, (0.0, 0.0))[0]
    for metric, names in SELF_TIME.items():
        out[metric] = sum(totals.get(n, (0.0, 0.0))[1] for n in names)
    for name in COUNTERS:
        out[name] = tracer.counters[name]
    out["runner.write_bytes"] = sum(_dir_bytes(r.out_dir) for r in rep.runs if r.out_dir)
    iters = out["gmm.em_iters"]
    out["gmm.us_per_em_iter"] = out["gmm.fit_em_s"] * 1e6 / iters if iters else 0.0
    tokens = out["kernels.tokens"]
    kernel_s = sum(out[f"{k}_s"] for k in KERNELS)
    out["kernels.ns_per_token"] = kernel_s * 1e9 / tokens if tokens else 0.0
    return out


def self_time_ranking(tracer):
    return sorted(((own, name) for name, (_, own) in tracer.totals().items()),
                  reverse=True)


def quality(reps):
    """Deterministic result-quality metrics over the noisy pairs of all reps."""
    deltas, recovered, f1s, clean = [], [], [], []
    for rep in reps:
        reports = {(r.config.seed, r.config.noise_rate, r.config.mantra): r.report
                   for r in rep.runs if r.report is not None}
        for (seed, rate, mantra), rpt in reports.items():
            if rate == 0.0 and not mantra:
                clean.append(rpt.test_metric)
            base = reports.get((seed, rate, False))
            if rate == 0.0 or not mantra or base is None:
                continue
            cmp = runner.compare_runs(base, rpt,
                                      clean_a=reports.get((seed, 0.0, False)),
                                      clean_b=reports.get((seed, 0.0, True)))
            deltas.append(cmp["metric_delta"])
            if cmp["recovered"] is not None:
                recovered.append(float(cmp["recovered"]))
            f1s.append(rpt.detection["f1"] or 0.0)   # nothing dropped scores 0
    return {"test_delta_mean": _mean(deltas), "recovered_share": _mean(recovered),
            "detect_f1_mean": _mean(f1s), "clean_test_metric": _mean(clean)}


def _mean(xs):
    return statistics.fmean(xs) if xs else None


def _median(xs):
    return statistics.median(xs) if xs else None


def measure_setup(root):
    """Median seconds, raw and at the reference speed, for a fresh
    interpreter to import mantra's entry points."""
    code = (f"import sys; sys.path.insert(0, {os.path.join(root, 'src')!r}); "
            "import mantra.cli")
    raw, scaled = [], []
    before = reference_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # No timeout: with one, wait() polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", code], check=True)
        raw.append(time.perf_counter() - t0)
        after = reference_seconds()
        scaled.append(raw[-1] * _scale(before, after))
        before = after
    return statistics.median(raw), statistics.median(scaled)


def reference_seconds():
    """Time of a fixed loop of EM steps on a 3-component 1-D mixture.

    It runs no mantra code, so a change to the program cannot move it.
    """
    x = np.random.default_rng(0).standard_normal(700)
    w, m, v = np.full(3, 1 / 3), np.array([-1.0, 0.0, 1.0]), np.ones(3)
    t0 = time.perf_counter()
    for _ in range(100):
        d = x[:, None] - m
        lp = np.log(w) - 0.5 * np.log(2 * np.pi * v) - 0.5 * d * d / v
        r = np.exp(lp - lp.max(axis=1)[:, None])
        r /= r.sum(axis=1, keepdims=True)
        t = r.sum(axis=0)
        w, m = t / x.size, (r * x[:, None]).sum(axis=0) / t
        v = (r * (x[:, None] - m) ** 2).sum(axis=0) / t
    return time.perf_counter() - t0


def environment():
    return {
        "backend": kernels.backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "machine": platform.machine(),
    }


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _merge(*lists):
    """First failure reason per run across several checks."""
    return [next((r for r in rs if r), None) for rs in itertools.zip_longest(*lists)]


def _plain_result(root, wl, seed, seconds, work):
    setup_raw, setup = measure_setup(root)
    reps, reasons = [], []
    for k in range(max(MIN_REPS, round(seconds / wl.rep_s))):
        out_dir = os.path.join(work, f"rep{k}")
        rep = run_rep(wl, sweep_seeds(seed, k, wl.n_seeds), out_dir)
        reasons += check_rep(wl, rep)
        reps.append(rep)
        shutil.rmtree(out_dir, ignore_errors=True)
    scaled = [scaled_times(rep) for rep in reps]
    runs = [(r, t) for rep, (_, times) in zip(reps, scaled)
            for r, t in zip(rep.runs, times)]

    def run_times(mantra, raw):
        return _median([r.seconds if raw else t for r, t in runs
                        if r.config.mantra == mantra])

    values = {
        "setup_s": setup,
        "wall_s": _median([wall for wall, _ in scaled]),
        "baseline_run_s": run_times(False, False),
        "treated_run_s": run_times(True, False),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs_failed": sum(r is not None for r in reasons) / len(reasons),
        **quality(reps),
        "setup_raw_s": setup_raw,
        "wall_raw_s": _median([rep.wall for rep in reps]),
        "baseline_run_raw_s": run_times(False, True),
        "treated_run_raw_s": run_times(True, True),
        "ref_loop_s": _median([r.probe for r, _ in runs]),
    }
    return reasons, values, {"reps": len(reps)}


def _traced_result(wl, seed, seconds, work):
    seeds = sweep_seeds(seed, 0, wl.n_seeds)
    reasons, layers, overheads, tracers = [], [], [], []
    for k in range(max(1, round(seconds / (2 * wl.rep_s)))):
        tracer = Tracer()
        plain_dir = os.path.join(work, f"plain{k}")
        traced_dir = os.path.join(work, f"traced{k}")
        # Alternate which rep goes first so that order does not bias the overhead.
        if k % 2:
            traced = run_rep(wl, seeds, traced_dir, tracer)
            plain = run_rep(wl, seeds, plain_dir)
        else:
            plain = run_rep(wl, seeds, plain_dir)
            traced = run_rep(wl, seeds, traced_dir, tracer)
        reasons += check_rep(wl, plain)
        reasons += _merge(check_rep(wl, traced), compare_reps(plain, traced))
        layers.append(layer_metrics(tracer, traced))
        overheads.append(scaled_times(traced)[0] - scaled_times(plain)[0])
        tracers.append(tracer)
        shutil.rmtree(plain_dir, ignore_errors=True)
        shutil.rmtree(traced_dir, ignore_errors=True)
    # Counts repeat exactly across pairs, so median_low keeps them whole.
    values = {name: (statistics.median_low if isinstance(value, int) else
                     statistics.median)(layer[name] for layer in layers)
              for name, value in layers[0].items()}
    values["trace.overhead_s"] = statistics.median(overheads)
    extra = {"reps": len(layers), "ranking": self_time_ranking(tracers[-1]),
             "missing_targets": sorted(set(tracers[-1].missing)),
             "spans": [t.spans for t in tracers]}
    return reasons, values, extra


def run(root, wl, seed, seconds, trace):
    """Run one benchmark result; returns a dict that print_result renders."""
    gated = load_spec(root)["per_layer" if trace else "end_to_end"]
    work = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if trace:
            reasons, values, extra = _traced_result(wl, seed, seconds, work)
        else:
            reasons, values, extra = _plain_result(root, wl, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(r is not None for r in reasons)
    result = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "runs_per_rep": wl.runs_per_rep, "env": environment(), "values": values,
        "failures": sorted({r for r in reasons if r is not None}),
        "correct": failed == 0,
        "attempted": len(reasons),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in gated},
        **extra,
    }
    _save(root, result)
    return result


def _save(root, result):
    out = os.path.join(root, ".perfbench", "results")
    os.makedirs(out, exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
        fh.write("\n")


def _fmt(value):
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_result(result):
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    units.update(REPORTED_UNITS)
    env = result["env"]
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {int(result['trace'])}: {result['reps']} reps of "
          f"{result['runs_per_rep']} runs")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads")
          + " threads=" + ",".join(f"{k}={v}" for k, v in env["threads"].items()))
    for name, value in result["values"].items():
        print(f"  {name:<28} {_fmt(value):>14} {units[name]}")
    print(f"  runs failed: {result['failed']} of {result['attempted']}")
    for reason in result["failures"]:
        print(f"  failure: {reason}")
    if result["trace"]:
        print("self time by span, largest first:")
        for own, name in result["ranking"]:
            print(f"  {name:<28} {own:>14.6f} s")
        for target in result["missing_targets"]:
            print(f"  not traced (absent from the program): {target}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
