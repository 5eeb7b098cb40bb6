"""Acceptance suite for the full pipeline on the seeded benchmark configs.

One test per criterion, each printing a single verdict line (visible with
pytest -v via the test outcome, and in captured output with details).  C6
and C7 judge seeds 1-5 and print a second line, the same statistics on
seeds 6-10, which no verdict reads: a gain that holds on seeds 1-5 only
shows there.  The benchmark runs are deterministic and shared across
criteria (and with the artifact manifest test) through the session run
cache in conftest, which also keeps each run's artifact directory, so the
whole suite stays in CPU-minutes territory.

Criterion 8 (validation-curve smoothness) is known to fail at this scale:
the baseline learner is convex and descends smoothly even under label
noise, while the treated arm necessarily jumps when it sheds its noisy
samples, so the treated arm's curve is the rougher one.  The test states
the criterion as specified and is left to fail honestly rather than being
weakened; see the README's "known failure" note.
"""

import csv
import math

import numpy as np
import pytest

from mantra import data, gmm, learner, metrics
from mantra.runner import ExperimentConfig, compare_runs, run_experiment

from grad_audit import gradient_check, randomized

SEEDS = (1, 2, 3, 4, 5)
HELD_OUT_SEEDS = (6, 7, 8, 9, 10)      # reported beside C6 and C7, never judged
RATES = (0.05, 0.10, 0.15)
EPOCHS = 10


def _verdict(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    return f"[{tag}] {detail}", ok


def _held_out(tag, ok, detail):
    """The same statistics on HELD_OUT_SEEDS: a line, not a verdict."""
    print(f"[{tag}] seeds 6-10, bar {'met' if ok else 'not met'}, not judged: {detail}")


# -- criterion 1: noisy/clean loss separation --------------------------------

def test_criterion_1_loss_separation(bench_run):
    gaps = {}
    ok = True
    for task in ("classification", "summarization"):
        for rate in RATES:
            report = bench_run(task=task, seed=1, noise_rate=rate, mantra=False)
            means = report.group_means
            gap = {e: means[e]["noisy"] - means[e]["clean"] for e in sorted(means)}
            separated = all(gap[e] > 0 for e in range(2, EPOCHS + 1))
            widening = gap[EPOCHS] > gap[2]
            gaps[(task[:3], rate)] = (gap[2], gap[EPOCHS])
            ok = ok and separated and widening
    detail = "noisy-minus-clean mean loss gap (epoch2 -> epoch10): " + ", ".join(
        f"{t}@{r:g}: {g2:.3f}->{g10:.3f}" for (t, r), (g2, g10) in gaps.items())
    line, ok = _verdict("C1 loss separation", ok, detail)
    assert ok, line


# -- criterion 2: bimodality of the loss distribution ------------------------

def _ashman_d(model):
    """Ashman's D of a fit's two highest-mean components, 0 for one component.

    D = sqrt(2)|mu1 - mu2| / sqrt(var1 + var2); two components of equal
    weight and variance make a bimodal mixture exactly when D > 2 (Ashman,
    Bird & Zepf, AJ 108, 1994).  A fit's means ascend.
    """
    if model.k < 2:
        return 0.0
    (m1, m2), (v1, v2) = model.means[-2:], model.variances[-2:]
    return math.sqrt(2.0) * abs(m2 - m1) / math.sqrt(v1 + v2)


def test_criterion_2_loss_bimodality(run_cache):
    hits = 0
    per_seed = []
    for seed in SEEDS:
        report, out = run_cache.get(task="classification", seed=seed,
                                    noise_rate=0.15, mantra=False)
        losses_by_epoch = {}
        with (out / "trajectory.csv").open() as fh:
            for row in csv.DictReader(fh):
                losses_by_epoch.setdefault(int(row["epoch"]), []).append(
                    float(row["loss"]))
        ks, ds = [], []
        warmup = report.config["warmup"]
        for epoch in range(warmup, EPOCHS + 1):
            model, _ = gmm.select_model(np.log1p(losses_by_epoch[epoch]), k_max=3)
            ks.append(model.k)
            ds.append(_ashman_d(model))
        per_seed.append((min(ks), min(ds)))
        hits += min(ks) >= 2 and min(ds) > 2.0
    line, ok = _verdict(
        "C2 loss bimodality", hits >= 4,
        f"BIC K>=2 with Ashman's D>2 of the top two components at every epoch "
        f"{warmup}-{EPOCHS} (last warmup epoch on) in {hits}/5 seeds "
        f"(min K per seed: {[k for k, _ in per_seed]}, "
        f"min D per seed: {', '.join(f'{d:.2f}' for _, d in per_seed)}; need >=4)")
    assert ok, line


# -- criterion 3: mixture fitting behaves ------------------------------------

def _seeded_em_input(i):
    rng = np.random.default_rng([1000, i])
    kind = i % 4
    n = int(rng.integers(50, 500))
    if kind == 0:
        return rng.normal(rng.uniform(-1, 3), rng.uniform(0.1, 1.5), n)
    if kind == 1:
        n1 = int(0.7 * n)
        return np.concatenate([rng.normal(0.3, 0.05, n1), rng.normal(2.0, 0.3, n - n1)])
    if kind == 2:
        return rng.lognormal(0.0, rng.uniform(0.3, 0.9), n)
    return np.round(rng.exponential(0.4, n), 2)


def test_criterion_3_em_and_bic(seeded_fits):
    worst_step = 0.0
    for *_, untargeted in seeded_fits:      # fit_em(_seeded_em_input(i), K) for K = 1..5
        for fit in untargeted[:3]:
            trace = np.asarray(fit.ll_trace)
            if trace.size > 1:
                worst_step = min(worst_step, float(np.diff(trace).min()))
    monotone = worst_step >= -1e-9

    rng = np.random.default_rng(0)
    obs = np.concatenate([rng.normal(0.3, 0.05, 1400), rng.normal(2.0, 0.3, 600)])
    rng.shuffle(obs)
    model = gmm.fit_em(obs, 2)
    recovered = (abs(model.weights[0] - 0.7) <= 0.03
                 and abs(model.means[0] - 0.3) <= 0.02
                 and abs(model.means[1] - 2.0) <= 0.06)

    uni_hits = bi_hits = 0
    for rep in range(20):
        r = np.random.default_rng([2000, rep])
        uni_hits += gmm.select_model(r.normal(1.0, 0.5, 2000), k_max=3)[0].k == 1
        bi = np.concatenate([r.normal(0.3, 0.05, 1400), r.normal(2.0, 0.3, 600)])
        bi_hits += gmm.select_model(bi, k_max=3)[0].k == 2
    orders = uni_hits >= 19 and bi_hits >= 19

    line, ok = _verdict(
        "C3 mixture fitting", monotone and recovered and orders,
        f"EM min ll step {worst_step:.2e} (>= -1e-9); recovery "
        f"w0={model.weights[0]:.3f} m0={model.means[0]:.3f} m1={model.means[1]:.3f}; "
        f"BIC order K=1 {uni_hits}/20, K=2 {bi_hits}/20 (need >=19)")
    assert ok, line


# -- criterion 4: closed-form metric oracles ---------------------------------

def test_criterion_4_metric_oracles():
    checks = {
        "bic": abs(gmm.bic_value(-100.0, 2, 1000) - 234.5388) < 1e-4,
        "micro_f1": abs(metrics.micro_f1_from_counts(3, 1, 2) - 0.666667) < 1e-6,
        "bleu_clip": abs(
            metrics.bleu4(*data._pad([[0] * 7]), *data._pad([[0, 1, 2, 3, 0, 4]]))
            - ((2 / 7) * (1 / 7) * (1 / 6) * (1 / 5)) ** 0.25) < 1e-12,
        "bleu_identity": metrics.bleu4(*data._pad([[1, 2, 3], [4, 5]]),
                                       *data._pad([[1, 2, 3], [4, 5]])) == 1.0,
    }
    cls_loss = learner.per_sample_losses(
        learner.new_classifier(16),
        data.generate_classification_dataset(1, 10, 1, 1, d=16).train)
    checks["zero_init_cls"] = bool(np.all(np.abs(cls_loss - math.log(2)) < 1e-9))
    seq_loss = learner.per_sample_losses(
        learner.new_seq2seq(),
        data.generate_summarization_dataset(1, 10, 1, 1).train)
    checks["zero_init_seq"] = bool(np.all(np.abs(seq_loss - math.log(42)) < 1e-9))

    failed = [name for name, good in checks.items() if not good]
    line, ok = _verdict("C4 metric oracles", not failed,
                        "all closed-form oracles hit" if not failed
                        else f"failed: {failed}")
    assert ok, line


# -- criterion 5: analytic gradients -----------------------------------------

def test_criterion_5_gradient_audit():
    worst = 0.0
    for seed in SEEDS:
        cls_model = randomized(learner.new_classifier(16), 0.5, seed)
        cls_samples = data.generate_classification_dataset(
            seed, 5, 1, 1, d=16).train
        rep = gradient_check(cls_model, cls_samples, h=1e-5)
        worst = max(worst, rep.max_rel_error)

        seq_model = randomized(learner.new_seq2seq(), 0.2, seed)
        seq_samples = data.generate_summarization_dataset(seed, 5, 1, 1).train
        rep = gradient_check(seq_model, seq_samples, h=1e-5)
        worst = max(worst, rep.max_rel_error)
    line, ok = _verdict(
        "C5 gradient audit", worst < 1e-4,
        f"max relative error {worst:.2e} over 5 models x 5 samples per learner "
        "(tolerance 1e-4)")
    assert ok, line


# -- criterion 6: detection quality and the clean-data guard -----------------

def _detection_quality(bench_run, seeds):
    lines = []
    ok = True
    for rate in (0.10, 0.15):
        lifts, recalls = [], []
        for seed in seeds:
            det = bench_run(task="classification", seed=seed, noise_rate=rate,
                            mantra=True).detection
            lifts.append(det["lift"])
            recalls.append(det["recall"])
        good = all(l is not None and l >= 3 for l in lifts) and \
            all(r is not None and r >= 0.5 for r in recalls)
        ok = ok and good
        lines.append(f"rate {rate:g}: lift {min(lifts):.2f}-{max(lifts):.2f}, "
                     f"recall {min(recalls):.3f}-{max(recalls):.3f}")

    drops = [bench_run(task="classification", seed=seed, noise_rate=0.0,
                       mantra=True).dropped_total for seed in seeds]
    clean_ok = all(d <= 0.02 * 700 for d in drops)
    ok = ok and clean_ok
    lines.append(f"clean-run drops {drops} (cap 2% = 14)")
    return ok, "; ".join(lines)


def test_criterion_6_detection_quality(bench_run):
    line, ok = _verdict("C6 detection quality", *_detection_quality(bench_run, SEEDS))
    _held_out("C6 detection quality", *_detection_quality(bench_run, HELD_OUT_SEEDS))
    assert ok, line


# -- criterion 7: robustness recovery ----------------------------------------

def _robustness_recovery(bench_run, seeds):
    details = []
    ok = True
    for task in ("classification", "summarization"):
        wins = 0
        degs = []
        for seed in seeds:
            # judged on what `mantra compare` prints for the pair and its clean runs
            cmp = compare_runs(*(
                bench_run(task=task, seed=seed, noise_rate=rate, mantra=mantra_on)
                for rate, mantra_on in ((0.15, False), (0.15, True),
                                        (0.0, False), (0.0, True))))
            degs.append((cmp["baseline_degradation"], cmp["mantra_degradation"]))
            wins += cmp["recovered"]
        ok = ok and wins >= 4
        details.append(
            f"{task[:3]}: {wins}/5 seeds with smaller degradation-from-clean "
            "(" + ", ".join(f"{b:.4f}>{t:.4f}" if t < b else f"{b:.4f}<={t:.4f}"
                            for b, t in degs) + ")")
    return ok, "; ".join(details)


def test_criterion_7_robustness_recovery(bench_run):
    line, ok = _verdict("C7 robustness recovery", *_robustness_recovery(bench_run, SEEDS))
    _held_out("C7 robustness recovery", *_robustness_recovery(bench_run, HELD_OUT_SEEDS))
    assert ok, line


# -- criterion 8: validation-curve smoothness (known failure) ----------------

def test_criterion_8_curve_smoothness(bench_run):
    wins = 0
    pairs = []
    for seed in SEEDS:
        base, treat = (bench_run(task="classification", seed=seed, noise_rate=0.15,
                                 mantra=mantra_on) for mantra_on in (False, True))
        warmup = base.config["warmup"]          # the pair shares it

        def roughness(report):
            vals = report.val_metrics[warmup - 1:]       # epochs warmup..10
            return float(np.abs(np.diff(vals)).sum())

        tv_base, tv_treat = roughness(base), roughness(treat)
        pairs.append((tv_base, tv_treat))
        wins += tv_treat < tv_base
    line, ok = _verdict(
        "C8 curve smoothness", wins >= 4,
        f"{wins}/5 seeds with smaller summed |val-F1 delta| over epochs "
        f"{warmup}..10 (baseline vs treated: "
        + ", ".join(f"{b:.4f}/{t:.4f}" for b, t in pairs)
        + "); the treated arm's post-drop recovery jump exceeds the convex "
          "baseline's curvature at this scale, so this criterion does not "
          "hold here and is reported as a failure by design")
    assert ok, line


# -- criterion 9: determinism and bookkeeping hygiene ------------------------

def test_criterion_9_determinism_and_hygiene(bench_run, run_dir_bytes, tmp_path):
    identical = True
    for task in ("classification", "summarization"):
        dirs = []
        for attempt in ("x", "y"):
            out = tmp_path / f"{task}_{attempt}"
            run_experiment(ExperimentConfig(task=task, seed=1, noise_rate=0.15,
                                            mantra=True), out_dir=str(out))
            dirs.append(run_dir_bytes(out))
        identical = identical and dirs[0] == dirs[1]

    hygiene = True
    notes = []
    for task, n_train in (("classification", 700), ("summarization", 1000)):
        for rate in (0.0, 0.15):
            for seed in SEEDS:
                report = bench_run(task=task, seed=seed, noise_rate=rate, mantra=True)
                cfg = report.config
                train_ids = set(range(n_train))
                dropped = set(report.dropped_ids)
                event_ids = [e["sample_id"] for e in report.drop_events]
                good = (
                    dropped <= train_ids
                    and len(event_ids) == len(set(event_ids)) == len(dropped)
                    and report.dropped_total <= math.floor(0.3 * n_train)
                    and all(e["epoch"] > cfg["warmup"] for e in report.drop_events)
                    and sum(report.dropped_per_epoch.values()) == report.dropped_total
                )
                if not good:
                    hygiene = False
                    notes.append(f"{task[:3]} r{rate:g} s{seed}")
    line, ok = _verdict(
        "C9 determinism and hygiene", identical and hygiene,
        ("reruns byte-identical modulo runtime" if identical
         else "rerun artifacts diverged")
        + ("; drop bookkeeping within bounds on all treated runs" if hygiene
           else f"; hygiene violations: {notes}"))
    assert ok, line
