"""Experiment orchestration: paired noisy-label runs and their artifacts.

One run = dataset (synthetic or file) -> noise injection on train ->
epoch loop.  Within an epoch the order is fixed and matters: train on the
active set, score per-sample losses on that same active set, record the
trajectory, then (treated arm only) let the scheduler decide drops that
take effect from the next epoch, and finally compute the validation
metric.  The baseline arm runs the identical loop with the scheduler
bypassed, so a baseline/treated pair differing only in the `mantra` flag
shares its dataset, noise mask, initialization, and shuffle order.

Reports serialize to results.json deterministically: reruns of the same
config are byte-identical except for the runtime field.
"""

import csv
import dataclasses
import itertools
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels, learner, metrics, noise, scheduler
from .data import (generate_classification_dataset,
                   generate_summarization_dataset, load_jsonl)
from .errors import ConfigError, MantraError, SchemaError, UsageError
from .trajectory import TrajectoryStore

TASK_ALIASES = {"cls": "classification", "sum": "summarization",
                "classification": "classification", "summarization": "summarization"}
DEFAULT_WARMUP = {"classification": 5, "summarization": 3}
DEFAULT_SIZES = {"classification": (700, 85, 88), "summarization": (1000, 100, 100)}
DEFAULT_DIM = 16


@dataclass
class ExperimentConfig:
    task: str
    seed: int = 1
    noise_rate: float = 0.0
    epochs: int = 10
    mantra: bool = True
    warmup: int | None = None
    tau: float = 0.7
    persistence: int = 2
    max_drop_frac: float = 0.3
    k_max: int = 3
    transform: str = "log1p"
    window: int = 1
    lr: float | None = None
    batch_size: int = 32
    init_scale: float = 0.0
    noise_mode: str = "replace-set"
    data: str = "synthetic"
    vocab: str | None = None
    n_train: int | None = None
    n_val: int | None = None
    n_test: int | None = None
    n_features: int = DEFAULT_DIM
    hist_bins: int = 30

    def __post_init__(self):
        if self.task not in TASK_ALIASES:
            raise ConfigError(f"task must be one of {sorted(TASK_ALIASES)}")
        self.task = TASK_ALIASES[self.task]
        if self.warmup is None:
            self.warmup = DEFAULT_WARMUP[self.task]
        if self.lr is None:
            self.lr = learner.DESK_LR[self.task]
        sizes = DEFAULT_SIZES[self.task]
        if self.n_train is None:
            self.n_train = sizes[0]
        if self.n_val is None:
            self.n_val = sizes[1]
        if self.n_test is None:
            self.n_test = sizes[2]
        self.validate()

    def validate(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not (0 <= self.warmup < self.epochs):
            raise ConfigError(
                f"warmup must satisfy 0 <= warmup < epochs, got {self.warmup} "
                f"with {self.epochs} epochs")
        if not (0.0 <= self.noise_rate <= 1.0):
            raise ConfigError(f"noise rate must lie in [0, 1], got {self.noise_rate}")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise ConfigError("split sizes must be positive")
        if self.hist_bins < 1:
            raise ConfigError("hist_bins must be >= 1")
        # Policy knobs get the same scrutiny even when the scheduler is off,
        # so a baseline config cannot hide a bad treated config.
        self.drop_policy().validate()
        return self

    def drop_policy(self):
        return scheduler.DropPolicy(
            warmup=self.warmup, tau=self.tau, persistence=self.persistence,
            max_drop_frac=self.max_drop_frac, k_max=self.k_max,
            transform=self.transform, window=self.window)

    def as_dict(self):
        return dataclasses.asdict(self)


@dataclass
class RunReport:
    config: dict
    metric_name: str
    test_metric: float
    val_metrics: list
    group_means: dict                  # epoch -> {"clean": .., "noisy": ..}
    detection: dict
    dropped_total: int
    dropped_ids: list
    dropped_per_epoch: dict            # epoch -> count
    drop_events: list = field(default_factory=list)   # per-drop detail rows
    gmm_trace: list = field(default_factory=list)
    label_repairs: int | None = None
    prior_drift: dict | None = None
    backend: str = ""
    runtime_sec: float = 0.0

    def as_dict(self):
        return dataclasses.asdict(self)

    def save_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")


def _load_dataset(config):
    if config.data == "synthetic":
        if config.task == "classification":
            return generate_classification_dataset(
                config.seed, n_train=config.n_train, n_val=config.n_val,
                n_test=config.n_test, d=config.n_features)
        return generate_summarization_dataset(
            config.seed, n_train=config.n_train, n_val=config.n_val,
            n_test=config.n_test)
    return load_jsonl(config.data, config.task, vocab_path=config.vocab)


def _inject(config, train):
    if config.task == "classification":
        return noise.inject_label_noise(train, config.noise_rate, config.seed,
                                        mode=config.noise_mode)
    return noise.inject_summary_noise(train, config.noise_rate, config.seed)


def _new_model(config, dataset):
    if config.task == "classification":
        d = dataset.meta.get("n_features") or dataset.train[0].features.shape[0]
        return learner.new_classifier(d, init_scale=config.init_scale,
                                      seed=config.seed)
    meta = dataset.meta
    return learner.new_seq2seq(
        n_tgt=meta["n_tgt_vocab"], n_src=meta["n_src_vocab"],
        bos=meta["bos"], eos=meta["eos"],
        init_scale=config.init_scale, seed=config.seed)


def _eval_metric(config, model, split):
    pred = learner.predict(model, split)
    if config.task == "classification":
        return metrics.micro_f1(split.y, pred)
    refs = [t[:n - 1] for t, n in zip(split.tgt, split.tgt_len)]   # EOS stripped
    return metrics.bleu4(pred, refs)


def run_experiment(config, out_dir=None):
    """Execute one configured run and optionally write its artifact set."""
    t0 = time.perf_counter()
    dataset = _load_dataset(config)
    if not dataset.train:
        raise ConfigError("training split is empty")
    if not (dataset.validation and dataset.test):
        raise ConfigError("cannot evaluate on an empty split")
    train, mask = _inject(config, dataset.train)
    train = learner.pack(train)
    if not np.array_equal(mask.ids, train.ids):
        raise MantraError("noise mask ids are not aligned with the train split")
    val, test = learner.pack(dataset.validation), learner.pack(dataset.test)
    corrupted = mask.corrupted_ids

    model = _new_model(config, dataset)
    train_cfg = learner.TrainConfig(lr=config.lr, batch_size=config.batch_size,
                                    shuffle_seed=config.seed)
    policy = config.drop_policy()
    state = scheduler.DropState.for_ids(train.ids)
    store = TrajectoryStore()

    val_metrics = []
    dropped_per_epoch = {}
    drop_events = []
    gmm_trace = []
    positions = np.arange(len(train))
    for epoch in range(1, config.epochs + 1):
        rows = scheduler.active_samples(state, positions) if config.mantra else positions
        # no copy while nothing is dropped: it would only raise peak memory
        active = train if len(rows) == len(train) else train.take(rows)
        learner.train_epoch(model, active, train_cfg, epoch)
        losses = learner.per_sample_losses(model, active)
        store.record_epoch(epoch, active.ids, losses, mask.corrupted[rows])
        n_dropped = 0
        if config.mantra:
            decision = scheduler.evaluate_epoch(state, policy, epoch, active.ids, losses)
            n_dropped = len(decision.dropped)
            for sid, posterior in decision.dropped:
                drop_events.append({
                    "epoch": epoch, "sample_id": sid, "posterior": posterior,
                    "was_noisy": sid in corrupted,
                })
            for row in decision.gmm_trace:
                gmm_trace.append({"epoch": epoch, **row})
        dropped_per_epoch[epoch] = n_dropped
        val_metrics.append(_eval_metric(config, model, val))

    test_metric = _eval_metric(config, model, test)
    dropped_ids = sorted(state.dropped)
    detection = metrics.detection_report(dropped_ids, mask)

    report = RunReport(
        config=config.as_dict(),
        metric_name="micro_f1" if config.task == "classification" else "bleu4",
        test_metric=test_metric,
        val_metrics=val_metrics,
        group_means=store.group_means(),
        detection=detection.as_dict(),
        dropped_total=len(dropped_ids),
        dropped_ids=dropped_ids,
        dropped_per_epoch=dropped_per_epoch,
        drop_events=drop_events,
        gmm_trace=gmm_trace,
        label_repairs=dataset.meta.get("label_repairs"),
        prior_drift=mask.prior_drift or None,
        backend=kernels.backend(),
        runtime_sec=time.perf_counter() - t0,
    )
    if out_dir is not None:
        _write_artifacts(out_dir, config, report, store, mask, model)
    return report


def _write_artifacts(out_dir, config, report, store, mask, model):
    os.makedirs(out_dir, exist_ok=True)
    report.save_json(os.path.join(out_dir, "results.json"))
    learner.save_model(model, os.path.join(out_dir, "model.ckpt.json"))
    store.save_csv(os.path.join(out_dir, "trajectory.csv"))
    store.save_group_means_csv(os.path.join(out_dir, "group_means.csv"))
    for epoch in store.epochs:
        store.save_histogram_csv(
            os.path.join(out_dir, f"density_e{epoch}.csv"), epoch,
            bins=config.hist_bins)
    mask.save_csv(os.path.join(out_dir, "noise_mask.csv"))
    with open(os.path.join(out_dir, "drops.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "sample_id", "posterior", "was_noisy"])
        for row in report.drop_events:
            writer.writerow([row["epoch"], row["sample_id"],
                             repr(row["posterior"]), int(row["was_noisy"])])
    with open(os.path.join(out_dir, "gmm_trace.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "k", "log_likelihood", "bic", "n_iter",
                         "converged", "degenerate", "selected", "weights", "means",
                         "variances"])
        for row in report.gmm_trace:
            writer.writerow([
                row["epoch"], row["k"], repr(row["log_likelihood"]),
                repr(row["bic"]), row["n_iter"], int(row["converged"]),
                int(row["degenerate"]), int(row["selected"]),
                ";".join(repr(x) for x in row["weights"]),
                ";".join(repr(x) for x in row["means"]),
                ";".join(repr(x) for x in row["variances"]),
            ])


_REPORT_FIELDS = ("metric_name", "test_metric", "dropped_total", "detection")
_CONFIG_FIELDS = ("task", "seed", "noise_rate", "mantra")


def _as_report_dict(report):
    """A report as a dict; SchemaError names the first field compare_runs lacks."""
    if isinstance(report, RunReport):
        return report.as_dict()
    where = "report"
    if not isinstance(report, dict):
        where = os.fspath(report)
        with open(report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    if not isinstance(report, dict):
        raise SchemaError(f"{where}: a report must be a JSON object")
    if not isinstance(report.get("config"), dict):
        raise SchemaError(f"{where}: missing object field 'config'")
    missing = [k for k in _REPORT_FIELDS if k not in report] + [
        f"config.{k}" for k in _CONFIG_FIELDS if k not in report["config"]]
    if missing:
        raise SchemaError(f"{where}: missing field {missing[0]!r}")
    return report


def compare_runs(report_a, report_b, clean_a=None, clean_b=None):
    """Pair a baseline run with its treated twin and summarize the contrast.

    The two reports must share task, seed, and noise rate and differ only in
    the mantra flag.  When clean (noise-free) reference reports are supplied,
    per-arm degradation-from-clean is included; clean_a serves both arms if
    clean_b is omitted.
    """
    a = _as_report_dict(report_a)
    b = _as_report_dict(report_b)
    for key in ("task", "seed", "noise_rate"):
        if a["config"][key] != b["config"][key]:
            raise ConfigError(f"runs disagree on {key}: "
                              f"{a['config'][key]!r} vs {b['config'][key]!r}")
    if a["config"]["mantra"] == b["config"]["mantra"]:
        raise ConfigError("need one baseline and one treated run, got two "
                          f"with mantra={a['config']['mantra']}")
    baseline, treated = (a, b) if not a["config"]["mantra"] else (b, a)

    out = {
        "task": a["config"]["task"],
        "seed": a["config"]["seed"],
        "noise_rate": a["config"]["noise_rate"],
        "metric_name": baseline["metric_name"],
        "baseline_test_metric": baseline["test_metric"],
        "mantra_test_metric": treated["test_metric"],
        "metric_delta": treated["test_metric"] - baseline["test_metric"],
        "mantra_dropped": treated["dropped_total"],
        "detection": treated["detection"],
        "baseline_degradation": None,
        "mantra_degradation": None,
        "recovered": None,
    }
    if clean_a is not None:
        clean_base = _as_report_dict(clean_a)
        clean_treat = _as_report_dict(clean_b) if clean_b is not None else clean_base
        out["baseline_degradation"] = clean_base["test_metric"] - baseline["test_metric"]
        out["mantra_degradation"] = clean_treat["test_metric"] - treated["test_metric"]
        out["recovered"] = out["mantra_degradation"] < out["baseline_degradation"]
    return out


def run_grid(base_config, rates, seeds, out_dir=None):
    """Cartesian sweep over noise rates x seeds x {baseline, treated}.

    Returns the list of RunReports in sweep order.  With out_dir set, each
    run writes its artifacts under a nested directory and a summary.csv
    lands at the grid root.
    """
    if not rates or not seeds:
        raise UsageError("grid needs at least one rate and one seed")
    # Each arm writes to a {rate:g} / seed directory, so repeats would collide.
    labels = [f"{rate:g}" for rate in rates]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"grid rates must be distinct, got {', '.join(labels)}")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"grid seeds must be distinct, got {seeds}")
    reports = []
    rows = []
    for rate, seed, mantra_on in itertools.product(rates, seeds, (False, True)):
        cfg_kwargs = base_config.as_dict()
        cfg_kwargs.update(noise_rate=rate, seed=seed, mantra=mantra_on)
        config = ExperimentConfig(**cfg_kwargs)
        run_dir = None
        if out_dir is not None:
            arm = "mantra" if mantra_on else "baseline"
            run_dir = os.path.join(
                out_dir, f"{config.task}_r{rate:g}_s{seed}_{arm}")
        report = run_experiment(config, out_dir=run_dir)
        reports.append(report)
        rows.append([
            config.task, f"{rate:g}", seed, "on" if mantra_on else "off",
            repr(report.test_metric), report.dropped_total,
            _fmt_optional(report.detection["precision"]),
            _fmt_optional(report.detection["recall"]),
        ])
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "summary.csv"), "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["task", "rate", "seed", "mantra", "test_metric",
                             "dropped", "det_precision", "det_recall"])
            writer.writerows(rows)
    return reports


def _fmt_optional(value):
    return "" if value is None else repr(value)
