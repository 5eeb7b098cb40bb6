"""Experiment orchestration: paired noisy-label runs and their artifacts.

One run = dataset (synthetic or file) -> noise injection on train ->
epoch loop.  Within an epoch the order is fixed and matters: train on the
active set, score per-sample losses on that same active set and the
validation metric, record the trajectory, then (treated arm only) let the
scheduler decide drops that take effect from the next epoch.  The baseline
arm runs the identical loop with the scheduler bypassed, so a
baseline/treated pair differing only in the `mantra` flag shares its
dataset, corruption flags, initialization, and shuffle order, and trains
the same model until the treated arm's first drop takes effect.

run_grid computes that shared prefix once.  The baseline arm keeps its
dataset, noisy train split and corruption flags (all read-only), and
records one row per epoch: its losses, validation metric and parameter
copies.  The treated arm takes the dataset, split and flags as they are.
At each epoch it starts with nothing dropped, it takes that epoch's row
and restores its parameters instead of training; it still runs every
mixture fit and drop decision itself.  So the model it holds is the
baseline's at every replayed epoch, and what it does next (train on a
reduced set, or compute its test metric) it does exactly as a run alone
would.  When it writes artifacts, its replayed epochs' trajectory rows are
cut from one read of the baseline's file and their density files copied;
it formats its own epochs and every other file, noise_mask.csv included.
Every report and artifact of either arm equals that of the same config run
alone, runtime_sec aside.
The scheduler's DropState is the run's one drop record: the report's drop
events, dropped ids and detection scores are all read off it by train
position once the loop is over.

Reports serialize to results.json deterministically: reruns of the same
config are byte-identical except for the runtime field.  The report's
per-row tables are written as CSVs only, but some facts are stated twice:
results.json's drop total and detection follow from drops.csv and
noise_mask.csv, group_means.csv from trajectory.csv and noise_mask.csv,
and each density_e*.csv from trajectory.csv alone.
"""

import dataclasses
import fnmatch
import itertools
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from . import learner, metrics, noise, scheduler
from .data import (generate_classification_dataset,
                   generate_summarization_dataset, load_jsonl, target_layout)
from .errors import ConfigError, SchemaError
from .trajectory import TrajectoryStore, float_cell, write_csv

TASK_ALIASES = {"cls": "classification", "sum": "summarization",
                "classification": "classification", "summarization": "summarization"}
# The settings whose default depends on the task, calibrated on the seeded
# benchmark configs: the classifier needs its clean losses concentrated by
# the end of warmup or the mixture step starts splitting the clean tail, and
# the sequence model needs a rate high enough that greedy decodes reach
# reference length within 10 epochs.  The objectives are convex, so the
# large sequence rate is stable (loss descent is checked in the tests).
TASK_DEFAULTS = {
    "classification": {"warmup": 5, "lr": 0.5, "n_train": 700, "n_val": 85, "n_test": 88},
    "summarization": {"warmup": 3, "lr": 16.0, "n_train": 1000, "n_val": 100, "n_test": 100},
}
DEFAULT_DIM = 16
# Settings of synthetic data only: a file run leaves them None, echoed as null.
SYNTHETIC_SIZES = ("n_train", "n_val", "n_test", "n_features")


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(scheduler.DropPolicy):
    """One run's settings, keyword-only, each with its default and its checks.

    Frozen like the scheduler.DropPolicy it extends, so a run config is its
    own drop policy: the policy knobs are declared there, and as_dict()
    stays flat.  A variant is dataclasses.replace(config, ...), which checks
    it like a built one.  Only warmup is redeclared, because its default
    depends on the task: a setting left None takes its value from the
    task's TASK_DEFAULTS row, and n_features from DEFAULT_DIM (the sizes
    and n_features on synthetic data only).  A variant keeps those values
    even when task changes, as a config cannot tell a derived value from a
    given one: build a config for another task as ExperimentConfig(task=...).
    It is also the training schedule: learner.train_epoch reads lr,
    batch_size and seed off it.
    Models start with every parameter +0.0 (learner's constructors), the
    density exports use trajectory.HIST_BINS bins, and the mixture is fit
    to np.log1p of one epoch's losses (scheduler): no run varies them.
    """
    task: str
    seed: int = 1
    noise_rate: float = 0.0
    epochs: int = 10
    mantra: bool = True
    warmup: int | None = None
    lr: float | None = None
    batch_size: int = 32
    data: str = "synthetic"
    vocab: str | None = None
    n_train: int | None = None
    n_val: int | None = None
    n_test: int | None = None
    n_features: int | None = None

    def __post_init__(self):
        if self.task not in TASK_ALIASES:
            raise ConfigError(f"task must be one of {sorted(TASK_ALIASES)}")
        # The task-derived defaults, set before any check reads them.
        object.__setattr__(self, "task", TASK_ALIASES[self.task])
        for name, value in {**TASK_DEFAULTS[self.task], "n_features": DEFAULT_DIM}.items():
            # a dataset file sets its own sizes, so a file run leaves them None
            if getattr(self, name) is None and (
                    self.data == "synthetic" or name not in SYNTHETIC_SIZES):
                object.__setattr__(self, name, value)
        # The types and the policy knobs, checked even when the scheduler is
        # off, so a baseline config cannot hide a bad treated config.
        super().__post_init__()
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.warmup >= self.epochs:
            raise ConfigError(
                f"warmup must satisfy 0 <= warmup < epochs, got {self.warmup} "
                f"with {self.epochs} epochs")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 <= self.noise_rate <= 1.0):
            raise ConfigError(f"noise rate must lie in [0, 1], got {self.noise_rate}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.task == "summarization" and self.n_features not in (None, DEFAULT_DIM):
            raise ConfigError("n_features applies to classification only; "
                              "a summarization run keeps its default")
        if self.data != "synthetic":
            given = [name for name in SYNTHETIC_SIZES if getattr(self, name) is not None]
            if given:
                raise ConfigError(f"{', '.join(given)}: set by the dataset file "
                                  f"{self.data}, not by the config")
        elif self.vocab is not None:
            raise ConfigError("vocab applies to a dataset file, not to synthetic data")
        elif min(getattr(self, name) for name in SYNTHETIC_SIZES) < 1:
            raise ConfigError("split sizes and n_features must be positive")

    def as_dict(self):
        return dataclasses.asdict(self)


# RunReport fields whose rows are a CSV of the run directory, so results.json
# leaves them out: drops.csv, gmm_trace.csv, group_means.csv, and drops.csv's
# sample_id column.
CSV_FIELDS = ("drop_events", "gmm_trace", "group_means", "dropped_ids")


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
    drop_events: list = field(default_factory=list)   # per-drop detail rows
    gmm_trace: list = field(default_factory=list)
    label_repairs: int | None = None
    runtime_sec: float = 0.0

    def as_dict(self):
        return dataclasses.asdict(self)

    def save_json(self, path):
        # The fields hold only JSON values, so no deep copy is needed to dump them.
        fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                  if f.name not in CSV_FIELDS}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(fields, sort_keys=True, indent=2) + "\n")


@dataclass
class _PairPrefix:
    """A grid baseline arm's inputs, epochs and files, for its treated twin to reuse."""
    config: ExperimentConfig         # the treated twin's config
    inputs: tuple | None = None      # (dataset, noisy train split, corruption flags), read-only
    run_dir: str | None = None       # where the baseline wrote its artifacts, if anywhere
    # one row per epoch: (losses of the whole split, validation metric, parameter copies)
    epochs: list = field(default_factory=list)


# The pair run_grid is running.  A slot, not an argument, because
# run_experiment(config, out_dir=None) is the per-arm call that the
# benchmark wraps to time and check each arm; only run_grid sets it.
_pair_prefix = None


def _prepare(config):
    """The run's dataset, its noisy train split and that split's corruption flags."""
    dataset = _load_dataset(config)
    if not dataset.train:
        raise ConfigError("training split is empty")
    if not (dataset.validation and dataset.test):
        raise ConfigError("cannot evaluate on an empty split")
    return (dataset, *_inject(config, dataset))


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


def _inject(config, dataset):
    if config.task == "classification":
        return noise.inject_label_noise(dataset.train, config.noise_rate, config.seed)
    return noise.inject_summary_noise(dataset.train, config.noise_rate, config.seed,
                                      target_layout(dataset.meta["n_tgt_vocab"])[0])


def _new_model(config, dataset):
    """The run's zero-initialised model, its widths read off the train arrays."""
    train = dataset.train
    if config.task == "classification":
        return learner.new_classifier(train.x.shape[1])
    return learner.new_seq2seq(n_tgt=dataset.meta["n_tgt_vocab"],
                               n_src=train.src_counts.shape[1])


def _eval_metric(config, model, split):
    pred = learner.predict(model, split)
    if config.task == "classification":
        return metrics.micro_f1(split.y, pred)
    return metrics.bleu4(*pred, split.tgt, split.tgt_len - 1)     # EOS stripped


def run_experiment(config, out_dir=None):
    """Execute one configured run and optionally write its artifact set.

    out_dir is made (os.makedirs) before any work, so a path the OS refuses
    raises its OSError at once; a run that fails later leaves it behind.
    """
    t0 = time.perf_counter()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    pair = _pair_prefix
    if pair is not None and pair.config != dataclasses.replace(config, mantra=True):
        pair = None
    record = pair if pair is not None and not config.mantra else None
    replay = pair if pair is not None and config.mantra else None

    dataset, train, corrupted = replay.inputs if replay is not None else _prepare(config)
    model = _new_model(config, dataset)
    state = scheduler.DropState.for_size(len(train))
    store = TrajectoryStore(train.ids, corrupted, config.epochs)
    if record is not None:
        record.inputs, record.run_dir = (dataset, train, corrupted), out_dir

    val_metrics = []
    gmm_trace = []
    replayed = 0          # leading epochs taken whole from the baseline
    every_row = np.arange(len(train))     # the baseline arm's active rows, every epoch
    for epoch in range(1, config.epochs + 1):
        rows = scheduler.active_samples(state) if config.mantra else every_row
        # no copy while nothing is dropped: it would only raise peak memory
        active = train if len(rows) == len(train) else train.take(rows)
        if replay is not None and active is train:
            # nothing dropped yet: this epoch is the baseline's, so take it whole
            replayed = epoch
            losses, val_metric, params = replay.epochs[epoch - 1]
            for dst, src in zip(learner.param_arrays(model), params):
                dst[...] = src
        else:
            learner.train_epoch(model, active, config, epoch)
            losses = learner.per_sample_losses(model, active)
            val_metric = _eval_metric(config, model, dataset.validation)
        val_metrics.append(val_metric)
        store.record_epoch(epoch, rows, losses)
        if config.mantra:
            decision = scheduler.evaluate_epoch(state, config, epoch, losses)
            for row in decision.gmm_trace:
                gmm_trace.append({"epoch": epoch, **row})
        if record is not None:
            # plain copies: copy.deepcopy of the model costs several times more
            record.epochs.append(
                (losses, val_metric, [a.copy() for a in learner.param_arrays(model)]))

    test_metric = _eval_metric(config, model, dataset.test)
    # The baseline arm never drops, so its drop fields come out empty.
    hit = np.flatnonzero(state.dropped_at)
    hit = hit[np.lexsort((train.ids[hit], state.dropped_at[hit]))]
    drop_events = [
        {"epoch": epoch, "sample_id": sid, "posterior": posterior}
        for epoch, sid, posterior in zip(
            state.dropped_at[hit].tolist(), train.ids[hit].tolist(),
            state.posterior[hit].tolist())]
    dropped_ids = np.sort(train.ids[hit]).tolist()

    report = RunReport(
        config=config.as_dict(),
        metric_name="micro_f1" if config.task == "classification" else "bleu4",
        test_metric=test_metric,
        val_metrics=val_metrics,
        group_means=store.group_means(),
        detection=metrics.detection_report(state.dropped_at > 0, corrupted),
        dropped_total=len(dropped_ids),
        dropped_ids=dropped_ids,
        drop_events=drop_events,
        gmm_trace=gmm_trace,
        label_repairs=dataset.meta.get("label_repairs"),
        runtime_sec=time.perf_counter() - t0,
    )
    if out_dir is not None:
        copy_from = replay.run_dir if replay is not None else None
        _write_artifacts(out_dir, report, store, model, copy_from, replayed)
    return report


def _flag_cell(value):
    return "1" if value else "0"


def _floats_cell(values):
    return ";".join(map(repr, values))


# CSV column -> cell of that key in a drop_events / gmm_trace row, in file order.
_DROP_COLUMNS = {"epoch": str, "sample_id": str, "posterior": repr}
_GMM_TRACE_COLUMNS = {
    "epoch": str, "k": str, "log_likelihood": repr, "bic": repr, "n_iter": str,
    "converged": _flag_cell, "selected": _flag_cell,
    "weights": _floats_cell, "means": _floats_cell, "variances": _floats_cell}


def _write_artifacts(out_dir, report, store, model, copy_from=None, replayed=0):
    """Write a run's artifact set into out_dir, which run_experiment made.

    copy_from is the run directory of a grid pair's baseline, given to its
    treated arm, whose first `replayed` epochs were the baseline's: their
    trajectory rows and density files are copied from the baseline's files
    byte for byte rather than formatted again.
    """
    def path(name):
        return os.path.join(out_dir, name)

    report.save_json(path("results.json"))
    learner.save_model(model, path("model.ckpt.json"))
    store.save_csv(path("trajectory.csv"),
                   None if copy_from is None else os.path.join(copy_from, "trajectory.csv"),
                   replayed)
    store.save_group_means_csv(path("group_means.csv"))
    for name in fnmatch.filter(os.listdir(out_dir), "density_e*.csv"):
        os.remove(path(name))   # an earlier, longer run's would outlive it
    for epoch in range(1, store.last_epoch + 1):
        name = f"density_e{epoch}.csv"
        if epoch <= replayed:
            shutil.copyfile(os.path.join(copy_from, name), path(name))
        else:
            store.save_histogram_csv(path(name), epoch)
    write_csv(path("noise_mask.csv"), ("sample_id", "corrupted"), (
        map(str, store.ids.tolist()), map(_flag_cell, store.corrupted.tolist())))
    for name, rows, columns in (("drops.csv", report.drop_events, _DROP_COLUMNS),
                                ("gmm_trace.csv", report.gmm_trace, _GMM_TRACE_COLUMNS)):
        write_csv(os.path.join(out_dir, name), columns,
                  [[cell(row[key]) for row in rows] for key, cell in columns.items()])


# Every field compare_runs reads, with its JSON type.
_REPORT_FIELDS = {"metric_name": str, "test_metric": (int, float),
                  "dropped_total": int, "detection": dict}
_CONFIG_FIELDS = {"task": str, "seed": int, "noise_rate": (int, float),
                  "mantra": bool}


def _as_report_dict(report):
    """A report as a dict; SchemaError names a non-JSON file or a missing or mistyped field."""
    where = "report"
    if isinstance(report, RunReport):
        report = vars(report)
    elif not isinstance(report, dict):
        where = os.fspath(report)
        try:
            with open(report, "r", encoding="utf-8") as fh:
                report = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"{where}: not a JSON report ({exc})") from None
    if not isinstance(report, dict):
        raise SchemaError(f"{where}: a report must be a JSON object")
    if not isinstance(report.get("config"), dict):
        raise SchemaError(f"{where}: missing object field 'config'")
    for prefix, obj, fields in (("", report, _REPORT_FIELDS),
                                ("config.", report["config"], _CONFIG_FIELDS)):
        for key, types in fields.items():
            if key not in obj:
                raise SchemaError(f"{where}: missing field {prefix + key!r}")
            if not scheduler.has_type(obj[key], types):
                raise SchemaError(
                    f"{where}: field {prefix + key!r} has the wrong type: {obj[key]!r}")
    return report


def _require_twin(cfg, want, what):
    """ConfigError naming the first setting both configs hold, mantra aside,
    on which cfg differs from want: the compared fields first, then by name."""
    for key in [*_CONFIG_FIELDS, *sorted(cfg.keys() & want.keys())]:
        if key != "mantra" and cfg[key] != want[key]:
            raise ConfigError(f"{what} has {key} {cfg[key]!r}, need {want[key]!r}")


def _clean_references(pair, clean_a, clean_b):
    """(baseline's, treated arm's) clean report, each matched by its mantra flag."""
    by_flag = {}
    for clean in (_as_report_dict(c) for c in (clean_a, clean_b) if c is not None):
        cfg = clean["config"]
        _require_twin(cfg, {**pair, "noise_rate": 0}, "clean reference")
        if cfg["mantra"] in by_flag:
            raise ConfigError("need one baseline and one treated clean reference, "
                              f"got two with mantra={cfg['mantra']}")
        by_flag[cfg["mantra"]] = clean
    either = next(iter(by_flag.values()))
    return by_flag.get(False, either), by_flag.get(True, either)


def compare_runs(report_a, report_b, clean_a=None, clean_b=None):
    """Pair a baseline run with its treated twin and summarize the contrast.

    The two reports must be twins: their configs agree on every setting
    both hold (an older results.json may hold more) except the mantra flag,
    which must differ; their order does not matter.  Clean reports, if
    given, agree with the pair the same way but have noise rate 0, and add
    per-arm degradation-from-clean: each serves the arm with its own mantra
    flag, whatever its position, and a single one serves both arms.  A
    mismatch is a ConfigError naming the first setting that differs.
    """
    a = _as_report_dict(report_a)
    b = _as_report_dict(report_b)
    _require_twin(b["config"], a["config"], "the second run")
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
    if clean_a is not None or clean_b is not None:
        clean_base, clean_treat = _clean_references(a["config"], clean_a, clean_b)
        out["baseline_degradation"] = clean_base["test_metric"] - baseline["test_metric"]
        out["mantra_degradation"] = clean_treat["test_metric"] - treated["test_metric"]
        out["recovered"] = out["mantra_degradation"] < out["baseline_degradation"]
    return out


def run_grid(base_config, rates, seeds, out_dir=None):
    """Cartesian sweep over noise rates x seeds x {baseline, treated}.

    Returns the list of RunReports in sweep order.  With out_dir set, each
    run writes its artifacts under a nested directory and a summary.csv
    lands at the grid root.

    Each (rate, seed) runs its baseline arm first, and the treated arm
    replays the pair's shared prefix from it (see the module docstring);
    every report and artifact still equals that of the same config run
    alone through run_experiment, runtime_sec aside.  Nothing of a pair
    outlives the grid.  out_dir is made (os.makedirs) once every config is
    checked and before any run, so a path the OS refuses fails at once.
    """
    global _pair_prefix
    if not rates or not seeds:
        raise ConfigError("grid needs at least one rate and one seed")
    # Each arm writes to a {rate:g} / seed directory, so rates sharing a label would collide.
    labels = [f"{rate:g}" for rate in rates]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ConfigError(f"grid rates {rates[labels.index(label)]!r} and {rates[i]!r} "
                              f"share the run directory label {label}")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"grid seeds must be distinct, got {seeds}")
    configs = grid_configs(base_config, rates, seeds)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    reports = []
    try:
        for config in configs:
            run_dir = None
            if out_dir is not None:
                arm = "mantra" if config.mantra else "baseline"
                run_dir = os.path.join(
                    out_dir, f"{config.task}_r{config.noise_rate:g}_s{config.seed}_{arm}")
            if not config.mantra:
                _pair_prefix = _PairPrefix(dataclasses.replace(config, mantra=True))
            reports.append(run_experiment(config, out_dir=run_dir))
    finally:
        _pair_prefix = None
    if out_dir is not None:
        write_summary(os.path.join(out_dir, "summary.csv"), reports)
    return reports


def grid_configs(base_config, rates, seeds):
    """Every arm's config of a grid, in sweep order, each checked before any runs:
    base_config with the arm's rate, seed and mantra flag replaced."""
    return [dataclasses.replace(base_config, noise_rate=rate, seed=seed, mantra=mantra_on)
            for rate, seed, mantra_on in itertools.product(rates, seeds, (False, True))]


def write_summary(path, reports):
    """A grid's summary.csv: one row per run, in the order given."""
    rows = []
    for report in reports:
        cfg = report.config
        rows.append([cfg["task"], f"{cfg['noise_rate']:g}", str(cfg["seed"]),
                     "on" if cfg["mantra"] else "off", repr(report.test_metric),
                     str(report.dropped_total), float_cell(report.detection["precision"]),
                     float_cell(report.detection["recall"])])
    write_csv(path, ("task", "rate", "seed", "mantra", "test_metric", "dropped",
                     "det_precision", "det_recall"), zip(*rows))
