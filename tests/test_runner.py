"""Run orchestration: pairing guarantees, artifacts, comparisons, grids."""

import csv
import dataclasses
import gc
import inspect
import json
import os
import shutil
import weakref

import numpy as np
import pytest

from mantra import data, gmm, learner, noise, runner, scheduler, trajectory
from mantra.errors import ConfigError, SchemaError
from mantra.runner import ExperimentConfig, compare_runs, run_experiment, run_grid
from mantra.trajectory import TrajectoryStore

from jsonl_io import write_jsonl


def test_config_defaults_resolve_per_task():
    cls = ExperimentConfig(task="cls")
    assert cls.task == "classification"
    assert cls.warmup == 5 and cls.lr == 0.5
    assert (cls.n_train, cls.n_val, cls.n_test) == (700, 85, 88)

    summ = ExperimentConfig(task="sum")
    assert summ.task == "summarization"
    assert summ.warmup == 3 and summ.lr == 16.0
    assert (summ.n_train, summ.n_val, summ.n_test) == (1000, 100, 100)


def test_config_is_its_own_drop_policy():
    policy_fields = dataclasses.fields(scheduler.DropPolicy)
    for task, warmup in (("cls", 5), ("sum", 3)):
        config = ExperimentConfig(task=task)
        assert isinstance(config, scheduler.DropPolicy)
        assert config.warmup == warmup
        for f in policy_fields:
            if f.name != "warmup":
                assert getattr(config, f.name) == f.default, f.name
    with pytest.raises(TypeError):
        ExperimentConfig("cls")
    with pytest.raises(TypeError):
        ExperimentConfig("cls", 1)


def test_config_as_dict_is_flat_and_complete():
    shared = {"seed": 1, "noise_rate": 0.0, "epochs": 10, "mantra": True,
              "tau": 0.7, "persistence": 2, "max_drop_frac": 0.3, "k_max": 3,
              "batch_size": 32, "noise_mode": "replace-set", "data": "synthetic",
              "vocab": None, "n_features": 16}
    assert ExperimentConfig(task="cls").as_dict() == {
        **shared, "task": "classification", "warmup": 5, "lr": 0.5,
        "n_train": 700, "n_val": 85, "n_test": 88}
    assert ExperimentConfig(task="sum").as_dict() == {
        **shared, "task": "summarization", "warmup": 3, "lr": 16.0,
        "n_train": 1000, "n_val": 100, "n_test": 100}


def test_each_run_setting_has_one_default(tmp_path):
    # ExperimentConfig holds these defaults; the runner always passes the value
    sizes = ("n_train", "n_val", "n_test")
    for fn, names in ((data.generate_classification_dataset, (*sizes, "d")),
                      (data.generate_summarization_dataset, sizes),
                      (noise.inject_label_noise, ("mode",)),
                      (gmm.select_model, ("k_max",))):
        params = inspect.signature(fn).parameters
        for name in names:
            assert params[name].default is inspect.Parameter.empty, (fn.__name__, name)
    # settings no caller varies are module constants, not parameters; an EM
    # fit's target varies with each order select_model fits, so it is one
    assert list(inspect.signature(gmm.fit_em).parameters) == ["obs", "k", "target"]
    assert list(inspect.signature(TrajectoryStore.save_histogram_csv).parameters) == [
        "self", "path", "epoch"]
    assert trajectory.HIST_BINS == 30
    # one table holds the task-dependent defaults
    assert not {"DEFAULT_WARMUP", "DEFAULT_SIZES", "HIST_BINS"} & set(vars(runner))
    assert list(inspect.signature(gmm.select_model).parameters) == ["obs", "k_max"]
    # a model starts at zero: no init scale or init seed to pass
    assert list(inspect.signature(learner.new_classifier).parameters) == ["n_features"]
    assert list(inspect.signature(learner.new_seq2seq).parameters) == ["n_tgt", "n_src"]
    assert not hasattr(learner, "TrainConfig")
    # no run varies the init scale, the histogram bins, or the mixture feature
    # (np.log1p of one epoch's losses), so none of them is a setting
    config_fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert not config_fields & {"init_scale", "hist_bins", "window", "transform"}
    for retired in ("window", "transform"):
        with pytest.raises(TypeError):
            ExperimentConfig(task="cls", **{retired: 1})
    # a model is its parameter arrays; BOS and EOS follow from the target axis
    assert [f.name for f in dataclasses.fields(learner.Seq2SeqModel)] == ["u", "v", "b"]
    assert not {"bos", "eos"} & set(inspect.signature(learner.new_seq2seq).parameters)
    # meta keeps only what no array carries: the widths are x's and src_counts'
    generated = (data.generate_classification_dataset(1, 4, 2, 2, d=3),
                 data.generate_summarization_dataset(1, 4, 2, 2))
    assert [set(ds.meta) for ds in generated] == [
        {"label_repairs", "hidden_weights"}, {"n_tgt_vocab", "mapping"}]
    loaded = []
    for ds in generated:
        write_jsonl(tmp_path / "d.jsonl", ds)
        loaded.append(data.load_jsonl(tmp_path / "d.jsonl", ds.train.task))
    assert [set(ds.meta) for ds in loaded] == [set(), {"n_tgt_vocab"}]
    # the mask holds what injection creates; ids are the split's own
    mask_fields = [f.name for f in dataclasses.fields(noise.NoiseMask)]
    assert mask_fields == ["corrupted", "prior_drift"]


def test_config_validation():
    bad = [
        dict(task="translation"),
        dict(task="cls", epochs=0),
        dict(task="cls", warmup=10, epochs=10),
        dict(task="cls", warmup=-1),
        dict(task="cls", noise_rate=1.5),
        dict(task="cls", lr=0.0),
        dict(task="cls", batch_size=0),
        dict(task="cls", n_train=0),
        dict(task="cls", tau=0.4),           # policy knobs checked up front
        dict(task="cls", mantra=False, tau=0.4),   # even with the scheduler off
        # every setting is checked before any work starts
        dict(task="cls", seed=-1),
        dict(task="cls", noise_mode="bogus"),
        dict(task="sum", noise_mode="flip-one"),     # classification-only
        dict(task="sum", n_features=8),
        dict(task="cls", n_features=0),
        dict(task="cls", lr=float("nan")),
        dict(task="cls", lr=float("inf")),
        # a dataset file sets its own sizes; vocab applies to files only
        dict(task="cls", data="data.jsonl", n_train=5),
        dict(task="cls", data="data.jsonl", n_features=99),
        dict(task="sum", data="data.jsonl", n_test=10),
        dict(task="sum", vocab="vocab.txt"),
        # a setting of the wrong numeric type, before any work
        dict(task="cls", seed=1.5),
        dict(task="cls", epochs=6.0),
        dict(task="cls", k_max=2.0),
        dict(task="cls", persistence=1.5),
        dict(task="cls", seed=True),         # a flag is not a count
        dict(task="cls", seed=np.int64(3)),  # results.json could not hold it
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)


def test_config_is_frozen():
    # a built config keeps the settings that were checked
    config = ExperimentConfig(task="cls")
    for name, value in (("epochs", 0), ("tau", 0.2), ("persistence", 0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, value)
    assert config == ExperimentConfig(task="cls")
    # a variant is checked like a built config
    for change in (dict(epochs=0), dict(tau=0.2, persistence=0)):
        with pytest.raises(ConfigError):
            dataclasses.replace(config, **change)
    # a grid's arms are the configs built by keyword
    arms = runner.grid_configs(ExperimentConfig(task="sum", epochs=4), [0.0, 0.2], [3])
    assert arms == [ExperimentConfig(task="sum", epochs=4, noise_rate=rate, seed=3,
                                     mantra=mantra)
                    for rate in (0.0, 0.2) for mantra in (False, True)]
    with pytest.raises(ConfigError):
        runner.grid_configs(config, [1.5], [3])


def test_results_json_is_the_dumped_report(tiny_cls_config, tmp_path):
    report = run_experiment(tiny_cls_config(n_train=200), out_dir=tmp_path)
    assert report.drop_events and report.gmm_trace
    # the per-row tables are left to their CSVs: drops.csv, gmm_trace.csv,
    # group_means.csv, and drops.csv's sample_id column
    saved = {key: value for key, value in report.as_dict().items()
             if key not in {"drop_events", "gmm_trace", "group_means", "dropped_ids"}}
    assert set(json.loads((tmp_path / "results.json").read_text())) == {
        "config", "metric_name", "test_metric", "val_metrics", "detection",
        "dropped_total", "dropped_per_epoch", "label_repairs", "prior_drift",
        "runtime_sec"}
    assert (tmp_path / "results.json").read_bytes() == (
        json.dumps(saved, sort_keys=True, indent=2) + "\n").encode("utf-8")
    want = json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"

    # as_dict() is a deep copy: changing it leaves the report alone
    out = report.as_dict()
    out["config"]["seed"] = -1
    out["gmm_trace"][0]["k"] = -1
    out["drop_events"].clear()
    out["dropped_per_epoch"][1] = -1
    out["detection"].clear()
    assert json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n" == want


def test_run_report_bookkeeping(tiny_cls_config):
    report = run_experiment(tiny_cls_config(n_train=200))   # drops 16 at epoch 3
    cfg = report.config
    assert cfg["task"] == "classification" and cfg["mantra"] is True
    assert report.metric_name == "micro_f1"
    assert 0.0 <= report.test_metric <= 1.0
    assert len(report.val_metrics) == cfg["epochs"]
    assert sorted(report.group_means) == [1, 2, 3, 4]
    assert report.dropped_total == len(report.dropped_ids) == len(report.drop_events)
    assert sum(report.dropped_per_epoch.values()) == report.dropped_total
    assert report.dropped_ids == sorted(report.dropped_ids)
    assert report.label_repairs is not None
    assert set(report.prior_drift) == {"before", "after"}
    # drops never precede warmup + persistence
    assert report.drop_events
    for event in report.drop_events:
        assert event["epoch"] > cfg["warmup"] + cfg["persistence"] - 1
        assert event["epoch"] > cfg["warmup"]


def test_summarization_report_fields(tiny_sum_config):
    report = run_experiment(tiny_sum_config())
    assert report.metric_name == "bleu4"
    assert report.label_repairs is None
    assert report.prior_drift is None


def test_baseline_arm_never_drops(tiny_cls_config):
    report = run_experiment(tiny_cls_config(mantra=False))
    assert report.dropped_total == 0 and report.dropped_ids == []
    assert report.gmm_trace == [] and report.drop_events == []
    assert set(report.dropped_per_epoch.values()) == {0}


def test_baseline_arm_calls_no_scheduler(monkeypatch, tiny_cls_config, tiny_sum_config):
    def refuse(*args, **kwargs):
        raise AssertionError("a baseline arm called the scheduler")

    for owner, name in ((scheduler, "evaluate_epoch"), (scheduler, "active_samples"),
                        (scheduler.gmm, "select_model")):
        monkeypatch.setattr(owner, name, refuse)
    for config in (tiny_cls_config(mantra=False), tiny_sum_config(mantra=False)):
        assert run_experiment(config).dropped_total == 0
    with pytest.raises(AssertionError):        # the treated arm does call it
        run_experiment(tiny_cls_config(mantra=True))


def test_arms_share_everything_until_first_drop(tiny_cls_config):
    base = run_experiment(tiny_cls_config(n_train=200, mantra=False))
    treat = run_experiment(tiny_cls_config(n_train=200, mantra=True))
    # same dataset, mask, init, and shuffle: identical losses while the
    # active sets agree (first drop cannot land before warmup+persistence)
    first_drop = min(e["epoch"] for e in treat.drop_events)
    assert first_drop < treat.config["epochs"]
    for epoch in range(1, first_drop + 1):
        assert base.group_means[epoch] == treat.group_means[epoch]
        assert base.val_metrics[epoch - 1] == treat.val_metrics[epoch - 1]
    assert base.group_means[first_drop + 1] != treat.group_means[first_drop + 1]


def test_mask_and_drops_stay_inside_train_split(tiny_cls_config):
    cfg = tiny_cls_config(n_train=200)
    report = run_experiment(cfg)
    train_ids = set(range(cfg.n_train))
    other_ids = set(range(cfg.n_train, cfg.n_train + cfg.n_val + cfg.n_test))
    event_ids = {e["sample_id"] for e in report.drop_events}
    assert event_ids and event_ids == set(report.dropped_ids)
    assert set(report.dropped_ids) <= train_ids
    assert not set(report.dropped_ids) & other_ids


@pytest.mark.parametrize("config, drops", [
    (dict(task="cls", seed=3, noise_rate=0.15, epochs=4, warmup=1, n_train=200,
          n_val=16, n_test=16, n_features=8), {3: 16}),
    (dict(task="sum", seed=1, noise_rate=0.15), {5: 114, 8: 30}),
])
def test_drop_fields_follow_the_scheduler_decisions(tmp_path, monkeypatch, config, drops):
    decisions = []             # (epoch, EpochDecision)
    evaluate = runner.scheduler.evaluate_epoch

    def recording(state, policy, epoch, losses):
        decisions.append((epoch, evaluate(state, policy, epoch, losses)))
        return decisions[-1][1]

    monkeypatch.setattr(runner.scheduler, "evaluate_epoch", recording)
    report = run_experiment(ExperimentConfig(**config), out_dir=str(tmp_path))
    # the mask lists the train split in train order: row i is train position i
    with open(tmp_path / "noise_mask.csv", newline="", encoding="utf-8") as fh:
        rows = [(int(row["sample_id"]), row["corrupted"] == "1")
                for row in csv.DictReader(fh)]
    assert report.drop_events == [
        {"epoch": epoch, "sample_id": rows[pos][0], "posterior": post}
        for epoch, d in decisions for pos, post in sorted(
            d.dropped, key=lambda drop: rows[drop[0]][0])]
    assert report.dropped_per_epoch == {epoch: len(d.dropped) for epoch, d in decisions}
    assert {e: n for e, n in report.dropped_per_epoch.items() if n} == drops
    assert report.detection["tp"] == sum(
        rows[pos][1] for _, d in decisions for pos, _ in d.dropped)


def test_mixture_sees_log1p_of_the_epochs_losses(tmp_path, monkeypatch, tiny_cls_config):
    fits = []
    select = scheduler.gmm.select_model

    def recording(obs, k_max):
        fits.append(np.array(obs))
        return select(obs, k_max)

    monkeypatch.setattr(scheduler.gmm, "select_model", recording)
    config = tiny_cls_config(n_train=200)
    report = run_experiment(config, out_dir=str(tmp_path))
    losses = {}                                            # epoch -> active losses
    with open(tmp_path / "trajectory.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            losses.setdefault(int(row["epoch"]), []).append(float(row["loss"]))
    # epochs 2-4 are fit, and epoch 4 runs without the 16 dropped at epoch 3
    assert report.dropped_per_epoch == {1: 0, 2: 0, 3: 16, 4: 0}
    assert [len(losses[epoch]) for epoch in (2, 3, 4)] == [200, 200, 184]
    assert len(fits) == 3
    for epoch, obs in zip((2, 3, 4), fits):
        assert np.array_equal(obs, np.log1p(losses[epoch])), epoch


def _without_runtime(report):
    return {k: v for k, v in report.as_dict().items() if k != "runtime_sec"}


def test_rerun_is_byte_identical_except_runtime(tmp_path, tiny_cls_config, run_dir_bytes):
    run_experiment(tiny_cls_config(), out_dir=str(tmp_path / "a"))
    run_experiment(tiny_cls_config(), out_dir=str(tmp_path / "b"))
    assert run_dir_bytes(tmp_path / "a") == run_dir_bytes(tmp_path / "b")
    # a shorter rerun into a longer run's directory leaves none of its density_e*.csv
    run_experiment(tiny_cls_config(epochs=6), out_dir=str(tmp_path / "c"))
    run_experiment(tiny_cls_config(), out_dir=str(tmp_path / "c"))
    assert run_dir_bytes(tmp_path / "a") == run_dir_bytes(tmp_path / "c")


def test_artifact_set(tmp_path, tiny_cls_config):
    cfg = tiny_cls_config(n_train=200)     # large enough to drop before epoch 4
    out = tmp_path / "run"
    report = run_experiment(cfg, out_dir=str(out))
    expected = {"results.json", "model.ckpt.json", "trajectory.csv",
                "group_means.csv", "noise_mask.csv", "drops.csv", "gmm_trace.csv"}
    expected |= {f"density_e{e}.csv" for e in range(1, cfg.epochs + 1)}
    assert {p.name for p in out.iterdir()} == expected

    saved = json.loads((out / "results.json").read_text())
    assert saved["test_metric"] == report.test_metric

    mask_rows = list(csv.DictReader((out / "noise_mask.csv").open()))
    assert len(mask_rows) == cfg.n_train
    assert sum(int(r["corrupted"]) for r in mask_rows) == 30   # round(0.15 * 200)

    drop_rows = list(csv.DictReader((out / "drops.csv").open()))
    assert len(drop_rows) == report.dropped_total
    assert sorted(int(r["sample_id"]) for r in drop_rows) == report.dropped_ids

    gmm_rows = list(csv.DictReader((out / "gmm_trace.csv").open()))
    iters = [row["n_iter"] for row in report.gmm_trace]
    assert gmm_rows and [int(r["n_iter"]) for r in gmm_rows] == iters
    assert all(1 <= n <= 200 for n in iters)

    with (out / "trajectory.csv").open() as fh:
        assert fh.readline() == "epoch,sample_id,loss\n"
    traj_rows = list(csv.DictReader((out / "trajectory.csv").open()))
    active_per_epoch = {e: 0 for e in range(1, cfg.epochs + 1)}
    for row in traj_rows:
        active_per_epoch[int(row["epoch"])] += 1
    dropped_so_far = 0
    for epoch in range(1, cfg.epochs + 1):
        assert active_per_epoch[epoch] == cfg.n_train - dropped_so_far
        dropped_so_far += report.dropped_per_epoch[epoch]

    # only active samples are scored, and a dropped id has no row after the
    # epoch it was dropped at
    drop_epoch = {int(r["sample_id"]): int(r["epoch"]) for r in drop_rows}
    assert drop_epoch and min(drop_epoch.values()) < cfg.epochs
    for row in traj_rows:
        assert int(row["epoch"]) <= drop_epoch.get(int(row["sample_id"]), cfg.epochs)

    # the noisy flag is the mask's: joined on sample id, the trajectory gives
    # back each epoch's clean and noisy group means
    noisy = {int(r["sample_id"]): r["corrupted"] == "1" for r in mask_rows}
    for epoch in range(1, cfg.epochs + 1):
        rows = [r for r in traj_rows if int(r["epoch"]) == epoch]
        for name, flag in (("clean", False), ("noisy", True)):
            losses = [float(r["loss"]) for r in rows if noisy[int(r["sample_id"])] == flag]
            mean = float(np.mean(losses)) if losses else None
            assert mean == report.group_means[epoch][name]


def test_file_dataset_round_trip(tmp_path, tiny_cls_config):
    ds = data.generate_classification_dataset(3, n_train=60, n_val=16, n_test=16, d=8)
    path = tmp_path / "data.jsonl"
    write_jsonl(path, ds)
    # a file run takes its sizes from the file and echoes them as null
    from_file = run_experiment(ExperimentConfig(
        task="cls", seed=3, noise_rate=0.15, epochs=4, warmup=1, data=str(path)))
    synthetic = run_experiment(tiny_cls_config())
    sizes = ("n_train", "n_val", "n_test", "n_features")
    assert [from_file.config[name] for name in sizes] == [None] * 4
    # same samples, same seed: identical trajectories and metrics
    assert from_file.test_metric == synthetic.test_metric
    assert from_file.val_metrics == synthetic.val_metrics
    assert from_file.dropped_ids == synthetic.dropped_ids
    assert from_file.label_repairs is None      # provenance lost in the file


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_file_ids_stay_at_the_run_edges(tmp_path, tiny_cls_config):
    # ids fall as train positions rise, so an id read as a position, or a
    # position written as an id, shows
    def to_id(sample_id):
        return 10**6 - 7 * sample_id

    ds = data.generate_classification_dataset(3, n_train=200, n_val=16, n_test=16, d=8)
    write_jsonl(tmp_path / "synthetic.jsonl", ds)
    path = tmp_path / "data.jsonl"
    with open(tmp_path / "synthetic.jsonl", encoding="utf-8") as src, \
            open(path, "w", encoding="utf-8") as dst:
        for line in src:
            record = json.loads(line)
            record["id"] = to_id(record["id"])
            dst.write(json.dumps(record) + "\n")
    from_file = run_experiment(ExperimentConfig(
        task="cls", seed=3, noise_rate=0.15, epochs=4, warmup=1, data=str(path)),
        out_dir=str(tmp_path / "file"))
    synthetic = run_experiment(tiny_cls_config(n_train=200),
                               out_dir=str(tmp_path / "synthetic"))

    assert from_file.test_metric == synthetic.test_metric
    assert from_file.val_metrics == synthetic.val_metrics
    assert from_file.dropped_per_epoch == synthetic.dropped_per_epoch
    assert synthetic.dropped_per_epoch == {1: 0, 2: 0, 3: 16, 4: 0}   # cap 60 unmet
    assert from_file.dropped_ids == sorted(map(to_id, synthetic.dropped_ids))
    assert {e["sample_id"]: e for e in from_file.drop_events} == {
        to_id(e["sample_id"]): {**e, "sample_id": to_id(e["sample_id"])}
        for e in synthetic.drop_events}
    for name in ("trajectory.csv", "noise_mask.csv", "drops.csv"):
        mapped = [{**row, "sample_id": str(to_id(int(row["sample_id"])))}
                  for row in _csv_rows(tmp_path / "synthetic" / name)]
        got = _csv_rows(tmp_path / "file" / name)
        if name == "drops.csv":       # listed in id order, which the map reverses
            got, mapped = (sorted(rows, key=lambda row: int(row["sample_id"]))
                           for rows in (got, mapped))
        assert got == mapped, name


def test_empty_train_file_is_a_config_error(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text(json.dumps(
        {"split": "test", "features": [0.1] * 8, "labels": ["Bug"]}) + "\n")
    config = ExperimentConfig(task="cls", epochs=4, warmup=1, data=str(path))
    with pytest.raises(ConfigError):
        run_experiment(config)


def test_compare_runs_contract(tiny_cls_config, tmp_path):
    base = run_experiment(tiny_cls_config(mantra=False))
    treat = run_experiment(tiny_cls_config(mantra=True))
    out = compare_runs(base, treat)
    assert out["metric_name"] == "micro_f1"
    assert out["baseline_test_metric"] == base.test_metric
    assert out["mantra_test_metric"] == treat.test_metric
    assert out["metric_delta"] == pytest.approx(treat.test_metric - base.test_metric)
    assert out["mantra_dropped"] == treat.dropped_total
    assert out["baseline_degradation"] is None and out["recovered"] is None

    # argument order must not matter
    assert compare_runs(treat, base) == out

    with pytest.raises(ConfigError):
        compare_runs(base, run_experiment(tiny_cls_config(mantra=False, seed=4)))
    with pytest.raises(ConfigError):
        compare_runs(base, base)
    # twins differ in the mantra flag only: any other setting is named
    for key, value in (("epochs", 2), ("tau", 0.99)):
        other = run_experiment(tiny_cls_config(mantra=True, **{key: value}))
        for pair in ((base, other), (other, base)):
            with pytest.raises(ConfigError, match=f"has {key} "):
                compare_runs(*pair)

    # dicts and file paths are accepted interchangeably
    path = tmp_path / "base.json"
    base.save_json(path)
    again = compare_runs(str(path), treat.as_dict())
    assert again["metric_delta"] == out["metric_delta"]
    # a results.json written before window, transform and backend were retired
    legacy = json.loads(path.read_text())
    legacy["config"].update(window=1, transform="log1p")
    legacy["backend"] = "numpy"
    path.write_text(json.dumps(legacy))
    assert compare_runs(str(path), treat.as_dict()) == again


def test_compare_runs_with_clean_references(tiny_cls_config):
    base = run_experiment(tiny_cls_config(mantra=False))
    treat = run_experiment(tiny_cls_config(mantra=True))
    clean_base = run_experiment(tiny_cls_config(mantra=False, noise_rate=0.0))
    clean_treat = run_experiment(tiny_cls_config(mantra=True, noise_rate=0.0))
    # clean arms of this config score alike; a distinct treated reference
    # makes a swapped pairing visible
    assert clean_treat.dropped_total == 0
    clean_treat = {**clean_treat.as_dict(), "test_metric": 0.25}
    out = compare_runs(base, treat, clean_a=clean_base, clean_b=clean_treat)
    assert out["baseline_degradation"] == pytest.approx(
        clean_base.test_metric - base.test_metric)
    assert out["mantra_degradation"] == pytest.approx(0.25 - treat.test_metric)
    assert out["recovered"] == (out["mantra_degradation"] < out["baseline_degradation"])
    # each clean reference serves the arm with its own mantra flag, so every
    # argument order gives the same output
    for pair in ((base, treat), (treat, base)):
        for cleans in ((clean_base, clean_treat), (clean_treat, clean_base)):
            assert compare_runs(*pair, *cleans) == out
    # one clean reference serves both arms, in either position
    shared = compare_runs(base, treat, clean_a=clean_base)
    assert shared["mantra_degradation"] == pytest.approx(
        clean_base.test_metric - treat.test_metric)
    assert compare_runs(base, treat, clean_b=clean_base) == shared
    # a RunReport is read like its as_dict() form
    assert compare_runs(base.as_dict(), treat.as_dict(), clean_base.as_dict(),
                        clean_treat) == out


def test_compare_runs_rejects_mismatched_clean_references(tiny_cls_config,
                                                          tiny_sum_config):
    base = run_experiment(tiny_cls_config(mantra=False))
    treat = run_experiment(tiny_cls_config(mantra=True))
    clean = run_experiment(tiny_cls_config(mantra=False, noise_rate=0.0))
    wrong = [
        (run_experiment(tiny_sum_config(mantra=False, noise_rate=0.0)), "task"),
        (run_experiment(tiny_cls_config(mantra=False, noise_rate=0.0, seed=4)), "seed"),
        (base, "noise_rate"),
        (run_experiment(tiny_cls_config(mantra=False, noise_rate=0.0, epochs=2)), "epochs"),
        (run_experiment(tiny_cls_config(mantra=True, noise_rate=0.0, tau=0.99)), "tau"),
    ]
    for reference, needle in wrong:
        for kwargs in ({"clean_a": reference}, {"clean_a": clean, "clean_b": reference}):
            with pytest.raises(ConfigError, match=needle):
                compare_runs(base, treat, **kwargs)
    with pytest.raises(ConfigError, match="mantra=False"):
        compare_runs(base, treat, clean_a=clean, clean_b=clean)


def test_compare_runs_checks_field_types(tiny_cls_config):
    base = run_experiment(tiny_cls_config(mantra=False)).as_dict()
    treat = run_experiment(tiny_cls_config(mantra=True)).as_dict()
    bad_values = [("test_metric", "0.7"), ("test_metric", True),
                  ("dropped_total", 1.0), ("metric_name", 3), ("detection", [])]
    for key, value in bad_values:
        with pytest.raises(SchemaError, match=key):
            compare_runs(base, {**treat, key: value})
    for key, value in (("mantra", 1), ("seed", "3"), ("noise_rate", None)):
        bad = {**treat, "config": {**treat["config"], key: value}}
        with pytest.raises(SchemaError, match=f"config.{key}"):
            compare_runs(base, bad)


def test_compare_runs_checks_a_run_report_like_its_dict(tiny_cls_config):
    base = run_experiment(tiny_cls_config(mantra=False))
    treat = run_experiment(tiny_cls_config(mantra=True))
    for key, value in (("test_metric", "0.7"), ("dropped_total", 1.0)):
        bad = dataclasses.replace(treat, **{key: value})
        for form in (bad, bad.as_dict()):
            with pytest.raises(SchemaError, match=f"field '{key}' has the wrong type"):
                compare_runs(base, form)
    bad = dataclasses.replace(treat, config={**treat.config, "seed": "3"})
    with pytest.raises(SchemaError, match="config.seed"):
        compare_runs(base, bad)


def test_run_grid(tmp_path, tiny_cls_config):
    base = tiny_cls_config()
    with pytest.raises(ConfigError):
        run_grid(base, [], [3])
    with pytest.raises(ConfigError):
        run_grid(base, [0.1], [])

    out = tmp_path / "grid"
    reports = run_grid(base, [0.0, 0.15], [3], out_dir=str(out))
    assert len(reports) == 4    # 2 rates x 1 seed x 2 arms
    flags = [(r.config["noise_rate"], r.config["mantra"]) for r in reports]
    assert flags == [(0.0, False), (0.0, True), (0.15, False), (0.15, True)]

    rows = list(csv.DictReader((out / "summary.csv").open()))
    assert len(rows) == 4
    assert rows[0]["mantra"] == "off" and rows[1]["mantra"] == "on"
    assert {d.name for d in out.iterdir() if d.is_dir()} == {
        "classification_r0_s3_baseline", "classification_r0_s3_mantra",
        "classification_r0.15_s3_baseline", "classification_r0.15_s3_mantra",
    }
    for d in out.iterdir():
        if d.is_dir():
            assert (d / "results.json").exists()


def _earliest_drop(value):
    """A case's id part for its pairs: their earliest first drop; pytest names the rest."""
    if isinstance(value, list):
        return str(min((first for *_, first in value if first is not None), default=None))
    return None


# Each pair's (rate, seed, first drop epoch of its treated arm), in sweep order.
@pytest.mark.parametrize("task, overrides, pairs", [
    ("cls", {}, [(0.0, 3, None)]),       # never drops: the whole run is replayed
    # Pairs differ in rate and seed, so a copy from another pair shows, and
    # drops take effect before the last epoch, so a copy of one epoch too many shows.
    ("cls", dict(n_train=200, epochs=6),
     [(0.1, 3, 3), (0.1, 4, 3), (0.15, 3, 3), (0.15, 4, 4)]),
    ("sum", dict(n_train=80, epochs=6), [(0.15, 3, 4)]),
    ("cls", dict(n_train=200, epochs=3), [(0.15, 3, 3)]),     # drops only in its last epoch
], ids=_earliest_drop)
def test_grid_arms_equal_their_standalone_runs(tmp_path, monkeypatch, tiny_cls_config,
                                               tiny_sum_config, run_dir_bytes, task,
                                               overrides, pairs):
    cfg = (tiny_cls_config if task == "cls" else tiny_sum_config)(**overrides)
    rates = list(dict.fromkeys(rate for rate, _, _ in pairs))
    seeds = list(dict.fromkeys(seed for _, seed, _ in pairs))
    generate = f"generate_{cfg.task}_dataset"
    inject = "inject_label_noise" if task == "cls" else "inject_summary_noise"
    calls = []
    with monkeypatch.context() as patch:
        # wrapped where the runner looks them up, as the benchmark wraps them
        for owner, name in ((runner, generate), (runner.noise, inject),
                            (runner.learner, "train_epoch")):
            fn = getattr(owner, name)
            patch.setattr(owner, name, lambda *a, fn=fn, name=name, **kw:
                          calls.append((name, a)) or fn(*a, **kw))
        reports = run_grid(cfg, rates, seeds, out_dir=str(tmp_path / "grid"))
    names = [name for name, _ in calls]
    assert names.count(generate) == names.count(inject) == len(pairs)
    assert [(r.config["noise_rate"], r.config["seed"],
             min((e for e, n in r.dropped_per_epoch.items() if n), default=None))
            for r in reports[1::2]] == pairs
    # each baseline trains every epoch, its treated arm only once its first drop took effect
    epochs = list(range(1, cfg.epochs + 1))
    assert [a[3] for name, a in calls if name == "train_epoch"] == [
        e for *_, first in pairs for e in epochs + (epochs[first:] if first else [])]

    arm_dirs = []
    for report in reports:
        config = ExperimentConfig(**report.config)
        arm = "mantra" if config.mantra else "baseline"
        name = f"{config.task}_r{config.noise_rate:g}_s{config.seed}_{arm}"
        alone = run_experiment(config, out_dir=str(tmp_path / "alone" / name))
        assert _without_runtime(report) == _without_runtime(alone)
        arm_dirs.append(run_dir_bytes(tmp_path / "grid" / name))
        assert arm_dirs[-1] == run_dir_bytes(tmp_path / "alone" / name)
    for baseline, treated in zip(arm_dirs[::2], arm_dirs[1::2]):
        # each arm writes its own mask, and the pair's two are the same bytes
        assert treated["noise_mask.csv"] == baseline["noise_mask.csv"]


def test_a_run_ignores_the_slot_of_another_pair(monkeypatch, tiny_cls_config):
    # only the two arms of the pair in the slot read it
    cfg = tiny_cls_config(n_train=200)
    configs = [dataclasses.replace(cfg, mantra=mantra_on) for mantra_on in (False, True)]
    alone = [_without_runtime(run_experiment(config)) for config in configs]
    slot = runner._PairPrefix(dataclasses.replace(cfg, seed=4))
    monkeypatch.setattr(runner, "_pair_prefix", slot)
    assert [_without_runtime(run_experiment(config)) for config in configs] == alone
    assert (slot.inputs, slot.run_dir, slot.store, slot.epochs) == (None, None, None, [])


def test_grid_clears_the_pair_slot(tmp_path, monkeypatch, tiny_cls_config, run_dir_bytes):
    cfg = tiny_cls_config(n_train=200, epochs=6)
    treated = dataclasses.replace(cfg, seed=4)
    fresh = _without_runtime(run_experiment(treated, out_dir=str(tmp_path / "fresh")))

    run_grid(cfg, [0.15], [3, 4], out_dir=str(tmp_path / "grid"))
    assert runner._pair_prefix is None
    # nothing of the grid's, in memory or on disk, feeds a later run
    shutil.rmtree(tmp_path / "grid")
    assert _without_runtime(run_experiment(treated, out_dir=str(tmp_path / "after"))) == fresh
    assert run_dir_bytes(tmp_path / "after") == run_dir_bytes(tmp_path / "fresh")

    datasets = []
    generate = runner.generate_classification_dataset

    def generating(*args, **kwargs):
        dataset = generate(*args, **kwargs)
        datasets.append(weakref.ref(dataset))
        return dataset

    def failing(*args):
        raise RuntimeError("evaluate_epoch failed")

    monkeypatch.setattr(runner, "generate_classification_dataset", generating)
    monkeypatch.setattr(runner.scheduler, "evaluate_epoch", failing)
    with pytest.raises(RuntimeError, match="evaluate_epoch failed"):
        run_grid(cfg, [0.15], [3, 4], out_dir=str(tmp_path / "failed"))  # first treated arm
    assert runner._pair_prefix is None
    assert len(datasets) == 1
    gc.collect()
    assert datasets[0]() is None          # the pair's dataset and splits are gone
    monkeypatch.undo()
    assert _without_runtime(run_experiment(treated, out_dir=str(tmp_path / "again"))) == fresh
    assert run_dir_bytes(tmp_path / "again") == run_dir_bytes(tmp_path / "fresh")
