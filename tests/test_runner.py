"""Run orchestration: pairing guarantees, artifacts, comparisons, grids."""

import csv
import json
import os

import numpy as np
import pytest

from mantra import data, runner
from mantra.errors import ConfigError, MantraError, UsageError
from mantra.runner import ExperimentConfig, compare_runs, run_experiment, run_grid


def test_config_defaults_resolve_per_task():
    cls = ExperimentConfig(task="cls")
    assert cls.task == "classification"
    assert cls.warmup == 5 and cls.lr == 0.5
    assert (cls.n_train, cls.n_val, cls.n_test) == (700, 85, 88)

    summ = ExperimentConfig(task="sum")
    assert summ.task == "summarization"
    assert summ.warmup == 3 and summ.lr == 16.0
    assert (summ.n_train, summ.n_val, summ.n_test) == (1000, 100, 100)


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
        dict(task="cls", hist_bins=0),
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)


def test_run_report_bookkeeping(tiny_cls_config):
    report = run_experiment(tiny_cls_config())
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
    assert report.backend == "numpy"
    # drops never precede warmup + persistence
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


def test_arms_share_everything_until_first_drop(tiny_cls_config):
    base = run_experiment(tiny_cls_config(mantra=False))
    treat = run_experiment(tiny_cls_config(mantra=True))
    # same dataset, mask, init, and shuffle: identical losses while the
    # active sets agree (first drop cannot land before warmup+persistence)
    first_drop = min((e["epoch"] for e in treat.drop_events), default=None)
    horizon = first_drop if first_drop is not None else treat.config["epochs"]
    for epoch in range(1, horizon + 1):
        assert base.group_means[epoch] == treat.group_means[epoch]
        assert base.val_metrics[epoch - 1] == treat.val_metrics[epoch - 1]


def test_mask_and_drops_stay_inside_train_split(tiny_cls_config):
    cfg = tiny_cls_config()
    report = run_experiment(cfg)
    train_ids = set(range(cfg.n_train))
    other_ids = set(range(cfg.n_train, cfg.n_train + cfg.n_val + cfg.n_test))
    corrupted = {e["sample_id"] for e in report.drop_events}
    assert set(report.dropped_ids) <= train_ids
    assert corrupted <= train_ids
    assert not set(report.dropped_ids) & other_ids


def test_rerun_is_byte_identical_except_runtime(tmp_path, tiny_cls_config):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_experiment(tiny_cls_config(), out_dir=str(out_a))
    run_experiment(tiny_cls_config(), out_dir=str(out_b))
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        if name == "results.json":
            da = json.loads((out_a / name).read_text())
            db = json.loads((out_b / name).read_text())
            da.pop("runtime_sec"), db.pop("runtime_sec")
            assert da == db
        else:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


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

    gmm_rows = list(csv.DictReader((out / "gmm_trace.csv").open()))
    iters = [row["n_iter"] for row in saved["gmm_trace"]]
    assert gmm_rows and [int(r["n_iter"]) for r in gmm_rows] == iters
    assert all(1 <= n <= 200 for n in iters)

    traj_rows = list(csv.DictReader((out / "trajectory.csv").open()))
    active_per_epoch = {e: 0 for e in range(1, cfg.epochs + 1)}
    for row in traj_rows:
        active_per_epoch[int(row["epoch"])] += 1
    dropped_so_far = 0
    for epoch in range(1, cfg.epochs + 1):
        assert active_per_epoch[epoch] == cfg.n_train - dropped_so_far
        dropped_so_far += report.dropped_per_epoch[epoch]

    # only active samples are scored, the noisy flag is the mask's, and a
    # dropped id has no row after the epoch it was dropped at
    noisy = {int(r["sample_id"]): r["corrupted"] for r in mask_rows}
    drop_epoch = {int(r["sample_id"]): int(r["epoch"]) for r in drop_rows}
    assert drop_epoch and min(drop_epoch.values()) < cfg.epochs
    for row in traj_rows:
        sid = int(row["sample_id"])
        assert row["active"] == "1"
        assert row["is_noisy"] == noisy[sid]
        assert int(row["epoch"]) <= drop_epoch.get(sid, cfg.epochs)


def test_file_dataset_round_trip(tmp_path, tiny_cls_config):
    ds = data.generate_classification_dataset(3, n_train=60, n_val=16, n_test=16, d=8)
    path = tmp_path / "data.jsonl"
    data.write_jsonl(path, ds)
    from_file = run_experiment(tiny_cls_config(data=str(path)))
    synthetic = run_experiment(tiny_cls_config())
    # same samples, same seed: identical trajectories and metrics
    assert from_file.test_metric == synthetic.test_metric
    assert from_file.val_metrics == synthetic.val_metrics
    assert from_file.dropped_ids == synthetic.dropped_ids
    assert from_file.label_repairs is None      # provenance lost in the file


def test_empty_train_file_is_a_config_error(tmp_path, tiny_cls_config):
    path = tmp_path / "empty.jsonl"
    path.write_text(json.dumps(
        {"split": "test", "features": [0.1] * 8, "labels": ["Bug"]}) + "\n")
    with pytest.raises(ConfigError):
        run_experiment(tiny_cls_config(data=str(path)))


def test_misaligned_noise_mask_raises(monkeypatch, tiny_cls_config):
    # the runner reads corruption flags by train position, so a mask whose
    # ids are out of train order must stop the run, not mislabel rows
    inject = runner._inject

    def shuffled(config, train):
        out, mask = inject(config, train)
        mask.ids = mask.ids[::-1].copy()
        return out, mask

    monkeypatch.setattr(runner, "_inject", shuffled)
    with pytest.raises(MantraError, match="aligned"):
        run_experiment(tiny_cls_config())


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
    flipped = compare_runs(treat, base)
    assert flipped["baseline_test_metric"] == base.test_metric

    with pytest.raises(ConfigError):
        compare_runs(base, run_experiment(tiny_cls_config(mantra=False, seed=4)))
    with pytest.raises(ConfigError):
        compare_runs(base, base)

    # dicts and file paths are accepted interchangeably
    path = tmp_path / "base.json"
    base.save_json(path)
    again = compare_runs(str(path), treat.as_dict())
    assert again["metric_delta"] == out["metric_delta"]


def test_compare_runs_with_clean_references(tiny_cls_config):
    base = run_experiment(tiny_cls_config(mantra=False))
    treat = run_experiment(tiny_cls_config(mantra=True))
    clean_base = run_experiment(tiny_cls_config(mantra=False, noise_rate=0.0))
    clean_treat = run_experiment(tiny_cls_config(mantra=True, noise_rate=0.0))
    out = compare_runs(base, treat, clean_a=clean_base, clean_b=clean_treat)
    assert out["baseline_degradation"] == pytest.approx(
        clean_base.test_metric - base.test_metric)
    assert out["mantra_degradation"] == pytest.approx(
        clean_treat.test_metric - treat.test_metric)
    assert out["recovered"] == (out["mantra_degradation"] < out["baseline_degradation"])
    # one clean reference serves both arms when the second is omitted
    shared = compare_runs(base, treat, clean_a=clean_base)
    assert shared["mantra_degradation"] == pytest.approx(
        clean_base.test_metric - treat.test_metric)


def test_run_grid(tmp_path, tiny_cls_config):
    base = tiny_cls_config()
    with pytest.raises(UsageError):
        run_grid(base, [], [3])
    with pytest.raises(UsageError):
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
