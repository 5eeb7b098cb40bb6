"""Trajectory store: sequencing, group curves, histograms, CSV exports."""

import csv

import numpy as np
import pytest

from mantra import runner
from mantra.errors import SequencingError, UsageError
from mantra.trajectory import TrajectoryStore, write_csv


def _store_with(epochs):
    store = TrajectoryStore()
    for e, (ids, losses, noisy) in enumerate(epochs, start=1):
        store.record_epoch(e, ids, losses, noisy)
    return store


def test_epochs_must_be_contiguous_from_one():
    store = TrajectoryStore()
    with pytest.raises(SequencingError):
        store.record_epoch(0, [1], [0.5], [False])
    with pytest.raises(SequencingError):
        store.record_epoch(2, [1], [0.5], [False])
    store.record_epoch(1, [1], [0.5], [False])
    with pytest.raises(SequencingError):
        store.record_epoch(1, [1], [0.5], [False])    # no rewrites
    store.record_epoch(2, [1], [0.4], [False])
    assert store.epochs == [1, 2] and store.last_epoch == 2


def test_row_validation():
    store = TrajectoryStore()
    with pytest.raises(UsageError):
        store.record_epoch(1, [1, 2], [0.5], [False, True])
    with pytest.raises(UsageError):
        store.record_epoch(1, [1, 1], [0.5, 0.6], [False, True])
    with pytest.raises(UsageError):
        store.record_epoch(1, [1, 2], [0.5, np.inf], [False, True])
    with pytest.raises(UsageError):
        store.epoch_rows(1)


def test_group_means_and_none_semantics():
    store = _store_with([
        ([1, 2, 3, 4], [0.1, 0.3, 0.2, 0.8], [False, True, False, True]),
        ([1, 3], [0.05, 0.15], [False, False]),
    ])
    means = store.group_means()
    assert means[1]["clean"] == pytest.approx(0.15)
    assert means[1]["noisy"] == pytest.approx(0.55)
    assert means[2]["clean"] == pytest.approx(0.10)
    assert means[2]["noisy"] is None     # group absent, not zero


def test_recorded_arrays_are_copies():
    ids = np.array([1, 2])
    losses = np.array([0.5, 0.6])
    store = TrajectoryStore()
    store.record_epoch(1, ids, losses, [False, False])
    losses[0] = 99.0
    assert store.epoch_rows(1)["losses"][0] == 0.5


def test_histogram_is_a_density(rng):
    losses = rng.lognormal(0.0, 0.5, 500)
    store = _store_with([(np.arange(500), losses, np.zeros(500, dtype=bool))])
    edges, density = store.loss_histogram(1, bins=25)
    assert edges.shape == (26,) and density.shape == (25,)
    assert float(np.sum(density * np.diff(edges))) == pytest.approx(1.0)
    with pytest.raises(UsageError):
        store.loss_histogram(1, bins=0)


def test_csv_exports(tmp_path):
    store = _store_with([
        ([1, 2], [0.5, 1.5], [False, True]),
        ([1], [0.25], [False]),
    ])
    traj = tmp_path / "traj.csv"
    store.save_csv(traj)
    rows = list(csv.DictReader(traj.open()))
    assert len(rows) == 3
    assert rows[0] == {"epoch": "1", "sample_id": "1", "loss": "0.5"}
    # full float repr survives the round trip
    assert float(rows[1]["loss"]) == 1.5

    means = tmp_path / "means.csv"
    store.save_group_means_csv(means)
    rows = list(csv.DictReader(means.open()))
    assert rows[1]["noisy_mean"] == ""    # None -> empty cell

    hist = tmp_path / "hist.csv"
    store.save_histogram_csv(hist, epoch=1, bins=4)
    rows = list(csv.DictReader(hist.open()))
    assert len(rows) == 4
    widths = [float(r["bin_right"]) - float(r["bin_left"]) for r in rows]
    total = sum(float(r["density"]) * w for r, w in zip(rows, widths))
    assert total == pytest.approx(1.0)


def _csv_writer_bytes(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def test_trajectory_csv_matches_csv_writer_reference(tmp_path):
    # exponent-form reprs and a shrunken epoch after drops, against the
    # per-row csv.writer loop the export replaced; the noisy flag is left out
    store = TrajectoryStore()
    store.record_epoch(1, [7, 3, 12, 5], [1e-05, 0.1 + 0.2, 2.5e-300, 3.0],
                       [False, True, False, True])
    store.record_epoch(2, [3, 12], [123456789.125, 1.0 / 3.0], [True, False])
    store.record_epoch(3, [12], [5e-324], [False])
    store.save_csv(tmp_path / "fast.csv")
    want = []
    for epoch in store.epochs:
        rows = store.epoch_rows(epoch)
        for i in range(rows["ids"].shape[0]):
            want.append([epoch, int(rows["ids"][i]), repr(float(rows["losses"][i]))])
    assert (tmp_path / "fast.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["epoch", "sample_id", "loss"], want)
    assert b"1e-05" in (tmp_path / "fast.csv").read_bytes()


def test_histogram_csv_matches_csv_writer_reference(tmp_path):
    # exponent-form edges, a single-valued epoch, and bins past the sample count
    store = TrajectoryStore()
    store.record_epoch(1, [1, 2, 3, 4], [1e-07, 2.5e-06, 0.1 + 0.2, 3e-05], [False] * 4)
    store.record_epoch(2, [1, 2], [0.7, 0.7], [False, True])
    for epoch, bins in ((1, 3), (1, 30), (2, 4)):
        store.save_histogram_csv(tmp_path / "fast.csv", epoch, bins=bins)
        edges, density = store.loss_histogram(epoch, bins=bins)
        want = [[repr(float(edges[i])), repr(float(edges[i + 1])), repr(float(density[i]))]
                for i in range(bins)]
        assert (tmp_path / "fast.csv").read_bytes() == _csv_writer_bytes(
            tmp_path / "ref.csv", ["bin_left", "bin_right", "density"], want)


def test_write_csv_rows_and_lengths(tmp_path):
    write_csv(tmp_path / "a.csv", ("x", "y"), ([], []))
    assert (tmp_path / "a.csv").read_bytes() == b"x,y\r\n"
    write_csv(tmp_path / "a.csv", ("x", "y"), (["1", "2"], ["", "1e-05"]))
    assert (tmp_path / "a.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["x", "y"], [[1, ""], [2, "1e-05"]])
    # more rows than one write block, from lazy columns
    write_csv(tmp_path / "a.csv", ("x", "y"), (map(str, range(600)), map(repr, range(600))))
    assert (tmp_path / "a.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["x", "y"], [[i, i] for i in range(600)])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "a.csv", ("x", "y"), (["1", "2"], ["3"]))


def test_group_means_csv_matches_csv_writer_reference(tmp_path):
    # a group with no samples (None -> empty cell) and an exponent-form mean
    store = _store_with([
        ([1, 2, 3], [2e-06, 4e-06, 0.1 + 0.2], [False, False, True]),
        ([1, 2], [0.5, 1.0 / 3.0], [False, False]),
        ([3], [7.0], [True]),
    ])
    store.save_group_means_csv(tmp_path / "fast.csv")
    want = [[epoch, "" if e["clean"] is None else repr(e["clean"]),
             "" if e["noisy"] is None else repr(e["noisy"])]
            for epoch, e in store.group_means().items()]
    assert (tmp_path / "fast.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["epoch", "clean_mean", "noisy_mean"], want)
    assert b",\r\n" in (tmp_path / "fast.csv").read_bytes()
    assert b"3,,7.0\r\n" in (tmp_path / "fast.csv").read_bytes()


def _run_with_drops(tmp_path, tiny_cls_config):
    cfg = tiny_cls_config(n_train=200)     # large enough to drop before epoch 4
    report = runner.run_experiment(cfg, out_dir=str(tmp_path / "run"))
    assert report.drop_events and report.gmm_trace
    return cfg, report, tmp_path / "run"


def test_noise_mask_csv_matches_csv_writer_reference(tmp_path, tiny_cls_config):
    cfg, _, out = _run_with_drops(tmp_path, tiny_cls_config)
    train, mask = runner._inject(cfg, runner._load_dataset(cfg))
    assert mask.corrupted.any() and not mask.corrupted.all()
    want = [[int(i), int(c)] for i, c in zip(train.ids, mask.corrupted)]
    assert (out / "noise_mask.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["sample_id", "corrupted"], want)


def test_drops_and_gmm_trace_csv_match_csv_writer_reference(tmp_path, tiny_cls_config):
    # against the per-row csv.writer loops the runner wrote them with
    _, report, out = _run_with_drops(tmp_path, tiny_cls_config)
    want = [[row["epoch"], row["sample_id"], repr(row["posterior"]), int(row["was_noisy"])]
            for row in report.drop_events]
    assert (out / "drops.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["epoch", "sample_id", "posterior", "was_noisy"], want)
    want = [[row["epoch"], row["k"], repr(row["log_likelihood"]), repr(row["bic"]),
             row["n_iter"], int(row["converged"]), int(row["degenerate"]),
             int(row["selected"]), ";".join(repr(x) for x in row["weights"]),
             ";".join(repr(x) for x in row["means"]),
             ";".join(repr(x) for x in row["variances"])]
            for row in report.gmm_trace]
    assert {row[7] for row in want} == {0, 1}
    assert (out / "gmm_trace.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["epoch", "k", "log_likelihood", "bic", "n_iter",
                               "converged", "degenerate", "selected", "weights",
                               "means", "variances"], want)


def test_summary_csv_matches_csv_writer_reference(tmp_path, tiny_cls_config):
    # baseline arms drop nothing and the clean rate has no noisy sample, so
    # precision and recall cells come out empty
    reports = runner.run_grid(tiny_cls_config(), [0.0, 0.15], [3], out_dir=str(tmp_path))
    want = [[r.config["task"], f"{r.config['noise_rate']:g}", r.config["seed"],
             "on" if r.config["mantra"] else "off", repr(r.test_metric), r.dropped_total,
             "" if r.detection["precision"] is None else repr(r.detection["precision"]),
             "" if r.detection["recall"] is None else repr(r.detection["recall"])]
            for r in reports]
    assert "" in {row[6] for row in want} and "" in {row[7] for row in want}
    assert (tmp_path / "summary.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["task", "rate", "seed", "mantra", "test_metric",
                               "dropped", "det_precision", "det_recall"], want)
