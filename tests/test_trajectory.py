"""Trajectory store: sequencing, group curves, histograms, CSV exports."""

import csv

import numpy as np
import pytest

from mantra import runner
from mantra.errors import UsageError
from mantra.trajectory import HIST_BINS, TrajectoryStore, write_csv


def _store_with(ids, noisy, epochs):
    """A store over train ids and their flags, with each (rows, losses) epoch
    recorded: rows are the train positions scored, in train order."""
    store = TrajectoryStore(ids, noisy, len(epochs))
    for e, (rows, losses) in enumerate(epochs, start=1):
        store.record_epoch(e, rows, losses)
    return store


def test_epochs_must_be_contiguous_from_one():
    store = TrajectoryStore([1], [False], 2)
    with pytest.raises(UsageError, match="expected epoch 1 of 2, got 0"):
        store.record_epoch(0, [0], [0.5])
    with pytest.raises(UsageError, match="expected epoch 1 of 2, got 2"):
        store.record_epoch(2, [0], [0.5])
    store.record_epoch(1, [0], [0.5])
    with pytest.raises(UsageError, match="expected epoch 2 of 2, got 1"):
        store.record_epoch(1, [0], [0.5])    # no rewrites
    store.record_epoch(2, [0], [0.4])
    assert store.last_epoch == 2
    with pytest.raises(UsageError, match="expected epoch 3 of 2, got 3"):
        store.record_epoch(3, [0], [0.3])    # past the store's epochs


def test_row_validation(tmp_path):
    store = TrajectoryStore([10, 20, 30], [False, True, False], 1)
    for rows, losses in (([0, 1], [0.5]),              # lengths differ
                         ([1, 1], [0.5, 0.6]),         # repeated position
                         ([0, 1], [0.5, np.nan]),      # non-finite loss
                         ([-1, 0], [0.5, 0.6]),        # before the split
                         ([1, 3], [0.5, 0.6]),         # position n, past the split
                         ([2, 1], [0.5, 0.6]),         # decreasing
                         ([[0, 1]], [[0.5, 0.6]])):    # not 1-D
        with pytest.raises(UsageError):
            store.record_epoch(1, rows, losses)
    assert store.last_epoch == 0 and np.isnan(store.losses).all()
    with pytest.raises(UsageError):
        store.save_histogram_csv(tmp_path / "hist.csv", 1)
    store.record_epoch(1, [0, 2], [0.5, 0.6])
    assert np.array_equal(store.losses, [[0.5, np.nan, 0.6]], equal_nan=True)


def test_group_means_and_none_semantics():
    store = _store_with([1, 2, 3, 4], [False, True, False, True], [
        ([0, 1, 2, 3], [0.1, 0.3, 0.2, 0.8]),
        ([0, 2], [0.05, 0.15]),
    ])
    means = store.group_means()
    assert means[1]["clean"] == pytest.approx(0.15)
    assert means[1]["noisy"] == pytest.approx(0.55)
    assert means[2]["clean"] == pytest.approx(0.10)
    assert means[2]["noisy"] is None     # group absent, not zero


def test_recorded_arrays_are_copies():
    rows = np.array([0, 1])
    losses = np.array([0.5, 0.6])
    store = TrajectoryStore([1, 2], [False, False], 1)
    store.record_epoch(1, rows, losses)
    rows[0], losses[0] = 1, 99.0
    assert store.losses[0].tolist() == [0.5, 0.6]


def test_histogram_is_a_density(rng, tmp_path):
    losses = rng.lognormal(0.0, 0.5, 500)
    store = _store_with(np.arange(500), np.zeros(500, dtype=bool), [(np.arange(500), losses)])
    store.save_histogram_csv(tmp_path / "hist.csv", 1)
    rows = list(csv.DictReader((tmp_path / "hist.csv").open()))
    assert len(rows) == HIST_BINS
    assert sum(float(r["density"]) * (float(r["bin_right"]) - float(r["bin_left"]))
               for r in rows) == pytest.approx(1.0)


def _csv_writer_bytes(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def test_trajectory_csv_matches_csv_writer_reference(tmp_path):
    # exponent-form reprs, train ids out of sorted order, and a shrunken epoch
    # after drops, against the per-row csv.writer loop the export replaced;
    # the noisy flag is left out, and the id cells follow train order
    ids = [7, 3, 12, 5]
    epochs = [([0, 1, 2, 3], [1e-05, 0.1 + 0.2, 2.5e-300, 3.0]),
              ([1, 2], [123456789.125, 1.0 / 3.0]),
              ([2], [5e-324])]
    store = _store_with(ids, [False, True, False, True], epochs)
    store.save_csv(tmp_path / "fast.csv")
    want = [[epoch, ids[row], repr(loss)]
            for epoch, (rows, losses) in enumerate(epochs, start=1)
            for row, loss in zip(rows, losses)]
    assert (tmp_path / "fast.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["epoch", "sample_id", "loss"], want)
    assert b"1e-05" in (tmp_path / "fast.csv").read_bytes()


def test_histogram_csv_matches_csv_writer_reference(tmp_path):
    # exponent-form edges, a single-valued epoch, and bins past the sample count
    epochs = [([0, 1, 2, 3], [1e-07, 2.5e-06, 0.1 + 0.2, 3e-05]), ([0, 1], [0.7, 0.7])]
    store = _store_with([1, 2, 3, 4], [False, True, False, False], epochs)
    for epoch in (1, 2):
        store.save_histogram_csv(tmp_path / "fast.csv", epoch)
        density, edges = np.histogram(epochs[epoch - 1][1], bins=HIST_BINS, density=True)
        want = [[repr(float(edges[i])), repr(float(edges[i + 1])), repr(float(density[i]))]
                for i in range(HIST_BINS)]
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
    store = _store_with([1, 2, 3], [False, False, True], [
        ([0, 1, 2], [2e-06, 4e-06, 0.1 + 0.2]),
        ([0, 1], [0.5, 1.0 / 3.0]),
        ([2], [7.0]),
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
    train, corrupted = runner._inject(cfg, runner._load_dataset(cfg))
    assert corrupted.any() and not corrupted.all()
    want = [[int(i), int(c)] for i, c in zip(train.ids, corrupted)]
    assert (out / "noise_mask.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["sample_id", "corrupted"], want)


def test_drops_and_gmm_trace_csv_match_csv_writer_reference(tmp_path, tiny_cls_config):
    # against the per-row csv.writer loops the runner wrote them with
    _, report, out = _run_with_drops(tmp_path, tiny_cls_config)
    want = [[row["epoch"], row["sample_id"], repr(row["posterior"])]
            for row in report.drop_events]
    assert (out / "drops.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["epoch", "sample_id", "posterior"], want)
    want = [[row["epoch"], row["k"], repr(row["log_likelihood"]), repr(row["bic"]),
             row["n_iter"], int(row["converged"]), int(row["selected"]),
             ";".join(repr(x) for x in row["weights"]),
             ";".join(repr(x) for x in row["means"]),
             ";".join(repr(x) for x in row["variances"])]
            for row in report.gmm_trace]
    assert {row[6] for row in want} == {0, 1}
    assert (out / "gmm_trace.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["epoch", "k", "log_likelihood", "bic", "n_iter",
                               "converged", "selected", "weights", "means",
                               "variances"], want)


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


def test_grid_pair_stores_share_rows_until_the_first_drop(monkeypatch, tiny_cls_config):
    stores = []

    class Kept(TrajectoryStore):
        def __init__(self, *args):
            super().__init__(*args)
            stores.append(self)

    monkeypatch.setattr(runner, "TrajectoryStore", Kept)
    cfg = tiny_cls_config(n_train=200, epochs=6)
    _, treated = runner.run_grid(cfg, [cfg.noise_rate], [cfg.seed])
    base, treat = stores
    assert treat.ids.tobytes() == base.ids.tobytes()
    assert treat.corrupted.tobytes() == base.corrupted.tobytes()
    position = {sample_id: i for i, sample_id in enumerate(treat.ids.tolist())}
    dropped_at = np.zeros(len(position), dtype=np.int64)
    for event in treated.drop_events:
        dropped_at[position[event["sample_id"]]] = event["epoch"]
    first = dropped_at[dropped_at > 0].min()
    assert first < cfg.epochs
    # the baseline never drops, so every row scores the whole split; the
    # treated arm replays its rows bit for bit until its first drop takes effect
    assert not np.isnan(base.losses).any()
    assert treat.losses[:first].tobytes() == base.losses[:first].tobytes()
    epoch = np.arange(1, cfg.epochs + 1)[:, None]
    assert np.array_equal(np.isnan(treat.losses), (dropped_at > 0) & (epoch > dropped_at))


def test_write_csv_copies_a_prefix(tmp_path):
    src = tmp_path / "src.csv"
    write_csv(src, ("x", "y"), (map(str, range(600)), map(repr, range(600))))
    lines = src.read_bytes().splitlines(keepends=True)
    # the header and 299 rows copied, more than one block, then two formatted rows
    write_csv(tmp_path / "a.csv", ("x", "y"), (["a", "b"], ["1", "2"]), prefix=(src, 300))
    assert (tmp_path / "a.csv").read_bytes() == b"".join(lines[:300]) + b"a,1\r\nb,2\r\n"
    write_csv(tmp_path / "a.csv", ("x", "y"), ([], []), prefix=(src, 1))
    assert (tmp_path / "a.csv").read_bytes() == b"x,y\r\n"
    with pytest.raises(UsageError, match="header"):
        write_csv(tmp_path / "a.csv", ("x", "z"), ([], []), prefix=(src, 2))
    with pytest.raises(UsageError, match="601 lines, fewer than 602"):
        write_csv(tmp_path / "a.csv", ("x", "y"), ([], []), prefix=(src, 602))


def test_trajectory_csv_copies_leading_epochs(tmp_path):
    # the copy holds the header and the rows of the first epochs; later
    # epochs, a shrunken one included, are formatted from the store
    epochs = [([0, 1, 2], [1e-05, 0.5, 2.0]), ([0, 1, 2], [0.25, 0.75, 1.5]),
              ([1], [0.125])]
    store = _store_with([7, 3, 12], [False, True, False], epochs)
    store.save_csv(tmp_path / "whole.csv")
    whole = (tmp_path / "whole.csv").read_bytes()
    for copied in range(4):
        src = tmp_path / "src.csv"
        _store_with([7, 3, 12], [False, True, False], epochs[:copied]).save_csv(src)
        store.save_csv(tmp_path / "part.csv", copy_from=src, copy_epochs=copied)
        assert (tmp_path / "part.csv").read_bytes() == whole
