"""Trajectory store: sequencing, group curves, histograms, CSV exports."""

import csv

import numpy as np
import pytest

from mantra.errors import SequencingError, UsageError
from mantra.noise import NoiseMask
from mantra.scheduler import TRANSFORMS
from mantra.trajectory import TrajectoryStore


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


def test_transform_table():
    x = np.array([0.0, 1.0, 3.0])
    np.testing.assert_allclose(TRANSFORMS["identity"](x), x)
    np.testing.assert_allclose(TRANSFORMS["log1p"](x), np.log1p(x))


def test_csv_exports(tmp_path):
    store = _store_with([
        ([1, 2], [0.5, 1.5], [False, True]),
        ([1], [0.25], [False]),
    ])
    traj = tmp_path / "traj.csv"
    store.save_csv(traj)
    rows = list(csv.DictReader(traj.open()))
    assert len(rows) == 3
    assert rows[0] == {"epoch": "1", "sample_id": "1", "loss": "0.5",
                       "is_noisy": "0", "active": "1"}
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
    # exponent-form reprs, both noisy flags, and a shrunken epoch after
    # drops, against the per-row csv.writer loop the export replaced; only
    # active samples are recorded, so `active` is always 1
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
            want.append([epoch, int(rows["ids"][i]), repr(float(rows["losses"][i])),
                         int(rows["noisy"][i]), 1])
    assert (tmp_path / "fast.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["epoch", "sample_id", "loss", "is_noisy", "active"], want)
    assert b"1e-05" in (tmp_path / "fast.csv").read_bytes()


def test_noise_mask_csv_matches_csv_writer_reference(tmp_path):
    mask = NoiseMask(ids=np.array([4, 0, 9, 2], dtype=np.int64),
                     corrupted=np.array([True, False, False, True]))
    mask.save_csv(tmp_path / "fast.csv")
    want = [[int(i), int(c)] for i, c in zip(mask.ids, mask.corrupted)]
    assert (tmp_path / "fast.csv").read_bytes() == _csv_writer_bytes(
        tmp_path / "ref.csv", ["sample_id", "corrupted"], want)
