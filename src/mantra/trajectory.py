"""Per-sample loss trajectory bookkeeping.

The store accumulates one row per scored sample per epoch.  Epochs must be
recorded contiguously starting at 1 so that downstream consumers (group
curves, histograms, the drop scheduler) can trust the sequence.  Rows keep
the ground-truth corruption flag alongside the loss, which makes the CSV
exports self-describing.  Only active samples are scored, so a sample's
rows stop at the epoch it was dropped at.
"""

import csv

import numpy as np

from .errors import SequencingError, UsageError

_FLAG_SUFFIX = ("0\r\n", "1\r\n")   # is_noisy column by noisy


class TrajectoryStore:
    def __init__(self):
        self._epochs = {}       # epoch -> dict(ids, losses, noisy)

    @property
    def epochs(self):
        return sorted(self._epochs)

    @property
    def last_epoch(self):
        return max(self._epochs) if self._epochs else 0

    def record_epoch(self, epoch, sample_ids, losses, is_noisy):
        """Record the scored samples of one epoch.

        epoch must be exactly last_epoch + 1 (starting from 1); anything else
        raises SequencingError so pipeline ordering bugs surface immediately.
        """
        if epoch != self.last_epoch + 1:
            raise SequencingError(
                f"expected epoch {self.last_epoch + 1}, got {epoch}")
        ids = np.asarray(sample_ids, dtype=np.int64)
        vals = np.asarray(losses, dtype=np.float64)
        noisy = np.asarray(is_noisy, dtype=bool)
        if not (ids.shape == vals.shape == noisy.shape):
            raise UsageError("ids, losses, and flags must have matching lengths")
        if np.unique(ids).shape[0] != ids.shape[0]:
            raise UsageError("sample ids must be unique within an epoch")
        if not np.all(np.isfinite(vals)):
            raise UsageError("losses must be finite")
        self._epochs[epoch] = {
            "ids": ids.copy(), "losses": vals.copy(), "noisy": noisy.copy()}

    def epoch_rows(self, epoch):
        if epoch not in self._epochs:
            raise UsageError(f"epoch {epoch} has not been recorded")
        return self._epochs[epoch]

    def group_means(self):
        """Mean loss per epoch for the clean and noisy groups.

        Returns {epoch: {"clean": float | None, "noisy": float | None}}; a
        group with no recorded samples that epoch reports None rather than a
        fabricated number.
        """
        out = {}
        for epoch in self.epochs:
            rows = self._epochs[epoch]
            noisy = rows["noisy"]
            entry = {}
            for name, grp in (("clean", ~noisy), ("noisy", noisy)):
                entry[name] = float(rows["losses"][grp].mean()) if grp.any() else None
            out[epoch] = entry
        return out

    def loss_histogram(self, epoch, bins=30):
        """Equal-width density histogram of one epoch's losses.

        Returns (edges, density) with len(edges) == bins + 1 and
        sum(density * widths) == 1.
        """
        if bins < 1:
            raise UsageError("bins must be >= 1")
        density, edges = np.histogram(self.epoch_rows(epoch)["losses"], bins=bins,
                                      density=True)
        return edges, density

    def save_csv(self, path):
        # One string per epoch from .tolist() columns: csv.writer's per-row
        # calls and numpy scalar indexing dominated the write.  No field can
        # need quoting (ints, finite float reprs), so the bytes are the same.
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("epoch,sample_id,loss,is_noisy\r\n")
            for epoch in self.epochs:
                rows = self._epochs[epoch]
                fh.write("".join([
                    f"{epoch},{sid},{loss!r},{_FLAG_SUFFIX[f]}" for sid, loss, f in
                    zip(rows["ids"].tolist(), rows["losses"].tolist(),
                        rows["noisy"].tolist())]))

    def save_group_means_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "clean_mean", "noisy_mean"])
            for epoch, entry in self.group_means().items():
                writer.writerow([
                    epoch,
                    "" if entry["clean"] is None else repr(entry["clean"]),
                    "" if entry["noisy"] is None else repr(entry["noisy"]),
                ])

    def save_histogram_csv(self, path, epoch, bins=30):
        # One string from .tolist() columns, as in save_csv.
        edges, density = self.loss_histogram(epoch, bins=bins)
        edges = edges.tolist()
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("bin_left,bin_right,density\r\n" + "".join([
                f"{left!r},{right!r},{d!r}\r\n"
                for left, right, d in zip(edges, edges[1:], density.tolist())]))
