"""Per-sample loss trajectory bookkeeping.

The store accumulates one row per scored sample per epoch.  Epochs must be
recorded contiguously starting at 1 so that downstream consumers (group
curves, histograms, the drop scheduler) can trust the sequence.  Rows keep
the ground-truth corruption flag and the activity flag alongside the loss,
which makes the CSV exports self-describing.
"""

import csv

import numpy as np

from .errors import SequencingError, UsageError

TRANSFORMS = {
    "identity": lambda x: np.asarray(x, dtype=np.float64),
    "log1p": lambda x: np.log1p(np.asarray(x, dtype=np.float64)),
}

_FLAG_SUFFIX = ("0,0\r\n", "0,1\r\n", "1,0\r\n", "1,1\r\n")   # by 2 * noisy + active


class TrajectoryStore:
    def __init__(self):
        self._epochs = {}       # epoch -> dict(ids, losses, noisy, active)

    @property
    def epochs(self):
        return sorted(self._epochs)

    @property
    def last_epoch(self):
        return max(self._epochs) if self._epochs else 0

    def record_epoch(self, epoch, sample_ids, losses, is_noisy, active=None):
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
        act = np.ones(ids.shape[0], dtype=bool) if active is None \
            else np.asarray(active, dtype=bool)
        if not (ids.shape == vals.shape == noisy.shape == act.shape):
            raise UsageError("ids, losses, and flags must have matching lengths")
        if np.unique(ids).shape[0] != ids.shape[0]:
            raise UsageError("sample ids must be unique within an epoch")
        if not np.all(np.isfinite(vals)):
            raise UsageError("losses must be finite")
        self._epochs[epoch] = {
            "ids": ids.copy(), "losses": vals.copy(),
            "noisy": noisy.copy(), "active": act.copy(),
        }

    def epoch_rows(self, epoch):
        if epoch not in self._epochs:
            raise UsageError(f"epoch {epoch} has not been recorded")
        return self._epochs[epoch]

    def losses_for(self, epoch, sample_ids):
        rows = self.epoch_rows(epoch)
        index = {int(i): k for k, i in enumerate(rows["ids"])}
        try:
            pick = [index[int(i)] for i in sample_ids]
        except KeyError as exc:
            raise UsageError(f"sample id {exc.args[0]} not recorded in epoch {epoch}")
        return rows["losses"][pick]

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

    def loss_histogram(self, epoch, bins=30, transform="identity"):
        """Equal-width density histogram of one epoch's (transformed) losses.

        Returns (edges, density) with len(edges) == bins + 1 and
        sum(density * widths) == 1.
        """
        if transform not in TRANSFORMS:
            raise UsageError(f"transform must be one of {sorted(TRANSFORMS)}")
        if bins < 1:
            raise UsageError("bins must be >= 1")
        values = TRANSFORMS[transform](self.epoch_rows(epoch)["losses"])
        density, edges = np.histogram(values, bins=bins, density=True)
        return edges, density

    def save_csv(self, path):
        # One string per epoch from .tolist() columns: csv.writer's per-row
        # calls and numpy scalar indexing dominated the write.  No field can
        # need quoting (ints, finite float reprs), so the bytes are the same.
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("epoch,sample_id,loss,is_noisy,active\r\n")
            for epoch in self.epochs:
                rows = self._epochs[epoch]
                flags = (2 * rows["noisy"] + rows["active"]).tolist()
                fh.write("".join([
                    f"{epoch},{sid},{loss!r},{_FLAG_SUFFIX[f]}" for sid, loss, f in
                    zip(rows["ids"].tolist(), rows["losses"].tolist(), flags)]))

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

    def save_histogram_csv(self, path, epoch, bins=30, transform="identity"):
        edges, density = self.loss_histogram(epoch, bins=bins, transform=transform)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_left", "bin_right", "density"])
            for i in range(density.shape[0]):
                writer.writerow([repr(float(edges[i])), repr(float(edges[i + 1])),
                                 repr(float(density[i]))])
