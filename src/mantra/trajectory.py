"""Per-sample loss trajectory bookkeeping.

The store accumulates one row per scored sample per epoch.  Epochs must be
recorded contiguously starting at 1 so that downstream consumers (group
curves, histograms, the drop scheduler) can trust the sequence.  Rows keep
the ground-truth corruption flag alongside the loss, for the clean and
noisy group means.  The trajectory CSV holds epoch, sample id and loss
only: the flag is the run's noise_mask.csv, joined on sample id.  Only
active samples are scored, so a sample's rows stop at the epoch it was
dropped at.
"""

from itertools import chain, islice

import numpy as np

from .errors import SequencingError, UsageError


def write_csv(path, header, columns):
    """Write the header row, then row i from cell i of each column.

    Every CSV artifact of the package is written here.  columns are
    equal-length iterables of cell strings (ValueError if not).  The cells
    are words, ints, float reprs, 0/1 flags, ';'-joined float reprs and
    empty cells (float_cell): none holds a comma, a quote or a line break,
    and no table has one column, so no row is a lone empty cell.  Nothing
    needs quoting, and the bytes equal the csv module's default dialect,
    CRLF row ends included.
    """
    rows = map(",".join, zip(*columns, strict=True))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        # a bounded block per write: a lazy column's cells are never all alive at once
        while block := list(islice(rows, 256)):
            fh.write("\r\n".join(block) + "\r\n")


def float_cell(value):
    """A float's repr, or the empty cell for None (a mean over no samples, say)."""
    return "" if value is None else repr(value)


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

    def loss_histogram(self, epoch, bins):
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
        # Each column is built an epoch at a time as write_csv consumes it.
        epochs = [(str(epoch), self._epochs[epoch]) for epoch in self.epochs]
        write_csv(path, ("epoch", "sample_id", "loss"), (
            chain.from_iterable([e] * r["ids"].size for e, r in epochs),
            chain.from_iterable([str(i) for i in r["ids"].tolist()] for _, r in epochs),
            chain.from_iterable([repr(x) for x in r["losses"].tolist()] for _, r in epochs)))

    def save_group_means_csv(self, path):
        means = self.group_means()
        write_csv(path, ("epoch", "clean_mean", "noisy_mean"), (
            map(str, means),
            [float_cell(entry["clean"]) for entry in means.values()],
            [float_cell(entry["noisy"]) for entry in means.values()]))

    def save_histogram_csv(self, path, epoch, bins):
        edges, density = self.loss_histogram(epoch, bins)
        edges = list(map(repr, edges.tolist()))
        write_csv(path, ("bin_left", "bin_right", "density"),
                  (edges[:-1], edges[1:], map(repr, density.tolist())))
