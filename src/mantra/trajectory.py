"""Per-sample loss trajectory bookkeeping.

The store is one (epochs, n_train) array of losses over train positions, the
layout of the scheduler's DropState and the noise mask: row e - 1 holds
epoch e, NaN where a sample was not scored.  Only active samples are scored,
so a sample's column is NaN past the epoch it was dropped at.  Epochs must
be recorded contiguously starting at 1 so that downstream consumers (group
curves, histograms, the drop scheduler) can trust the sequence.  The store
keeps the split's ids and ground-truth corruption flags beside the array,
for the clean and noisy group means.  The trajectory CSV holds epoch, sample
id and loss only: the flag is the run's noise_mask.csv, joined on sample id.
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
    def __init__(self, ids, corrupted, epochs):
        """An empty store for a train split's ids and corruption flags, and a run of epochs."""
        self.ids = np.asarray(ids, dtype=np.int64)
        self.corrupted = np.asarray(corrupted, dtype=bool)
        self.losses = np.full((epochs, self.ids.size), np.nan)
        self.last_epoch = 0

    def record_epoch(self, epoch, sample_ids, losses):
        """Record the scored samples of one epoch, given in train order.

        epoch must be exactly last_epoch + 1 (starting from 1) and within the
        store's epochs; anything else raises SequencingError so pipeline
        ordering bugs surface immediately.
        """
        if not epoch == self.last_epoch + 1 <= len(self.losses):
            raise SequencingError(f"expected epoch {self.last_epoch + 1} of "
                                  f"{len(self.losses)}, got {epoch}")
        ids = np.asarray(sample_ids, dtype=np.int64)
        vals = np.asarray(losses, dtype=np.float64)
        if ids.shape != vals.shape:
            raise UsageError("ids and losses must have matching lengths")
        if not np.all(np.isfinite(vals)):
            raise UsageError("losses must be finite")
        scored = np.isin(self.ids, ids)
        if not np.array_equal(self.ids[scored], ids):
            raise UsageError("sample ids must be distinct train ids, in train order")
        self.losses[epoch - 1, scored] = vals
        self.last_epoch = epoch

    def _scored(self):
        """(epoch, train positions scored that epoch, their losses) of each recorded epoch."""
        for epoch, row in enumerate(self.losses[:self.last_epoch], start=1):
            pos = np.flatnonzero(~np.isnan(row))
            yield epoch, pos, row[pos]

    def group_means(self):
        """Mean loss per epoch for the clean and noisy groups.

        Returns {epoch: {"clean": float | None, "noisy": float | None}}; a
        group with no recorded samples that epoch reports None rather than a
        fabricated number.
        """
        out = {}
        for epoch, pos, losses in self._scored():
            noisy = self.corrupted[pos]
            out[epoch] = {name: float(losses[grp].mean()) if grp.any() else None
                          for name, grp in (("clean", ~noisy), ("noisy", noisy))}
        return out

    def save_csv(self, path):
        # Each column is built an epoch at a time as write_csv consumes it.
        epochs = list(self._scored())
        write_csv(path, ("epoch", "sample_id", "loss"), (
            chain.from_iterable([str(e)] * pos.size for e, pos, _ in epochs),
            chain.from_iterable(map(str, self.ids[pos].tolist()) for _, pos, _ in epochs),
            chain.from_iterable(map(repr, losses.tolist()) for _, _, losses in epochs)))

    def save_group_means_csv(self, path):
        means = self.group_means()
        write_csv(path, ("epoch", "clean_mean", "noisy_mean"), (
            map(str, means),
            [float_cell(entry["clean"]) for entry in means.values()],
            [float_cell(entry["noisy"]) for entry in means.values()]))

    def save_histogram_csv(self, path, epoch, bins):
        """One epoch's equal-width density histogram: bin edges and density per bin."""
        if not 1 <= epoch <= self.last_epoch:
            raise UsageError(f"epoch {epoch} has not been recorded")
        if bins < 1:
            raise UsageError("bins must be >= 1")
        row = self.losses[epoch - 1]
        density, edges = np.histogram(row[~np.isnan(row)], bins=bins, density=True)
        edges = list(map(repr, edges.tolist()))
        write_csv(path, ("bin_left", "bin_right", "density"),
                  (edges[:-1], edges[1:], map(repr, density.tolist())))
