"""Per-sample loss trajectory bookkeeping.

The store is one (epochs, n_train) array of losses, recorded and indexed by
train position like the scheduler's DropState and the corruption flags:
row e - 1 holds epoch e, NaN where a sample was not scored.  Only active
samples are scored, so a sample's column is NaN past the epoch it was
dropped at.  Epochs must be recorded contiguously starting at 1 so that
downstream consumers (group curves, histograms) can trust the sequence.
The store keeps the split's ids, for its CSV's sample_id cells, and the
ground-truth corruption flags, for the clean and noisy group means.  The
trajectory CSV holds epoch, sample id and loss only: the flag is
noise_mask.csv, joined on sample id.
"""

from itertools import chain, islice, repeat

import numpy as np

from .errors import UsageError


_BLOCK = 256     # rows per write, so no column's cells are all alive at once
HIST_BINS = 30   # bins of each density_e*.csv


def write_csv(path, header, columns, prefix=None):
    """Write the header row, then row i from cell i of each column.

    Every CSV artifact of the package is written here.  columns are
    equal-length iterables of cell strings (ValueError if not).  The cells
    are words, ints, float reprs, 0/1 flags, ';'-joined float reprs and
    empty cells (float_cell): none holds a comma, a quote or a line break,
    and no table has one column, so no row is a lone empty cell.  Nothing
    needs quoting, and the bytes equal the csv module's default dialect,
    CRLF row ends included.

    prefix, if given, is (src, n): the first n lines of the CSV file src,
    header included, are copied byte for byte ahead of the rows.  UsageError
    if src starts with another header or has fewer lines.
    """
    rows = map(",".join, zip(*columns, strict=True))
    head = (",".join(header) + "\r\n").encode()
    with open(path, "wb") as fh:
        fh.write(head)
        if prefix is not None:
            src, n = prefix
            with open(src, "rb") as lines:
                if next(lines, None) != head:
                    raise UsageError(f"{src} does not start with the header {header}")
                copied, todo = 1, islice(lines, n - 1)
                while block := list(islice(todo, _BLOCK)):
                    fh.writelines(block)
                    copied += len(block)
            if copied < n:
                raise UsageError(f"{src} has {copied} lines, fewer than {n}")
        while block := list(islice(rows, _BLOCK)):
            fh.write(("\r\n".join(block) + "\r\n").encode())


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

    def record_epoch(self, epoch, rows, losses):
        """Record one epoch's losses at the train positions it scored, in train order.

        epoch must be exactly last_epoch + 1 (starting from 1) and within the
        store's epochs; anything else raises UsageError so pipeline
        ordering bugs surface immediately.
        """
        if not epoch == self.last_epoch + 1 <= len(self.losses):
            raise UsageError(f"expected epoch {self.last_epoch + 1} of "
                             f"{len(self.losses)}, got {epoch}")
        rows = np.asarray(rows, dtype=np.int64)
        vals = np.asarray(losses, dtype=np.float64)
        if rows.ndim != 1 or rows.shape != vals.shape:
            raise UsageError("rows and losses must be 1-D, of matching lengths")
        if not np.all(np.isfinite(vals)):
            raise UsageError("losses must be finite")
        if rows.size and not (rows[0] >= 0 and rows[-1] < self.ids.size
                              and np.all(rows[1:] > rows[:-1])):
            raise UsageError("rows must be distinct train positions, in train order")
        self.losses[epoch - 1, rows] = vals
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

    def save_csv(self, path, copy_from=None, copy_epochs=0):
        """Write the trajectory CSV: one row per scored (epoch, sample).

        copy_from, if given, is the trajectory CSV of a run whose first
        copy_epochs epochs scored the same samples with the same losses (a
        grid pair's baseline): those rows are copied from it byte for byte,
        and only the later epochs are formatted.
        """
        scored = list(self._scored())
        prefix = None
        if copy_from is not None:
            # the header line, then one line per sample scored in the copied epochs
            prefix = (copy_from, 1 + sum(pos.size for _, pos, _ in scored[:copy_epochs]))
            scored = scored[copy_epochs:]
        id_cells = np.array(list(map(str, self.ids.tolist())), dtype=object)
        # Each column is built an epoch at a time as write_csv consumes it.
        write_csv(path, ("epoch", "sample_id", "loss"), (
            chain.from_iterable(repeat(str(e), pos.size) for e, pos, _ in scored),
            chain.from_iterable(id_cells[pos].tolist() for _, pos, _ in scored),
            chain.from_iterable(map(repr, losses.tolist()) for _, _, losses in scored)),
            prefix)

    def save_group_means_csv(self, path):
        means = self.group_means()
        write_csv(path, ("epoch", "clean_mean", "noisy_mean"), (
            map(str, means),
            [float_cell(entry["clean"]) for entry in means.values()],
            [float_cell(entry["noisy"]) for entry in means.values()]))

    def save_histogram_csv(self, path, epoch):
        """One epoch's density histogram: HIST_BINS equal-width bins, edges and density."""
        if not 1 <= epoch <= self.last_epoch:
            raise UsageError(f"epoch {epoch} has not been recorded")
        row = self.losses[epoch - 1]
        density, edges = np.histogram(row[~np.isnan(row)], bins=HIST_BINS, density=True)
        edges = list(map(repr, edges.tolist()))
        write_csv(path, ("bin_left", "bin_right", "density"),
                  (edges[:-1], edges[1:], map(repr, density.tolist())))
