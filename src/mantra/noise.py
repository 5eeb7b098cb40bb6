"""Controlled label corruption for train splits.

Corruption only ever touches training samples; validation and test splits
pass through untouched.  Sample count is round-half-up(rate * n) exactly,
and selection is a seeded shuffle.  Each injector returns a copy of the
split in which only the labels (y) or the targets (tgt) are new arrays,
plus the corruption flags: an (n,) bool array by train position, read-only
like the split's own arrays, against which detection quality is scored.
"""

import math
from dataclasses import replace

import numpy as np

from .data import N_INTENTS
from .errors import UsageError

_TAG_SELECT = 31
_TAG_DRAW = 32


def corruption_count(rate, n):
    """Number of samples to corrupt: round-half-up of rate * n, rate in [0, 1]."""
    if not (0.0 <= rate <= 1.0):
        raise UsageError(f"noise rate must lie in [0, 1], got {rate}")
    return int(math.floor(rate * n + 0.5))


def _select(n_train, n_corrupt, seed):
    """First n_corrupt positions of a seeded shuffle of 0..n-1, sorted."""
    order = np.random.default_rng([seed, _TAG_SELECT]).permutation(n_train)
    return np.sort(order[:n_corrupt])


def inject_label_noise(train, rate, seed):
    """Corrupt the classification labels of a copy of the train split.

    The whole label set of a selected sample is replaced by a single intent
    drawn uniformly from the intents the sample did not carry (a sample
    already carrying all 7 intents draws uniformly from all of them; its
    singleton set still differs from the original).  Returns
    (new_train, corrupted).
    """
    n = len(train)
    picked = _select(n, corruption_count(rate, n), seed)
    draw_rng = np.random.default_rng([seed, _TAG_DRAW])

    y = train.y.copy()
    for pos in picked:
        absent = np.flatnonzero(y[pos] == 0)
        pool = absent if absent.size else np.arange(N_INTENTS)
        y[pos] = 0.0
        y[pos, draw_rng.choice(pool)] = 1.0
    corrupted = np.isin(np.arange(n), picked)
    corrupted.setflags(write=False)
    return replace(train, y=y), corrupted


def inject_summary_noise(train, rate, seed, n_content):
    """Corrupt the summarization targets of a copy of the train split.

    Every content token of a selected target is replaced by an independent
    uniform draw from the dataset's target content ids [0, n_content), sample
    after sample from one stream; length and the trailing EOS are preserved.
    Returns (new_train, corrupted).
    """
    n = len(train)
    picked = _select(n, corruption_count(rate, n), seed)
    draw_rng = np.random.default_rng([seed, _TAG_DRAW])

    tgt = train.tgt.copy()
    rows, cols = np.nonzero(np.arange(tgt.shape[1]) < train.tgt_len[picked, None] - 1)
    tgt[picked[rows], cols] = draw_rng.integers(0, n_content, size=rows.size,
                                                dtype=np.int64)
    corrupted = np.isin(np.arange(n), picked)
    corrupted.setflags(write=False)
    return replace(train, tgt=tgt), corrupted
