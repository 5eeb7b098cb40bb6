"""Controlled label corruption for train splits.

Corruption only ever touches training samples; validation and test splits
pass through untouched.  Sample count is round-half-up(rate * n) exactly,
selection is a seeded shuffle, and the resulting mask records which train
rows were corrupted so detection quality can be scored later.  Each
injector returns a copy of the split in which only the labels (y) or the
targets (tgt) are new arrays, plus a NoiseMask of what the injection
created; the split's own ids name its train positions.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import INTENTS, N_INTENTS
from .errors import ConfigError

_TAG_SELECT = 31
_TAG_DRAW = 32
LABEL_NOISE_MODES = ("replace-set", "flip-one")


def corruption_count(rate, n):
    """Number of samples to corrupt: round-half-up of rate * n."""
    return int(math.floor(rate * n + 0.5))


@dataclass
class NoiseMask:
    """What an injection created, by train position (the split's ids name them)."""
    corrupted: np.ndarray   # (n,) bool
    prior_drift: dict = field(default_factory=dict)   # label priors; labels only


def _check_rate(rate):
    if not (0.0 <= rate <= 1.0):
        raise ConfigError(f"noise rate must lie in [0, 1], got {rate}")


def _select(n_train, n_corrupt, seed, eligible):
    """First n_corrupt eligible positions of a seeded shuffle of 0..n-1, sorted."""
    order = np.random.default_rng([seed, _TAG_SELECT]).permutation(n_train)
    picked = order[eligible[order]][:n_corrupt]
    if picked.size < n_corrupt:
        raise ConfigError(
            f"cannot corrupt {n_corrupt} samples: only {picked.size} eligible")
    return np.sort(picked)


def label_priors(split):
    """Fraction of samples carrying each intent, keyed by intent name."""
    counts = split.y.sum(axis=0)
    return {INTENTS[i]: counts[i] / len(split) for i in range(N_INTENTS)}


def inject_label_noise(train, rate, seed, mode):
    """Corrupt the classification labels of a copy of the train split.

    mode "replace-set": the whole label set of a selected sample is
    replaced by a single intent drawn uniformly from the intents the sample
    did not carry (a sample already carrying all 7 intents draws uniformly
    from all of them; its singleton set still differs from the original).
    mode "flip-one": one carried intent is swapped for one absent intent,
    leaving the rest of the set alone; all-7 samples have no absent intent
    and are skipped in shuffle order.  Returns (new_train, NoiseMask).
    """
    _check_rate(rate)
    if mode not in LABEL_NOISE_MODES:
        raise ConfigError(f"unknown classification noise mode {mode!r}")
    n = len(train)
    if mode == "replace-set":
        eligible = np.ones(n, dtype=bool)
    else:
        eligible = train.y.sum(axis=1) < N_INTENTS
    picked = _select(n, corruption_count(rate, n), seed, eligible)
    draw_rng = np.random.default_rng([seed, _TAG_DRAW])

    y = train.y.copy()
    for pos in picked:
        absent = np.flatnonzero(y[pos] == 0)
        if mode == "replace-set":
            pool = absent if absent.size else np.arange(N_INTENTS)
            y[pos] = 0.0
            y[pos, draw_rng.choice(pool)] = 1.0
        else:
            y[pos, draw_rng.choice(np.flatnonzero(y[pos] == 1))] = 0.0
            y[pos, draw_rng.choice(absent)] = 1.0
    out = replace(train, y=y)
    mask = NoiseMask(corrupted=np.isin(np.arange(n), picked),
                     prior_drift={"before": label_priors(train),
                                  "after": label_priors(out)})
    return out, mask


def inject_summary_noise(train, rate, seed, n_content):
    """Corrupt the summarization targets of a copy of the train split.

    Every content token of a selected target is replaced by an independent
    uniform draw from the dataset's target content ids [0, n_content), sample
    after sample from one stream; length and the trailing EOS are preserved.
    Returns (new_train, NoiseMask).
    """
    _check_rate(rate)
    n = len(train)
    picked = _select(n, corruption_count(rate, n), seed, np.ones(n, dtype=bool))
    draw_rng = np.random.default_rng([seed, _TAG_DRAW])

    tgt = train.tgt.copy()
    rows, cols = np.nonzero(np.arange(tgt.shape[1]) < train.tgt_len[picked, None] - 1)
    tgt[picked[rows], cols] = draw_rng.integers(0, n_content, size=rows.size,
                                                dtype=np.int64)
    mask = NoiseMask(corrupted=np.isin(np.arange(n), picked))
    return replace(train, tgt=tgt), mask
