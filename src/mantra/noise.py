"""Controlled label corruption for train splits.

Corruption only ever touches training samples; validation and test splits
pass through untouched.  Sample count is round-half-up(rate * n) exactly,
selection is a seeded shuffle, and the resulting mask records which train
ids were corrupted so detection quality can be scored later.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import (EOS, INTENTS, N_INTENTS, N_TGT_CONTENT,
                   ClassificationSample, SummarizationSample)
from .errors import ConfigError

_TAG_SELECT = 31
_TAG_DRAW = 32


def corruption_count(rate, n):
    """Number of samples to corrupt: round-half-up of rate * n."""
    return int(math.floor(rate * n + 0.5))


@dataclass
class NoiseMask:
    """Per-train-sample corruption record, aligned with train order."""
    ids: np.ndarray         # (n,) int64 sample ids in train order
    corrupted: np.ndarray   # (n,) bool
    prior_drift: dict = field(default_factory=dict)

    @property
    def corrupted_ids(self):
        return set(int(i) for i in self.ids[self.corrupted])

    def save_csv(self, path):
        # Same bytes as csv.writer rows, built in one pass.
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("sample_id,corrupted\r\n" + "".join([
                f"{sid},{bad:d}\r\n"
                for sid, bad in zip(self.ids.tolist(), self.corrupted.tolist())]))


def _check_rate(rate):
    if not (0.0 <= rate <= 1.0):
        raise ConfigError(f"noise rate must lie in [0, 1], got {rate}")


def _select(n_train, n_corrupt, seed, eligible):
    """First n_corrupt eligible positions of a seeded shuffle of 0..n-1."""
    order = np.random.default_rng([seed, _TAG_SELECT]).permutation(n_train)
    picked = [int(i) for i in order if eligible[i]][:n_corrupt]
    if len(picked) < n_corrupt:
        raise ConfigError(
            f"cannot corrupt {n_corrupt} samples: only {len(picked)} eligible")
    return sorted(picked)


def _frozen(a):
    a = np.asarray(a)
    a.setflags(write=False)
    return a


def label_priors(samples):
    """Fraction of samples carrying each intent, keyed by intent name."""
    counts = np.zeros(N_INTENTS, dtype=np.int64)
    for s in samples:
        counts += s.labels
    return {INTENTS[i]: counts[i] / len(samples) for i in range(N_INTENTS)}


def inject_label_noise(train, rate, seed, mode="replace-set"):
    """Corrupt classification labels on a copy of the train list.

    mode "replace-set" (default): the whole label set of a selected sample is
    replaced by a single intent drawn uniformly from the intents the sample
    did not carry (a sample already carrying all 7 intents draws uniformly
    from all of them; its singleton set still differs from the original).
    mode "flip-one": one carried intent is swapped for one absent intent,
    leaving the rest of the set alone; all-7 samples have no absent intent
    and are skipped in shuffle order.  Returns (new_train, NoiseMask).
    """
    _check_rate(rate)
    if mode not in ("replace-set", "flip-one"):
        raise ConfigError(f"unknown classification noise mode {mode!r}")
    n = len(train)
    k = corruption_count(rate, n)
    if mode == "replace-set":
        eligible = np.ones(n, dtype=bool)
    else:
        eligible = np.array([s.labels.sum() < N_INTENTS for s in train], dtype=bool)
    picked = _select(n, k, seed, eligible) if k else []
    draw_rng = np.random.default_rng([seed, _TAG_DRAW])

    corrupted = np.zeros(n, dtype=bool)
    out = list(train)
    for pos in picked:
        s = out[pos]
        absent = np.flatnonzero(s.labels == 0)
        if mode == "replace-set":
            pool = absent if absent.size else np.arange(N_INTENTS)
            bits = np.zeros(N_INTENTS, dtype=np.uint8)
            bits[draw_rng.choice(pool)] = 1
        else:
            present = np.flatnonzero(s.labels == 1)
            bits = s.labels.copy()
            bits[draw_rng.choice(present)] = 0
            bits[draw_rng.choice(absent)] = 1
        out[pos] = ClassificationSample(s.id, s.features, _frozen(bits))
        corrupted[pos] = True

    mask = NoiseMask(
        ids=np.asarray([s.id for s in train], dtype=np.int64),
        corrupted=corrupted,
        prior_drift={
            "before": label_priors(train),
            "after": label_priors(out),
        },
    )
    return out, mask


def inject_summary_noise(train, rate, seed):
    """Corrupt summarization targets on a copy of the train list.

    Every content token of a selected target is replaced by an independent
    uniform draw from the target content range; length and the trailing EOS
    are preserved.  Returns (new_train, NoiseMask).
    """
    _check_rate(rate)
    n = len(train)
    k = corruption_count(rate, n)
    eligible = np.ones(n, dtype=bool)
    picked = _select(n, k, seed, eligible) if k else []
    draw_rng = np.random.default_rng([seed, _TAG_DRAW])

    corrupted = np.zeros(n, dtype=bool)
    out = list(train)
    for pos in picked:
        s = out[pos]
        n_content = s.target.shape[0] - 1
        fresh = draw_rng.integers(0, N_TGT_CONTENT, size=n_content, dtype=np.int64)
        target = np.concatenate([fresh, [EOS]])
        out[pos] = SummarizationSample(s.id, s.source, _frozen(target))
        corrupted[pos] = True

    mask = NoiseMask(ids=np.asarray([s.id for s in train], dtype=np.int64),
                     corrupted=corrupted)
    return out, mask
