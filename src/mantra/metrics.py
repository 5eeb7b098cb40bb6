"""Evaluation metrics: micro-F1, corpus BLEU-4, and detection quality.

All metrics live on [0, 1]; report-time scaling (percentages, BLEU x 100)
is the caller's business.  Undefined ratios are reported as None rather
than silently coerced to a number.
"""

import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .errors import UsageError


def micro_f1_from_counts(tp, fp, fn):
    """Micro-averaged F1 from pooled true/false positive/negative counts."""
    if min(tp, fp, fn) < 0:
        raise UsageError("counts must be non-negative")
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def micro_f1(y_true, y_pred):
    """Micro-F1 over a multi-label batch: counts pool over samples and labels."""
    t = np.asarray(y_true, dtype=bool)
    p = np.asarray(y_pred, dtype=bool)
    if t.shape != p.shape:
        raise UsageError(f"shape mismatch: {t.shape} vs {p.shape}")
    tp = int(np.sum(t & p))
    fp = int(np.sum(~t & p))
    fn = int(np.sum(t & ~p))
    return micro_f1_from_counts(tp, fp, fn)


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu4(candidates, references):
    """Corpus BLEU with n-grams up to 4, one reference per candidate.

    Clipped n-gram counts pool over the corpus before the precision ratio is
    taken.  A precision whose raw numerator is zero is smoothed add-one on
    both numerator and denominator; nonzero numerators stay exact.  Brevity
    penalty is 1 when the candidate corpus is longer than the reference
    corpus, else exp(1 - r/c).  An empty candidate contributes length 0 and
    no matches.  Returns a value in [0, 1].
    """
    if len(references) != len(candidates):
        raise UsageError("references and candidates must pair up one to one")
    if not references:
        raise UsageError("BLEU needs at least one sentence pair")
    refs = [tuple(int(t) for t in r) for r in references]
    cands = [tuple(int(t) for t in c) for c in candidates]
    c_len = sum(len(c) for c in cands)
    r_len = sum(len(r) for r in refs)
    if c_len == 0:
        return 0.0

    log_precisions = []
    for n in range(1, 5):
        matched = 0
        total = 0
        for ref, cand in zip(refs, cands):
            cand_counts = _ngrams(cand, n)
            if not cand_counts:
                continue
            ref_counts = _ngrams(ref, n)
            total += sum(cand_counts.values())
            matched += sum(min(cnt, ref_counts[g]) for g, cnt in cand_counts.items())
        if matched == 0:
            precision = (matched + 1) / (total + 1)
        else:
            precision = matched / total
        log_precisions.append(0.25 * math.log(precision))

    brevity = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    return brevity * math.exp(math.fsum(log_precisions))


@dataclass
class DetectionReport:
    """Noise-detection quality, with dropped samples as the positive class."""
    tp: int
    fp: int
    fn: int
    tn: int
    n_corrupted: int
    n_dropped: int
    precision: float | None    # None when nothing was dropped
    recall: float | None       # None when nothing was corrupted
    f1: float | None
    noise_rate: float
    lift: float | None         # precision / noise_rate; None when undefined

    def as_dict(self):
        return asdict(self)


def detection_report(dropped, corrupted):
    """Score the dropped samples against the ground-truth corruption.

    dropped and corrupted are boolean arrays over the same train positions.
    """
    dropped = np.asarray(dropped, dtype=bool)
    corrupted = np.asarray(corrupted, dtype=bool)
    if dropped.shape != corrupted.shape:
        raise UsageError(f"shape mismatch: {dropped.shape} vs {corrupted.shape}")
    n = dropped.size
    n_dropped = int(np.count_nonzero(dropped))
    n_corrupted = int(np.count_nonzero(corrupted))
    tp = int(np.count_nonzero(dropped & corrupted))
    fp = n_dropped - tp
    fn = n_corrupted - tp
    tn = n - tp - fp - fn

    precision = tp / n_dropped if n_dropped else None
    recall = tp / n_corrupted if n_corrupted else None
    if precision is None or recall is None or precision + recall == 0.0:
        f1 = None if (precision is None or recall is None) else 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    noise_rate = n_corrupted / n if n else 0.0
    lift = precision / noise_rate if (precision is not None and noise_rate > 0) else None
    return DetectionReport(tp=tp, fp=fp, fn=fn, tn=tn,
                           n_corrupted=n_corrupted, n_dropped=n_dropped,
                           precision=precision, recall=recall, f1=f1,
                           noise_rate=noise_rate, lift=lift)
