"""Evaluation metrics: micro-F1, corpus BLEU-4, and detection quality.

All metrics live on [0, 1]; report-time scaling (percentages, BLEU x 100)
is the caller's business.  Undefined ratios are reported as None rather
than silently coerced to a number.
"""

import math

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


def _clipped_matches(cand_keys, ref_keys):
    """Sum over distinct candidate keys of min(candidate count, reference count)."""
    keys, counts = np.unique(cand_keys, return_counts=True)
    ref_keys, ref_counts = np.unique(ref_keys, return_counts=True)
    at = np.searchsorted(ref_keys, keys)
    hit = np.append(ref_keys, -1)[at] == keys           # keys are non-negative
    return int(np.minimum(counts, np.where(hit, np.append(ref_counts, 0)[at], 0)).sum())


def _valid_tokens(tokens, lengths):
    """A padded (rows, width) token array's valid prefixes, concatenated, and its lengths."""
    tokens, lengths = np.asarray(tokens, dtype=np.int64), np.asarray(lengths, dtype=np.int64)
    if (tokens.ndim != 2 or lengths.shape != tokens.shape[:1]
            or ((lengths < 0) | (lengths > tokens.shape[1])).any()):
        raise UsageError(f"a {tokens.shape} token array needs a length in [0, width] per row")
    return tokens[np.arange(tokens.shape[1]) < lengths[:, None]], lengths


def bleu4(cand, cand_len, ref, ref_len):
    """Corpus BLEU with n-grams up to 4, one reference per candidate.

    Each side is a padded token array and its lengths, as greedy_decode
    returns them.  Clipped n-gram counts pool over the corpus before the
    precision ratio is taken.  A precision whose raw numerator is zero is
    smoothed add-one on both numerator and denominator; nonzero numerators
    stay exact.  Brevity penalty is 1 when the candidate corpus is longer
    than the reference corpus, else exp(1 - r/c).  An empty candidate
    contributes length 0 and no matches.  Returns a value in [0, 1].

    The counts are exact integers from array code.  Each n-gram of the
    corpus (N tokens, S sentence pairs) gets a dense id below N: the
    (n-1)-gram id times the number of distinct tokens plus the next token,
    ranked by np.unique.  The key pair * N + id names an n-gram within one
    sentence pair.  Every product stays below N * max(N, S), so no key
    collides or overflows int64 on a corpus that fits in memory, whatever
    the token ids.
    """
    cand_tokens, cand_len = _valid_tokens(cand, cand_len)
    ref_tokens, ref_len = _valid_tokens(ref, ref_len)
    n_pairs = cand_len.size
    if ref_len.size != n_pairs or not n_pairs:
        raise UsageError("BLEU needs at least one sentence pair, one reference per candidate")
    lengths = np.concatenate([cand_len, ref_len])
    c_len, r_len = cand_tokens.size, ref_tokens.size
    if c_len == 0:
        return 0.0

    # candidate tokens first, then reference tokens
    distinct, tok = np.unique(np.concatenate([cand_tokens, ref_tokens]), return_inverse=True)
    n_tokens = tok.size
    pair = np.repeat(np.arange(2 * n_pairs) % n_pairs, lengths)
    # tokens from each one to the end of its sentence, itself included
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(n_tokens)
    gram = tok
    log_precisions = []
    for n in range(1, 5):
        if n > 1:
            gram = np.unique(gram[:-1] * distinct.size + tok[n - 1:],
                             return_inverse=True)[1]
        key = pair[:gram.size] * n_tokens + gram
        fits = room[:gram.size] >= n            # the n-gram ends inside its sentence
        cand_keys = key[:c_len][fits[:c_len]]
        matched = _clipped_matches(cand_keys, key[c_len:][fits[c_len:]])
        total = cand_keys.size
        precision = matched / total if matched else 1 / (total + 1)     # add-one smoothing
        log_precisions.append(0.25 * math.log(precision))

    brevity = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    return brevity * math.exp(math.fsum(log_precisions))


def detection_report(dropped, corrupted):
    """Score the dropped samples against the ground-truth corruption.

    dropped and corrupted are boolean arrays over the same train positions.
    Returns the dict a RunReport stores as its detection: the confusion
    counts tp, fp, fn and tn with dropped samples as the positive class,
    n_corrupted, n_dropped, precision (None when nothing was dropped), recall
    (None when nothing was corrupted), f1 (None when either is), noise_rate,
    and lift, precision / noise_rate (None when precision is None or
    noise_rate is 0).
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
    f1 = None if precision is None or recall is None else micro_f1_from_counts(tp, fp, fn)
    noise_rate = n_corrupted / n if n else 0.0
    lift = precision / noise_rate if (precision is not None and noise_rate > 0) else None
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn,
            "n_corrupted": n_corrupted, "n_dropped": n_dropped,
            "precision": precision, "recall": recall, "f1": f1,
            "noise_rate": noise_rate, "lift": lift}
