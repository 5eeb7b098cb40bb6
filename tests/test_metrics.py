"""Metrics: micro-F1 and BLEU against independent reimplementations."""

import math
from collections import Counter

import numpy as np
import pytest

from mantra import metrics, noise
from mantra.errors import UsageError


def test_micro_f1_count_oracle():
    # P = 3/4, R = 3/5 -> F1 = 2/3
    assert metrics.micro_f1_from_counts(3, 1, 2) == pytest.approx(2 / 3, abs=1e-9)
    assert metrics.micro_f1_from_counts(0, 0, 0) == 0.0
    assert metrics.micro_f1_from_counts(5, 0, 0) == 1.0
    assert metrics.micro_f1_from_counts(0, 3, 4) == 0.0
    with pytest.raises(UsageError):
        metrics.micro_f1_from_counts(1, -1, 0)


def _micro_f1_reference(y_true, y_pred):
    """Element-by-element recount, no vectorization shared with the package."""
    tp = fp = fn = 0
    for row_t, row_p in zip(y_true, y_pred):
        for t, p in zip(row_t, row_p):
            if t and p:
                tp += 1
            elif not t and p:
                fp += 1
            elif t and not p:
                fn += 1
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def test_micro_f1_matches_reference_on_random_batches(rng):
    for _ in range(25):
        n = int(rng.integers(1, 30))
        y_true = rng.integers(0, 2, (n, 7))
        y_pred = rng.integers(0, 2, (n, 7))
        assert metrics.micro_f1(y_true, y_pred) == pytest.approx(
            _micro_f1_reference(y_true, y_pred), abs=1e-12)
    with pytest.raises(UsageError):
        metrics.micro_f1(np.zeros((2, 7)), np.zeros((3, 7)))


def _bleu_reference(cands, refs):
    """Independent corpus BLEU-4: pooled clipped counts, add-one smoothing
    only for zero numerators, brevity penalty exp(1 - r/c) when c <= r."""
    cands = [list(c) for c in cands]
    refs = [list(r) for r in refs]
    c_len = sum(len(c) for c in cands)
    r_len = sum(len(r) for r in refs)
    if c_len == 0:
        return 0.0
    score = 1.0
    for n in range(1, 5):
        matched = total = 0
        for cand, ref in zip(cands, refs):
            cgrams = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
            rgrams = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            for g, cnt in cgrams.items():
                matched += min(cnt, rgrams.get(g, 0))
                total += cnt
        p = matched / total if matched else (matched + 1) / (total + 1)
        score *= p ** 0.25
    if c_len <= r_len:
        score *= math.exp(1 - r_len / c_len)
    return score


def test_bleu_identity_and_empties():
    refs = [[1, 2, 3, 4, 5], [6, 7, 8, 9]]
    assert metrics.bleu4(refs, refs) == pytest.approx(1.0, abs=1e-12)
    assert metrics.bleu4([[], []], refs) == 0.0
    # one empty candidate only loses its own mass
    mixed = metrics.bleu4([refs[0], []], refs)
    assert 0.0 < mixed < 1.0
    with pytest.raises(UsageError):
        metrics.bleu4([[1]], [[1], [2]])
    with pytest.raises(UsageError):
        metrics.bleu4([], [])


def test_bleu_clipped_unigram_case():
    # candidate of seven repeats of a token the reference carries twice:
    # p1 = 2/7 exactly, higher orders all smooth, brevity penalty 1
    cand = [[0, 0, 0, 0, 0, 0, 0]]
    ref = [[0, 1, 2, 3, 0, 4]]
    want = ((2 / 7) * (1 / 7) * (1 / 6) * (1 / 5)) ** 0.25
    assert metrics.bleu4(cand, ref) == pytest.approx(want, rel=1e-12)
    assert metrics.bleu4(cand, ref) == pytest.approx(_bleu_reference(cand, ref), rel=1e-12)


def test_bleu_brevity_penalty_directions():
    ref = [[1, 2, 3, 4]]
    short = metrics.bleu4([[1, 2]], ref)          # c < r: penalized
    exact = metrics.bleu4([[1, 2, 3, 4]], ref)
    assert short < exact
    # longer candidate pays no brevity penalty but dilutes precision
    longer = metrics.bleu4([[1, 2, 3, 4, 9, 9]], ref)
    assert longer == pytest.approx(_bleu_reference([[1, 2, 3, 4, 9, 9]], ref), rel=1e-12)


def test_bleu_matches_reference_on_random_corpora(rng):
    for _ in range(30):
        n = int(rng.integers(1, 8))
        cands, refs = [], []
        for _ in range(n):
            ref = rng.integers(0, 10, int(rng.integers(1, 12))).tolist()
            if rng.random() < 0.3:
                cand = list(ref)          # some exact matches
            elif rng.random() < 0.2:
                cand = []                 # some empty decodes
            else:
                cand = rng.integers(0, 10, int(rng.integers(1, 12))).tolist()
            refs.append(ref)
            cands.append(cand)
        assert metrics.bleu4(cands, refs) == pytest.approx(
            _bleu_reference(cands, refs), rel=1e-12)


def _mask(ids, corrupted_ids):
    ids = np.asarray(ids, dtype=np.int64)
    return noise.NoiseMask(ids=ids, corrupted=np.isin(ids, list(corrupted_ids)))


def test_detection_report_counts_and_lift():
    mask = _mask(range(10), {0, 1, 2, 3})          # noise_rate 0.4
    rep = metrics.detection_report([0, 1, 5], mask)
    assert (rep.tp, rep.fp, rep.fn, rep.tn) == (2, 1, 2, 5)
    assert rep.precision == pytest.approx(2 / 3)
    assert rep.recall == pytest.approx(0.5)
    assert rep.f1 == pytest.approx(2 * (2 / 3) * 0.5 / ((2 / 3) + 0.5))
    assert rep.lift == pytest.approx((2 / 3) / 0.4)
    assert rep.as_dict()["n_dropped"] == 3


def test_detection_report_none_semantics():
    rep = metrics.detection_report([], _mask(range(6), {1, 2}))
    assert rep.precision is None and rep.f1 is None and rep.lift is None
    assert rep.recall == 0.0

    rep = metrics.detection_report([3], _mask(range(6), set()))
    assert rep.recall is None and rep.f1 is None
    assert rep.precision == 0.0
    assert rep.lift is None                         # noise_rate 0

    rep = metrics.detection_report([4, 5], _mask(range(6), {1, 2}))
    assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0

    with pytest.raises(UsageError):
        metrics.detection_report([99], _mask(range(6), {1}))
