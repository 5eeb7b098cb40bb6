"""Metrics: micro-F1 and BLEU against independent reimplementations."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from mantra import data, learner, metrics, runner
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


def _bleu(cands, refs):
    """bleu4 of list-form sentences, each side packed by data._pad."""
    return metrics.bleu4(*data._pad(cands), *data._pad(refs))


def test_bleu_identity_and_empties():
    refs = [[1, 2, 3, 4, 5], [6, 7, 8, 9]]
    assert _bleu(refs, refs) == pytest.approx(1.0, abs=1e-12)
    assert _bleu([[], []], refs) == 0.0
    # one empty candidate only loses its own mass
    mixed = _bleu([refs[0], []], refs)
    assert 0.0 < mixed < 1.0


def test_bleu_rejects_arrays_outside_its_contract():
    tokens, lengths = data._pad([[1, 2], [3]])
    for args in (
            (tokens, lengths, tokens[:1], lengths[:1]),         # pair counts differ
            (tokens[:0], lengths[:0], tokens[:0], lengths[:0]),  # no pairs
            (tokens, np.array([2, -1]), tokens, lengths),       # a negative length
            (tokens, lengths, tokens, np.array([3, 1])),        # past the width
            (tokens, lengths[:1], tokens, lengths),             # a row without length
            (tokens[0], lengths[:1], tokens, lengths)):         # not a padded array
        with pytest.raises(UsageError):
            metrics.bleu4(*args)


def test_bleu_clipped_unigram_case():
    # candidate of seven repeats of a token the reference carries twice:
    # p1 = 2/7 exactly, higher orders all smooth, brevity penalty 1
    cand = [[0, 0, 0, 0, 0, 0, 0]]
    ref = [[0, 1, 2, 3, 0, 4]]
    want = ((2 / 7) * (1 / 7) * (1 / 6) * (1 / 5)) ** 0.25
    assert _bleu(cand, ref) == pytest.approx(want, rel=1e-12)
    assert _bleu(cand, ref) == _reference_bleu4(cand, ref)


def test_bleu_brevity_penalty_directions():
    ref = [[1, 2, 3, 4]]
    short = _bleu([[1, 2]], ref)          # c < r: penalized
    exact = _bleu([[1, 2, 3, 4]], ref)
    assert short < exact
    # longer candidate pays no brevity penalty but dilutes precision
    longer = _bleu([[1, 2, 3, 4, 9, 9]], ref)
    assert longer == _reference_bleu4([[1, 2, 3, 4, 9, 9]], ref)


def _reference_bleu4(candidates, references):
    """The Counter-based bleu4 the array code replaced, kept verbatim."""
    def ngrams(tokens, n):
        return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))

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
            cand_counts = ngrams(cand, n)
            if not cand_counts:
                continue
            ref_counts = ngrams(ref, n)
            total += sum(cand_counts.values())
            matched += sum(min(cnt, ref_counts[g]) for g, cnt in cand_counts.items())
        if matched == 0:
            precision = (matched + 1) / (total + 1)
        else:
            precision = matched / total
        log_precisions.append(0.25 * math.log(precision))

    brevity = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    return brevity * math.exp(math.fsum(log_precisions))


def _corpus(rng, n_pairs, vocab, max_len, p_copy=0.3, p_empty=0.1, p_repeat=0.1):
    """Random pairs with exact copies, empty sides and one-token repeats."""
    def sentence():
        if rng.random() < p_empty:
            return []
        if rng.random() < p_repeat:         # repeated n-grams exercise clipping
            return [int(rng.integers(0, vocab))] * int(rng.integers(2, max_len + 1))
        return rng.integers(0, vocab, int(rng.integers(1, max_len + 1))).tolist()

    refs = [sentence() for _ in range(n_pairs)]
    cands = [list(r) if rng.random() < p_copy else sentence() for r in refs]
    return cands, refs


def _assert_exact_bleu(cands, refs):
    got = _bleu(cands, refs)
    assert got == _reference_bleu4(cands, refs), (cands, refs)
    # no pad is read: wider arrays whose pads hold live token ids score the same
    assert metrics.bleu4(*_live_pads(*data._pad(cands)), *_live_pads(*data._pad(refs))) == got


def _live_pads(tokens, lengths):
    """tokens three columns wider, every pad set to the largest token id."""
    wide = np.pad(tokens, ((0, 0), (0, 3)))
    return np.where(np.arange(wide.shape[1]) < lengths[:, None], wide, wide.max()), lengths


def test_bleu_equals_counter_reference_exactly():
    rng = np.random.default_rng(11)
    for _ in range(300):
        _assert_exact_bleu(*_corpus(rng, int(rng.integers(1, 12)),
                                    int(rng.choice([2, 5, 42])), 12))
    # token ids at and far beyond 2**16, over 100+ sentence pairs
    for vocab in (2**16 + 3, 2**40, 2**62):
        for _ in range(5):
            cands, refs = _corpus(rng, 150, 8, 16)
            offset = vocab - 8
            _assert_exact_bleu([[t + offset for t in c] for c in cands],
                               [[t + offset for t in r] for r in refs])
        _assert_exact_bleu(*_corpus(rng, 120, vocab, 16))


def test_bleu_exact_on_degenerate_corpora():
    cases = [
        ([[], [], []], [[1, 2], [3], []]),              # every candidate empty
        ([[1, 2, 3], []], [[], []]),                    # every reference empty
        ([[5], [6], [5]], [[5, 6, 7, 8], [6], [1]]),     # no bigram or longer
        ([[1, 2], [3, 4, 5]], [[1, 2], [3, 4, 5]]),     # no 4-gram
        ([[7] * 9], [[7] * 4]),                         # clipped at every order
        ([[1, 2, 1, 2, 1, 2]], [[1, 2, 1, 2]]),
        ([[0, 0, 0], [0, 0]], [[0, 0], [0, 0, 0, 0]]),   # same n-gram in two pairs
    ]
    for cands, refs in cases:
        _assert_exact_bleu(cands, refs)


def test_bleu_of_trained_decodes_equals_counter_reference_exactly():
    # what a run scores: greedy decodes of a baseline sum model after every
    # epoch, on its validation and test splits, against their EOS-less targets
    for seed, rate in itertools.product((1, 2), (0.0, 0.15)):
        config = runner.ExperimentConfig(task="summarization", seed=seed,
                                         noise_rate=rate, mantra=False)
        dataset, train, _ = runner._prepare(config)
        model = runner._new_model(config, dataset)
        scores = []
        for epoch in range(1, config.epochs + 1):
            learner.train_epoch(model, train, config, epoch)
            for split in (dataset.validation, dataset.test):
                out, out_len = learner.predict(model, split)
                got = metrics.bleu4(out, out_len, split.tgt, split.tgt_len - 1)
                assert got == _reference_bleu4(
                    [row[:n] for row, n in zip(out, out_len)],
                    [row[:n - 1] for row, n in zip(split.tgt, split.tgt_len)]), (seed, epoch)
                scores.append(got)
        assert len(set(scores)) > 10        # the decodes change as the model learns


def _reference_detection_report(dropped_ids, ids, corrupted):
    """The id-set form of detection_report, kept as its reference."""
    universe = set(int(i) for i in ids)
    corrupted = set(int(i) for i in ids[corrupted])
    dropped = set(int(i) for i in dropped_ids)
    assert dropped <= universe

    tp = len(dropped & corrupted)
    fp = len(dropped - corrupted)
    fn = len(corrupted - dropped)
    tn = len(universe) - tp - fp - fn

    precision = tp / len(dropped) if dropped else None
    recall = tp / len(corrupted) if corrupted else None
    if precision is None or recall is None or precision + recall == 0.0:
        f1 = None if (precision is None or recall is None) else 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    noise_rate = len(corrupted) / len(universe) if universe else 0.0
    lift = precision / noise_rate if (precision is not None and noise_rate > 0) else None
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn,
            "n_corrupted": len(corrupted), "n_dropped": len(dropped),
            "precision": precision, "recall": recall, "f1": f1,
            "noise_rate": noise_rate, "lift": lift}


def _at(n, positions):
    return np.isin(np.arange(n), list(positions))


def test_detection_report_counts_and_lift():
    rep = metrics.detection_report(_at(10, {0, 1, 5}), _at(10, {0, 1, 2, 3}))
    assert rep["precision"] == pytest.approx(2 / 3)
    assert rep["recall"] == pytest.approx(0.5)
    assert rep["f1"] == pytest.approx(2 * (2 / 3) * 0.5 / ((2 / 3) + 0.5))
    assert rep["lift"] == pytest.approx((2 / 3) / 0.4)   # noise_rate 0.4
    assert rep == {
        "tp": 2, "fp": 1, "fn": 2, "tn": 5, "n_corrupted": 4, "n_dropped": 3,
        "precision": rep["precision"], "recall": rep["recall"], "f1": rep["f1"],
        "noise_rate": 0.4, "lift": rep["lift"]}


def test_detection_report_none_semantics():
    rep = metrics.detection_report(_at(6, set()), _at(6, {1, 2}))
    assert rep["precision"] is None and rep["f1"] is None and rep["lift"] is None
    assert rep["recall"] == 0.0

    rep = metrics.detection_report(_at(6, {3}), _at(6, set()))
    assert rep["recall"] is None and rep["f1"] is None
    assert rep["precision"] == 0.0
    assert rep["lift"] is None                      # noise_rate 0

    rep = metrics.detection_report(_at(6, {4, 5}), _at(6, {1, 2}))
    assert rep["precision"] == 0.0 and rep["recall"] == 0.0 and rep["f1"] == 0.0

    with pytest.raises(UsageError):
        metrics.detection_report(_at(7, {6}), _at(6, {1}))


def test_detection_report_matches_id_set_reference():
    rng = np.random.default_rng(5)
    cases = [(0, 0.0, 0.0), (9, 0.0, 0.3), (9, 1.0, 0.3), (9, 0.4, 0.0), (9, 1.0, 1.0)]
    cases += [(int(rng.integers(1, 60)), rng.random(), rng.random()) for _ in range(40)]
    for n, p_drop, p_bad in cases:
        ids = rng.choice(10 * n + 1, size=n, replace=False)    # scattered train ids
        dropped = rng.random(n) < p_drop
        corrupted = rng.random(n) < p_bad
        got = metrics.detection_report(dropped, corrupted)
        assert got == _reference_detection_report(ids[dropped], ids, corrupted), (
            n, p_drop, p_bad)


def test_detection_f1_matches_reference_on_every_small_confusion():
    # tp, fp and fn below 16, including the confusions that drop nothing or
    # corrupt nothing: micro_f1_from_counts agrees with the reference's own
    # F1 formula bit for bit
    for tp, fp, fn in itertools.product(range(16), repeat=3):
        dropped = np.repeat([True, True, False, False], [tp, fp, fn, 1])
        corrupted = np.repeat([True, False, True, False], [tp, fp, fn, 1])
        f1 = metrics.detection_report(dropped, corrupted)["f1"]
        if tp + fp == 0 or tp + fn == 0:
            assert f1 is None, (tp, fp, fn)
        else:
            assert f1 == _reference_detection_report(
                np.flatnonzero(dropped), np.arange(dropped.size), corrupted)["f1"], (tp, fp, fn)
