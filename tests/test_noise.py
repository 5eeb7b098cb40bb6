"""Noise injection: counts, determinism, corruption flags."""

import numpy as np
import pytest

from mantra import data, noise
from mantra.errors import UsageError


def test_corruption_count_rounds_half_up():
    # round-half-up, not banker's rounding
    assert noise.corruption_count(0.05, 1000) == 50
    assert noise.corruption_count(0.15, 700) == 105
    assert noise.corruption_count(0.5, 5) == 3       # 2.5 -> 3
    assert noise.corruption_count(0.5, 3) == 2       # 1.5 -> 2, not 2-to-even
    assert noise.corruption_count(0.25, 2) == 1      # 0.5 -> 1
    assert noise.corruption_count(0.0, 999) == 0
    assert noise.corruption_count(1.0, 17) == 17
    # brute-force against the definition on a grid
    for n in range(1, 40):
        for num in range(0, 21):
            rate = num / 20
            assert noise.corruption_count(rate, n) == int(np.floor(rate * n + 0.5))


@pytest.fixture()
def cls_train():
    return data.generate_classification_dataset(
        13, n_train=100, n_val=10, n_test=10, d=8).train


@pytest.fixture()
def sum_train():
    return data.generate_summarization_dataset(13, n_train=80, n_val=8, n_test=8).train


def test_replace_set_semantics(cls_train):
    out, corrupted = noise.inject_label_noise(cls_train, 0.2, seed=4)
    assert len(out) == len(cls_train)
    assert corrupted.sum() == noise.corruption_count(0.2, 100) == 20
    assert out.ids is cls_train.ids
    assert out.x is cls_train.x                              # only the labels are copied
    assert out.y is not cls_train.y
    for orig, new, bad in zip(cls_train.y, out.y, corrupted):
        if bad:
            assert new.sum() == 1                            # singleton replacement
            assert not np.array_equal(new, orig)
            label = int(new.argmax())
            if orig.sum() < data.N_INTENTS:
                assert orig[label] == 0                      # drawn from absent intents
        else:
            np.testing.assert_array_equal(new, orig)         # untouched row


def test_replace_set_all_seven_fallback():
    train = data.classification_split(range(4), np.zeros((4, 3)),
                                      np.ones((4, data.N_INTENTS)))
    out, corrupted = noise.inject_label_noise(train, 1.0, seed=0)
    assert corrupted.all()
    assert (out.y.sum(axis=1) == 1).all()    # still corrupted: 7-set becomes a singleton


def test_injection_determinism_and_seed_sensitivity(cls_train):
    out_a, corrupted_a = noise.inject_label_noise(cls_train, 0.1, seed=21)
    out_b, corrupted_b = noise.inject_label_noise(cls_train, 0.1, seed=21)
    np.testing.assert_array_equal(corrupted_a, corrupted_b)
    np.testing.assert_array_equal(out_a.y, out_b.y)
    _, corrupted_c = noise.inject_label_noise(cls_train, 0.1, seed=22)
    assert not np.array_equal(corrupted_a, corrupted_c)


def test_summary_noise_preserves_shape(sum_train):
    out, corrupted = noise.inject_summary_noise(sum_train, 0.25, seed=6,
                                                n_content=data.N_TGT_CONTENT)
    assert corrupted.sum() == noise.corruption_count(0.25, 80) == 20
    for name in ("ids", "src", "src_len", "tgt_len", "src_counts"):   # only tgt is new
        assert getattr(out, name) is getattr(sum_train, name)
    assert out.tgt.shape == sum_train.tgt.shape              # lengths and pad preserved
    changed = 0
    for orig, new, n_tgt, bad in zip(sum_train.tgt, out.tgt, sum_train.tgt_len,
                                     corrupted):
        assert new[n_tgt - 1] == data.EOS and not new[n_tgt:].any()
        if bad:
            assert (new[:n_tgt - 1] < data.N_TGT_CONTENT).all()
            changed += not np.array_equal(new, orig)
        else:
            np.testing.assert_array_equal(new, orig)
    assert changed >= 18    # uniform redraws collide with the original very rarely


def test_summary_noise_draws_from_the_given_content_range(sum_train):
    # a file vocabulary can be far smaller than the synthetic one
    out, corrupted = noise.inject_summary_noise(sum_train, 1.0, seed=6, n_content=3)
    content = np.arange(out.tgt.shape[1]) < out.tgt_len[:, None] - 1
    assert corrupted.all()
    assert np.unique(out.tgt[content]).tolist() == [0, 1, 2]


def test_rate_bounds(sum_train):
    train = data.generate_classification_dataset(1, 4, 1, 1, d=2).train
    for bad in (-0.01, 1.01):
        with pytest.raises(UsageError, match=rf"noise rate must lie in \[0, 1\], got {bad}"):
            noise.inject_label_noise(train, bad, seed=0)
        with pytest.raises(UsageError, match=rf"noise rate must lie in \[0, 1\], got {bad}"):
            noise.inject_summary_noise(sum_train, bad, seed=0, n_content=3)
    out, corrupted = noise.inject_label_noise(train, 0.0, seed=0)
    assert corrupted.sum() == 0
    np.testing.assert_array_equal(out.y, train.y)
