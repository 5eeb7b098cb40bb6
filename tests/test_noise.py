"""Noise injection: counts, eligibility, determinism, mask bookkeeping."""

import numpy as np
import pytest

from mantra import data, noise
from mantra.errors import ConfigError


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
    out, mask = noise.inject_label_noise(cls_train, 0.2, seed=4)
    assert len(out) == len(cls_train)
    assert mask.corrupted.sum() == noise.corruption_count(0.2, 100) == 20
    np.testing.assert_array_equal(mask.ids, [s.id for s in cls_train])
    for orig, new, bad in zip(cls_train, out, mask.corrupted):
        assert new.id == orig.id
        assert new.features is orig.features
        if bad:
            assert new.labels.sum() == 1                     # singleton replacement
            assert not np.array_equal(new.labels, orig.labels)
            label = int(new.labels.argmax())
            if orig.labels.sum() < data.N_INTENTS:
                assert orig.labels[label] == 0               # drawn from absent intents
        else:
            assert new.labels is orig.labels                 # untouched object


def test_replace_set_all_seven_fallback():
    full = data.intents_to_bits(list(data.INTENTS))
    full.setflags(write=False)
    train = [data.ClassificationSample(i, np.zeros(3), full) for i in range(4)]
    out, mask = noise.inject_label_noise(train, 1.0, seed=0)
    assert mask.corrupted.all()
    for s in out:
        assert s.labels.sum() == 1    # still corrupted: 7-set becomes a singleton


def test_flip_one_semantics(cls_train):
    out, mask = noise.inject_label_noise(cls_train, 0.15, seed=4, mode="flip-one")
    for orig, new, bad in zip(cls_train, out, mask.corrupted):
        if not bad:
            continue
        assert new.labels.sum() == orig.labels.sum()         # cardinality preserved
        gained = (new.labels == 1) & (orig.labels == 0)
        lost = (new.labels == 0) & (orig.labels == 1)
        assert gained.sum() == 1 and lost.sum() == 1


def test_flip_one_skips_saturated_samples():
    full = data.intents_to_bits(list(data.INTENTS))
    full.setflags(write=False)
    one = data.intents_to_bits(["Bug"])
    one.setflags(write=False)
    train = [data.ClassificationSample(0, np.zeros(2), full),
             data.ClassificationSample(1, np.zeros(2), one),
             data.ClassificationSample(2, np.zeros(2), full)]
    out, mask = noise.inject_label_noise(train, 1 / 3, seed=9, mode="flip-one")
    assert mask.corrupted_ids == {1}
    with pytest.raises(ConfigError):
        noise.inject_label_noise(train, 1.0, seed=9, mode="flip-one")


def test_injection_determinism_and_seed_sensitivity(cls_train):
    out_a, mask_a = noise.inject_label_noise(cls_train, 0.1, seed=21)
    out_b, mask_b = noise.inject_label_noise(cls_train, 0.1, seed=21)
    np.testing.assert_array_equal(mask_a.corrupted, mask_b.corrupted)
    for a, b in zip(out_a, out_b):
        np.testing.assert_array_equal(a.labels, b.labels)
    _, mask_c = noise.inject_label_noise(cls_train, 0.1, seed=22)
    assert mask_a.corrupted_ids != mask_c.corrupted_ids


def test_prior_drift_recorded(cls_train):
    _, mask = noise.inject_label_noise(cls_train, 0.3, seed=2)
    before, after = mask.prior_drift["before"], mask.prior_drift["after"]
    assert set(before) == set(data.INTENTS)
    # replace-set strictly shrinks average label cardinality here
    assert sum(after.values()) < sum(before.values())


def test_summary_noise_preserves_shape(sum_train):
    out, mask = noise.inject_summary_noise(sum_train, 0.25, seed=6)
    assert mask.corrupted.sum() == noise.corruption_count(0.25, 80) == 20
    changed = 0
    for orig, new, bad in zip(sum_train, out, mask.corrupted):
        assert new.source is orig.source
        assert new.target.shape == orig.target.shape        # length preserved
        assert new.target[-1] == data.EOS
        if bad:
            assert (new.target[:-1] < data.N_TGT_CONTENT).all()
            if not np.array_equal(new.target, orig.target):
                changed += 1
        else:
            assert new.target is orig.target
    assert changed >= 18    # uniform redraws collide with the original very rarely


def test_rate_bounds():
    train = data.generate_classification_dataset(1, 4, 1, 1, d=2).train
    for bad in (-0.01, 1.01):
        with pytest.raises(ConfigError):
            noise.inject_label_noise(train, bad, seed=0)
    out, mask = noise.inject_label_noise(train, 0.0, seed=0)
    assert mask.corrupted.sum() == 0
    assert [s.labels is t.labels for s, t in zip(out, train)] == [True] * 4


def test_unknown_mode():
    train = data.generate_classification_dataset(1, 4, 1, 1, d=2).train
    with pytest.raises(ConfigError):
        noise.inject_label_noise(train, 0.5, seed=0, mode="shuffle")


