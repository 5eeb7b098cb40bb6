"""The array data layer against the per-sample loops it replaced.

The generators and noise injectors used to build one frozen object per
sample, and a packing step stacked those objects into arrays.  The
references below keep those loops.  Every split must equal their stacked
output exactly: values, dtypes, shapes and pad widths.  A generated split
pads every row to the generator's widths, SRC_LEN_MAX source and
SRC_LEN_MAX + 1 target slots, whatever its own longest row.
"""

import numpy as np
import pytest

from mantra import data, noise

SEEDS = (1, 2, 3, 4, 5)
SIZES = {"classification": (700, 85, 88), "summarization": (1000, 100, 100)}


def _cut(samples, n_train, n_val):
    return (samples[:n_train], samples[n_train:n_train + n_val],
            samples[n_train + n_val:])


def _reference_classification(seed, n_train, n_val, n_test, d=16):
    """(id, features, uint8 label bits) per sample, split by split."""
    n = n_train + n_val + n_test
    feats = np.random.default_rng([seed, data._TAG_CLS_FEATURES]).standard_normal((n, d))
    w_star = np.random.default_rng([seed, data._TAG_CLS_WEIGHTS]).uniform(
        -1.0, 1.0, (data.N_INTENTS, d))
    margins = feats @ w_star.T
    labels = (margins > 0.0).astype(np.uint8)
    empty = labels.sum(axis=1) == 0
    labels[empty, margins[empty].argmax(axis=1)] = 1
    return _cut([(i, feats[i].copy(), labels[i].copy()) for i in range(n)],
                n_train, n_val)


def _reference_summarization(seed, n_train, n_val, n_test):
    """(id, source, target ending in EOS) per sample, split by split."""
    n = n_train + n_val + n_test
    mapping = np.random.default_rng([seed, data._TAG_SUM_DICT]).integers(
        0, data.N_TGT_CONTENT, size=data.N_SRC_VOCAB)
    lengths = np.random.default_rng([seed, data._TAG_SUM_LENGTHS]).integers(
        data.SRC_LEN_MIN, data.SRC_LEN_MAX + 1, size=n)
    tok_rng = np.random.default_rng([seed, data._TAG_SUM_TOKENS])
    samples = []
    for i in range(n):
        src = tok_rng.integers(0, data.N_SRC_VOCAB, size=int(lengths[i]), dtype=np.int64)
        tgt = np.concatenate([mapping[src], [data.EOS]]).astype(np.int64)
        samples.append((i, src, tgt))
    return _cut(samples, n_train, n_val)


def _reference_select(n, k, seed):
    order = np.random.default_rng([seed, noise._TAG_SELECT]).permutation(n)
    return sorted(int(i) for i in order[:k])


def _reference_label_noise(samples, rate, seed):
    """(noisy samples, corrupted flags) by the per-sample loop."""
    n = len(samples)
    k = noise.corruption_count(rate, n)
    picked = _reference_select(n, k, seed)
    draw_rng = np.random.default_rng([seed, noise._TAG_DRAW])
    out = list(samples)
    corrupted = np.zeros(n, dtype=bool)
    for pos in picked:
        sid, feats, labels = out[pos]
        absent = np.flatnonzero(labels == 0)
        pool = absent if absent.size else np.arange(data.N_INTENTS)
        bits = np.zeros(data.N_INTENTS, dtype=np.uint8)
        bits[draw_rng.choice(pool)] = 1
        out[pos] = (sid, feats, bits)
        corrupted[pos] = True
    return out, corrupted


def _reference_summary_noise(samples, rate, seed):
    n = len(samples)
    k = noise.corruption_count(rate, n)
    picked = _reference_select(n, k, seed)
    draw_rng = np.random.default_rng([seed, noise._TAG_DRAW])
    out = list(samples)
    corrupted = np.zeros(n, dtype=bool)
    for pos in picked:
        sid, src, tgt = out[pos]
        fresh = draw_rng.integers(0, data.N_TGT_CONTENT, size=tgt.shape[0] - 1,
                                  dtype=np.int64)
        out[pos] = (sid, src, np.concatenate([fresh, [data.EOS]]))
        corrupted[pos] = True
    return out, corrupted


def _reference_pack(task, samples):
    """The arrays of a split, stacked and zero-padded to the generator's widths."""
    packed = dict.fromkeys(("x", "y", "src", "src_len", "tgt", "tgt_len", "src_counts"))
    packed["ids"] = np.array([s[0] for s in samples], dtype=np.int64)
    if task == "classification":
        packed["x"] = np.stack([s[1] for s in samples]).astype(np.float64)
        packed["y"] = np.stack([s[2] for s in samples]).astype(np.float64)
        return packed
    for name, col, width in (("src", 1, data.SRC_LEN_MAX), ("tgt", 2, data.SRC_LEN_MAX + 1)):
        lengths = np.array([s[col].shape[0] for s in samples], dtype=np.int64)
        padded = np.zeros((len(samples), width), dtype=np.int64)
        for i, s in enumerate(samples):
            padded[i, :lengths[i]] = s[col]
        packed[name], packed[name + "_len"] = padded, lengths
    packed["src_counts"] = np.stack([np.bincount(s[1], minlength=data.N_SRC_VOCAB)
                                     for s in samples]).astype(np.uint8)
    return packed


def _assert_equals_reference(split, task, samples):
    assert split.task == task
    for name, want in _reference_pack(task, samples).items():
        got = getattr(split, name)
        assert (got is None) == (want is None), name
        if want is not None:
            assert got.dtype == want.dtype and got.shape == want.shape, name
            np.testing.assert_array_equal(got, want, err_msg=name)


def _generated(task, seed, sizes):
    if task == "classification":
        return (data.generate_classification_dataset(seed, *sizes, d=16),
                _reference_classification(seed, *sizes))
    return (data.generate_summarization_dataset(seed, *sizes),
            _reference_summarization(seed, *sizes))


@pytest.mark.parametrize("task", ["classification", "summarization"])
@pytest.mark.parametrize("seed", SEEDS)
def test_generated_splits_equal_reference(task, seed):
    # the small sizes leave splits without a longest-possible row, and each
    # still pads to the generator's full width
    for sizes in (SIZES[task], (20, 2, 1)):
        ds, reference = _generated(task, seed, sizes)
        for split, samples in zip((ds.train, ds.validation, ds.test), reference):
            _assert_equals_reference(split, task, samples)


# the ids name each task's noise rule (the summary rule has no name), kept stable
@pytest.mark.parametrize("task", ["classification", "summarization"],
                         ids=["classification-replace-set", "summarization-None"])
@pytest.mark.parametrize("rate", [0.0, 0.15])
@pytest.mark.parametrize("seed", SEEDS)
def test_noisy_train_split_equals_reference(task, rate, seed):
    ds, (train, _, _) = _generated(task, seed, SIZES[task])
    if task == "classification":
        out, flags = noise.inject_label_noise(ds.train, rate, seed)
        want, corrupted = _reference_label_noise(train, rate, seed)
    else:
        n_content, _, _ = data.target_layout(ds.meta["n_tgt_vocab"])
        out, flags = noise.inject_summary_noise(ds.train, rate, seed, n_content)
        want, corrupted = _reference_summary_noise(train, rate, seed)
    _assert_equals_reference(out, task, want)
    assert out.ids is ds.train.ids
    assert flags.dtype == bool
    np.testing.assert_array_equal(flags, corrupted)
