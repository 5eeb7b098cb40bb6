"""Dataset generators, vocabulary loading, and JSONL round trips."""

import dataclasses
import json

import numpy as np
import pytest

from mantra import data, noise
from mantra.errors import ConfigError, ParseError, SchemaError, UsageError

from jsonl_io import bits_to_intents, write_jsonl


def test_vocab_layout_constants():
    assert data.N_INTENTS == 7
    assert data.BOS == 40 and data.EOS == 41
    assert data.N_TGT_VOCAB == 42


def test_intent_bit_round_trip():
    for pattern in ([0], [6], [0, 3, 5], list(range(7))):
        names = [data.INTENTS[i] for i in pattern]
        bits = data.intents_to_bits(names)
        assert bits.sum() == len(pattern)
        assert bits_to_intents(bits) == names
    with pytest.raises(SchemaError):
        data.intents_to_bits(["NotAnIntent"])


def _splits(ds):
    return (ds.train, ds.validation, ds.test)


def test_classification_generator_shapes_and_determinism():
    a = data.generate_classification_dataset(7, n_train=50, n_val=10, n_test=12, d=9)
    b = data.generate_classification_dataset(7, n_train=50, n_val=10, n_test=12, d=9)
    assert len(a.train) == 50 and len(a.validation) == 10 and len(a.test) == 12
    ids = np.concatenate([split.ids for split in _splits(a)])
    assert ids.tolist() == list(range(72))    # unique, contiguous across splits
    assert a.train.x.shape == (50, 9) and a.train.y.shape == (50, data.N_INTENTS)
    np.testing.assert_array_equal(a.train.x, b.train.x)
    np.testing.assert_array_equal(a.train.y, b.train.y)
    c = data.generate_classification_dataset(8, n_train=50, n_val=10, n_test=12, d=9)
    assert not np.array_equal(a.train.x[0], c.train.x[0])


def test_classification_labels_follow_hidden_weights():
    ds = data.generate_classification_dataset(11, n_train=80, n_val=10, n_test=10, d=6)
    w = ds.meta["hidden_weights"]
    repairs_seen = 0
    for split in _splits(ds):
        for features, labels in zip(split.x, split.y):
            margins = w @ features
            expected = (margins > 0.0).astype(np.float64)
            if expected.sum() == 0:
                repairs_seen += 1
                expected[margins.argmax()] = 1
            np.testing.assert_array_equal(labels, expected)
            assert labels.sum() >= 1
    assert repairs_seen == ds.meta["label_repairs"]


def test_summarization_generator_is_tokenwise_dictionary():
    ds = data.generate_summarization_dataset(5, n_train=60, n_val=8, n_test=8)
    mapping = ds.meta["mapping"]
    assert mapping.shape == (data.N_SRC_VOCAB,)
    for split in _splits(ds):
        # every split of the generator has its full width, longest row or not
        assert split.src.shape[1] == data.SRC_LEN_MAX
        assert split.tgt.shape[1] == data.SRC_LEN_MAX + 1
        for src, n_src, tgt, n_tgt in zip(split.src, split.src_len, split.tgt,
                                          split.tgt_len):
            assert data.SRC_LEN_MIN <= n_src <= data.SRC_LEN_MAX and n_tgt == n_src + 1
            assert tgt[n_src] == data.EOS
            np.testing.assert_array_equal(tgt[:n_src], mapping[src[:n_src]])
            assert not src[n_src:].any() and not tgt[n_tgt:].any()    # zero pads
    again = data.generate_summarization_dataset(5, n_train=60, n_val=8, n_test=8)
    np.testing.assert_array_equal(again.meta["mapping"], mapping)


def test_summarization_dictionary_not_forced_bijective():
    # An arbitrary function from 40 ids to 40 ids almost surely collides;
    # check over several seeds that at least one dictionary does.
    collides = any(
        np.unique(data.generate_summarization_dataset(seed, 2, 1, 1).meta["mapping"]).size
        < data.N_SRC_VOCAB
        for seed in range(5)
    )
    assert collides


def test_generator_rejects_empty_splits():
    with pytest.raises(UsageError):
        data.generate_classification_dataset(1, n_train=0, n_val=1, n_test=1, d=4)
    with pytest.raises(UsageError):
        data.generate_summarization_dataset(1, n_train=5, n_val=0, n_test=1)


def test_split_arrays_are_read_only():
    cls = data.generate_classification_dataset(2, n_train=6, n_val=2, n_test=2, d=3)
    summ = data.generate_summarization_dataset(2, n_train=6, n_val=2, n_test=2)
    splits = [*_splits(cls), *_splits(summ), cls.train.take(np.array([4, 1])),
              noise.inject_label_noise(cls.train, 0.5, seed=1, mode="replace-set")[0],
              noise.inject_summary_noise(summ.train, 0.5, seed=1, n_content=data.BOS)[0],
              data.classification_split([7], [[1.0]], [[0] * 6 + [1]]),
              data.summarization_split([7], [[1, 2]], [[3, data.EOS]], 4)]
    for split in splits:
        arrays = [getattr(split, f.name) for f in dataclasses.fields(split)]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert len(arrays) == (3 if split.task == "classification" else 6)
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 1


def _reference_counts(n_src, src, src_len):
    """Per-row source-token counts, scattered one token at a time."""
    counts = np.zeros((src.shape[0], n_src), dtype=np.int64)
    valid = np.arange(src.shape[1]) < src_len[:, None]
    np.add.at(counts, (np.repeat(np.arange(src.shape[0]), src_len), src[valid]), 1)
    return counts


def _assert_counts_match_reference(split, n_src):
    assert split.src_counts.dtype == np.uint8
    assert split.src_counts.shape == (len(split), n_src)
    np.testing.assert_array_equal(split.src_counts,
                                  _reference_counts(n_src, split.src, split.src_len))


def test_src_counts_match_add_at_reference(tmp_path):
    for sizes in ((1000, 100, 100), (20, 2, 1)):
        ds = data.generate_summarization_dataset(6, *sizes)
        for split in _splits(ds):
            _assert_counts_match_reference(split, data.N_SRC_VOCAB)
    path = tmp_path / "sum.jsonl"
    write_jsonl(path, ds)
    for split in _splits(data.load_jsonl(path, "summarization")):
        _assert_counts_match_reference(split, data.N_SRC_VOCAB)

    vocab_path = tmp_path / "v.txt"
    vocab_path.write_text("a\nb\nc\n")
    rows = [{"split": "train", "source": "a b a c a", "target": "c"},
            {"split": "train", "source": [2], "target": "b"},
            {"split": "test", "source": "b b", "target": "a"}]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    ds = data.load_jsonl(path, "summarization", vocab_path=vocab_path)
    np.testing.assert_array_equal(ds.train.src_counts, [[3, 1, 1], [0, 0, 1]])
    for split in _splits(ds):
        _assert_counts_match_reference(split, 3)    # the empty validation split too


def test_summarization_split_rejects_sources_it_cannot_count():
    # a token id past the vocabulary would be counted in the next row, and
    # a longer source could overflow a uint8 count
    too_long = [0] * (data.MAX_SRC_LEN + 1)
    for bad in ([[0, 3], [1]], [[0], [-1]], [too_long, [1]]):
        with pytest.raises(UsageError):
            data.summarization_split([0, 1], bad, [[2, 4], [2, 4]], 3)


def test_classification_split_rejects_labels_it_cannot_score():
    # label bits of the wrong width, a bit that is not 0 or 1, features whose
    # rows do not match the ids, and features that are not one row per sample
    for x, y in (([[1.0], [2.0]], [[1, 0], [0, 1]]),
                 ([[1.0], [2.0]], [[2, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, -1]]),
                 ([[1.0]], [[0] * 6 + [1]] * 2),
                 ([1.0, 2.0], [[0] * 6 + [1]] * 2)):
        with pytest.raises(UsageError):
            data.classification_split([0, 1], x, y)
    split = data.classification_split([0, 1], [[1.0], [2.0]], [[0] * 6 + [1], [1] * 7])
    assert split.y.shape == (2, data.N_INTENTS)


def test_take_keeps_counts_aligned():
    full = data.generate_summarization_dataset(2, n_train=50, n_val=1, n_test=1).train
    rows = np.random.default_rng(3).permutation(len(full))[:20]
    sub = full.take(rows)
    np.testing.assert_array_equal(sub.src_counts, full.src_counts[rows])
    _assert_counts_match_reference(sub, data.N_SRC_VOCAB)
    _assert_counts_match_reference(full.take(slice(10, 30)), data.N_SRC_VOCAB)


def test_load_vocab(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("alpha\nbeta\ngamma\n")
    vocab = data.load_vocab(path)
    assert vocab == {"alpha": 0, "beta": 1, "gamma": 2}

    path.write_text("alpha\n\nbeta\n")
    with pytest.raises(ParseError) as exc:
        data.load_vocab(path)
    assert "line 2" in str(exc.value)

    path.write_text("alpha\nalpha\n")
    with pytest.raises(ParseError) as exc:
        data.load_vocab(path)
    assert "line 2" in str(exc.value)

    # an entry is read as text is split, so one line holds one token
    path.write_text(" alpha \t\nbeta\n")
    assert data.load_vocab(path) == {"alpha": 0, "beta": 1}
    path.write_text("fix bug\nadd\n")
    with pytest.raises(ParseError) as exc:
        data.load_vocab(path)
    assert str(exc.value) == f"{path}: line 1: vocabulary entry 'fix bug' holds 2 tokens, not one"

    path.write_text("")
    with pytest.raises(SchemaError):
        data.load_vocab(path)


def test_a_vocabulary_byte_order_mark_is_not_part_of_its_first_token(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("\ufeffalpha\nbeta\n", encoding="utf-8")
    assert data.load_vocab(path) == {"alpha": 0, "beta": 1}


def test_a_jsonl_byte_order_mark_is_not_part_of_line_1(tmp_path):
    src = data.generate_classification_dataset(9, n_train=6, n_val=2, n_test=2, d=3)
    path = tmp_path / "cls.jsonl"
    write_jsonl(path, src)
    want = data.load_jsonl(path, "classification")
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    back = data.load_jsonl(path, "classification")
    for a, b in zip(_splits(want), _splits(back)):
        for name in ("ids", "x", "y"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    # the lines keep their numbers
    path.write_bytes(b"\xef\xbb\xbf{}\n")
    with pytest.raises(ParseError, match=r"cls.jsonl: line 1: split must be"):
        data.load_jsonl(path, "classification")


def test_jsonl_round_trip_classification(tmp_path):
    src = data.generate_classification_dataset(9, n_train=12, n_val=4, n_test=4, d=5)
    path = tmp_path / "cls.jsonl"
    write_jsonl(path, src)
    back = data.load_jsonl(path, "classification")
    assert back.meta == {} and back.train.x.shape[1] == 5   # the width is x's
    for a, b in zip(_splits(src), _splits(back)):
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.x, b.x)    # float reprs round-trip exactly
        np.testing.assert_array_equal(a.y, b.y)


def test_jsonl_round_trip_summarization(tmp_path):
    src = data.generate_summarization_dataset(9, n_train=10, n_val=3, n_test=3)
    path = tmp_path / "sum.jsonl"
    write_jsonl(path, src)
    back = data.load_jsonl(path, "summarization")
    assert back.meta == {"n_tgt_vocab": data.N_TGT_VOCAB}
    assert data.target_layout(back.meta["n_tgt_vocab"]) == (
        data.N_TGT_CONTENT, data.BOS, data.EOS)
    for a, b in zip(_splits(src), _splits(back)):    # EOS re-appended on load
        for name in ("ids", "src_len", "tgt_len", "src_counts"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        for name in ("src", "tgt"):    # a loaded split pads to its own longest row
            got, want = getattr(b, name), getattr(a, name)
            assert got.shape[1] == getattr(b, name + "_len").max()
            np.testing.assert_array_equal(got, want[:, :got.shape[1]])
            assert not want[:, got.shape[1]:].any()


def test_jsonl_ids_optional_and_split_aliases(tmp_path):
    path = tmp_path / "d.jsonl"
    rows = [
        {"split": "train", "features": [1.0, 2.0], "labels": ["Bug"]},
        {"split": "val", "features": [0.5, 1.5], "labels": ["Merge", "Test"]},
        {"split": "validation", "features": [0.0, 1.0], "labels": ["Feature"]},
        {"split": "test", "features": [2.0, 0.0], "labels": ["Refactor"]},
    ]
    # blank lines are skipped, and take no file-order index
    path.write_text("\n  \n".join(json.dumps(r) for r in rows) + "\n\n")
    ds = data.load_jsonl(path, "classification")
    assert ds.train.ids.tolist() == [0]
    assert ds.validation.ids.tolist() == [1, 2]    # both spellings accepted
    assert ds.test.ids.tolist() == [3]


def test_jsonl_text_through_vocab(tmp_path):
    vocab_path = tmp_path / "v.txt"
    vocab_path.write_text("fix\nbug\nadd\n")
    path = tmp_path / "d.jsonl"
    rows = [
        {"split": "train", "text": "fix bug fix", "labels": ["Bug"]},
        {"split": "test", "text": "add", "labels": ["Feature"]},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    ds = data.load_jsonl(path, "classification", vocab_path=vocab_path)
    np.testing.assert_allclose(ds.train.x, [[2.0, 1.0, 0.0]])   # bag of counts
    np.testing.assert_allclose(ds.test.x, [[0.0, 0.0, 1.0]])
    assert ds.validation.x.shape == (0, 3)    # an empty split keeps its width


def test_jsonl_classification_vocab_must_be_read(tmp_path):
    vocab_path = tmp_path / "v.txt"
    vocab_path.write_text("fix\nbug\nadd\n")
    path = tmp_path / "d.jsonl"
    rows = [{"split": "train", "features": [1.0, 0.0, 2.0], "labels": ["Bug"]},
            {"split": "test", "features": [0.0, 1.0, 0.0], "labels": ["Test"]}]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with pytest.raises(ConfigError, match="v.txt"):
        data.load_jsonl(path, "classification", vocab_path=vocab_path)
    # one record read through the vocabulary is enough
    rows.append({"split": "val", "text": "add bug", "labels": ["Feature"]})
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    ds = data.load_jsonl(path, "classification", vocab_path=vocab_path)
    np.testing.assert_allclose(ds.validation.x, [[0.0, 1.0, 1.0]])
    np.testing.assert_allclose(ds.train.x, [[1.0, 0.0, 2.0]])


def test_jsonl_summarization_strings_through_vocab(tmp_path):
    vocab_path = tmp_path / "v.txt"
    vocab_path.write_text("a\nb\nc\n")
    path = tmp_path / "d.jsonl"
    rows = [{"split": "train", "source": "a b c", "target": "c a"}]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    ds = data.load_jsonl(path, "summarization", vocab_path=vocab_path)
    np.testing.assert_array_equal(ds.train.src, [[0, 1, 2]])
    np.testing.assert_array_equal(ds.train.tgt, [[2, 0, 4]])    # EOS = len(vocab)+1
    assert ds.test.src.shape == (0, 0) and ds.test.task == "summarization"


_BUG = {"split": "train", "labels": ["Bug"]}
_TARGET = {"split": "train", "target": [0]}


@pytest.mark.parametrize("task, record, vocab, needle", [
    ("classification", [1.0], None, "record must be a JSON object"),
    ("classification", {**_BUG, "features": ["x"]}, None, "finite numbers"),
    ("classification", {**_BUG, "features": [True]}, None, "finite numbers"),
    ("classification", {**_BUG, "text": "fix"}, None, "text input requires a vocabulary"),
    ("classification", {**_BUG, "text": ["fix"]}, "fix\nbug\n", "text must be a string"),
    ("classification", {**_BUG, "text": "fix zap"}, "fix\nbug\n",
     "token 'zap' in text not in the vocabulary"),
    ("summarization", {**_TARGET, "source": "a b"}, None, "string source requires a vocabulary"),
    ("summarization", {**_TARGET, "source": 3}, None, "source must be a token-id list or a string"),
    ("summarization", {**_TARGET, "source": []}, None, "source must be non-empty"),
    ("summarization", {**_TARGET, "source": [0] * 65}, None, "source length 65 exceeds 64"),
    ("summarization", {"split": "train", "source": [0], "target": [0] * 17}, None,
     "target length 17 exceeds 16"),
    ("classification", {**_BUG, "split": "nope", "features": [1.0]}, None,
     "split must be train/val/test, got 'nope'"),
    # unhashable splits
    ("classification", {**_BUG, "split": ["train"], "features": [1.0]}, None, "split must be"),
    ("classification", {**_BUG, "split": {"name": "train"}, "features": [1.0]}, None,
     "split must be"),
    ("classification", _BUG, None, "record needs 'features' or 'text'"),
    ("classification", {**_BUG, "features": [1.0], "labels": []}, None, "at least one label"),
    ("classification", {**_BUG, "features": [1.0], "labels": ["Zap"]}, None,
     "unknown intent 'Zap'"),
    ("classification", {**_BUG, "features": [1.0], "id": True}, None, "id must be an integer"),
    ("classification", {**_BUG, "features": [1.0], "text": "fix"}, None, "not both"),
    # values numpy cannot hold
    ("classification", {**_BUG, "features": [float("nan")]}, None, "finite numbers"),
    ("classification", {**_BUG, "features": [1.0, 10**400]}, None, "finite numbers"),
    ("classification", {**_BUG, "features": [1.0], "id": 2**70}, None, "does not fit int64"),
    ("summarization", {**_TARGET, "source": [0, 99]}, None,
     "source token id out of range [0, 40)"),
])
def test_jsonl_record_errors_name_their_line(tmp_path, task, record, vocab, needle):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(record) + "\n")
    vocab_path = None
    if vocab is not None:
        vocab_path = tmp_path / "v.txt"
        vocab_path.write_text(vocab)
    with pytest.raises(ParseError) as exc:
        data.load_jsonl(path, task, vocab_path=vocab_path)
    assert str(exc.value).startswith(f"{path}: line 1: ") and needle in str(exc.value)


def test_jsonl_error_lines(tmp_path):
    path = tmp_path / "bad.jsonl"

    path.write_text('{"split": "train", "features": [1.0], "labels": ["Bug"]}\n{oops\n')
    with pytest.raises(ParseError) as exc:
        data.load_jsonl(path, "classification")
    assert str(exc.value).startswith(f"{path}: line 2: invalid JSON")

    # duplicate ids across lines
    rows = [
        {"split": "train", "features": [1.0], "labels": ["Bug"], "id": 3},
        {"split": "test", "features": [2.0], "labels": ["Test"], "id": 3},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with pytest.raises(ParseError) as exc:
        data.load_jsonl(path, "classification")
    assert str(exc.value) == f"{path}: line 2: duplicate sample id 3"

    # inconsistent feature dimension
    rows = [
        {"split": "train", "features": [1.0, 2.0], "labels": ["Bug"]},
        {"split": "train", "features": [1.0], "labels": ["Bug"]},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with pytest.raises(ParseError) as exc:
        data.load_jsonl(path, "classification")
    assert str(exc.value) == f"{path}: line 2: feature dimension 1 != 2 seen earlier"

    with pytest.raises(UsageError):
        data.load_jsonl(path, "translation")
