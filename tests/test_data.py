"""Dataset generators, vocabulary loading, and JSONL round trips."""

import json

import numpy as np
import pytest

from mantra import data
from mantra.errors import ParseError, SchemaError, UsageError


def test_vocab_layout_constants():
    assert data.N_INTENTS == 7
    assert data.BOS == 40 and data.EOS == 41
    assert data.N_TGT_VOCAB == 42


def test_intent_bit_round_trip():
    for pattern in ([0], [6], [0, 3, 5], list(range(7))):
        names = [data.INTENTS[i] for i in pattern]
        bits = data.intents_to_bits(names)
        assert bits.sum() == len(pattern)
        assert data.bits_to_intents(bits) == names
    with pytest.raises(SchemaError):
        data.intents_to_bits(["NotAnIntent"])


def test_classification_generator_shapes_and_determinism():
    a = data.generate_classification_dataset(7, n_train=50, n_val=10, n_test=12, d=9)
    b = data.generate_classification_dataset(7, n_train=50, n_val=10, n_test=12, d=9)
    assert len(a.train) == 50 and len(a.validation) == 10 and len(a.test) == 12
    ids = [s.id for split in (a.train, a.validation, a.test) for s in split]
    assert ids == list(range(72))    # unique, contiguous across splits
    for sa, sb in zip(a.train, b.train):
        assert sa.features.shape == (9,)
        np.testing.assert_array_equal(sa.features, sb.features)
        np.testing.assert_array_equal(sa.labels, sb.labels)
    c = data.generate_classification_dataset(8, n_train=50, n_val=10, n_test=12, d=9)
    assert not np.array_equal(a.train[0].features, c.train[0].features)


def test_classification_labels_follow_hidden_weights():
    ds = data.generate_classification_dataset(11, n_train=80, n_val=10, n_test=10, d=6)
    w = ds.meta["hidden_weights"]
    repairs_seen = 0
    for s in ds.train + ds.validation + ds.test:
        margins = w @ s.features
        expected = (margins > 0.0).astype(np.uint8)
        if expected.sum() == 0:
            repairs_seen += 1
            expected[margins.argmax()] = 1
        np.testing.assert_array_equal(s.labels, expected)
        assert s.labels.sum() >= 1
    assert repairs_seen == ds.meta["label_repairs"]


def test_summarization_generator_is_tokenwise_dictionary():
    ds = data.generate_summarization_dataset(5, n_train=60, n_val=8, n_test=8)
    mapping = ds.meta["mapping"]
    assert mapping.shape == (data.N_SRC_VOCAB,)
    for s in ds.train + ds.validation + ds.test:
        assert data.SRC_LEN_MIN <= s.source.size <= data.SRC_LEN_MAX
        assert s.target[-1] == data.EOS
        np.testing.assert_array_equal(s.target[:-1], mapping[s.source])
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
        data.generate_classification_dataset(1, n_train=0, n_val=1, n_test=1)
    with pytest.raises(UsageError):
        data.generate_summarization_dataset(1, n_train=5, n_val=0, n_test=1)


def test_samples_are_read_only():
    ds = data.generate_classification_dataset(2, n_train=4, n_val=1, n_test=1, d=3)
    with pytest.raises(ValueError):
        ds.train[0].features[0] = 99.0


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

    path.write_text("")
    with pytest.raises(SchemaError):
        data.load_vocab(path)


def test_jsonl_round_trip_classification(tmp_path):
    src = data.generate_classification_dataset(9, n_train=12, n_val=4, n_test=4, d=5)
    path = tmp_path / "cls.jsonl"
    data.write_jsonl(path, src)
    back = data.load_jsonl(path, "classification")
    assert back.meta["n_features"] == 5
    for orig_split, back_split in (
        (src.train, back.train), (src.validation, back.validation), (src.test, back.test)
    ):
        assert len(orig_split) == len(back_split)
        for a, b in zip(orig_split, back_split):
            assert a.id == b.id
            np.testing.assert_allclose(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)


def test_jsonl_round_trip_summarization(tmp_path):
    src = data.generate_summarization_dataset(9, n_train=10, n_val=3, n_test=3)
    path = tmp_path / "sum.jsonl"
    data.write_jsonl(path, src)
    back = data.load_jsonl(path, "summarization")
    assert back.meta["eos"] == data.EOS
    for a, b in zip(src.train, back.train):
        assert a.id == b.id
        np.testing.assert_array_equal(a.source, b.source)
        np.testing.assert_array_equal(a.target, b.target)    # EOS re-appended


def test_jsonl_ids_optional_and_split_aliases(tmp_path):
    path = tmp_path / "d.jsonl"
    rows = [
        {"split": "train", "features": [1.0, 2.0], "labels": ["Bug"]},
        {"split": "val", "features": [0.5, 1.5], "labels": ["Merge", "Test"]},
        {"split": "validation", "features": [0.0, 1.0], "labels": ["Feature"]},
        {"split": "test", "features": [2.0, 0.0], "labels": ["Refactor"]},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    ds = data.load_jsonl(path, "classification")
    assert [s.id for s in ds.train] == [0]
    assert [s.id for s in ds.validation] == [1, 2]    # both spellings accepted
    assert [s.id for s in ds.test] == [3]


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
    np.testing.assert_allclose(ds.train[0].features, [2.0, 1.0, 0.0])   # bag of counts
    np.testing.assert_allclose(ds.test[0].features, [0.0, 0.0, 1.0])


def test_jsonl_summarization_strings_through_vocab(tmp_path):
    vocab_path = tmp_path / "v.txt"
    vocab_path.write_text("a\nb\nc\n")
    path = tmp_path / "d.jsonl"
    rows = [{"split": "train", "source": "a b c", "target": "c a"}]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    ds = data.load_jsonl(path, "summarization", vocab_path=vocab_path)
    np.testing.assert_array_equal(ds.train[0].source, [0, 1, 2])
    np.testing.assert_array_equal(ds.train[0].target, [2, 0, 4])    # EOS = len(vocab)+1


def test_jsonl_error_lines(tmp_path):
    path = tmp_path / "bad.jsonl"

    path.write_text('{"split": "train", "features": [1.0], "labels": ["Bug"]}\n{oops\n')
    with pytest.raises(ParseError) as exc:
        data.load_jsonl(path, "classification")
    assert "line 2" in str(exc.value)

    cases = [
        ({"split": "nope", "features": [1.0], "labels": ["Bug"]}, "split"),
        ({"split": "train", "labels": ["Bug"]}, "features"),
        ({"split": "train", "features": [1.0], "labels": []}, "label"),
        ({"split": "train", "features": [1.0], "labels": ["Zap"]}, "Zap"),
        ({"split": "train", "features": [1.0], "labels": ["Bug"], "id": True}, "id"),
    ]
    for record, needle in cases:
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(SchemaError) as exc:
            data.load_jsonl(path, "classification")
        assert needle in str(exc.value)

    # duplicate ids across lines
    rows = [
        {"split": "train", "features": [1.0], "labels": ["Bug"], "id": 3},
        {"split": "test", "features": [2.0], "labels": ["Test"], "id": 3},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with pytest.raises(SchemaError) as exc:
        data.load_jsonl(path, "classification")
    assert "line 2" in str(exc.value) and "duplicate" in str(exc.value)

    # inconsistent feature dimension
    rows = [
        {"split": "train", "features": [1.0, 2.0], "labels": ["Bug"]},
        {"split": "train", "features": [1.0], "labels": ["Bug"]},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with pytest.raises(SchemaError):
        data.load_jsonl(path, "classification")

    # summarization token id out of range
    path.write_text(json.dumps({"split": "train", "source": [0, 99], "target": [0]}) + "\n")
    with pytest.raises(SchemaError):
        data.load_jsonl(path, "summarization")

    with pytest.raises(UsageError):
        data.load_jsonl(path, "translation")
