"""Dataset construction and ingestion for the two benchmark tasks.

Two task kinds flow through the pipeline:

* multi-label commit intent classification over a fixed set of 7 intents,
  with dense float feature vectors;
* token-level code summarization with integer source/target sequences over
  small closed vocabularies, targets terminated by an explicit EOS id.

Both synthetic generators are fully seeded: the same seed reproduces the
same dataset byte for byte.  Sample ids are unique across splits so that
downstream bookkeeping (noise masks, drop sets) can be checked against
validation/test membership by id alone.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, SchemaError, UsageError

INTENTS = ("Bug", "Refactor", "Deprecation", "Feature", "Merge", "Resource", "Test")
N_INTENTS = len(INTENTS)

# Summarization vocabulary layout: source ids 0..39; target content ids 0..39
# with BOS/EOS appended after the content range.
N_SRC_VOCAB = 40
N_TGT_CONTENT = 40
BOS = N_TGT_CONTENT
EOS = N_TGT_CONTENT + 1
N_TGT_VOCAB = N_TGT_CONTENT + 2

SRC_LEN_MIN = 4
SRC_LEN_MAX = 10
MAX_SRC_LEN = 64    # ingestion cap; generated sources stay well below
MAX_TGT_LEN = 16    # content tokens, excluding EOS; also the decode cap

# Substream tags for seeded generators.  Each consumer of a user seed draws
# from default_rng([seed, tag]) so streams never alias across purposes.
_TAG_CLS_FEATURES = 11
_TAG_CLS_WEIGHTS = 12
_TAG_SUM_DICT = 21
_TAG_SUM_LENGTHS = 22
_TAG_SUM_TOKENS = 23


@dataclass(frozen=True)
class ClassificationSample:
    id: int
    features: np.ndarray    # (d,) float64
    labels: np.ndarray      # (N_INTENTS,) uint8 bit vector, at least one bit set


@dataclass(frozen=True)
class SummarizationSample:
    id: int
    source: np.ndarray      # (L,) int64, 1 <= L <= MAX_SRC_LEN
    target: np.ndarray      # (T,) int64 content tokens with EOS as final element


@dataclass
class DatasetSplit:
    """A train/validation/test partition plus provenance metadata."""
    task: str               # "classification" | "summarization"
    seed: int | None
    train: list
    validation: list
    test: list
    meta: dict = field(default_factory=dict)


def _freeze(a):
    a.setflags(write=False)
    return a


def intents_to_bits(names):
    """Map a collection of intent names to a 7-bit label vector."""
    bits = np.zeros(N_INTENTS, dtype=np.uint8)
    for name in names:
        try:
            bits[INTENTS.index(name)] = 1
        except ValueError:
            raise SchemaError(f"unknown intent {name!r}") from None
    return bits


def bits_to_intents(bits):
    return [INTENTS[i] for i in range(N_INTENTS) if bits[i]]


def generate_classification_dataset(seed, n_train=700, n_val=85, n_test=88, d=16):
    """Build a seeded synthetic multi-label classification dataset.

    Features are standard normal draws.  A hidden weight matrix W* with
    entries uniform on [-1, 1] defines ground truth: label l is present
    iff w*_l . x > 0.  Samples that end up with no positive margin get the
    argmax label assigned so that every sample carries at least one intent;
    the number of such repairs is reported in meta["label_repairs"].
    """
    if min(n_train, n_val, n_test) < 1 or d < 1:
        raise UsageError("split sizes and feature dimension must be positive")
    n = n_train + n_val + n_test
    feats = np.random.default_rng([seed, _TAG_CLS_FEATURES]).standard_normal((n, d))
    w_star = np.random.default_rng([seed, _TAG_CLS_WEIGHTS]).uniform(-1.0, 1.0, (N_INTENTS, d))

    margins = feats @ w_star.T                      # (n, 7)
    labels = (margins > 0.0).astype(np.uint8)
    empty = labels.sum(axis=1) == 0
    labels[empty, margins[empty].argmax(axis=1)] = 1
    repairs = int(empty.sum())

    samples = [
        ClassificationSample(i, _freeze(feats[i].copy()), _freeze(labels[i].copy()))
        for i in range(n)
    ]
    return DatasetSplit(
        task="classification",
        seed=seed,
        train=samples[:n_train],
        validation=samples[n_train:n_train + n_val],
        test=samples[n_train + n_val:],
        meta={"n_features": d, "label_repairs": repairs, "hidden_weights": w_star},
    )


def generate_summarization_dataset(seed, n_train=1000, n_val=100, n_test=100):
    """Build a seeded synthetic summarization dataset.

    Sources are uniform token sequences of length 4..10 over the source
    vocabulary.  A seeded random dictionary D (an arbitrary function, not
    necessarily a bijection) maps each source id to a target content id; the
    reference target is the tokenwise image of the source under D with EOS
    appended.  D is kept in meta["mapping"] so the construction can be
    audited sample by sample.
    """
    if min(n_train, n_val, n_test) < 1:
        raise UsageError("split sizes must be positive")
    n = n_train + n_val + n_test
    mapping = np.random.default_rng([seed, _TAG_SUM_DICT]).integers(
        0, N_TGT_CONTENT, size=N_SRC_VOCAB)
    lengths = np.random.default_rng([seed, _TAG_SUM_LENGTHS]).integers(
        SRC_LEN_MIN, SRC_LEN_MAX + 1, size=n)
    tok_rng = np.random.default_rng([seed, _TAG_SUM_TOKENS])

    samples = []
    for i in range(n):
        src = tok_rng.integers(0, N_SRC_VOCAB, size=int(lengths[i]), dtype=np.int64)
        tgt = np.concatenate([mapping[src], [EOS]]).astype(np.int64)
        samples.append(SummarizationSample(i, _freeze(src), _freeze(tgt)))
    return DatasetSplit(
        task="summarization",
        seed=seed,
        train=samples[:n_train],
        validation=samples[n_train:n_train + n_val],
        test=samples[n_train + n_val:],
        meta={
            "n_src_vocab": N_SRC_VOCAB,
            "n_tgt_vocab": N_TGT_VOCAB,
            "bos": BOS,
            "eos": EOS,
            "mapping": mapping,
        },
    )


def load_vocab(path):
    """Read a token-per-line vocabulary file: token id = line number (0-based)."""
    vocab = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            token = line.strip()
            if not token:
                raise ParseError(line_no, "empty vocabulary entry")
            if token in vocab:
                raise ParseError(line_no, f"duplicate vocabulary token {token!r}")
            vocab[token] = line_no - 1
    if not vocab:
        raise SchemaError(f"vocabulary file {path} is empty")
    return vocab


_SPLIT_NAMES = {"train": "train", "val": "validation", "validation": "validation",
                "test": "test"}


def _tokens_to_ids(text, vocab, line_no, field):
    ids = []
    for token in text.split():
        if token not in vocab:
            raise SchemaError(
                f"line {line_no}: token {token!r} in {field} not in the vocabulary")
        ids.append(vocab[token])
    return ids


def _parse_classification(record, line_no, d_expected, vocab):
    if "features" in record:
        feats = record["features"]
        if not isinstance(feats, list) or not feats or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in feats):
            raise SchemaError(
                f"line {line_no}: features must be a non-empty list of numbers")
        feats = np.asarray(feats, dtype=np.float64)
    elif "text" in record:
        if vocab is None:
            raise SchemaError(
                f"line {line_no}: text input requires a vocabulary file")
        if not isinstance(record["text"], str):
            raise SchemaError(f"line {line_no}: text must be a string")
        feats = np.zeros(len(vocab), dtype=np.float64)
        for tid in _tokens_to_ids(record["text"], vocab, line_no, "text"):
            feats[tid] += 1.0
    else:
        raise SchemaError(f"line {line_no}: record needs 'features' or 'text'")
    if d_expected is not None and feats.shape[0] != d_expected:
        raise SchemaError(
            f"line {line_no}: feature dimension {feats.shape[0]} != {d_expected} "
            "seen earlier")
    names = record.get("labels")
    if not isinstance(names, list) or not names:
        raise SchemaError(f"line {line_no}: a sample must carry at least one label")
    try:
        bits = intents_to_bits(names)
    except SchemaError as exc:
        raise SchemaError(f"line {line_no}: {exc}") from None
    return feats, bits


def _token_field(record, key, vocab, line_no, bound):
    value = record.get(key)
    if isinstance(value, str):
        if vocab is None:
            raise SchemaError(
                f"line {line_no}: string {key} requires a vocabulary file")
        ids = _tokens_to_ids(value, vocab, line_no, key)
    elif isinstance(value, list) and all(
            isinstance(v, int) and not isinstance(v, bool) for v in value):
        ids = value
    else:
        raise SchemaError(
            f"line {line_no}: {key} must be a token-id list or a string")
    if not ids:
        raise SchemaError(f"line {line_no}: {key} must be non-empty")
    if any(t < 0 or t >= bound for t in ids):
        raise SchemaError(f"line {line_no}: {key} token id out of range [0, {bound})")
    return ids


def _parse_summarization(record, line_no, vocab, n_src, n_content, eos_id):
    src = _token_field(record, "source", vocab, line_no, n_src)
    tgt = _token_field(record, "target", vocab, line_no, n_content)
    if len(src) > MAX_SRC_LEN:
        raise SchemaError(f"line {line_no}: source length {len(src)} exceeds {MAX_SRC_LEN}")
    if len(tgt) > MAX_TGT_LEN:
        raise SchemaError(f"line {line_no}: target length {len(tgt)} exceeds {MAX_TGT_LEN}")
    source = np.asarray(src, dtype=np.int64)
    target = np.concatenate([np.asarray(tgt, dtype=np.int64), [eos_id]])
    return source, target


def load_jsonl(path, task, vocab_path=None):
    """Load a dataset from a JSON-lines file.

    One record per line.  Every record carries a "split" of train/val/test
    and optionally an integer "id" (records without one get their file-order
    index).  Classification records carry "features" (number list) or "text"
    (whitespace-tokenized through the vocabulary file) plus "labels" (intent
    names).  Summarization records carry "source" and "target" as token-id
    lists or as strings through the vocabulary; the trailing EOS is implied
    and appended on load.  Malformed JSON raises ParseError with the line
    number; structurally invalid records raise SchemaError.
    """
    if task not in ("classification", "summarization"):
        raise UsageError(f"unknown task {task!r}")
    vocab = load_vocab(vocab_path) if vocab_path is not None else None
    if task == "summarization":
        n_src = len(vocab) if vocab is not None else N_SRC_VOCAB
        n_content = len(vocab) if vocab is not None else N_TGT_CONTENT
        bos_id, eos_id = n_content, n_content + 1
    buckets = {"train": [], "validation": [], "test": []}
    seen_ids = set()
    d_expected = None
    n_records = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(line_no, f"invalid JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise SchemaError(f"line {line_no}: record must be a JSON object")
            if "id" in record:
                if not isinstance(record["id"], int) or isinstance(record["id"], bool):
                    raise SchemaError(f"line {line_no}: id must be an integer")
                sample_id = record["id"]
            else:
                sample_id = n_records
            if sample_id in seen_ids:
                raise SchemaError(f"line {line_no}: duplicate sample id {sample_id}")
            seen_ids.add(sample_id)
            n_records += 1
            split = record.get("split")
            if split not in _SPLIT_NAMES:
                raise SchemaError(
                    f"line {line_no}: split must be train/val/test, got {split!r}")
            if task == "classification":
                feats, bits = _parse_classification(record, line_no, d_expected, vocab)
                d_expected = feats.shape[0]
                sample = ClassificationSample(sample_id, _freeze(feats), _freeze(bits))
            else:
                source, target = _parse_summarization(
                    record, line_no, vocab, n_src, n_content, eos_id)
                sample = SummarizationSample(sample_id, _freeze(source), _freeze(target))
            buckets[_SPLIT_NAMES[split]].append(sample)
    if task == "classification":
        meta = {"n_features": d_expected}
    else:
        meta = {"n_src_vocab": n_src, "n_tgt_vocab": n_content + 2,
                "bos": bos_id, "eos": eos_id}
    return DatasetSplit(
        task=task,
        seed=None,
        train=buckets["train"],
        validation=buckets["validation"],
        test=buckets["test"],
        meta=meta,
    )


def write_jsonl(path, dataset):
    """Serialize a DatasetSplit back to the JSON-lines layout load_jsonl reads."""
    split_tags = (("train", "train"), ("validation", "val"), ("test", "test"))
    with open(path, "w", encoding="utf-8") as fh:
        for attr, tag in split_tags:
            for s in getattr(dataset, attr):
                if dataset.task == "classification":
                    record = {
                        "id": s.id,
                        "split": tag,
                        "features": [float(v) for v in s.features],
                        "labels": bits_to_intents(s.labels),
                    }
                else:
                    record = {
                        "id": s.id,
                        "split": tag,
                        "source": [int(t) for t in s.source],
                        "target": [int(t) for t in s.target[:-1]],
                    }
                fh.write(json.dumps(record, sort_keys=True) + "\n")
