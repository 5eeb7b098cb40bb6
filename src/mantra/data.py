"""Dataset construction and ingestion for the two benchmark tasks.

Two task kinds flow through the pipeline:

* multi-label commit intent classification over a fixed set of 7 intents,
  with dense float feature vectors;
* token-level code summarization with integer source/target sequences over
  small closed vocabularies, targets terminated by an explicit EOS id.

A target vocabulary holds its content ids, then BOS, then EOS: every module
reads that layout through target_layout.  A split's widths are its arrays'.

Every split is a PackedSplit: read-only arrays with one row per sample,
built once here and read unchanged by noise injection, training, scoring
and evaluation.  Both synthetic generators are fully seeded: the same seed
reproduces the same dataset byte for byte.  Sample ids are unique across
splits so that downstream bookkeeping (noise masks, drop sets) can be
checked against validation/test membership by id alone.
"""

import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, ParseError, SchemaError, UsageError

INTENTS = ("Bug", "Refactor", "Deprecation", "Feature", "Merge", "Resource", "Test")
N_INTENTS = len(INTENTS)

N_SRC_VOCAB = 40
N_TGT_CONTENT = 40
N_TGT_SPECIAL = 2       # BOS and EOS, the last two target ids


def target_layout(n_tgt):
    """(n_content, bos, eos) of n_tgt target ids: content ids first, BOS and EOS last."""
    n_content = n_tgt - N_TGT_SPECIAL
    return n_content, n_content, n_content + 1


N_TGT_VOCAB = N_TGT_CONTENT + N_TGT_SPECIAL
_, BOS, EOS = target_layout(N_TGT_VOCAB)

SRC_LEN_MIN = 4
SRC_LEN_MAX = 10
MAX_SRC_LEN = 64    # split cap, so counts fit uint8; generated sources stay well below
MAX_TGT_LEN = 16    # content tokens, excluding EOS; also the decode cap

# Substream tags for seeded generators.  Each consumer of a user seed draws
# from default_rng([seed, tag]) so streams never alias across purposes.
_TAG_CLS_FEATURES = 11
_TAG_CLS_WEIGHTS = 12
_TAG_SUM_DICT = 21
_TAG_SUM_LENGTHS = 22
_TAG_SUM_TOKENS = 23


@dataclass(frozen=True, eq=False)
class PackedSplit:
    """One split as read-only arrays, one row per sample; len() counts rows.

    Classification fills x (features) and y (label bits), both float64.
    Summarization fills src and tgt (int64, zero-padded past each row's
    true length; each tgt row ends in EOS), their true lengths, and
    src_counts: each sample's source-token counts over the source vocabulary,
    counted once here because sources never change during a run (uint8, an
    eighth of int64's memory; MAX_SRC_LEN bounds every count).
    """
    task: str                   # "classification" | "summarization"
    ids: np.ndarray             # (n,) int64
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    src: np.ndarray | None = None
    src_len: np.ndarray | None = None
    tgt: np.ndarray | None = None
    tgt_len: np.ndarray | None = None
    src_counts: np.ndarray | None = None    # (n, V_s) uint8

    def __post_init__(self):
        for f in fields(self):
            arr = getattr(self, f.name)
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    def __len__(self):
        return self.ids.shape[0]

    def take(self, rows):
        """The rows at the given positions (an index array or a slice).

        One row selection over every array field: sequence arrays keep the
        split's width, since no kernel reads a pad.
        """
        return replace(self, **{name: arr[rows] for name, arr in vars(self).items()
                                if isinstance(arr, np.ndarray)})


def classification_split(ids, x, y):
    """A classification split from ids, (n, d) features and (n, 7) label bits."""
    ids = np.array(ids, dtype=np.int64)
    x, y = np.array(x, dtype=np.float64), np.array(y, dtype=np.float64)
    n = ids.shape[0]
    if (x.ndim != 2 or x.shape[0] != n or y.shape != (n, N_INTENTS)
            or ((y != 0) & (y != 1)).any()):
        raise UsageError(f"{n} samples need {n} feature rows and ({n}, {N_INTENTS}) 0/1 labels")
    return PackedSplit("classification", ids, x=x, y=y)


def summarization_split(ids, sources, targets, n_src):
    """A split packed by _pad from token-id lists over n_src source ids; EOS ends each target."""
    src, src_len = _pad(sources)
    tgt, tgt_len = _pad(targets)
    if (src.shape[1] > MAX_SRC_LEN or src.min(initial=0) < 0
            or src.max(initial=0) >= n_src):
        raise UsageError(f"sources must be at most {MAX_SRC_LEN} token ids "
                         f"in [0, {n_src})")
    return PackedSplit("summarization", np.array(ids, dtype=np.int64),
                       src=src, src_len=src_len, tgt=tgt, tgt_len=tgt_len,
                       src_counts=_count_tokens(src, src_len, n_src))


def _count_tokens(src, src_len, n_src):
    """(n, n_src) uint8 count of each source token in each row's valid prefix."""
    n = src.shape[0]
    valid = np.arange(src.shape[1]) < src_len[:, None]
    keys = np.repeat(np.arange(n) * n_src, src_len) + src[valid]
    return np.bincount(keys, minlength=n * n_src).reshape(n, n_src).astype(np.uint8)


def _pad(rows):
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    out = np.zeros((len(rows), lengths.max(initial=0)), dtype=np.int64)
    for i, row in enumerate(rows):
        out[i, :lengths[i]] = row
    return out, lengths


@dataclass
class DatasetSplit:
    """A train/validation/test partition plus the facts no array carries.

    meta: "n_tgt_vocab" for summarization, and a generator's provenance
    ("label_repairs" and "hidden_weights", or "mapping").
    """
    train: PackedSplit
    validation: PackedSplit
    test: PackedSplit
    meta: dict = field(default_factory=dict)


def _partition(whole, n_train, n_val, meta):
    """Cut one split of all samples into train, validation and test, in order."""
    cut = n_train + n_val
    return DatasetSplit(train=whole.take(slice(0, n_train)),
                        validation=whole.take(slice(n_train, cut)),
                        test=whole.take(slice(cut, None)), meta=meta)


def intents_to_bits(names):
    """Map a collection of intent names to a 7-bit label vector."""
    bits = np.zeros(N_INTENTS, dtype=np.uint8)
    for name in names:
        try:
            bits[INTENTS.index(name)] = 1
        except ValueError:
            raise SchemaError(f"unknown intent {name!r}") from None
    return bits


def generate_classification_dataset(seed, n_train, n_val, n_test, d):
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
    labels = (margins > 0.0).astype(np.float64)
    empty = labels.sum(axis=1) == 0
    labels[empty, margins[empty].argmax(axis=1)] = 1.0
    repairs = int(empty.sum())

    whole = PackedSplit("classification", np.arange(n, dtype=np.int64), x=feats, y=labels)
    return _partition(whole, n_train, n_val,
                      {"label_repairs": repairs, "hidden_weights": w_star})


def generate_summarization_dataset(seed, n_train, n_val, n_test):
    """Build a seeded synthetic summarization dataset.

    Sources are uniform token sequences of length 4..10 over the source
    vocabulary, drawn sample after sample from one stream.  A seeded random
    dictionary D (an arbitrary function, not necessarily a bijection) maps
    each source id to a target content id; the reference target is the
    tokenwise image of the source under D with EOS appended.  D is kept in
    meta["mapping"] so the construction can be audited sample by sample.
    """
    if min(n_train, n_val, n_test) < 1:
        raise UsageError("split sizes must be positive")
    n = n_train + n_val + n_test
    mapping = np.random.default_rng([seed, _TAG_SUM_DICT]).integers(
        0, N_TGT_CONTENT, size=N_SRC_VOCAB)
    lengths = np.random.default_rng([seed, _TAG_SUM_LENGTHS]).integers(
        SRC_LEN_MIN, SRC_LEN_MAX + 1, size=n)

    valid = np.arange(SRC_LEN_MAX) < lengths[:, None]
    src = np.zeros((n, SRC_LEN_MAX), dtype=np.int64)
    src[valid] = np.random.default_rng([seed, _TAG_SUM_TOKENS]).integers(
        0, N_SRC_VOCAB, size=int(lengths.sum()), dtype=np.int64)
    tgt = np.zeros((n, SRC_LEN_MAX + 1), dtype=np.int64)
    tgt[:, :-1] = np.where(valid, mapping[src], 0)
    tgt[np.arange(n), lengths] = EOS

    whole = PackedSplit("summarization", np.arange(n, dtype=np.int64), src=src,
                        src_len=lengths, tgt=tgt, tgt_len=lengths + 1,
                        src_counts=_count_tokens(src, lengths, N_SRC_VOCAB))
    return _partition(whole, n_train, n_val, {"n_tgt_vocab": N_TGT_VOCAB, "mapping": mapping})


def _numbered_lines(path):
    """A UTF-8 file's lines, numbered from 1.  A leading byte-order mark is
    not part of line 1.  A byte that is not UTF-8 decodes to a lone
    surrogate, so the line holding one fails to encode: ParseError."""
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ParseError(path, line_no,
                                 f"not UTF-8 text (column {exc.start + 1})") from None
            yield line_no, line


def load_vocab(path):
    """Read a UTF-8 vocabulary file, one token per line as text splits it: id = line number - 1."""
    vocab = {}
    for line_no, line in _numbered_lines(path):
        tokens = line.split()
        if not tokens:
            raise ParseError(path, line_no, "empty vocabulary entry")
        if len(tokens) > 1:
            raise ParseError(path, line_no, f"vocabulary entry {line.strip()!r} "
                                            f"holds {len(tokens)} tokens, not one")
        token = tokens[0]
        if token in vocab:
            raise ParseError(path, line_no, f"duplicate vocabulary token {token!r}")
        vocab[token] = line_no - 1
    if not vocab:
        raise SchemaError(f"vocabulary file {path} is empty")
    return vocab


_SPLIT_NAMES = {"train": "train", "val": "validation", "validation": "validation",
                "test": "test"}


def _tokens_to_ids(text, vocab, field):
    ids = []
    for token in text.split():
        if token not in vocab:
            raise SchemaError(f"token {token!r} in {field} not in the vocabulary")
        ids.append(vocab[token])
    return ids


def _is_finite_number(value):
    """Whether a JSON value is a number that float64 holds as a finite value."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # an int past the float64 range
        return False


def _parse_classification(record, d_expected, vocab):
    if "features" in record and "text" in record:
        raise SchemaError("a record carries 'features' or 'text', not both")
    if "features" in record:
        feats = record["features"]
        if not isinstance(feats, list) or not feats or not all(
                map(_is_finite_number, feats)):
            raise SchemaError("features must be a non-empty list of finite numbers")
        feats = np.asarray(feats, dtype=np.float64)
    elif "text" in record:
        if vocab is None:
            raise SchemaError("text input requires a vocabulary file")
        if not isinstance(record["text"], str):
            raise SchemaError("text must be a string")
        feats = np.zeros(len(vocab), dtype=np.float64)
        for tid in _tokens_to_ids(record["text"], vocab, "text"):
            feats[tid] += 1.0
    else:
        raise SchemaError("record needs 'features' or 'text'")
    if d_expected is not None and feats.shape[0] != d_expected:
        raise SchemaError(f"feature dimension {feats.shape[0]} != {d_expected} seen earlier")
    names = record.get("labels")
    if not isinstance(names, list) or not names:
        raise SchemaError("a sample must carry at least one label")
    return feats, intents_to_bits(names)


def _token_field(record, key, vocab, bound):
    value = record.get(key)
    if isinstance(value, str):
        if vocab is None:
            raise SchemaError(f"string {key} requires a vocabulary file")
        ids = _tokens_to_ids(value, vocab, key)
    elif isinstance(value, list) and all(
            isinstance(v, int) and not isinstance(v, bool) for v in value):
        ids = value
    else:
        raise SchemaError(f"{key} must be a token-id list or a string")
    if not ids:
        raise SchemaError(f"{key} must be non-empty")
    if any(t < 0 or t >= bound for t in ids):
        raise SchemaError(f"{key} token id out of range [0, {bound})")
    return ids


def _parse_summarization(record, vocab, n_src, n_content, eos_id):
    src = _token_field(record, "source", vocab, n_src)
    tgt = _token_field(record, "target", vocab, n_content)
    if len(src) > MAX_SRC_LEN:
        raise SchemaError(f"source length {len(src)} exceeds {MAX_SRC_LEN}")
    if len(tgt) > MAX_TGT_LEN:
        raise SchemaError(f"target length {len(tgt)} exceeds {MAX_TGT_LEN}")
    return src, tgt + [eos_id]


def load_jsonl(path, task, vocab_path=None):
    """Load a dataset from a JSON-lines file.

    One record per line.  Every record carries a "split" of train/val/test
    and optionally an int64 "id" (records without one get their file-order
    index).  Classification records carry one of "features" (a list of
    finite numbers) or "text" (whitespace-tokenized through the vocabulary
    file), plus "labels" (intent names).  Summarization records carry
    "source" and "target" as token-id lists or as strings through the
    vocabulary; the trailing EOS is implied and appended on load.

    A bad line of either file raises ParseError naming that file and line:
    text that is not UTF-8, invalid JSON, a record that breaks the schema
    or repeats an id, a blank or repeated vocabulary entry.  The record
    checks raise SchemaError and this loop alone adds the location.  An
    empty vocabulary raises SchemaError.  A vocabulary that no
    classification record reads (none carries "text") raises ConfigError,
    since the run would silently ignore it; for summarization the vocabulary
    also sets the id range and the vocabulary sizes, so it always applies.
    """
    if task not in ("classification", "summarization"):
        raise UsageError(f"unknown task {task!r}")
    vocab = load_vocab(vocab_path) if vocab_path is not None else None
    if task == "summarization":
        n_src = len(vocab) if vocab is not None else N_SRC_VOCAB
        n_tgt = (len(vocab) if vocab is not None else N_TGT_CONTENT) + N_TGT_SPECIAL
        n_content, _, eos_id = target_layout(n_tgt)
    # split name -> (ids, features or sources, label bits or targets)
    buckets = {name: ([], [], []) for name in ("train", "validation", "test")}
    seen_ids = set()
    d_expected = None
    n_records = 0
    read_text = False
    for line_no, line in _numbered_lines(path):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise SchemaError("record must be a JSON object")
            if "id" in record:
                if not isinstance(record["id"], int) or isinstance(record["id"], bool):
                    raise SchemaError("id must be an integer")
                if not -2**63 <= record["id"] < 2**63:
                    raise SchemaError(f"id {record['id']} does not fit int64")
                sample_id = record["id"]
            else:
                sample_id = n_records
            if sample_id in seen_ids:
                raise SchemaError(f"duplicate sample id {sample_id}")
            split = record.get("split")
            if not isinstance(split, str) or split not in _SPLIT_NAMES:
                raise SchemaError(f"split must be train/val/test, got {split!r}")
            if task == "classification":
                first, second = _parse_classification(record, d_expected, vocab)
                d_expected = first.shape[0]
                read_text = read_text or "text" in record
            else:
                first, second = _parse_summarization(record, vocab, n_src, n_content, eos_id)
        except json.JSONDecodeError as exc:
            raise ParseError(path, line_no, f"invalid JSON ({exc.msg})") from None
        except SchemaError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        seen_ids.add(sample_id)
        n_records += 1
        ids, firsts, seconds = buckets[_SPLIT_NAMES[split]]
        ids.append(sample_id)
        firsts.append(first)
        seconds.append(second)
    if task == "classification" and vocab is not None and not read_text:
        raise ConfigError(f"vocabulary file {vocab_path} is unused: no "
                          "classification record reads 'text' through it")
    if task == "classification":
        meta = {}
        splits = {name: classification_split(
            ids, np.reshape(feats, (len(ids), d_expected or 0)),
            np.reshape(bits, (len(ids), N_INTENTS)))
            for name, (ids, feats, bits) in buckets.items()}
    else:
        meta = {"n_tgt_vocab": n_tgt}
        splits = {name: summarization_split(*columns, n_src)
                  for name, columns in buckets.items()}
    return DatasetSplit(meta=meta, **splits)

