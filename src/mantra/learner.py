"""Small from-scratch learners with per-sample loss accounting.

Two learner families, one per task:

* a linear multi-label classifier: 7 independent sigmoid outputs over a
  dense feature vector, trained with mean binary cross-entropy (mean over
  the 7 outputs, so a sample's loss is comparable across tasks);
* a log-linear sequence model: next-token logits are a transition column
  for the previous gold token plus a source bag-of-words term plus a bias,
  trained teacher-forced with softmax cross-entropy averaged over target
  positions (EOS included).

Everything here is deterministic given the seed in play: a model starts
with every parameter +0.0, shuffles draw from a stream keyed on
(seed, epoch), and the update rule is plain mini-batch SGD with closed-form
gradients (tests/grad_audit.py checks them against finite differences).
train_epoch reads lr, batch_size and seed off the run's ExperimentConfig
(or any object with those attributes); this module keeps no copy of them.
per_sample_losses never mutates the model, so the loss of every
active sample can be recorded at epoch end under the same parameters.
Every entry point takes a data.PackedSplit the model fits (_check_task).

A model is its parameters: every field of its dataclass is an np.ndarray,
in declaration order (param_arrays), which is also the order its gradients
come back in; a checkpoint stores the model's kind and every field.  Each
parameter names its axes (_axes), and load_model checks a checkpoint's
shapes against those names.  A sequence model's BOS and EOS are not stored:
they are the last two ids of its target axis (data.target_layout).
"""

import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import kernels
from .data import MAX_TGT_LEN, N_INTENTS, N_SRC_VOCAB, N_TGT_VOCAB, target_layout
from .errors import SchemaError, UsageError

EPS = 1e-12                        # probability clamp for the BCE log
# Desk-scale defaults, calibrated on the seeded benchmark configs: the
# classifier needs its clean losses concentrated by the end of warmup or
# the mixture step starts splitting the clean tail, and the sequence model
# needs a rate high enough that greedy decodes reach reference length
# within 10 epochs.  The objectives are convex, so the large sequence rate
# is stable (loss descent is checked in the tests).
DESK_LR = {"classification": 0.5, "summarization": 16.0}

_TAG_SHUFFLE = 42


def _axes(*names):
    """A parameter field, with its axes named so load_model can check its shape."""
    return field(metadata={"axes": names})


@dataclass
class ClassifierModel:
    w: np.ndarray = _axes("label", "feature")
    b: np.ndarray = _axes("label")

    @property
    def task(self):
        return "classification"


@dataclass
class Seq2SeqModel:
    """Log-linear next-token model; BOS and EOS are the target axis's last two ids."""
    u: np.ndarray = _axes("tgt", "tgt")     # transition scores, u[next, prev]
    v: np.ndarray = _axes("tgt", "src")     # source-bag scores
    b: np.ndarray = _axes("tgt")

    @property
    def task(self):
        return "summarization"

    @property
    def bos(self):
        return target_layout(self.b.shape[0])[1]

    @property
    def eos(self):
        return target_layout(self.b.shape[0])[2]


# The "kind" a checkpoint names its model by.
_CHECKPOINT_KINDS = {ClassifierModel: "classifier", Seq2SeqModel: "seq2seq"}


def new_classifier(n_features):
    return ClassifierModel(w=np.zeros((N_INTENTS, n_features)), b=np.zeros(N_INTENTS))


def new_seq2seq(n_tgt=N_TGT_VOCAB, n_src=N_SRC_VOCAB):
    if target_layout(n_tgt)[0] < 1:
        raise UsageError(f"{n_tgt} target ids leave no content id besides BOS and EOS")
    return Seq2SeqModel(u=np.zeros((n_tgt, n_tgt)), v=np.zeros((n_tgt, n_src)),
                        b=np.zeros(n_tgt))


def _sigmoid(z):
    # exp(-|z|) never overflows; each branch is the stable form for its sign
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _classifier_probs(model, x):
    """(n, N_INTENTS) sigmoid outputs of the classifier."""
    return _sigmoid(x @ model.w.T + model.b)


def _check_task(model, split):
    if split.task != model.task:
        raise UsageError(f"{type(model).__name__} cannot score {split.task} samples")
    if split.task == "classification" and split.x.shape[1] != model.w.shape[1]:
        raise UsageError(f"split has {split.x.shape[1]} features, "
                         f"the model {model.w.shape[1]}")
    if split.task == "summarization" and split.src_counts.shape[1] != model.v.shape[1]:
        raise UsageError(f"split has a {split.src_counts.shape[1]}-token source "
                         f"vocabulary, the model {model.v.shape[1]}")
    if split.task == "summarization":
        body = split.tgt[np.arange(split.tgt.shape[1]) < split.tgt_len[:, None] - 1]
        if ((split.tgt_len < 1).any()
                or (split.tgt[np.arange(len(split)), split.tgt_len - 1] != model.eos).any()
                or (body < 0).any() or (body >= model.bos).any()):
            raise UsageError(f"split targets do not fit the model's {model.b.shape[0]}-id "
                             f"target vocabulary: each must be content ids in "
                             f"[0, {model.bos}) ending in EOS {model.eos}")


def per_sample_losses(model, samples):
    """Loss of each sample under the current parameters, without mutation."""
    _check_task(model, samples)
    if isinstance(model, ClassifierModel):
        p = np.clip(_classifier_probs(model, samples.x), EPS, 1.0 - EPS)
        return -(samples.y * np.log(p) + (1.0 - samples.y) * np.log(1.0 - p)).mean(axis=1)
    return kernels.seq_losses(model.u, model.v, model.b, samples.src_counts,
                              samples.src_len, samples.tgt, samples.tgt_len, model.bos)


def _classifier_grads(model, x, y):
    """Mean-over-batch gradients of the mean BCE."""
    g = (_classifier_probs(model, x) - y) / y.shape[1]
    dw = g.T @ x / x.shape[0]
    db = np.add.reduce(g, axis=0) / g.shape[0]   # g.mean(axis=0) without its wrapper
    return dw, db


def train_epoch(model, samples, config, epoch):
    """One seeded-shuffle SGD pass with config's lr, batch_size and seed; updates in place."""
    _check_task(model, samples)
    order = np.random.default_rng(
        [config.seed, _TAG_SHUFFLE, epoch]).permutation(len(samples))
    params = param_arrays(model)
    for i in range(0, len(samples), config.batch_size):
        idx = order[i:i + config.batch_size]
        if isinstance(model, ClassifierModel):
            grads = _classifier_grads(model, samples.x[idx], samples.y[idx])
            scale = config.lr
        else:
            grads = kernels.seq_grad_sum(
                model.u, model.v, model.b, samples.src_counts[idx], samples.src_len[idx],
                samples.tgt[idx], samples.tgt_len[idx], model.bos)
            scale = config.lr / idx.size
        for param, grad in zip(params, grads):
            param -= scale * grad
    return model


def predict(model, samples):
    """Hard predictions: label bit vectors, or greedily decoded token arrays."""
    _check_task(model, samples)
    if isinstance(model, ClassifierModel):
        return (_classifier_probs(model, samples.x) > 0.5).astype(np.uint8)
    out, out_len = kernels.greedy_decode(
        model.u, model.v, model.b, samples.src_counts, samples.src_len, model.bos,
        model.eos, MAX_TGT_LEN)
    return [out[i, :out_len[i]].copy() for i in range(len(samples))]


def param_arrays(model):
    """The model's fields in declaration order, the order of its gradients."""
    return [getattr(model, f.name) for f in fields(model)]


def save_model(model, path):
    """Write a JSON checkpoint that load_model restores exactly: the kind, then every field."""
    kind = _CHECKPOINT_KINDS.get(type(model))
    if kind is None:
        raise UsageError(f"cannot checkpoint {type(model).__name__}")
    payload = {"kind": kind}
    for f in fields(model):
        payload[f.name] = getattr(model, f.name).tolist()
    # one write: json.dump takes the pure-Python encoder and writes it in pieces
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def load_model(path):
    """Rebuild the model save_model wrote; SchemaError names a field the file lacks or garbles.

    A parameter must be finite, have one dimension per named axis, and agree
    in size with every other parameter along an axis of the same name.  A
    label axis holds N_INTENTS entries; a target axis, a content id besides
    BOS and EOS.  Other keys (older checkpoints' "bos", "eos") are ignored.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: a checkpoint must be a JSON object with field 'kind'")
    kind = payload.get("kind")
    model_type = next((t for t, name in _CHECKPOINT_KINDS.items() if name == kind), None)
    if model_type is None:
        raise UsageError(f"unknown checkpoint kind {kind!r}")
    values = {}
    sizes = {}          # axis name -> (size, the first field with that axis)
    for f in fields(model_type):
        if f.name not in payload:
            raise SchemaError(f"{path}: missing field {f.name!r}")
        try:
            value = np.asarray(payload[f.name], dtype=np.float64)
        except (TypeError, ValueError):
            raise SchemaError(
                f"{path}: field {f.name!r} cannot be read as a number array") from None
        axes = f.metadata["axes"]
        if value.ndim != len(axes):
            raise SchemaError(f"{path}: field {f.name!r} has {value.ndim} dimensions, "
                              f"not {len(axes)} ({', '.join(axes)})")
        if not np.isfinite(value).all():
            raise SchemaError(f"{path}: field {f.name!r} holds a non-finite value")
        for axis, size in zip(axes, value.shape):
            first_size, first = sizes.setdefault(axis, (size, f.name))
            if size != first_size:
                raise SchemaError(f"{path}: field {f.name!r} has {size} {axis} entries "
                                  f"where field {first!r} has {first_size}")
        values[f.name] = value
    if "tgt" in sizes and target_layout(sizes["tgt"][0])[0] < 1:
        size, first = sizes["tgt"]
        raise SchemaError(f"{path}: field {first!r} has {size} tgt entries; a target "
                          "vocabulary needs a content id besides BOS and EOS")
    if sizes.get("label", (N_INTENTS,))[0] != N_INTENTS:    # w is the first label field
        raise SchemaError(f"{path}: field 'w' has {sizes['label'][0]} labels, not {N_INTENTS}")
    return model_type(**values)
