"""Learners: loss oracles, SGD behavior, gradient audits, checkpoints."""

import inspect
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from mantra import data, kernels, learner
from mantra.errors import UsageError

from grad_audit import gradient_check, randomized


def _cfg(lr, batch_size=32, seed=0):
    """What train_epoch reads off a run's config.  Not a runner.ExperimentConfig:
    lr=0 is a valid learner input but not a valid run setting."""
    return SimpleNamespace(lr=lr, batch_size=batch_size, seed=seed)


def _cls_samples(seed, n, d=8):
    return data.generate_classification_dataset(seed, n, 1, 1, d=d).train


def _sum_samples(seed, n):
    return data.generate_summarization_dataset(seed, n, 1, 1).train


def _empty_split(task, d=4):
    if task == "classification":
        return data.classification_split([], np.zeros((0, d)),
                                         np.zeros((0, data.N_INTENTS)))
    return data.summarization_split([], [], [], data.N_SRC_VOCAB)


def test_zero_init_loss_oracles():
    cls = learner.new_classifier(n_features=8)
    losses = learner.per_sample_losses(cls, _cls_samples(1, 20))
    np.testing.assert_allclose(losses, math.log(2.0), rtol=0, atol=1e-9)

    seq = learner.new_seq2seq()
    losses = learner.per_sample_losses(seq, _sum_samples(1, 20))
    np.testing.assert_allclose(losses, math.log(42.0), rtol=0, atol=1e-9)


def test_fresh_models_start_at_positive_zero():
    # a parameter training never touches (u's EOS column) keeps its start in the checkpoint
    for model in (learner.new_classifier(16), learner.new_seq2seq()):
        for p in learner.param_arrays(model):
            assert p.dtype == np.float64 and not p.any()
            assert not np.signbit(p).any()


def _assert_same_split(got, want):
    """Equal fields, except that got's sequence pads may be wider than want's."""
    assert got.task == want.task and len(got) == len(want)
    for name in ("ids", "x", "y", "src", "src_len", "tgt", "tgt_len", "src_counts"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            if name in ("src", "tgt"):
                assert not a[:, b.shape[1]:].any(), name    # zero pads
                a = a[:, :b.shape[1]]
            assert a.dtype == b.dtype and a.shape == b.shape, name
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("task", ["classification", "summarization"])
def test_packed_subset_equals_packing_the_subset(task):
    # take() must equal building the subset's split directly, and score and
    # train alike although it keeps the full split's pad width
    if task == "classification":
        full = _cls_samples(4, 60, d=6)
        model_a, model_b = (randomized(learner.new_classifier(6), 0.5, 1)
                            for _ in range(2))
    else:
        full = _sum_samples(4, 60)
        model_a, model_b = (randomized(learner.new_seq2seq(), 0.2, 1)
                            for _ in range(2))
    rows = np.random.default_rng(5).permutation(len(full))[:35]
    if task == "classification":
        subset = data.classification_split(full.ids[rows], full.x[rows], full.y[rows])
    else:
        # leave out the longest sources and targets, so only take() pads that far
        rows = rows[(full.src_len[rows] < full.src_len.max())
                    & (full.tgt_len[rows] < full.tgt_len.max())]
        subset = data.summarization_split(
            full.ids[rows], [full.src[i, :full.src_len[i]] for i in rows],
            [full.tgt[i, :full.tgt_len[i]] for i in rows], data.N_SRC_VOCAB)
    sub = full.take(rows)
    _assert_same_split(sub, subset)
    if task == "summarization":
        assert sub.src.shape[1] == full.src.shape[1] > subset.src.shape[1]
        assert sub.tgt.shape[1] == full.tgt.shape[1] > subset.tgt.shape[1]

    np.testing.assert_array_equal(learner.per_sample_losses(model_a, sub),
                                  learner.per_sample_losses(model_b, subset))
    cfg = _cfg(lr=0.5, batch_size=8, seed=2)
    learner.train_epoch(model_a, sub, cfg, 3)
    learner.train_epoch(model_b, subset, cfg, 3)
    for a, b in zip(learner.param_arrays(model_a), learner.param_arrays(model_b)):
        np.testing.assert_array_equal(a, b)


def test_classifier_loss_matches_direct_bce(rng):
    samples = _cls_samples(5, 12, d=6)
    model = randomized(learner.new_classifier(6), 0.8, 2)
    got = learner.per_sample_losses(model, samples)
    for features, labels, loss in zip(samples.x, samples.y, got):
        z = model.w @ features + model.b
        p = 1.0 / (1.0 + np.exp(-z))
        p = np.clip(p, learner.EPS, 1.0 - learner.EPS)
        want = -(labels * np.log(p) + (1 - labels) * np.log(1 - p)).mean()
        assert abs(loss - want) < 1e-12


def test_seq_loss_uses_mean_over_positions_including_eos():
    # hand-checkable single sample: uniform logits except a bias on the gold ids
    model = learner.new_seq2seq(n_tgt=5, n_src=3)
    assert (model.bos, model.eos) == (3, 4)     # the last two target ids
    for n_tgt in (1, 2):                        # and at least one content id
        with pytest.raises(UsageError):
            learner.new_seq2seq(n_tgt=n_tgt, n_src=3)
    model.b[:] = 0.0
    sample = data.summarization_split([0], [[0, 1]], [[2, 4]], 3)
    # zero params: -ln softmax = ln 5 at both positions (content and EOS)
    loss = learner.per_sample_losses(model, sample)[0]
    assert abs(loss - math.log(5.0)) < 1e-12
    # lift the EOS logit only: position 2 cheapens, position 1 pays more
    model.b[4] = 1.0
    lse = math.log(4 * math.exp(0.0) + math.exp(1.0))
    want = ((lse - 0.0) + (lse - 1.0)) / 2.0
    loss = learner.per_sample_losses(model, sample)[0]
    assert abs(loss - want) < 1e-12


def test_sample_kind_mismatch():
    cls = learner.new_classifier(4)
    with pytest.raises(UsageError):
        learner.per_sample_losses(cls, _sum_samples(1, 3))
    seq = learner.new_seq2seq()
    with pytest.raises(UsageError):
        learner.train_epoch(seq, _cls_samples(1, 3), _cfg(lr=0.1), 0)
    with pytest.raises(UsageError):    # an empty split still carries its task
        learner.predict(seq, _empty_split("classification"))


def test_source_vocabulary_mismatch():
    seq = learner.new_seq2seq(n_src=data.N_SRC_VOCAB - 1)
    samples = _sum_samples(1, 3)
    with pytest.raises(UsageError):
        learner.per_sample_losses(seq, samples)
    with pytest.raises(UsageError):
        learner.train_epoch(seq, samples, _cfg(lr=0.1), 0)
    with pytest.raises(UsageError):
        learner.predict(seq, samples)
    with pytest.raises(UsageError):     # an empty split still carries its width
        learner.predict(seq, _empty_split("summarization"))


def test_target_vocabulary_mismatch():
    samples = _sum_samples(1, 3)            # 42 target ids: EOS 41 ends each target
    # 12 ids: the split's ids run past the target axis; 50 ids: EOS 41 reads as content
    for n_tgt in (12, 50):
        seq = learner.new_seq2seq(n_tgt=n_tgt, n_src=data.N_SRC_VOCAB)
        for call in (lambda: learner.per_sample_losses(seq, samples),
                     lambda: learner.train_epoch(seq, samples, _cfg(lr=0.1), 0),
                     lambda: learner.predict(seq, samples)):
            with pytest.raises(UsageError) as exc:
                call()
            assert f"{n_tgt}-id target vocabulary" in str(exc.value)
    # ends in the model's EOS, but holds an id past its target axis
    past = data.summarization_split([0], [[1, 2]], [[50, data.EOS]], data.N_SRC_VOCAB)
    with pytest.raises(UsageError):
        learner.per_sample_losses(learner.new_seq2seq(), past)
    # an empty split has no targets to check
    assert learner.per_sample_losses(learner.new_seq2seq(),
                                     _empty_split("summarization")).shape == (0,)


def test_targets_hold_content_ids_before_eos():
    # a negative id would wrap to the last row of the target axis, and BOS is
    # never a target; both end in EOS and fit under the largest id.  An
    # empty target has no EOS to end it.
    seq = learner.new_seq2seq()
    for target in ([-1, data.EOS], [data.BOS, data.EOS], [3, -2, 5, data.EOS], []):
        samples = data.summarization_split([0], [[1, 2]], [target], data.N_SRC_VOCAB)
        for call in (lambda: learner.per_sample_losses(seq, samples),
                     lambda: learner.train_epoch(seq, samples, _cfg(lr=0.1), 0),
                     lambda: learner.predict(seq, samples)):
            with pytest.raises(UsageError):
                call()
    ok = data.summarization_split([0], [[1, 2]], [[0, data.BOS - 1, data.EOS]],
                                  data.N_SRC_VOCAB)
    assert learner.per_sample_losses(seq, ok).shape == (1,)


def test_feature_width_mismatch():
    cls = learner.new_classifier(3)
    samples = _cls_samples(1, 3, d=5)
    for call in (lambda: learner.per_sample_losses(cls, samples),
                 lambda: learner.train_epoch(cls, samples, _cfg(lr=0.1), 0),
                 lambda: learner.predict(cls, samples),
                 lambda: learner.predict(cls, _empty_split("classification", d=5))):
        with pytest.raises(UsageError) as exc:
            call()
        assert "5 features" in str(exc.value) and "the model 3" in str(exc.value)


def test_empty_inputs():
    cls = learner.new_classifier(4)
    empty = _empty_split("classification")
    assert learner.per_sample_losses(cls, empty).shape == (0,)
    assert learner.predict(cls, empty).shape == (0, 7)
    learner.train_epoch(cls, empty, _cfg(lr=0.1), 0)   # no-op, no crash
    seq = learner.new_seq2seq()
    empty = _empty_split("summarization")
    assert learner.per_sample_losses(seq, empty).shape == (0,)
    assert learner.predict(seq, empty) == []
    learner.train_epoch(seq, empty, _cfg(lr=0.1), 0)


def test_train_epoch_deterministic_and_epoch_sensitive():
    samples = _cls_samples(7, 50, d=6)
    cfg = _cfg(lr=0.3, batch_size=16, seed=9)
    a = learner.new_classifier(6)
    b = learner.new_classifier(6)
    learner.train_epoch(a, samples, cfg, epoch=0)
    learner.train_epoch(b, samples, cfg, epoch=0)
    np.testing.assert_array_equal(a.w, b.w)
    np.testing.assert_array_equal(a.b, b.b)
    c = learner.new_classifier(6)
    learner.train_epoch(c, samples, cfg, epoch=1)   # different shuffle stream
    assert not np.array_equal(a.w, c.w)


def test_train_epoch_reads_lr_batch_size_and_seed_off_any_config():
    # the runner passes its ExperimentConfig; any object with the three attributes does
    samples = _cls_samples(7, 50, d=6)
    trained = []
    for seed in (5, 5, 6):
        model = learner.new_classifier(6)
        config = SimpleNamespace(lr=0.3, batch_size=7, seed=seed)
        learner.train_epoch(model, samples, config, 1)
        trained.append(model)
    a, b, c = trained
    np.testing.assert_array_equal(a.w, b.w)
    np.testing.assert_array_equal(a.b, b.b)
    assert not np.array_equal(a.w, c.w)     # the seed keys the shuffle stream


def test_lr_zero_is_identity():
    samples = _sum_samples(3, 10)
    model = randomized(learner.new_seq2seq(), 0.1, 4)
    u0, v0, b0 = model.u.copy(), model.v.copy(), model.b.copy()
    learner.train_epoch(model, samples, _cfg(lr=0.0, batch_size=4), 0)
    np.testing.assert_array_equal(model.u, u0)
    np.testing.assert_array_equal(model.v, v0)
    np.testing.assert_array_equal(model.b, b0)


def test_classifier_loss_strictly_decreases_early():
    # benchmark-shaped problem, desk defaults: mean loss drops every one of
    # the first 5 epochs
    samples = _cls_samples(1, 200, d=16)
    model = learner.new_classifier(16)
    cfg = _cfg(lr=learner.DESK_LR["classification"])
    prev = learner.per_sample_losses(model, samples).mean()
    for epoch in range(5):
        learner.train_epoch(model, samples, cfg, epoch)
        cur = learner.per_sample_losses(model, samples).mean()
        assert cur < prev
        prev = cur


def test_seq_loss_strictly_decreases_early():
    samples = _sum_samples(1, 200)
    model = learner.new_seq2seq()
    cfg = _cfg(lr=learner.DESK_LR["summarization"])
    prev = learner.per_sample_losses(model, samples).mean()
    for epoch in range(5):
        learner.train_epoch(model, samples, cfg, epoch)
        cur = learner.per_sample_losses(model, samples).mean()
        assert cur < prev
        prev = cur


def test_full_batch_small_step_never_increases_loss():
    # gradient descent property, checked as a seeded loop over problems
    for seed in range(6):
        cls_samples = _cls_samples(seed, 20, d=5)
        model = randomized(learner.new_classifier(5), 0.5, seed)
        cfg = _cfg(lr=1e-3, batch_size=len(cls_samples))
        before = learner.per_sample_losses(model, cls_samples).mean()
        learner.train_epoch(model, cls_samples, cfg, 0)
        assert learner.per_sample_losses(model, cls_samples).mean() <= before + 1e-12

        seq_samples = _sum_samples(seed, 12)
        model = randomized(learner.new_seq2seq(), 0.3, seed)
        cfg = _cfg(lr=1e-3, batch_size=len(seq_samples))
        before = learner.per_sample_losses(model, seq_samples).mean()
        learner.train_epoch(model, seq_samples, cfg, 0)
        assert learner.per_sample_losses(model, seq_samples).mean() <= before + 1e-12


def _masked_sigmoid(z):
    """The boolean-mask form _sigmoid replaced."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bit_equals_masked_branch_reference(rng):
    edges = np.array([[0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 36.7, -745.2]])
    inputs = [edges, rng.normal(0.0, 3.0, (700, 7)), rng.normal(0.0, 30.0, (32, 7)),
              rng.uniform(-800.0, 800.0, (5, 9))]
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for z in inputs:
            got, want = learner._sigmoid(z), _masked_sigmoid(z)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_classifier_grads_bias_is_the_batch_mean(rng):
    model = learner.new_classifier(7)
    model.w[:] = rng.normal(0.0, 1.0, model.w.shape)
    for n in (1, 32, 700):
        x = rng.normal(0.0, 1.0, (n, 7))
        y = (rng.random((n, model.w.shape[0])) < 0.3).astype(np.float64)
        _, db = learner._classifier_grads(model, x, y)
        g = (learner._sigmoid(x @ model.w.T + model.b) - y) / y.shape[1]
        assert db.tobytes() == g.mean(axis=0).tobytes()


def test_predict_threshold_is_strict():
    model = learner.new_classifier(4)     # zero weights: p = 0.5 exactly
    preds = learner.predict(model, _cls_samples(2, 5, d=4))
    assert preds.dtype == np.uint8
    assert not preds.any()


def test_gradient_check_passes_both_learners():
    cls = randomized(learner.new_classifier(6), 0.7, 11)
    report = gradient_check(cls, _cls_samples(11, 5, d=6))
    assert report.passed and report.max_rel_error < 1e-4
    assert report.n_checked == min(100, cls.w.size + cls.b.size)

    seq = randomized(learner.new_seq2seq(), 0.2, 11)
    report = gradient_check(seq, _sum_samples(11, 5))
    assert report.passed and report.max_rel_error < 1e-4
    assert report.n_checked == 100


def test_gradient_check_catches_injected_defects(monkeypatch):
    # a 2% scaling bug in either gradient path must trip the audit
    cls = randomized(learner.new_classifier(6), 0.7, 3)
    true_grads = learner._classifier_grads

    def bad_cls(model, x, y):
        dw, db = true_grads(model, x, y)
        return dw * 1.02, db

    monkeypatch.setattr(learner, "_classifier_grads", bad_cls)
    assert not gradient_check(cls, _cls_samples(3, 5, d=6)).passed
    monkeypatch.undo()

    seq = randomized(learner.new_seq2seq(), 0.2, 3)
    true_kernel = kernels.seq_grad_sum

    def bad_seq(*args):
        du, dv, db = true_kernel(*args)
        return du, dv * 1.02, db

    monkeypatch.setattr(learner.kernels, "seq_grad_sum", bad_seq)
    assert not gradient_check(seq, _sum_samples(3, 5)).passed


def test_gradient_check_needs_samples():
    with pytest.raises(UsageError):
        gradient_check(learner.new_classifier(3), _empty_split("classification", 3))


def test_overfit_tiny_summarization_set_decodes_exactly():
    # The transition table is shared across samples, so greedy decodes can
    # only all be exact when next-token-after-prev is a single function over
    # the whole set.  Build 10 chains over disjoint token ranges (sample i
    # owns 4i..4i+3) with distinct source bags to pin BOS -> first token.
    chosen = data.summarization_split(
        range(10), [[i, i] for i in range(10)],
        [[4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3, data.EOS] for i in range(10)],
        data.N_SRC_VOCAB)
    model = learner.new_seq2seq()
    cfg = _cfg(lr=16.0, batch_size=len(chosen))
    for epoch in range(300):
        learner.train_epoch(model, chosen, cfg, epoch)
    decoded = learner.predict(model, chosen)
    for target, out in zip(chosen.tgt, decoded):
        np.testing.assert_array_equal(out, target[:-1])


def _read_checkpoint(path):
    """The model a checkpoint holds, rebuilt from plain JSON."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    model_type = {"classifier": learner.ClassifierModel,
                  "seq2seq": learner.Seq2SeqModel}[payload.pop("kind")]
    return model_type(**{name: np.asarray(value) for name, value in payload.items()})


def test_checkpoint_round_trip(tmp_path):
    cls = randomized(learner.new_classifier(5), 0.4, 8)
    path = tmp_path / "cls.json"
    learner.save_model(cls, path)
    back = _read_checkpoint(path)
    np.testing.assert_array_equal(back.w, cls.w)
    np.testing.assert_array_equal(back.b, cls.b)
    x = _cls_samples(8, 6, d=5)
    np.testing.assert_array_equal(learner.predict(back, x), learner.predict(cls, x))

    seq = randomized(learner.new_seq2seq(), 0.1, 8)
    learner.train_epoch(seq, _sum_samples(8, 6), _cfg(lr=2.0), 0)
    path = tmp_path / "seq.json"
    learner.save_model(seq, path)
    back = _read_checkpoint(path)
    assert back.bos == seq.bos and back.eos == seq.eos
    for a, b in zip(learner.param_arrays(back), learner.param_arrays(seq)):
        assert a.dtype == np.float64
        np.testing.assert_array_equal(a, b)
    samples = _sum_samples(8, 4)
    for a, b in zip(learner.predict(seq, samples), learner.predict(back, samples)):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_bytes_and_parameter_order(tmp_path):
    cls = randomized(learner.new_classifier(5), 0.4, 8)
    seq = randomized(learner.new_seq2seq(n_tgt=12, n_src=9), 0.1, 8)
    seq.b[:4] = [-0.0, 1e-300, 5e300, 0.1 + 0.2]
    assert [id(a) for a in learner.param_arrays(cls)] == [id(cls.w), id(cls.b)]
    assert [id(a) for a in learner.param_arrays(seq)] == [id(seq.u), id(seq.v), id(seq.b)]
    expected = [
        (cls, {"kind": "classifier", "w": cls.w.tolist(), "b": cls.b.tolist()}),
        (seq, {"kind": "seq2seq", "u": seq.u.tolist(), "v": seq.v.tolist(),
               "b": seq.b.tolist()}),
    ]
    for model, payload in expected:
        path = tmp_path / f"{payload['kind']}.json"
        learner.save_model(model, path)
        assert path.read_text(encoding="utf-8") == json.dumps(payload, sort_keys=True) + "\n"
        # the bytes json.dump writes, which checkpoints were first written with
        ref = tmp_path / "json_dump.json"
        with open(ref, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
        assert path.read_bytes() == ref.read_bytes()
    # BOS and EOS are not stored: they are the last two of the 12 target ids
    assert list(json.loads((tmp_path / "seq2seq.json").read_text())) == ["b", "kind", "u", "v"]
    back = _read_checkpoint(tmp_path / "seq2seq.json")
    assert (back.bos, back.eos) == (10, 11)
    assert (type(back.bos), type(back.eos)) == (int, int)

    with pytest.raises(UsageError):
        learner.save_model(_cfg(lr=1.0), tmp_path / "not_a_model.json")


def test_desk_lr_table():
    assert set(learner.DESK_LR) == {"classification", "summarization"}
