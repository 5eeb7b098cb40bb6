"""Sequence kernels: brute-force oracles and bit-for-bit per-position loop references."""

import math

import numpy as np

from mantra import data, kernels


def _counts(v, src, src_len):
    """The kernels take each row's source-token counts in place of src."""
    return data._count_tokens(src, src_len, v.shape[1])


def _random_problem(rng, n=6, v_t=9, v_s=5, scale=0.7):
    u = rng.normal(0, scale, (v_t, v_t))
    v = rng.normal(0, scale, (v_t, v_s))
    b = rng.normal(0, scale, v_t)
    src_len = rng.integers(1, 5, n)
    tgt_len = rng.integers(1, 5, n)
    l_s, l_t = int(src_len.max()), int(tgt_len.max())
    src = np.zeros((n, l_s), dtype=np.int64)
    tgt = np.zeros((n, l_t), dtype=np.int64)
    for i in range(n):
        src[i, :src_len[i]] = rng.integers(0, v_s, src_len[i])
        tgt[i, :tgt_len[i] - 1] = rng.integers(0, v_t - 2, max(tgt_len[i] - 1, 0))
        tgt[i, tgt_len[i] - 1] = v_t - 1          # explicit EOS-style terminator
    return u, v, b, src, src_len, tgt, tgt_len, v_t - 2, v_t - 1


def _loss_reference(u, v, b, src, src_len, tgt, tgt_len, bos):
    """Scalar-math twin of the loss kernel, written independently."""
    out = []
    for i in range(src.shape[0]):
        bag = np.zeros(v.shape[1])
        for j in range(src_len[i]):
            bag[src[i, j]] += 1.0 / src_len[i]
        base = v @ bag + b
        prev, total = bos, 0.0
        for k in range(tgt_len[i]):
            logits = base + u[:, prev]
            gold = tgt[i, k]
            total += math.log(np.exp(logits - logits.max()).sum()) + logits.max() - logits[gold]
            prev = gold
        out.append(total / tgt_len[i])
    return np.array(out)


def test_losses_match_scalar_reference(rng):
    for _ in range(8):
        u, v, b, src, sl, tgt, tl, bos, _ = _random_problem(rng)
        got = kernels.seq_losses(u, v, b, _counts(v, src, sl), sl, tgt, tl, bos)
        np.testing.assert_allclose(got, _loss_reference(u, v, b, src, sl, tgt, tl, bos),
                                   rtol=1e-10, atol=1e-12)


def test_grad_matches_central_differences(rng):
    u, v, b, src, sl, tgt, tl, bos, _ = _random_problem(rng, n=4, v_t=7, v_s=4)
    counts = _counts(v, src, sl)
    du, dv, db = kernels.seq_grad_sum(u, v, b, counts, sl, tgt, tl, bos)
    h = 1e-6
    for arr, grad in ((u, du), (v, dv), (b, db)):
        flat = arr.ravel()
        for pos in rng.choice(flat.size, size=min(12, flat.size), replace=False):
            orig = flat[pos]
            flat[pos] = orig + h
            up = kernels.seq_losses(u, v, b, counts, sl, tgt, tl, bos).sum()
            flat[pos] = orig - h
            dn = kernels.seq_losses(u, v, b, counts, sl, tgt, tl, bos).sum()
            flat[pos] = orig
            numeric = (up - dn) / (2 * h)
            assert abs(grad.ravel()[pos] - numeric) < 5e-6


def test_decode_steps_follow_argmax_chain(rng):
    for _ in range(6):
        u, v, b, src, sl, _, _, bos, eos = _random_problem(rng, n=5)
        out, out_len = kernels.greedy_decode(u, v, b, _counts(v, src, sl), sl, bos, eos,
                                             max_len=8)
        for i in range(src.shape[0]):
            bag = np.zeros(v.shape[1])
            for j in range(sl[i]):
                bag[src[i, j]] += 1.0 / sl[i]
            base = v @ bag + b
            prev = bos
            for k in range(8):
                nxt = int(np.argmax(base + u[:, prev]))
                if nxt == eos:
                    assert out_len[i] == k
                    break
                assert out[i, k] == nxt
                prev = nxt
            else:
                assert out_len[i] == 8


def test_decode_ties_resolve_to_lowest_id():
    v_t = 6
    u = np.zeros((v_t, v_t))
    v = np.zeros((v_t, 3))
    b = np.zeros(v_t)
    b[2] = b[4] = 1.0                       # exact tie between ids 2 and 4
    src = np.array([[0, 1]], dtype=np.int64)
    sl = np.array([2], dtype=np.int64)
    out, out_len = kernels.greedy_decode(u, v, b, _counts(v, src, sl), sl, v_t - 2,
                                         v_t - 1, 4)
    assert out_len[0] == 4
    np.testing.assert_array_equal(out[0], [2, 2, 2, 2])


def test_empty_batch(rng):
    u = np.zeros((4, 4))
    v = np.zeros((4, 2))
    b = np.zeros(4)
    counts = np.zeros((0, 2), dtype=np.uint8)
    tgt = np.zeros((0, 1), dtype=np.int64)
    sl = np.zeros(0, dtype=np.int64)
    assert kernels.seq_losses(u, v, b, counts, sl, tgt, sl, 2).shape == (0,)
    du, dv, db = kernels.seq_grad_sum(u, v, b, counts, sl, tgt, sl, 2)
    assert not du.any() and not dv.any() and not db.any()
    out, out_len = kernels.greedy_decode(u, v, b, counts, sl, 2, 3, 5)
    assert out.shape == (0, 5) and out_len.shape == (0,)
    _assert_matches_reference(_desk_batch(rng, 0))     # shapes and dtypes too




# ---------------------------------------------------------------------------
# per-position loop references: the kernels must reproduce them bit for bit,
# given the counts of the sources from which the references build their bags

def _reference_bow(v_src_size, src, src_len):
    n = src.shape[0]
    bow = np.zeros((n, v_src_size))
    if n:
        valid = np.arange(src.shape[1]) < src_len[:, None]
        np.add.at(bow, (np.repeat(np.arange(n), src_len), src[valid]), 1.0)
        bow /= src_len[:, None]
    return bow


def _reference_seq_losses(u, v, b, src, src_len, tgt, tgt_len, bos):
    n = src.shape[0]
    losses = np.zeros(n)
    if n == 0:
        return losses
    base = _reference_bow(v.shape[1], src, src_len) @ v.T + b
    prev = np.full(n, bos, dtype=np.int64)
    for k in range(tgt.shape[1]):
        active = k < tgt_len
        if not active.any():
            break
        logits = base[active] + u[:, prev[active]].T
        mx = logits.max(axis=1)
        lse = mx + np.log(np.exp(logits - mx[:, None]).sum(axis=1))
        gold = tgt[active, k]
        losses[active] += lse - logits[np.arange(gold.size), gold]
        prev[active] = gold
    return losses / tgt_len


def _reference_seq_grad_sum(u, v, b, src, src_len, tgt, tgt_len, bos):
    n = src.shape[0]
    du_t = np.zeros_like(u)     # indexed [prev, next], transposed at the end
    dv = np.zeros_like(v)
    db = np.zeros_like(b)
    if n == 0:
        return du_t.T, dv, db
    bow = _reference_bow(v.shape[1], src, src_len)
    base = bow @ v.T + b
    dbase = np.zeros_like(base)
    prev = np.full(n, bos, dtype=np.int64)
    inv_t = 1.0 / tgt_len
    for k in range(tgt.shape[1]):
        active = k < tgt_len
        if not active.any():
            break
        idx = np.flatnonzero(active)
        logits = base[idx] + u[:, prev[idx]].T
        mx = logits.max(axis=1)
        ex = np.exp(logits - mx[:, None])
        ssum = ex.sum(axis=1)
        gold = tgt[idx, k]
        dl = ex / ssum[:, None]
        dl[np.arange(idx.size), gold] -= 1.0
        dl *= inv_t[idx, None]
        db += dl.sum(axis=0)
        np.add.at(du_t, prev[idx], dl)
        dbase[idx] += dl
        prev[idx] = gold
    dv += dbase.T @ bow
    return du_t.T.copy(), dv, db


def _desk_batch(rng, n, tgt_len=None, pad=17, v_t=42, v_s=40):
    """A batch at the summarization task's vocabulary sizes, target pad `pad`."""
    u = rng.normal(0, 1.5, (v_t, v_t))
    v = rng.normal(0, 1.5, (v_t, v_s))
    b = rng.normal(0, 1.0, v_t)
    src_len = rng.integers(4, 11, n)
    if tgt_len is None:
        tgt_len = rng.integers(1, pad + 1, n)
    src = np.zeros((n, 10), dtype=np.int64)
    tgt = np.zeros((n, pad), dtype=np.int64)
    for i in range(n):
        src[i, :src_len[i]] = rng.integers(0, v_s, src_len[i])
        tgt[i, :tgt_len[i] - 1] = rng.integers(0, v_t - 2, tgt_len[i] - 1)
        tgt[i, tgt_len[i] - 1] = v_t - 1
    return u, v, b, src, src_len, tgt, np.asarray(tgt_len, dtype=np.int64), v_t - 2


def _assert_matches_reference(problem):
    u, v, b, src, src_len, tgt, tgt_len, bos = problem
    args = (u, v, b, _counts(v, src, src_len), src_len, tgt, tgt_len, bos)
    got = kernels.seq_grad_sum(*args)
    want = _reference_seq_grad_sum(*problem)
    assert len(got) == len(want) == 3
    for name, g, w in zip(("du", "dv", "db"), got, want):
        assert g.shape == w.shape and g.dtype == w.dtype, name
        assert np.array_equal(g, w), name
    losses = kernels.seq_losses(*args)
    ref = _reference_seq_losses(*problem)
    assert losses.shape == ref.shape and losses.dtype == ref.dtype
    assert np.array_equal(losses, ref)


def test_kernels_equal_position_loop_on_seeded_batches(rng):
    for n in range(1, 65):
        _assert_matches_reference(_desk_batch(rng, n))
    _assert_matches_reference(_desk_batch(rng, 1500))   # several scoring blocks


def test_kernels_equal_position_loop_on_edge_lengths(rng):
    _assert_matches_reference(_desk_batch(rng, 40, tgt_len=np.ones(40, dtype=np.int64)))
    _assert_matches_reference(_desk_batch(rng, 40, tgt_len=np.full(40, 9)))
    # one row at the split's max length, the others far shorter
    lengths = rng.integers(1, 6, 40)
    lengths[17] = 17
    _assert_matches_reference(_desk_batch(rng, 40, tgt_len=lengths))
    # a batch cut from a split whose pad is wider than any of its rows
    _assert_matches_reference(_desk_batch(rng, 40, tgt_len=rng.integers(1, 6, 40)))
    block = kernels._LOSS_BLOCK
    # a split one sample past a whole loss block
    _assert_matches_reference(_desk_batch(rng, block + 1))
    # the split's only row at its pad lies in its last block, so every
    # earlier block's rows are far shorter than the split's pad
    lengths = rng.integers(1, 6, 2 * block + 5)
    lengths[-3] = 17
    _assert_matches_reference(_desk_batch(rng, 2 * block + 5, tgt_len=lengths))


def _assert_pads_unread(problem):
    """Both passes return the same bits when every pad holds an id past the vocabulary."""
    u, v, b, src, src_len, tgt, tgt_len, bos = problem
    poisoned = tgt.copy()
    poisoned[np.arange(tgt.shape[1]) >= tgt_len[:, None]] = b.shape[0] + 5
    args = (u, v, b, _counts(v, src, src_len), src_len)
    for got, want in zip(kernels.seq_grad_sum(*args, poisoned, tgt_len, bos),
                         kernels.seq_grad_sum(*args, tgt, tgt_len, bos)):
        assert np.array_equal(got, want)
    assert np.array_equal(kernels.seq_losses(*args, poisoned, tgt_len, bos),
                          kernels.seq_losses(*args, tgt, tgt_len, bos))


def test_kernels_never_read_a_pad(rng):
    for n in (1, 7, 32, kernels._LOSS_BLOCK + 1, 300):
        _assert_pads_unread(_desk_batch(rng, n))
    # a batch cut from a split whose pad is wider than any of its rows
    _assert_pads_unread(_desk_batch(rng, 40, tgt_len=rng.integers(1, 6, 40)))
