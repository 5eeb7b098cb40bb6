"""Sequence-learner numeric kernels: teacher-forced loss, its gradient, greedy decode.

Classification runs call none of them; summarization runs spend most of
their time here and, when treated, in the mixture fits of mantra.gmm.

One logit rule serves all three kernels (_logits): the previous token's row
of u.T (BOS at position 0) plus the sample's source term, the mean source
bag times v plus b.  Teacher forcing makes every target position
independent of the model's own outputs, so the loss and its gradient share
one dense softmax (_softmax) over every (position, sample) slot, laid out
position-major: every sample's position 0 in row order, then position 1,
and so on.

Addition-order contract: every per-sample loss and every gradient entry is
summed from 0 in position-major order, the order of a per-position loop,
because ``np.bincount`` adds each bin's terms in input order from 0.  The
losses are a ``bincount`` by row over the valid slots.  du is a
``bincount`` over every slot (flattened ``prev * V + column`` keys): a pad
slot's gradient is weighted by 0.0, so it adds exactly +0.0 and leaves
every sum unchanged.  dv's per-sample rows are ``dl.sum(axis=0)`` and db is
``dl.sum(axis=1).sum(axis=0)``, because a reduction over an outer axis adds
whole slices one after another.  A sample-major order would be off in the
last bits.  Results do not depend on how a split is cut into blocks.

seq_losses scores whole splits in blocks of 64 samples, taken in order of
target length (a stable argsort) and each trimmed to its own longest row, so
few slots are pads; blocks in row order were 10-25% slower on 700- and
1000-sample splits.  One block's logits, about 240 KB at the desk sizes, are
alive at a time.  128-sample blocks were up to 10% faster on a 4000-sample
split, but raised the peak RSS of a default summarization grid by 0.25 MB.

Greedy decoding feeds each step its own previous output: a loop over positions.

Array conventions shared by every kernel:

* u: (V_t, V_t) float64, u[next, prev] transition scores
* v: (V_t, V_s) float64 source-token scores
* b: (V_t,) float64 bias
* src_counts: (n, V_s) uint8 source-token counts, counted once per split
  (data.PackedSplit); the mean bag is ``src_counts / src_len[:, None]``,
  in float64 and exact to the last bit whatever the integer dtype
* tgt: (n, L_max) int64, right-padded; src_len / tgt_len give the true
  lengths (tgt_len counts the trailing EOS)

Per-sample loss is the mean over target positions (EOS included) of the
softmax cross-entropy.
"""

import numpy as np

_LOSS_BLOCK = 64       # samples per dense pass in seq_losses


def backend():
    """Name of the kernel implementation, recorded in results.json."""
    return "numpy"


def _source_term(v, b, src_counts, src_len):
    """(n, V_s) mean source bag and the (n, V_t) base it feeds, bias added in place;
    a split's bag is as large as its base, so callers needing only the base drop it."""
    bag = src_counts / src_len[:, None]
    base = bag @ v.T
    base += b
    return bag, base


def _logits(ut, base, prev):
    """Logits of each slot: the previous token's row of u.T plus its sample's base."""
    logits = np.take(ut, prev, axis=0)
    logits += base      # in place: a second array this size comes from fresh pages
    return logits


def _prev_tokens(tgt, bos):
    """(L, n) position-major previous gold tokens: BOS, then each row shifted right."""
    return np.concatenate((np.full((1, tgt.shape[0]), bos, dtype=np.int64), tgt.T[:-1]))


def _softmax(logits):
    """Turn (L, n, V_t) logits into exp(logits - max) in place; return the max and the sum."""
    mx = logits.max(axis=2)
    logits -= mx[:, :, None]
    np.exp(logits, out=logits)
    return mx, logits.sum(axis=2)


def seq_losses(u, v, b, src_counts, src_len, tgt, tgt_len, bos):
    n = src_counts.shape[0]
    ut = np.ascontiguousarray(u.T)
    base = _source_term(v, b, src_counts, src_len)[1]   # one product for the whole split
    losses = np.zeros(n)
    order = np.argsort(tgt_len, kind="stable")
    for lo in range(0, n, _LOSS_BLOCK):
        rows = order[lo:lo + _LOSS_BLOCK]
        lengths = tgt_len[rows]
        block = tgt[rows, :lengths.max()]
        logits = _logits(ut, base[rows], _prev_tokens(block, bos))
        at_gold = np.take_along_axis(logits, block.T[:, :, None], axis=2)[:, :, 0]
        mx, ssum = _softmax(logits)
        del logits          # so the next block's are not built beside them
        valid = np.arange(block.shape[1])[:, None] < lengths
        nll = np.log(ssum) + mx - at_gold
        losses[rows] = np.bincount(np.nonzero(valid)[1], weights=nll[valid],
                                   minlength=rows.size)
    return losses / tgt_len


def seq_grad_sum(u, v, b, src_counts, src_len, tgt, tgt_len, bos):
    """Gradient of the sum over samples of the per-sample mean loss."""
    n, n_vocab = src_counts.shape[0], b.shape[0]
    if n == 0:      # bincount of no keys is int64 whatever the weights
        return np.zeros_like(u), np.zeros_like(v), np.zeros_like(b)
    bag, base = _source_term(v, b, src_counts, src_len)
    prev = _prev_tokens(tgt, bos)
    dl = _logits(np.ascontiguousarray(u.T), base, prev)
    dl /= _softmax(dl)[1][:, :, None]
    valid = np.arange(tgt.shape[1])[:, None] < tgt_len
    pos, rows = np.nonzero(valid)
    dl[pos, rows, tgt[rows, pos]] -= 1.0
    dl *= np.where(valid, 1.0 / tgt_len, 0.0)[:, :, None]     # pads become +0.0
    keys = (prev * n_vocab)[:, :, None] + np.arange(n_vocab)
    du = np.bincount(keys.ravel(), weights=dl.ravel(), minlength=n_vocab * n_vocab)
    du = du.reshape(n_vocab, n_vocab).T.copy()                 # summed as [prev, next]
    dv = dl.sum(axis=0).T @ bag
    db = dl.sum(axis=1).sum(axis=0)
    return du, dv, db


def greedy_decode(u, v, b, src_counts, src_len, bos, eos, max_len):
    n = src_counts.shape[0]
    out = np.zeros((n, max_len), dtype=np.int64)
    out_len = np.zeros(n, dtype=np.int64)
    if n == 0:
        return out, out_len
    ut = np.ascontiguousarray(u.T)
    base = _source_term(v, b, src_counts, src_len)[1]
    prev = np.full(n, bos, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    for k in range(max_len):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        nxt = _logits(ut, base[idx], prev[idx]).argmax(axis=1)   # ties go to the lowest id
        stop = nxt == eos
        keep = idx[~stop]
        out[keep, k] = nxt[~stop]
        out_len[keep] += 1
        prev[idx] = nxt
        alive[idx[stop]] = False
    return out, out_len
