"""Sequence-learner numeric kernels: teacher-forced loss, its gradient, greedy decode.

They are the largest cost of summarization runs only: classification runs
call none of them, and treated runs add the per-epoch mixture fits of
mantra.gmm (perfbench/ reports the time of each layer).

Teacher forcing makes every target position independent of the model's own
outputs, so the loss and its gradient are one pass over a batch rather than
a loop over positions.  Each token's logits are its sample's source term
plus the transition column of the previous gold token (BOS at position 0),
followed by a softmax over the target vocabulary.  The gradient pass is
dense over every (position, sample) slot: a pad slot's gradient is weighted
by 0.0, so it is exactly +0.0 and leaves every sum unchanged.  The loss pass
lists only the valid tokens, position-major (every sample's position 0 in
row order, then position 1, and so on), in blocks of samples; a dense loss
pass was slower.

Addition-order contract: every per-sample loss and every gradient entry is
summed from 0 in position-major order, the order of a per-position loop.
dv's per-sample rows are ``dl.sum(axis=0)`` and db is
``dl.sum(axis=1).sum(axis=0)``, because a reduction over an outer axis adds
whole slices one after another.  du and the losses are ``np.bincount``
scatters of the position-major tokens (du over flattened ``key * V + column``
keys), because ``bincount`` adds each bin's terms in input order from 0.
``np.add.at`` on 2-D rows is order-exact too but about 5x slower, and
``np.add.reduceat`` along axis 0 does not add rows in sequence; a
sample-major order would be off in the last bits.  Results are deterministic
and do not depend on how a split is cut into blocks.

Greedy decoding feeds each step its own previous output, so it stays a loop
over positions.

Array conventions shared by every kernel:

* u: (V_t, V_t) float64, u[next, prev] transition scores
* v: (V_t, V_s) float64, source-token scores, applied as a mean over the
  source bag
* b: (V_t,) float64 bias
* src_counts: (n, V_s) uint8 source-token counts, counted once per split
  (data.PackedSplit); the mean bag is ``src_counts / src_len[:, None]``,
  in float64 and exact to the last bit whatever the integer dtype
* tgt: (n, L_max) int64, right-padded; src_len / tgt_len give the true
  lengths (tgt_len counts the trailing EOS)

Per-sample loss is the mean over target positions (EOS included) of the
softmax cross-entropy, with the previous gold token (BOS at position 0)
feeding the transition term.
"""

import numpy as np

# Samples per token pass in seq_losses, which scores whole splits.  A block's
# (tokens, V_t) temporaries stay near 100 KB; larger ones come from fresh
# pages on every call (128-sample blocks page-faulted ~400 times per call on a
# 1000-sample split), and one pass over 4000 samples is slower than the
# per-position loop.
_LOSS_BLOCK = 64


def backend():
    """Name of the kernel implementation, recorded in results.json."""
    return "numpy"


def _mean_bag(src_counts, src_len):
    """(n, V_s) mean bag of source tokens from the split's exact counts."""
    return src_counts / src_len[:, None]


def _tokens(tgt, tgt_len, bos):
    """Row, previous gold and gold of every valid token, position-major."""
    pos, rows = np.nonzero(np.arange(tgt.shape[1])[:, None] < tgt_len)
    prev = np.where(pos > 0, tgt[rows, pos - 1], bos)
    return rows, prev, tgt[rows, pos]


def _token_nll(base, u, rows, prev, gold):
    """Softmax cross-entropy of each listed token."""
    logits = base[rows] + u[:, prev].T
    mx = logits.max(axis=1)
    ssum = np.exp(logits - mx[:, None]).sum(axis=1)
    return np.log(ssum) + mx - logits[np.arange(rows.size), gold]


def _scatter_rows(keys, values, n_keys):
    """(n_keys, V) sums of the rows of values by key, each bin in input order."""
    width = values.shape[1]
    flat = (keys * width)[:, None] + np.arange(width)
    return np.bincount(flat.ravel(), weights=values.ravel(),
                       minlength=n_keys * width).reshape(n_keys, width)


def seq_losses(u, v, b, src_counts, src_len, tgt, tgt_len, bos):
    n = src_counts.shape[0]
    # One product over the whole split, so no row depends on the blocking.
    base = _mean_bag(src_counts, src_len) @ v.T + b
    losses = np.zeros(n)
    for lo in range(0, n, _LOSS_BLOCK):
        hi = min(lo + _LOSS_BLOCK, n)
        rows, prev, gold = _tokens(tgt[lo:hi], tgt_len[lo:hi], bos)
        nll = _token_nll(base[lo:hi], u, rows, prev, gold)
        losses[lo:hi] = np.bincount(rows, weights=nll, minlength=hi - lo)
    return losses / tgt_len


def seq_grad_sum(u, v, b, src_counts, src_len, tgt, tgt_len, bos):
    """Gradient of the sum over samples of the per-sample mean loss."""
    n, n_vocab = src_counts.shape[0], b.shape[0]
    if n == 0:      # bincount of no keys is int64 whatever the weights
        return np.zeros_like(u), np.zeros_like(v), np.zeros_like(b)
    bag = _mean_bag(src_counts, src_len)
    prev = np.empty((tgt.shape[1], n), dtype=np.int64)
    prev[0] = bos
    prev[1:] = tgt.T[:-1]
    # (L, n, V) logits, a softmax along V, then the gradient of every slot;
    # the source term is summed before the transition term is added to it
    dl = u.T[prev] + (bag @ v.T + b)
    dl -= dl.max(axis=2)[:, :, None]
    np.exp(dl, out=dl)
    dl /= dl.sum(axis=2)[:, :, None]
    valid = np.arange(tgt.shape[1])[:, None] < tgt_len
    pos, rows = np.nonzero(valid)
    dl[pos, rows, tgt[rows, pos]] -= 1.0
    dl *= np.where(valid, 1.0 / tgt_len, 0.0)[:, :, None]     # pads become +0.0
    du = _scatter_rows(prev[valid], dl[valid], n_vocab).T.copy()   # as [prev, next]
    dv = dl.sum(axis=0).T @ bag
    db = dl.sum(axis=1).sum(axis=0)
    return du, dv, db


def greedy_decode(u, v, b, src_counts, src_len, bos, eos, max_len):
    n = src_counts.shape[0]
    out = np.zeros((n, max_len), dtype=np.int64)
    out_len = np.zeros(n, dtype=np.int64)
    if n == 0:
        return out, out_len
    base = _mean_bag(src_counts, src_len) @ v.T + b
    prev = np.full(n, bos, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    for k in range(max_len):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        logits = base[idx] + u[:, prev[idx]].T
        nxt = logits.argmax(axis=1)             # ties resolve to the lowest id
        stop = nxt == eos
        keep = idx[~stop]
        out[keep, k] = nxt[~stop]
        out_len[keep] += 1
        prev[idx] = nxt
        alive[idx[stop]] = False
    return out, out_len
