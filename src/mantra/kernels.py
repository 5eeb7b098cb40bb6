"""Sequence-learner numeric kernels: teacher-forced loss, its gradient, greedy decode.

They are the largest cost of summarization runs only: classification runs
call none of them, and treated runs add the per-epoch mixture fits of
mantra.gmm (perfbench/ reports the time of each layer).

Teacher forcing makes every target position independent of the model's own
outputs, so the loss and its gradient are one pass over all valid
(position, sample) tokens of a batch rather than a loop over positions.
Tokens are listed position-major: every sample's position 0, in row order,
then every sample's position 1, and so on.  Each token's logits are its
sample's source term plus the transition column of the previous gold token
(BOS at position 0), followed by a row softmax.

Addition-order contract: every per-sample loss and every gradient entry is
summed from 0 in position-major token order, the order of a per-position
loop.  The sums are scatters done with ``np.bincount`` over flattened
``key * V + column`` keys, because ``bincount`` adds each bin's terms in
input order starting from 0.  ``np.add.at`` on 2-D rows is order-exact too
but about 5x slower than ``bincount``, and ``np.add.reduceat`` along axis 0
does not add rows in sequence; a sample-major token order would be off in
the last bits.  Results are deterministic and do not depend on how a split
is cut into blocks.

Greedy decoding feeds each step its own previous output, so it stays a loop
over positions.

Array conventions shared by every kernel:

* u: (V_t, V_t) float64, u[next, prev] transition scores
* v: (V_t, V_s) float64, source-token scores, applied as a mean over the
  source bag
* b: (V_t,) float64 bias
* src / tgt: (n, L_max) int64, right-padded; src_len / tgt_len give the
  true lengths (tgt_len counts the trailing EOS)

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


def _bow(v_src_size, src, src_len):
    """(n, V_s) mean bag of source tokens; counts are exact small integers."""
    n = src.shape[0]
    valid = np.arange(src.shape[1]) < src_len[:, None]
    keys = np.repeat(np.arange(n) * v_src_size, src_len) + src[valid]
    counts = np.bincount(keys, minlength=n * v_src_size).reshape(n, v_src_size)
    return counts / src_len[:, None]


def _tokens(tgt, tgt_len, bos):
    """Position, row, previous gold and gold of every valid token, position-major."""
    pos, rows = np.nonzero(np.arange(tgt.shape[1])[:, None] < tgt_len)
    gold = tgt[rows, pos]
    prev = np.where(pos > 0, tgt[rows, pos - 1], bos)
    return pos, rows, prev, gold


def _softmax_nll(base, u, rows, prev, gold):
    """Per-token softmax numerators, their row sums and cross-entropies."""
    logits = base[rows] + u[:, prev].T
    mx = logits.max(axis=1)
    ex = np.exp(logits - mx[:, None])
    ssum = ex.sum(axis=1)
    nll = np.log(ssum) + mx - logits[np.arange(rows.size), gold]
    return ex, ssum, nll


def _scatter_rows(keys, values, n_keys):
    """(n_keys, V) sums of the rows of values by key, each bin in input order."""
    width = values.shape[1]
    flat = (keys * width)[:, None] + np.arange(width)
    return np.bincount(flat.ravel(), weights=values.ravel(),
                       minlength=n_keys * width).reshape(n_keys, width)


def seq_losses(u, v, b, src, src_len, tgt, tgt_len, bos):
    n = src.shape[0]
    # One product over the whole split, so no row depends on the blocking.
    base = _bow(v.shape[1], src, src_len) @ v.T + b
    losses = np.zeros(n)
    for lo in range(0, n, _LOSS_BLOCK):
        hi = min(lo + _LOSS_BLOCK, n)
        _, rows, prev, gold = _tokens(tgt[lo:hi], tgt_len[lo:hi], bos)
        nll = _softmax_nll(base[lo:hi], u, rows, prev, gold)[2]
        losses[lo:hi] = np.bincount(rows, weights=nll, minlength=hi - lo)
    return losses / tgt_len


def seq_grad_sum(u, v, b, src, src_len, tgt, tgt_len, bos):
    """Gradient of the sum over samples of the per-sample mean loss."""
    n, n_vocab = src.shape[0], b.shape[0]
    if n == 0:      # bincount of no keys is int64 whatever the weights
        return np.zeros_like(u), np.zeros_like(v), np.zeros_like(b), np.zeros(0)
    bow = _bow(v.shape[1], src, src_len)
    base = bow @ v.T + b
    pos, rows, prev, gold = _tokens(tgt, tgt_len, bos)
    ex, ssum, nll = _softmax_nll(base, u, rows, prev, gold)
    inv_t = 1.0 / tgt_len
    dl = ex / ssum[:, None]
    dl[np.arange(rows.size), gold] -= 1.0
    dl *= inv_t[rows, None]
    du = _scatter_rows(prev, dl, n_vocab).T.copy()     # scattered as [prev, next]
    dv = _scatter_rows(rows, dl, n).T @ bow
    db = _scatter_rows(pos, dl, tgt.shape[1]).sum(axis=0)
    losses = np.bincount(rows, weights=nll, minlength=n) * inv_t
    return du, dv, db, losses


def greedy_decode(u, v, b, src, src_len, bos, eos, max_len):
    n = src.shape[0]
    out = np.zeros((n, max_len), dtype=np.int64)
    out_len = np.zeros(n, dtype=np.int64)
    if n == 0:
        return out, out_len
    base = _bow(v.shape[1], src, src_len) @ v.T + b
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
