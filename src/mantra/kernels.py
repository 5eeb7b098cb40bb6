"""Sequence-learner numeric kernels in two interchangeable backends.

The teacher-forced loss, its gradient, and greedy decoding walk ragged
token sequences sample by sample.  They are the largest cost of
summarization runs only: classification runs call none of them, and treated
runs add the per-epoch mixture fits of mantra.gmm (perfbench/ reports the
time of each layer).  They are compiled with numba when it is available; a
pure-numpy twin of each kernel covers environments without numba and serves
for cross-checking.

Backend selection happens once at import from the MANTRA_BACKEND env var:
"numba", "numpy", or "auto" (default: numba when importable).  Both
backends compute the same quantities; summation order differs, so agreement
is to float tolerance, not bit-for-bit.  Within one backend results are
deterministic.

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

import os

import numpy as np

from .errors import ConfigError

try:
    from numba import njit
    HAVE_NUMBA = True
except ImportError:        # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn
        return wrap


# ---------------------------------------------------------------------------
# pure-numpy twins

def _bow(v_src_size, src, src_len):
    n = src.shape[0]
    bow = np.zeros((n, v_src_size))
    if n:
        valid = np.arange(src.shape[1]) < src_len[:, None]
        np.add.at(bow, (np.repeat(np.arange(n), src_len), src[valid]), 1.0)
        bow /= src_len[:, None]
    return bow


def seq_losses_np(u, v, b, src, src_len, tgt, tgt_len, bos):
    n = src.shape[0]
    losses = np.zeros(n)
    if n == 0:
        return losses
    base = _bow(v.shape[1], src, src_len) @ v.T + b
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


def seq_grad_sum_np(u, v, b, src, src_len, tgt, tgt_len, bos):
    """Gradient of the sum over samples of the per-sample mean loss."""
    n = src.shape[0]
    du_t = np.zeros_like(u)     # indexed [prev, next], transposed at the end
    dv = np.zeros_like(v)
    db = np.zeros_like(b)
    losses = np.zeros(n)
    if n == 0:
        return du_t.T, dv, db, losses
    bow = _bow(v.shape[1], src, src_len)
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
        losses[idx] += np.log(ssum) + mx - logits[np.arange(idx.size), gold]
        dl = ex / ssum[:, None]
        dl[np.arange(idx.size), gold] -= 1.0
        dl *= inv_t[idx, None]
        db += dl.sum(axis=0)
        np.add.at(du_t, prev[idx], dl)
        dbase[idx] += dl
        prev[idx] = gold
    dv += dbase.T @ bow
    return du_t.T.copy(), dv, db, losses * inv_t


def greedy_decode_np(u, v, b, src, src_len, bos, eos, max_len):
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


# ---------------------------------------------------------------------------
# numba twins

@njit(cache=True)
def seq_losses_nb(u, v, b, src, src_len, tgt, tgt_len, bos):
    n = src.shape[0]
    n_vocab = b.shape[0]
    losses = np.zeros(n)
    logits = np.empty(n_vocab)
    for i in range(n):
        length = src_len[i]
        inv = 1.0 / length
        base = b.copy()
        for j in range(length):
            s = src[i, j]
            for t in range(n_vocab):
                base[t] += v[t, s] * inv
        total = 0.0
        prev = bos
        for k in range(tgt_len[i]):
            mx = -1.0e300
            for t in range(n_vocab):
                logits[t] = base[t] + u[t, prev]
                if logits[t] > mx:
                    mx = logits[t]
            ssum = 0.0
            for t in range(n_vocab):
                ssum += np.exp(logits[t] - mx)
            gold = tgt[i, k]
            total += np.log(ssum) + mx - logits[gold]
            prev = gold
        losses[i] = total / tgt_len[i]
    return losses


@njit(cache=True)
def seq_grad_sum_nb(u, v, b, src, src_len, tgt, tgt_len, bos):
    n = src.shape[0]
    n_vocab = b.shape[0]
    du = np.zeros_like(u)
    dv = np.zeros_like(v)
    db = np.zeros_like(b)
    losses = np.zeros(n)
    logits = np.empty(n_vocab)
    p = np.empty(n_vocab)
    for i in range(n):
        length = src_len[i]
        inv = 1.0 / length
        base = b.copy()
        for j in range(length):
            s = src[i, j]
            for t in range(n_vocab):
                base[t] += v[t, s] * inv
        dbase = np.zeros(n_vocab)
        total = 0.0
        prev = bos
        w = 1.0 / tgt_len[i]
        for k in range(tgt_len[i]):
            mx = -1.0e300
            for t in range(n_vocab):
                logits[t] = base[t] + u[t, prev]
                if logits[t] > mx:
                    mx = logits[t]
            ssum = 0.0
            for t in range(n_vocab):
                p[t] = np.exp(logits[t] - mx)
                ssum += p[t]
            gold = tgt[i, k]
            total += np.log(ssum) + mx - logits[gold]
            for t in range(n_vocab):
                g = p[t] / ssum * w
                if t == gold:
                    g -= w
                db[t] += g
                du[t, prev] += g
                dbase[t] += g
            prev = gold
        for j in range(length):
            s = src[i, j]
            for t in range(n_vocab):
                dv[t, s] += dbase[t] * inv
        losses[i] = total * w
    return du, dv, db, losses


@njit(cache=True)
def greedy_decode_nb(u, v, b, src, src_len, bos, eos, max_len):
    n = src.shape[0]
    n_vocab = b.shape[0]
    out = np.zeros((n, max_len), dtype=np.int64)
    out_len = np.zeros(n, dtype=np.int64)
    for i in range(n):
        length = src_len[i]
        inv = 1.0 / length
        base = b.copy()
        for j in range(length):
            s = src[i, j]
            for t in range(n_vocab):
                base[t] += v[t, s] * inv
        prev = bos
        for k in range(max_len):
            best = 0
            best_val = base[0] + u[0, prev]
            for t in range(1, n_vocab):
                val = base[t] + u[t, prev]
                if val > best_val:     # strict: ties keep the lowest id
                    best_val = val
                    best = t
            if best == eos:
                break
            out[i, k] = best
            out_len[i] += 1
            prev = best
    return out, out_len


# ---------------------------------------------------------------------------
# backend dispatch

_IMPLS = {
    "numpy": (seq_losses_np, seq_grad_sum_np, greedy_decode_np),
    "numba": (seq_losses_nb, seq_grad_sum_nb, greedy_decode_nb),
}


def _pick_backend():
    choice = os.environ.get("MANTRA_BACKEND", "auto").strip().lower()
    if choice in ("", "auto"):
        return "numba" if HAVE_NUMBA else "numpy"
    if choice == "numba":
        if not HAVE_NUMBA:
            raise ConfigError("MANTRA_BACKEND=numba but numba is not importable")
        return "numba"
    if choice == "numpy":
        return "numpy"
    raise ConfigError(f"MANTRA_BACKEND must be auto/numba/numpy, got {choice!r}")


_BACKEND = _pick_backend()
seq_losses, seq_grad_sum, greedy_decode = _IMPLS[_BACKEND]


def backend():
    """Name of the active kernel backend."""
    return _BACKEND


def implementations(name):
    """Kernel triple (losses, grad, decode) for an explicit backend name."""
    if name == "numba" and not HAVE_NUMBA:
        raise ConfigError("numba backend requested but numba is not importable")
    if name not in _IMPLS:
        raise ConfigError(f"unknown backend {name!r}")
    return _IMPLS[name]
