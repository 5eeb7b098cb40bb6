"""Univariate Gaussian mixtures fit by EM, with BIC order selection.

The detector models an epoch's per-sample losses as a 1-D mixture.  Fits
are deterministic: one start places component means on the (j - 0.5)/K
quantiles of the distinct observed values, with equal weights and the
overall variance, and the EM loop itself has no randomness.  A K-component
fit needs K distinct values, so no two start means are equal.

EM stops in one of three ways: once the log-likelihood moves by less than
TOL (converged), after MAX_ITER iterations, or, when the caller gives a
target log-likelihood, once the fit is judged unable to reach it
(abandoned).  From pass AITKEN_START, with d_t the last log-likelihood
gain, EM projects its limit by Aitken's delta-squared,
l_t + d_t^2 / (d_{t-1} - d_t) when 0 < d_t < d_{t-1} (Boehning, Dietz,
Schaub, Schlattmann & Lindsay, Ann. Inst. Stat. Math. 1994), and abandons
the fit if that limit plus AITKEN_MARGIN falls short of the target.  An
abandoned fit is unconverged with fewer than MAX_ITER iterations.  No run
setting varies these constants; _em reads them at call time, so a
reference fit assigns gmm.MAX_ITER.

Model order is chosen by the Bayesian information criterion
-2 ln L + k ln n with k = 3K - 1 free parameters in one dimension
(K weights minus the simplex constraint, K means, K variances).  The search
runs forward: it fits K = 1, 2, ... and stops at the first K whose BIC is
not lower than the best so far, keeping that best (so a tie keeps the
smaller K), or at the number of distinct values.  BIC need not be unimodal
in K, so this is a stopping rule, not an exhaustive search: a larger order
past the first rise is never fit.  Each order's target is the
log-likelihood at which its BIC would equal the best so far, so an
abandoned fit scores more than 2 above that best: it always ends the
search and is never selected.  The projection assumes geometrically
shrinking gains, so a fit that is creeping when the rule acts and later
climbs can be abandoned though it would have lowered BIC within MAX_ITER
passes; the search then keeps a smaller order.

At a few hundred observations and K <= 3 an EM pass costs little
arithmetic, so numpy's per-call overhead is a large share of it.  The loop
calls the ufunc reductions directly instead of through the ndarray methods'
Python wrappers, which gives the same bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

VAR_FLOOR = 1e-6
MAX_ITER = 200      # EM iterations per fit
TOL = 1e-6          # log-likelihood change that counts as converged
AITKEN_START = 50   # EM passes before a fit may be abandoned
AITKEN_MARGIN = 1.0  # nats by which a projected limit must miss the target


@dataclass
class GmmModel:
    weights: np.ndarray        # (K,), sums to 1
    means: np.ndarray          # (K,), ascending
    variances: np.ndarray      # (K,), each >= VAR_FLOOR
    log_likelihood: float      # of the data the model was fit on
    n_iter: int
    converged: bool
    ll_trace: list             # log-likelihood after each EM evaluation

    @property
    def k(self):
        return self.weights.shape[0]


def _e_step(sq, weights, variances, resp):
    """Turn squared deviations sq (K, n) from each mean into responsibilities,
    written to resp (which may be sq); return the data log-likelihood."""
    np.multiply(sq, (-0.5 / variances)[:, None], out=resp)
    resp += (np.log(np.maximum(weights, 1e-300))
             - 0.5 * np.log(2.0 * np.pi * variances))[:, None]
    mx = np.maximum.reduce(resp, axis=0)
    resp -= mx
    np.exp(resp, out=resp)
    s = np.add.reduce(resp, axis=0)
    resp /= s
    return float(np.add.reduce(mx) + np.add.reduce(np.log(s, out=s)))


def _hopeless(history, target):
    """Whether Aitken's projected limit of history, plus AITKEN_MARGIN,
    falls short of target.  Only a gain that is positive and shrinking
    projects a limit."""
    ll, prev, before = history[-1], history[-2], history[-3]
    gain, last_gain = ll - prev, prev - before
    return 0.0 < gain < last_gain and \
        ll + gain * gain / (last_gain - gain) + AITKEN_MARGIN < target


def _em(obs, weights, means, variances, target=-math.inf):
    means, variances = means.copy(), variances.copy()   # updated in place below
    sq = (obs - means[:, None]) ** 2
    resp = np.empty_like(sq)
    history = []
    converged = False
    for passes in range(MAX_ITER):
        history.append(_e_step(sq, weights, variances, resp))
        if len(history) >= 2 and abs(history[-1] - history[-2]) < TOL:
            converged = True
            break
        if passes >= AITKEN_START and _hopeless(history, target):
            break       # abandoned: the last evaluation is the fit's score
        totals = np.add.reduce(resp, axis=1)
        weights = totals / obs.shape[0]
        # A starved component keeps its parameters; its weight decays to ~0.
        live = totals > 1e-12
        np.divide(resp @ obs, totals, out=means, where=live)
        np.square(np.subtract(obs, means[:, None], out=sq), out=sq)
        np.divide(np.einsum("kn,kn->k", resp, sq), totals, out=variances, where=live)
        np.maximum(variances, VAR_FLOOR, out=variances)
    else:
        # Ran out of iterations right after an M-step; score the final state.
        history.append(_e_step(sq, weights, variances, resp))
    return weights, means, variances, converged, history


def fit_em(obs, k, target=-math.inf):
    """Fit a K-component univariate mixture; components come back sorted by mean.

    The means start at the (j - 0.5)/K quantiles of the distinct values, so
    no two start equal.  EM stops on convergence, at MAX_ITER, or, once
    Aitken's projection says the log-likelihood cannot pass target, abandoned
    (converged False, n_iter < MAX_ITER).  With the default target of -inf
    no fit is abandoned.  Raises UsageError when there are fewer distinct
    observations than components.
    """
    obs = np.asarray(obs, dtype=np.float64).ravel()
    if k < 1:
        raise UsageError(f"component count must be >= 1, got {k}")
    if not np.all(np.isfinite(obs)):
        raise UsageError("observations must be finite")
    distinct = np.unique(obs)
    if distinct.shape[0] < k:
        raise UsageError(f"cannot fit {k} components to {distinct.shape[0]} distinct observations")

    weights, means, variances, converged, history = _em(
        obs, np.full(k, 1.0 / k), np.quantile(distinct, (np.arange(k) + 0.5) / k),
        np.full(k, max(float(obs.var()), VAR_FLOOR)), target)

    order = np.argsort(means, kind="stable")
    return GmmModel(weights=weights[order], means=means[order],
                    variances=variances[order], log_likelihood=history[-1],
                    n_iter=len(history) - 1, converged=converged, ll_trace=history)


def bic_value(log_likelihood, k, n):
    """-2 ln L + (3K - 1) ln n for a K-component 1-D mixture on n points."""
    if n < 1:
        raise UsageError("BIC needs at least one observation")
    return -2.0 * log_likelihood + (3 * k - 1) * math.log(n)


def select_model(obs, k_max):
    """Fit K = 1, 2, ... and stop at the first K that does not lower BIC.

    Keeps the lowest-BIC model found; a tie stops the search and keeps the
    smaller K.  Orders above k_max or above the number of distinct values
    are never fit.  Because BIC need not be unimodal in K, a higher order
    past the first K that fails to lower it could score lower; it is not
    tried.  Each order's fit gets the log-likelihood that would lower the
    best BIC as its target, so EM abandons an order that cannot reach it;
    that order ends the search.

    Returns (model, trace) where trace lists one dict per order fit, in K
    order, with its log-likelihood, BIC, EM iteration count and convergence
    flags.
    """
    obs = np.asarray(obs, dtype=np.float64).ravel()
    if k_max < 1:
        raise UsageError(f"k_max must be >= 1, got {k_max}")
    if obs.shape[0] < 1:
        raise UsageError("cannot select a mixture on an empty sample")
    best_model = None
    best_bic = math.inf
    trace = []
    for k in range(1, min(k_max, np.unique(obs).shape[0]) + 1):
        # BIC falls below best_bic exactly when the log-likelihood passes this
        target = (bic_value(0.0, k, obs.shape[0]) - best_bic) / 2.0
        model = fit_em(obs, k, target)
        score = bic_value(model.log_likelihood, k, obs.shape[0])
        trace.append({
            "k": k,
            "log_likelihood": model.log_likelihood,
            "bic": score,
            "n_iter": model.n_iter,
            "converged": model.converged,
            "weights": model.weights.tolist(),
            "means": model.means.tolist(),
            "variances": model.variances.tolist(),
        })
        if not score < best_bic:
            break
        best_bic = score
        best_model = model
    for row in trace:
        row["selected"] = row["k"] == best_model.k
    return best_model, trace


def posteriors(model, x):
    """Responsibility of each component for each point, shape (n, K)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    resp = (x - model.means[:, None]) ** 2
    _e_step(resp, model.weights, model.variances, resp)
    return resp.T
