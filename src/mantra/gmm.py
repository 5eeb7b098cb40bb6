"""Univariate Gaussian mixtures fit by EM, with BIC order selection.

The detector models an epoch's per-sample losses as a 1-D mixture.  Fits
are deterministic: one start places component means on the (j - 0.5)/K
quantiles with equal weights and the overall variance, and the EM loop
itself has no randomness.

EM stops after MAX_ITER iterations or once the log-likelihood moves by less
than TOL.  No run setting varies them; a reference fit assigns gmm.MAX_ITER.

Model order is chosen by the Bayesian information criterion
-2 ln L + k ln n with k = 3K - 1 free parameters in one dimension
(K weights minus the simplex constraint, K means, K variances).  The search
runs forward: it fits K = 1, 2, ... and stops at the first K whose BIC is
not lower than the best so far, keeping that best (so a tie keeps the
smaller K).  A fit with two equal means does not stop it: the quantile
start puts two means on one value when that value holds both quantiles,
EM keeps them tied, and the fit is a smaller mixture that says nothing of
order K.  Only when every observation is identical, where no order can do
better, does such a fit stop the search.  BIC need not be unimodal in K, so
this is a stopping rule, not an exhaustive search: a larger order past the
first rise is never fit.

At a few hundred observations and K <= 3 an EM pass costs little
arithmetic, so numpy's per-call overhead is a large share of it.  The loop
calls the ufunc reductions directly instead of through the ndarray methods'
Python wrappers, which gives the same bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, UsageError

VAR_FLOOR = 1e-6
MAX_ITER = 200      # EM iterations per fit
TOL = 1e-6          # log-likelihood change that counts as converged


@dataclass
class GmmModel:
    weights: np.ndarray        # (K,), sums to 1
    means: np.ndarray          # (K,), ascending
    variances: np.ndarray      # (K,), each >= VAR_FLOOR
    log_likelihood: float      # of the data the model was fit on
    n_iter: int
    converged: bool
    degenerate: bool = False   # all observations identical while K > 1
    ll_trace: list = None      # log-likelihood after each EM evaluation

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


def _em(obs, weights, means, variances, max_iter, tol):
    means, variances = means.copy(), variances.copy()   # updated in place below
    sq = (obs - means[:, None]) ** 2
    resp = np.empty_like(sq)
    history = []
    converged = False
    for _ in range(max_iter):
        history.append(_e_step(sq, weights, variances, resp))
        if len(history) >= 2 and abs(history[-1] - history[-2]) < tol:
            converged = True
            break
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
    return weights, means, variances, history[-1], len(history) - 1, converged, history


def fit_em(obs, k):
    """Fit a K-component univariate mixture; components come back sorted by mean.

    Raises FitError when there are fewer observations than components.
    """
    obs = np.asarray(obs, dtype=np.float64).ravel()
    if k < 1:
        raise UsageError(f"component count must be >= 1, got {k}")
    if obs.shape[0] < k:
        raise FitError(f"cannot fit {k} components to {obs.shape[0]} observations")
    if not np.all(np.isfinite(obs)):
        raise FitError("observations must be finite")

    spread = float(obs.var())
    degenerate = bool(spread == 0.0 and k > 1)
    weights, means, variances, ll, n_iter, converged, history = _em(
        obs, np.full(k, 1.0 / k), np.quantile(obs, (np.arange(k) + 0.5) / k),
        np.full(k, max(spread, VAR_FLOOR)), MAX_ITER, TOL)

    order = np.argsort(means, kind="stable")
    return GmmModel(weights=weights[order], means=means[order],
                    variances=variances[order], log_likelihood=ll,
                    n_iter=n_iter, converged=converged, degenerate=degenerate,
                    ll_trace=history)


def bic_value(log_likelihood, k, n):
    """-2 ln L + (3K - 1) ln n for a K-component 1-D mixture on n points."""
    if n < 1:
        raise UsageError("BIC needs at least one observation")
    return -2.0 * log_likelihood + (3 * k - 1) * math.log(n)


def select_model(obs, k_max):
    """Fit K = 1, 2, ... and stop at the first K that does not lower BIC.

    Keeps the lowest-BIC model found; a tie stops the search and keeps the
    smaller K.  An order whose fit has two equal means does not stop it
    unless the observations are all identical.  Orders above k_max or above
    the number of observations are never fit.  Because BIC need not be
    unimodal in K, a higher order past the first K that fails to lower it
    could score lower; it is not tried.

    Returns (model, trace) where trace lists one dict per order fit, in K
    order, with its log-likelihood, BIC, EM iteration count and convergence
    flags.
    """
    obs = np.asarray(obs, dtype=np.float64).ravel()
    if k_max < 1:
        raise UsageError(f"k_max must be >= 1, got {k_max}")
    if obs.shape[0] < 1:
        raise FitError("cannot select a mixture on an empty sample")
    best_model = None
    best_bic = math.inf
    trace = []
    for k in range(1, min(k_max, obs.shape[0]) + 1):
        model = fit_em(obs, k)
        score = bic_value(model.log_likelihood, k, obs.shape[0])
        trace.append({
            "k": k,
            "log_likelihood": model.log_likelihood,
            "bic": score,
            "n_iter": model.n_iter,
            "converged": model.converged,
            "degenerate": model.degenerate,
            "weights": model.weights.tolist(),
            "means": model.means.tolist(),
            "variances": model.variances.tolist(),
        })
        if score < best_bic:
            best_bic = score
            best_model = model
        elif model.degenerate or not np.any(model.means[1:] == model.means[:-1]):
            break
    for row in trace:
        row["selected"] = row["k"] == best_model.k
    return best_model, trace


def posteriors(model, x):
    """Responsibility of each component for each point, shape (n, K)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    resp = (x - model.means[:, None]) ** 2
    _e_step(resp, model.weights, model.variances, resp)
    return resp.T
