"""Mixture fitting: EM behavior, BIC selection, known-generator recovery."""

import math

import numpy as np
import pytest

from mantra import gmm
from mantra.errors import FitError, UsageError


def _bimodal(rng, n=2000, w=0.7, m1=0.3, s1=0.05, m2=2.0, s2=0.3):
    n1 = int(round(w * n))
    samples = np.concatenate([
        rng.normal(m1, s1, n1),
        rng.normal(m2, s2, n - n1),
    ])
    rng.shuffle(samples)
    return samples


def test_bic_oracle():
    # closed form: -2 ln L + (3K - 1) ln n
    assert abs(gmm.bic_value(-100.0, 2, 1000) - 234.53877639491068) < 1e-9
    for ll in (-3.5, 0.0, 12.25):
        for k in (1, 2, 3):
            for n in (1, 10, 777):
                want = -2.0 * ll + (3 * k - 1) * math.log(n)
                assert gmm.bic_value(ll, k, n) == pytest.approx(want, abs=1e-12)
    with pytest.raises(UsageError):
        gmm.bic_value(-1.0, 1, 0)


def test_em_log_likelihood_monotone(rng):
    # varied seeded inputs: mixtures, skewed, heavy-tailed, tightly clustered
    for trial in range(30):
        kind = trial % 4
        n = int(rng.integers(40, 400))
        if kind == 0:
            obs = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 2.0), n)
        elif kind == 1:
            obs = _bimodal(rng, n=n, w=rng.uniform(0.2, 0.8),
                           m1=rng.uniform(0, 1), s1=rng.uniform(0.05, 0.3),
                           m2=rng.uniform(2, 4), s2=rng.uniform(0.1, 0.5))
        elif kind == 2:
            obs = rng.lognormal(0.0, 0.6, n)
        else:
            obs = np.round(rng.exponential(0.5, n), 2)   # many exact duplicates
        for k in (1, 2, 3):
            model = gmm.fit_em(obs, k)
            trace = np.asarray(model.ll_trace)
            assert trace.size >= 1
            assert np.all(np.diff(trace) >= -1e-9)
            assert model.log_likelihood == pytest.approx(trace[-1])


def test_known_mixture_recovery():
    rng = np.random.default_rng(0)
    obs = _bimodal(rng)
    model = gmm.fit_em(obs, 2)
    assert model.converged
    assert abs(model.weights[0] - 0.7) < 0.03
    assert abs(model.means[0] - 0.3) < 0.02
    assert abs(model.means[1] - 2.0) < 0.06
    assert model.weights.sum() == pytest.approx(1.0)
    assert np.all(np.diff(model.means) > 0)    # ascending component order


def test_fit_limits_are_module_constants(monkeypatch):
    # a reference fit sets a longer limit the same way, by assigning gmm.MAX_ITER
    assert (gmm.MAX_ITER, gmm.TOL) == (200, 1e-6)
    obs = _bimodal(np.random.default_rng(0))
    assert gmm.fit_em(obs, 2).n_iter > 3
    monkeypatch.setattr(gmm, "MAX_ITER", 3)
    model = gmm.fit_em(obs, 2)
    assert model.n_iter <= 3 and not model.converged
    _, trace = gmm.select_model(obs, k_max=2)
    assert all(row["n_iter"] <= 3 for row in trace)


def test_select_model_orders():
    rng = np.random.default_rng(1)
    uni = rng.normal(1.0, 0.4, 1500)
    model, trace = gmm.select_model(uni, k_max=3)
    assert model.k == 1
    assert [row["k"] for row in trace] == [1, 2, 3]
    assert sum(row["selected"] for row in trace) == 1
    assert trace[0]["selected"]

    bi = _bimodal(np.random.default_rng(2))
    model, trace = gmm.select_model(bi, k_max=3)
    assert model.k == 2
    scores = {row["k"]: row["bic"] for row in trace}
    assert scores[2] < scores[1] and scores[2] <= scores[3]


def test_select_model_skips_orders_beyond_n():
    model, trace = gmm.select_model(np.array([0.4, 0.9]), k_max=3)
    assert [row["k"] for row in trace] == [1, 2]
    assert model.k in (1, 2)


def test_identical_observations_prefer_one_component():
    obs = np.array([1.0, 1.0])
    model, trace = gmm.select_model(obs, k_max=2)
    # both orders reach the same likelihood; the BIC penalty breaks the tie
    assert model.k == 1
    assert not model.degenerate
    lls = [row["log_likelihood"] for row in trace]
    assert lls[0] == pytest.approx(lls[1], abs=1e-6)

    direct = gmm.fit_em(obs, 2)
    assert direct.degenerate
    assert np.all(direct.variances >= gmm.VAR_FLOOR)


def test_variance_floor_binds_on_point_clusters():
    obs = np.concatenate([np.full(50, 0.25), np.full(50, 3.0)])
    model = gmm.fit_em(obs, 2)
    assert np.all(model.variances >= gmm.VAR_FLOOR)
    assert model.means == pytest.approx([0.25, 3.0], abs=1e-6)
    assert model.weights == pytest.approx([0.5, 0.5], abs=1e-9)


def test_fit_errors():
    with pytest.raises(FitError):
        gmm.fit_em(np.array([1.0]), 2)
    with pytest.raises(FitError):
        gmm.fit_em(np.array([1.0, np.nan, 2.0]), 1)
    for bad in (np.array([]), np.array([0.5, np.nan]), np.array([np.inf, 1.0])):
        with pytest.raises(FitError):
            gmm.select_model(bad, k_max=2)
    with pytest.raises(UsageError):
        gmm.fit_em(np.array([1.0, 2.0]), 0)
    with pytest.raises(UsageError):
        gmm.select_model(np.array([1.0, 2.0]), k_max=0)


def test_determinism():
    obs = _bimodal(np.random.default_rng(5), n=600)
    a = gmm.fit_em(obs, 2)
    b = gmm.fit_em(obs, 2)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_posteriors_are_responsibilities():
    obs = _bimodal(np.random.default_rng(3), n=800)
    model = gmm.fit_em(obs, 2)
    resp = gmm.posteriors(model, obs)
    assert resp.shape == (800, 2)
    np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)
    # a point far in the upper mode belongs to the upper component
    assert gmm.posteriors(model, np.array([2.0]))[0, 1] > 0.99


# -- oracle: the row-major EM loop the K-major one replaced ------------------

def _reference_rows(obs, weights, means, variances):
    """Per-point log-likelihoods and the (n, K) log(weight * density) matrix."""
    diff = obs[:, None] - means[None, :]
    lp = (np.log(np.maximum(weights, 1e-300))[None, :]
          - 0.5 * np.log(2.0 * np.pi * variances)[None, :]
          - 0.5 * diff * diff / variances[None, :])
    mx = lp.max(axis=1)
    return mx + np.log(np.exp(lp - mx[:, None]).sum(axis=1)), lp


def _reference_em(obs, weights, means, variances, max_iter, tol):
    """Row-major (n, K) EM with boolean-indexed M-step updates."""
    history = []
    converged = False
    for _ in range(max_iter):
        rows, lp = _reference_rows(obs, weights, means, variances)
        history.append(float(rows.sum()))
        if len(history) >= 2 and abs(history[-1] - history[-2]) < tol:
            converged = True
            break
        resp = np.exp(lp - rows[:, None])
        totals = resp.sum(axis=0)
        safe = totals > 1e-12
        weights = totals / obs.shape[0]
        means = means.copy()
        means[safe] = (resp[:, safe] * obs[:, None]).sum(axis=0) / totals[safe]
        diff = obs[:, None] - means[None, :]
        variances = variances.copy()
        variances[safe] = (resp[:, safe] * diff[:, safe] ** 2).sum(axis=0) / totals[safe]
        variances = np.maximum(variances, gmm.VAR_FLOOR)
    else:
        rows, _ = _reference_rows(obs, weights, means, variances)
        history.append(float(rows.sum()))
    return weights, means, variances, history[-1], len(history) - 1, converged, history


# -- oracle: the K-major loop as it was before its per-call overhead was cut --

def _kmajor_e_step(sq, weights, variances, resp):
    np.multiply(sq, (-0.5 / variances)[:, None], out=resp)
    resp += (np.log(np.maximum(weights, 1e-300))
             - 0.5 * np.log(2.0 * np.pi * variances))[:, None]
    mx = resp.max(axis=0)
    resp -= mx
    np.exp(resp, out=resp)
    s = resp.sum(axis=0)
    resp /= s
    return float(mx.sum() + np.log(s).sum())


def _kmajor_em(obs, weights, means, variances, max_iter, tol):
    """ndarray-method reductions and the starved-component guards every pass."""
    sq = (obs - means[:, None]) ** 2
    resp = np.empty_like(sq)
    history = []
    converged = False
    for _ in range(max_iter):
        history.append(_kmajor_e_step(sq, weights, variances, resp))
        if len(history) >= 2 and abs(history[-1] - history[-2]) < tol:
            converged = True
            break
        totals = resp.sum(axis=1)
        safe = totals > 1e-12
        denom = np.maximum(totals, 1e-12)
        weights = totals / obs.shape[0]
        means = np.where(safe, (resp @ obs) / denom, means)
        np.square(np.subtract(obs, means[:, None], out=sq), out=sq)
        spread = np.einsum("kn,kn->k", resp, sq)
        variances = np.maximum(np.where(safe, spread / denom, variances), gmm.VAR_FLOOR)
    else:
        history.append(_kmajor_e_step(sq, weights, variances, resp))
    return weights, means, variances, history[-1], len(history) - 1, converged, history


_RAISE = dict(divide="raise", over="raise", invalid="raise")


def _assert_same_fit(model, ref):
    for name in ("weights", "means", "variances"):
        assert getattr(model, name).tolist() == getattr(ref, name).tolist(), name
    assert model.ll_trace == ref.ll_trace
    assert (model.log_likelihood, model.n_iter, model.converged, model.degenerate) == \
        (ref.log_likelihood, ref.n_iter, ref.converged, ref.degenerate)


def _select_recording_fits(monkeypatch, em, obs, k_max):
    """select_model(obs, k_max) with gmm._em replaced by em, and every fit it made."""
    fits = []
    fit_em = gmm.fit_em

    def recorder(*args, **kwargs):
        fits.append(fit_em(*args, **kwargs))
        return fits[-1]

    with monkeypatch.context() as m:
        m.setattr(gmm, "_em", em)
        m.setattr(gmm, "fit_em", recorder)
        return gmm.select_model(obs, k_max), fits


def _assert_select_equals_kmajor(monkeypatch, obs, k_max, shipped=None):
    """The shipped select_model (or its recorded result) equals the K-major loop's."""
    (model, trace), fits = shipped or _select_recording_fits(monkeypatch, gmm._em, obs, k_max)
    (ref_model, ref_trace), ref_fits = _select_recording_fits(
        monkeypatch, _kmajor_em, obs, k_max)
    assert trace == ref_trace
    _assert_same_fit(model, ref_model)
    # every order select_model fit, not only the selected one
    assert [f.k for f in fits] == [f.k for f in ref_fits] == [row["k"] for row in trace]
    for fit, ref in zip(fits, ref_fits):
        _assert_same_fit(fit, ref)
    return trace


def test_em_equals_kmajor_loop(monkeypatch, seeded_fits):
    with np.errstate(**_RAISE):
        for obs, select, fits in seeded_fits:
            # every order is fit on its own, so k_max only decides which run
            trace = _assert_select_equals_kmajor(monkeypatch, obs, 5, (select, fits))
            assert [row["k"] for row in trace] == [1, 2, 3, 4, 5]


def test_em_equals_kmajor_loop_on_edge_cases(monkeypatch):
    with np.errstate(**_RAISE):
        # all observations identical: every order past K=1 is degenerate
        trace = _assert_select_equals_kmajor(monkeypatch, np.full(40, 0.7), 5)
        assert [row["degenerate"] for row in trace] == [False, True, True, True, True]
        # fewer observations than k_max: only K <= n is fit
        for obs in (np.array([0.4]), np.array([0.4, 0.9]), np.array([0.1, 0.5, 2.0])):
            trace = _assert_select_equals_kmajor(monkeypatch, obs, 5)
            assert [row["k"] for row in trace] == list(range(1, obs.shape[0] + 1))
        # a starved component takes the guarded M-step in every pass, beside
        # two live ones whose sums run over 700 points
        rng = np.random.default_rng(4)
        obs = np.concatenate([rng.normal(0.0, 1.0, 500), rng.normal(3.0, 0.5, 200)])
        start = (np.full(3, 1 / 3), np.array([0.0, 3.0, 60.0]), np.ones(3))
        for got, want in zip(gmm._em(obs, *start, 200, 1e-6),
                             _kmajor_em(obs, *start, 200, 1e-6)):
            assert np.asarray(got).tolist() == np.asarray(want).tolist()


def _select_both(monkeypatch, obs, fits):
    """select_model(k_max=3) with the K-major loop, then with the reference loop.

    Each order is fit on its own, so the K-major side takes the fits that
    select_model(k_max=5) recorded for the same input.
    """
    with monkeypatch.context() as m:
        m.setattr(gmm, "fit_em", lambda obs, k, **kwargs: fits[k - 1])
        new = gmm.select_model(obs, k_max=3)
    with monkeypatch.context() as m:
        m.setattr(gmm, "_em", _reference_em)
        ref = gmm.select_model(obs, k_max=3)
    return new, ref


def test_em_matches_row_major_reference(monkeypatch, seeded_fits):
    for i, (obs, _, fits) in enumerate(seeded_fits):
        (model, trace), (ref_model, ref_trace) = _select_both(monkeypatch, obs, fits)
        assert [row["k"] for row in trace] == [row["k"] for row in ref_trace] == [1, 2, 3]
        for row, ref in zip(trace, ref_trace):
            assert row["n_iter"] == ref["n_iter"], (i, row["k"])
            assert row["converged"] == ref["converged"], (i, row["k"])
            assert row["log_likelihood"] == pytest.approx(ref["log_likelihood"], rel=1e-9)
        assert model.k == ref_model.k, i
        rows, lp = _reference_rows(obs, ref_model.weights, ref_model.means,
                                   ref_model.variances)
        np.testing.assert_allclose(gmm.posteriors(ref_model, obs),
                                   np.exp(lp - rows[:, None]), atol=1e-12)


def test_starved_component_keeps_its_parameters():
    obs = np.random.default_rng(4).normal(0.0, 1.0, 200)
    start = (np.array([0.5, 0.5]), np.array([0.0, 50.0]), np.array([1.0, 1.0]))
    # the far component gets exactly zero responsibility from the first E-step
    with np.errstate(divide="raise", invalid="raise"):
        weights, means, variances, ll, n_iter, converged, _ = gmm._em(
            obs, *start, max_iter=200, tol=1e-6)
    assert means[1] == 50.0 and variances[1] == 1.0
    assert weights[1] <= 1e-12
    assert np.all(np.isfinite(means)) and np.all(np.isfinite(variances))
    assert math.isfinite(ll)
    ref = _reference_em(obs, *start, max_iter=200, tol=1e-6)
    assert (n_iter, converged) == (ref[4], ref[5])
    np.testing.assert_allclose(means, ref[1], rtol=1e-12)
    np.testing.assert_allclose(variances, ref[2], rtol=1e-9)


def test_variances_survive_a_large_offset(monkeypatch):
    # spread ~1e-2 around 1e4: E[x^2] - mu^2 would keep only about 4 digits here
    rng = np.random.default_rng(6)
    obs = 1e4 + np.concatenate([rng.normal(0.0, 1e-2, 300), rng.normal(0.06, 1e-2, 200)])
    for k in (1, 2):
        model = gmm.fit_em(obs, k)
        with monkeypatch.context() as m:
            m.setattr(gmm, "_em", _reference_em)
            ref = gmm.fit_em(obs, k)
        assert model.converged and model.n_iter == ref.n_iter
        np.testing.assert_allclose(model.variances, ref.variances, rtol=1e-9)
