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


def _assert_stop_rule(model, trace, k_max, n):
    """trace is the forward order search that picked model.

    Orders run K = 1, 2, ...; model is the first row of lowest BIC.  The
    search ends at the first K that does not lower the best BIC so far,
    unless that fit has two equal means and is not degenerate; or else at
    min(k_max, n).
    """
    ks = [row["k"] for row in trace]
    assert ks == list(range(1, len(ks) + 1))
    best, chosen = math.inf, None
    for row in trace:
        if row["bic"] < best:
            best, chosen = row["bic"], row["k"]
        elif row["degenerate"] or len(set(row["means"])) == row["k"]:
            assert row is trace[-1]
            break
    else:
        assert len(ks) == min(k_max, n)
    assert model.k == chosen
    assert [row["selected"] for row in trace] == [k == chosen for k in ks]
    assert best == gmm.bic_value(model.log_likelihood, chosen, n)


def test_select_model_orders():
    rng = np.random.default_rng(1)
    uni = rng.normal(1.0, 0.4, 1500)
    model, trace = gmm.select_model(uni, k_max=3)
    # K=2 does not lower BIC, so the search stops there and K=3 is not fit
    assert model.k == 1
    assert [row["k"] for row in trace] == [1, 2]
    _assert_stop_rule(model, trace, 3, uni.shape[0])

    bi = _bimodal(np.random.default_rng(2))
    model, trace = gmm.select_model(bi, k_max=3)
    # K=2 lowers BIC, K=3 does not: K=3 is the last order fit
    assert model.k == 2
    assert [row["k"] for row in trace] == [1, 2, 3]
    _assert_stop_rule(model, trace, 3, bi.shape[0])


def test_k_max_caps_the_search():
    rng = np.random.default_rng(7)
    four = np.concatenate([rng.normal(m, 0.05, 100) for m in (0.0, 1.0, 2.0, 3.0)])
    # each order up to 4 lowers BIC, so only the cap ends the search
    for k_max in (1, 2, 3):
        model, trace = gmm.select_model(four, k_max=k_max)
        assert [row["k"] for row in trace] == list(range(1, k_max + 1))
        assert model.k == k_max
        _assert_stop_rule(model, trace, k_max, four.shape[0])
    model, trace = gmm.select_model(four, k_max=6)
    assert model.k == 4 and [row["k"] for row in trace] == [1, 2, 3, 4, 5]
    _assert_stop_rule(model, trace, 6, four.shape[0])


def test_select_model_skips_orders_beyond_n():
    # K=2 lowers BIC on two points; no order above n is fit
    obs = np.array([0.4, 0.9])
    model, trace = gmm.select_model(obs, k_max=5)
    assert [row["k"] for row in trace] == [1, 2]
    assert model.k == 2
    _assert_stop_rule(model, trace, 5, 2)
    model, trace = gmm.select_model(np.array([0.4]), k_max=5)
    assert [row["k"] for row in trace] == [1] and model.k == 1


def test_identical_observations_prefer_one_component():
    obs = np.array([1.0, 1.0])
    model, trace = gmm.select_model(obs, k_max=2)
    # both orders reach the same likelihood; the BIC penalty breaks the tie
    assert model.k == 1
    assert not model.degenerate
    lls = [row["log_likelihood"] for row in trace]
    assert lls[0] == pytest.approx(lls[1], abs=1e-6)

    # K=2 only adds penalty, so the search stops there whatever k_max allows
    model, trace = gmm.select_model(np.full(40, 0.7), k_max=5)
    assert model.k == 1
    assert [row["k"] for row in trace] == [1, 2]
    assert [row["degenerate"] for row in trace] == [False, True]
    _assert_stop_rule(model, trace, 5, 40)

    direct = gmm.fit_em(obs, 2)
    assert direct.degenerate
    assert np.all(direct.variances >= gmm.VAR_FLOOR)


def test_tied_order_does_not_end_the_search():
    # 80 observations on one value: the (j - 0.5)/K start puts both K=2 means
    # on it and EM keeps them tied, so K=2 is K=1 with more penalty.  That
    # says nothing of order 2, so the search goes on to K=3, whose top start
    # lands on the second value and lowers BIC.
    obs = np.log1p(np.array([0.2] * 80 + [3.0] * 20))
    model, trace = gmm.select_model(obs, k_max=3)
    assert [row["k"] for row in trace] == [1, 2, 3]
    assert trace[1]["means"][0] == trace[1]["means"][1]
    assert not trace[1]["bic"] < trace[0]["bic"]
    assert model.k == 3 and trace[2]["bic"] < trace[0]["bic"]
    _assert_stop_rule(model, trace, 3, 100)
    # K=4 ties three means on the first value and scores above K=3, yet it
    # too only says what a smaller mixture does: the cap ends the search
    model, trace = gmm.select_model(obs, k_max=5)
    assert [row["k"] for row in trace] == [1, 2, 3, 4, 5] and model.k == 3
    _assert_stop_rule(model, trace, 5, 100)
    # a tied order that is degenerate does stop it: no order can do better
    model, trace = gmm.select_model(np.full(40, 0.7), k_max=5)
    assert [row["k"] for row in trace] == [1, 2] and trace[1]["degenerate"]


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
    """ndarray-method reductions, and the starved-component guards in their
    np.where/denom form; the shipped loop guards every pass too, by a masked
    divide, and calls the ufunc reductions directly."""
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


def _select_fitting_every_order(monkeypatch, em, obs, k_max):
    """select_model(obs, k_max) with gmm._em replaced by em, and a fit of
    every K <= min(k_max, n) in K order: the fits select_model made, then
    fit_em of each order its search stopped short of."""
    fits = []
    fit_em = gmm.fit_em

    def recorder(*args, **kwargs):
        fits.append(fit_em(*args, **kwargs))
        return fits[-1]

    with monkeypatch.context() as m:
        m.setattr(gmm, "_em", em)
        m.setattr(gmm, "fit_em", recorder)
        model, trace = gmm.select_model(obs, k_max)
        # select_model calls fit_em once per order it fits, in K order
        assert [f.k for f in fits] == [row["k"] for row in trace]
        for k in range(len(fits) + 1, min(k_max, len(obs)) + 1):
            recorder(obs, k)
    return (model, trace), fits


def _assert_select_equals_kmajor(monkeypatch, obs, k_max, shipped=None):
    """The shipped select_model and its fits of every order (or their recorded
    results) equal the K-major loop's; returns the trace and the fits."""
    (model, trace), fits = shipped or _select_fitting_every_order(
        monkeypatch, gmm._em, obs, k_max)
    (ref_model, ref_trace), ref_fits = _select_fitting_every_order(
        monkeypatch, _kmajor_em, obs, k_max)
    assert trace == ref_trace
    _assert_same_fit(model, ref_model)
    _assert_stop_rule(model, trace, k_max, len(obs))
    # every order up to the cap, whether the search reached it or not
    assert [f.k for f in fits] == [f.k for f in ref_fits] == \
        list(range(1, min(k_max, len(obs)) + 1))
    for fit, ref in zip(fits, ref_fits):
        _assert_same_fit(fit, ref)
    return trace, fits


def test_em_equals_kmajor_loop(monkeypatch, seeded_fits):
    with np.errstate(**_RAISE):
        for obs, select, fits in seeded_fits:
            # every order is fit on its own, so the search and the direct
            # fits of the orders past its stop are checked alike
            _assert_select_equals_kmajor(monkeypatch, obs, 5, (select, fits))


def _exhaustive_trace(obs, fits):
    """The trace of a search that fits every order in fits and keeps the
    lowest BIC, ties to fewer components: select_model before its stop rule."""
    n = obs.shape[0]
    rows = [{"k": fit.k, "log_likelihood": fit.log_likelihood,
             "bic": -2.0 * fit.log_likelihood + (3 * fit.k - 1) * math.log(n),
             "n_iter": fit.n_iter, "converged": fit.converged,
             "degenerate": fit.degenerate, "weights": fit.weights.tolist(),
             "means": fit.means.tolist(), "variances": fit.variances.tolist()}
            for fit in fits]
    best = min(rows, key=lambda row: row["bic"])
    for row in rows:
        row["selected"] = row is best
    return rows


def test_stop_rule_trace_is_the_exhaustive_trace_cut_short(seeded_fits):
    def unselected(rows):
        return [{key: v for key, v in row.items() if key != "selected"} for row in rows]

    differs = []
    for i, (obs, (model, trace), fits) in enumerate(seeded_fits):
        full = _exhaustive_trace(obs, fits)
        assert unselected(trace) == unselected(full[:len(trace)]), i
        assert model is fits[model.k - 1]
        _assert_stop_rule(model, trace, 5, obs.shape[0])
        if next(row["k"] for row in full if row["selected"]) != model.k:
            differs.append(i)
    # BIC is not unimodal in K on input 63: K=4 scores above K=3, which stops
    # the search, and K=5 below both; on the other 99 inputs both pick alike
    assert differs == [63]
    obs, _, fits = seeded_fits[63]
    assert [round(row["bic"], 2) for row in _exhaustive_trace(obs, fits)] == \
        [150.18, 104.63, 95.18, 102.52, 91.3]


def test_em_equals_kmajor_loop_on_edge_cases(monkeypatch):
    with np.errstate(**_RAISE):
        # all observations identical: every order past K=1 is degenerate; the
        # search stops at K=2, and K=3..5 are fit directly
        trace, fits = _assert_select_equals_kmajor(monkeypatch, np.full(40, 0.7), 5)
        assert [row["k"] for row in trace] == [1, 2]
        assert [fit.degenerate for fit in fits] == [False, True, True, True, True]
        # fewer observations than k_max: only K <= n is fit
        for obs in (np.array([0.4]), np.array([0.4, 0.9]), np.array([0.1, 0.5, 2.0])):
            _assert_select_equals_kmajor(monkeypatch, obs, 5)
        # a starved component is masked out of every pass's M-step, beside
        # two live ones whose sums run over 700 points
        rng = np.random.default_rng(4)
        obs = np.concatenate([rng.normal(0.0, 1.0, 500), rng.normal(3.0, 0.5, 200)])
        start = (np.full(3, 1 / 3), np.array([0.0, 3.0, 60.0]), np.ones(3))
        for got, want in zip(gmm._em(obs, *start, 200, 1e-6),
                             _kmajor_em(obs, *start, 200, 1e-6)):
            assert np.asarray(got).tolist() == np.asarray(want).tolist()


def _select_both(monkeypatch, obs, fits):
    """select_model(k_max=3) on K-major fits and on reference-loop fits.

    Each order is fit on its own, so the K-major side takes the fits of
    K = 1..3 that seeded_fits holds for the same input, and the reference
    side fits each of K = 1..3 once with the row-major loop.  Returns both
    selections and the reference fits.
    """
    with monkeypatch.context() as m:
        m.setattr(gmm, "_em", _reference_em)
        ref_fits = [gmm.fit_em(obs, k) for k in (1, 2, 3)]
    selections = []
    for chosen in (fits, ref_fits):
        with monkeypatch.context() as m:
            m.setattr(gmm, "fit_em", lambda obs, k: chosen[k - 1])
            selections.append(gmm.select_model(obs, k_max=3))
    return *selections, ref_fits


def test_em_matches_row_major_reference(monkeypatch, seeded_fits):
    for i, (obs, _, fits) in enumerate(seeded_fits):
        (model, trace), (ref_model, ref_trace), ref_fits = _select_both(
            monkeypatch, obs, fits)
        # every K <= 3, whether or not the search reaches it
        for fit, ref in zip(fits[:3], ref_fits, strict=True):
            assert fit.n_iter == ref.n_iter, (i, fit.k)
            assert fit.converged == ref.converged, (i, fit.k)
            assert fit.log_likelihood == pytest.approx(ref.log_likelihood, rel=1e-9)
        assert [row["k"] for row in trace] == [row["k"] for row in ref_trace], i
        _assert_stop_rule(model, trace, 3, obs.shape[0])
        _assert_stop_rule(ref_model, ref_trace, 3, obs.shape[0])
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
    # the M-step writes in place, into copies of the start arrays
    assert [a.tolist() for a in start] == [[0.5, 0.5], [0.0, 50.0], [1.0, 1.0]]
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
