"""Mixture fitting: EM behavior, BIC selection, known-generator recovery."""

import math

import numpy as np
import pytest

from mantra import gmm
from mantra.errors import UsageError


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
            # n_iter counts the evaluations after the first
            assert model.log_likelihood == model.ll_trace[-1]
            assert model.n_iter == len(model.ll_trace) - 1


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
    assert (gmm.MAX_ITER, gmm.TOL, gmm.AITKEN_START, gmm.AITKEN_MARGIN) == (200, 1e-6, 50, 1.0)
    obs = _bimodal(np.random.default_rng(0))
    assert gmm.fit_em(obs, 2).n_iter > 3
    start = (np.array([0.5, 0.5]), np.array([0.0, 1.0]), np.ones(2))
    with monkeypatch.context() as m:
        m.setattr(gmm, "TOL", 1e9)
        # _em reads the limits at call time: any move now counts as converged
        *_, converged, history = gmm._em(obs, *start)
        assert converged and len(history) == 2
    # a fit that cannot reach its target stops at the first pass the
    # abandonment rule may act on
    slow, full = _slow_fit()
    assert gmm.fit_em(slow, 2, full.log_likelihood + 1.5).n_iter == gmm.AITKEN_START
    monkeypatch.setattr(gmm, "MAX_ITER", 3)
    *_, converged, history = gmm._em(obs, *start)
    assert not converged and len(history) == 4   # three passes, then the final state
    model = gmm.fit_em(obs, 2)
    assert model.n_iter == 3 and not model.converged
    _, trace = gmm.select_model(obs, k_max=2)
    assert all(row["n_iter"] <= 3 for row in trace)


def _slow_fit():
    """Two components on 300 normal draws: EM creeps up a ridge and is still
    short of TOL after MAX_ITER passes."""
    obs = np.random.default_rng(0).normal(0.0, 1.0, 300)
    model = gmm.fit_em(obs, 2)
    assert not model.converged and model.n_iter == gmm.MAX_ITER
    return obs, model


def test_no_target_is_a_target_of_minus_infinity():
    obs, _ = _slow_fit()
    for data, k in ((obs, 2), (obs, 3), (_bimodal(np.random.default_rng(0)), 2)):
        plain, unbounded = gmm.fit_em(data, k), gmm.fit_em(data, k, target=-math.inf)
        for name in ("weights", "means", "variances"):
            np.testing.assert_array_equal(getattr(plain, name), getattr(unbounded, name))
        assert (plain.log_likelihood, plain.n_iter, plain.converged, plain.ll_trace) == \
            (unbounded.log_likelihood, unbounded.n_iter, unbounded.converged,
             unbounded.ll_trace)


def test_a_reachable_target_never_abandons_a_fit():
    obs, slow = _slow_fit()
    # below every log-likelihood the fit passes through, or below the one it
    # ends at: it runs as untargeted
    for target in (min(slow.ll_trace) - 1.0, slow.log_likelihood - 1.0):
        model = gmm.fit_em(obs, 2, target)
        assert (model.n_iter, model.converged, model.ll_trace) == \
            (slow.n_iter, slow.converged, slow.ll_trace)
        np.testing.assert_array_equal(model.means, slow.means)


def test_an_unreachable_target_abandons_a_slow_fit():
    obs, slow = _slow_fit()
    model = gmm.fit_em(obs, 2, slow.log_likelihood + 10.0)
    # the gains shrink from the start, so the first pass the rule may act on stops it
    assert model.n_iter == gmm.AITKEN_START < gmm.MAX_ITER
    assert not model.converged
    assert model.log_likelihood == model.ll_trace[-1]
    # up to the stop it is the same fit: the rule only cuts EM short
    assert model.ll_trace == slow.ll_trace[:model.n_iter + 1]
    # the Aitken limit, plus the margin, falls short of the target
    ll, prev, before = model.ll_trace[-3:][::-1]
    assert 0 < ll - prev < prev - before
    projected = ll + (ll - prev) ** 2 / ((prev - before) - (ll - prev))
    assert projected + gmm.AITKEN_MARGIN < slow.log_likelihood + 10.0


def _assert_stop_rule(model, trace, k_max, obs):
    """trace is the forward order search that picked model on obs.

    Orders run K = 1, 2, ...; model is the first row of lowest BIC.  The
    search ends at the first K that does not lower the best BIC so far, or
    else at min(k_max, number of distinct observations).
    """
    ks = [row["k"] for row in trace]
    assert ks == list(range(1, len(ks) + 1))
    best, chosen = math.inf, None
    for row in trace:
        if not row["bic"] < best:
            assert row is trace[-1]
            break
        best, chosen = row["bic"], row["k"]
    else:
        assert len(ks) == min(k_max, np.unique(obs).shape[0])
    assert model.k == chosen
    assert [row["selected"] for row in trace] == [k == chosen for k in ks]
    assert best == gmm.bic_value(model.log_likelihood, chosen, len(obs))


def test_select_model_orders():
    rng = np.random.default_rng(1)
    uni = rng.normal(1.0, 0.4, 1500)
    model, trace = gmm.select_model(uni, k_max=3)
    # K=2 does not lower BIC, so the search stops there and K=3 is not fit
    assert model.k == 1
    assert [row["k"] for row in trace] == [1, 2]
    _assert_stop_rule(model, trace, 3, uni)

    bi = _bimodal(np.random.default_rng(2))
    model, trace = gmm.select_model(bi, k_max=3)
    # K=2 lowers BIC, K=3 does not: K=3 is the last order fit
    assert model.k == 2
    assert [row["k"] for row in trace] == [1, 2, 3]
    _assert_stop_rule(model, trace, 3, bi)


def test_k_max_caps_the_search():
    rng = np.random.default_rng(7)
    four = np.concatenate([rng.normal(m, 0.05, 100) for m in (0.0, 1.0, 2.0, 3.0)])
    # each order up to 4 lowers BIC, so only the cap ends the search
    for k_max in (1, 2, 3):
        model, trace = gmm.select_model(four, k_max=k_max)
        assert [row["k"] for row in trace] == list(range(1, k_max + 1))
        assert model.k == k_max
        _assert_stop_rule(model, trace, k_max, four)
    model, trace = gmm.select_model(four, k_max=6)
    assert model.k == 4 and [row["k"] for row in trace] == [1, 2, 3, 4, 5]
    _assert_stop_rule(model, trace, 6, four)


def test_select_model_skips_orders_beyond_n():
    # K=2 lowers BIC on two points; no order above n is fit
    obs = np.array([0.4, 0.9])
    model, trace = gmm.select_model(obs, k_max=5)
    assert [row["k"] for row in trace] == [1, 2]
    assert model.k == 2
    _assert_stop_rule(model, trace, 5, obs)
    model, trace = gmm.select_model(np.array([0.4]), k_max=5)
    assert [row["k"] for row in trace] == [1] and model.k == 1


def test_identical_observations_prefer_one_component():
    # one distinct value: only K=1 is fit, whatever k_max allows
    for obs in (np.array([1.0, 1.0]), np.full(40, 0.7)):
        model, trace = gmm.select_model(obs, k_max=5)
        assert model.k == 1 and [row["k"] for row in trace] == [1]
        assert np.all(model.variances >= gmm.VAR_FLOOR)
        _assert_stop_rule(model, trace, 5, obs)
        with pytest.raises(UsageError, match="cannot fit 2 components to 1 distinct"):
            gmm.fit_em(obs, 2)


def test_repeated_values_do_not_tie_the_start():
    # 80 observations on one value, 20 on another.  Quantiles of the raw
    # values would start both K=2 means on the first; quantiles of the two
    # distinct values start one on each, and K=2 lowers BIC.
    obs = np.log1p(np.array([0.2] * 80 + [3.0] * 20))
    model, trace = gmm.select_model(obs, k_max=5)
    assert [row["k"] for row in trace] == [1, 2] and model.k == 2
    assert model.means == pytest.approx(np.log1p([0.2, 3.0]), abs=1e-6)
    assert round(trace[1]["bic"], 2) == -1074.66
    _assert_stop_rule(model, trace, 5, obs)


def test_distinct_values_cap_the_order():
    # three distinct values: each order up to 3 lowers BIC, so the cap ends
    # the search before k_max does, and no fit of 4 components exists
    obs = np.array([0.1, 0.5, 0.5, 2.0, 2.0, 2.0] * 5)
    model, trace = gmm.select_model(obs, k_max=5)
    assert [row["k"] for row in trace] == [1, 2, 3] and model.k == 3
    _assert_stop_rule(model, trace, 5, obs)
    with pytest.raises(UsageError, match="cannot fit 4 components to 3 distinct"):
        gmm.fit_em(obs, 4)


def test_variance_floor_binds_on_point_clusters():
    obs = np.concatenate([np.full(50, 0.25), np.full(50, 3.0)])
    model = gmm.fit_em(obs, 2)
    assert np.all(model.variances >= gmm.VAR_FLOOR)
    assert model.means == pytest.approx([0.25, 3.0], abs=1e-6)
    assert model.weights == pytest.approx([0.5, 0.5], abs=1e-9)


def test_fit_errors():
    with pytest.raises(UsageError, match="cannot fit 2 components to 1 distinct"):
        gmm.fit_em(np.array([1.0]), 2)
    with pytest.raises(UsageError, match="observations must be finite"):
        gmm.fit_em(np.array([1.0, np.nan, 2.0]), 1)
    for bad, message in ((np.array([]), "cannot select a mixture on an empty sample"),
                         (np.array([0.5, np.nan]), "observations must be finite"),
                         (np.array([np.inf, 1.0]), "observations must be finite")):
        with pytest.raises(UsageError, match=message):
            gmm.select_model(bad, k_max=2)
    with pytest.raises(UsageError, match="component count must be >= 1, got 0"):
        gmm.fit_em(np.array([1.0, 2.0]), 0)
    with pytest.raises(UsageError, match="k_max must be >= 1, got 0"):
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


# -- oracle: a row-major textbook EM, independent of the shipped loop -------

def _reference_rows(obs, weights, means, variances):
    """Per-point log-likelihoods and the (n, K) log(weight * density) matrix."""
    diff = obs[:, None] - means[None, :]
    lp = (np.log(np.maximum(weights, 1e-300))[None, :]
          - 0.5 * np.log(2.0 * np.pi * variances)[None, :]
          - 0.5 * diff * diff / variances[None, :])
    mx = lp.max(axis=1)
    return mx + np.log(np.exp(lp - mx[:, None]).sum(axis=1)), lp


def _reference_em(obs, weights, means, variances, target=-math.inf):
    """Row-major (n, K) EM with boolean-indexed M-step updates, under the
    limits gmm.MAX_ITER and gmm.TOL and the abandonment rule of
    gmm.AITKEN_START and gmm.AITKEN_MARGIN; returns what gmm._em returns."""
    history = []
    converged = False
    for _ in range(gmm.MAX_ITER):
        rows, lp = _reference_rows(obs, weights, means, variances)
        history.append(float(rows.sum()))
        if len(history) >= 2 and abs(history[-1] - history[-2]) < gmm.TOL:
            converged = True
            break
        if len(history) > gmm.AITKEN_START:
            # Aitken's delta-squared limit of the last three log-likelihoods
            d_now, d_last = history[-1] - history[-2], history[-2] - history[-3]
            if 0 < d_now < d_last and \
                    history[-1] + d_now ** 2 / (d_last - d_now) + gmm.AITKEN_MARGIN < target:
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
    return weights, means, variances, converged, history


def _reference_fit(obs, k, target=-math.inf):
    """fit_em(obs, k, target) by the reference loop: means start on the
    (j - 0.5)/K quantiles of the distinct values, with equal weights and the
    floored overall variance, and the components come back sorted by mean."""
    distinct = np.unique(obs)
    weights, means, variances, converged, history = _reference_em(
        obs, np.full(k, 1.0 / k), np.quantile(distinct, (np.arange(k) + 0.5) / k),
        np.full(k, max(float(obs.var()), gmm.VAR_FLOOR)), target)
    order = np.argsort(means, kind="stable")
    return gmm.GmmModel(weights[order], means[order], variances[order], history[-1],
                        len(history) - 1, converged, history)


def _reference_fits(obs, k_max):
    """_reference_fit of every K <= min(k_max, distinct observations).  The
    orders of the reference's own forward BIC search get the log-likelihood
    that would lower its best BIC as their target; the orders past the first
    one that does not lower it get none."""
    n = obs.shape[0]
    fits, best_bic, searching = [], math.inf, True
    for k in range(1, min(k_max, np.unique(obs).shape[0]) + 1):
        penalty = (3 * k - 1) * math.log(n)
        fits.append(_reference_fit(obs, k, (penalty - best_bic) / 2 if searching else -math.inf))
        bic = -2.0 * fits[-1].log_likelihood + penalty
        searching = searching and bic < best_bic
        best_bic = min(best_bic, bic)
    return fits


def _assert_same_em(got, want):
    """Two (weights, means, variances, converged, history) results agree: the
    same evaluation count and stop, the trace to rel=1e-9, parameters to 1e-7."""
    *params, converged, history = got
    *ref_params, ref_converged, ref_history = want
    assert (len(history), converged) == (len(ref_history), ref_converged)
    assert history == pytest.approx(ref_history, rel=1e-9)
    for name, a, b in zip(("weights", "means", "variances"), params, ref_params):
        np.testing.assert_allclose(a, b, rtol=1e-7, err_msg=name)


def _fields(model):
    return (model.weights, model.means, model.variances, model.converged, model.ll_trace)


def _select_fitting_every_order(monkeypatch, obs, k_max, untargeted=None):
    """select_model(obs, k_max), and a fit of every K <= min(k_max, distinct
    observations) in K order: the fits select_model made, then fit_em of
    each order its search stopped short of, taken from untargeted (fit_em
    of K = 1..k_max) when given."""
    fits = []
    fit_em = gmm.fit_em

    def recorder(*args, **kwargs):
        fits.append(fit_em(*args, **kwargs))
        return fits[-1]

    with monkeypatch.context() as m:
        m.setattr(gmm, "fit_em", recorder)
        model, trace = gmm.select_model(obs, k_max)
        # select_model calls fit_em once per order it fits, in K order
        assert [f.k for f in fits] == [row["k"] for row in trace]
        for k in range(len(fits) + 1, min(k_max, np.unique(obs).shape[0]) + 1):
            fits.append(untargeted[k - 1] if untargeted else fit_em(obs, k))
    return (model, trace), fits


def _assert_matches_reference(monkeypatch, obs, k_max, shipped=None):
    """select_model(obs, k_max) and fit_em of every order (or their recorded
    results) agree with the reference loop; returns the trace and the fits."""
    (model, trace), fits = shipped or _select_fitting_every_order(monkeypatch, obs, k_max)
    refs = _reference_fits(obs, k_max)
    # every order up to the cap, whether the search reached it or not
    assert [f.k for f in fits] == [r.k for r in refs]
    for fit, ref in zip(fits, refs):
        _assert_same_em(_fields(fit), _fields(ref))
        assert fit.log_likelihood == pytest.approx(ref.log_likelihood, rel=1e-9)
        assert fit.n_iter == ref.n_iter
    # the same search over the reference fits stops at, and keeps, the same orders
    with monkeypatch.context() as m:
        m.setattr(gmm, "fit_em", lambda obs, k, target: refs[k - 1])
        _, ref_trace = gmm.select_model(obs, k_max)
    assert [(row["k"], row["selected"]) for row in trace] == \
        [(row["k"], row["selected"]) for row in ref_trace]
    _assert_stop_rule(model, trace, k_max, obs)
    rows, lp = _reference_rows(obs, model.weights, model.means, model.variances)
    np.testing.assert_allclose(gmm.posteriors(model, obs), np.exp(lp - rows[:, None]),
                               atol=1e-12)
    return trace, fits


def test_em_matches_row_major_reference(monkeypatch, seeded_fits):
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for obs, select, fits, _ in seeded_fits:
            _assert_matches_reference(monkeypatch, obs, 5, (select, fits))
        # all observations identical: only K=1 is fit
        trace, fits = _assert_matches_reference(monkeypatch, np.full(40, 0.7), 5)
        assert [row["k"] for row in trace] == [1] and len(fits) == 1
        # fewer distinct observations than k_max: only K <= that count is fit
        for obs in (np.array([0.4]), np.array([0.4, 0.9]), np.array([0.1, 0.5, 2.0]),
                    np.log1p(np.array([0.2] * 80 + [3.0] * 20))):
            _assert_matches_reference(monkeypatch, obs, 5)
        # a starved component is masked out of every pass's M-step, beside
        # two live ones whose sums run over 700 points
        rng = np.random.default_rng(4)
        obs = np.concatenate([rng.normal(0.0, 1.0, 500), rng.normal(3.0, 0.5, 200)])
        start = (np.full(3, 1 / 3), np.array([0.0, 3.0, 60.0]), np.ones(3))
        _assert_same_em(gmm._em(obs, *start), _reference_em(obs, *start))


def _exhaustive_trace(obs, fits):
    """The trace of a search that fits every order in fits and keeps the
    lowest BIC, ties to fewer components: select_model before its stop rule."""
    n = obs.shape[0]
    rows = [{"k": fit.k, "log_likelihood": fit.log_likelihood,
             "bic": -2.0 * fit.log_likelihood + (3 * fit.k - 1) * math.log(n),
             "n_iter": fit.n_iter, "converged": fit.converged,
             "weights": fit.weights.tolist(), "means": fit.means.tolist(),
             "variances": fit.variances.tolist()}
            for fit in fits]
    best = min(rows, key=lambda row: row["bic"])
    for row in rows:
        row["selected"] = row is best
    return rows


def test_stop_rule_trace_is_the_exhaustive_trace_cut_short(monkeypatch, seeded_fits):
    def unselected(rows):
        return [{key: v for key, v in row.items() if key != "selected"} for row in rows]

    differs, departs, abandoned = [], [], 0
    for i, (obs, (model, trace), fits, untargeted) in enumerate(seeded_fits):
        full = _exhaustive_trace(obs, untargeted)
        # the stop rule alone: the same search over the untargeted fits
        with monkeypatch.context() as m:
            m.setattr(gmm, "fit_em", lambda obs, k, target: untargeted[k - 1])
            plain, plain_trace = gmm.select_model(obs, 5)
        assert unselected(plain_trace) == unselected(full[:len(plain_trace)]), i
        _assert_stop_rule(plain, plain_trace, 5, obs)
        if next(row["k"] for row in full if row["selected"]) != plain.k:
            differs.append(i)
        # only the order that ends the search may be abandoned, and then it is
        # its untargeted fit cut short
        last = fits[len(trace) - 1]
        cut = not last.converged and last.n_iter < gmm.MAX_ITER
        if cut:
            assert last.ll_trace == untargeted[last.k - 1].ll_trace[:last.n_iter + 1], i
            abandoned += 1
        kept = len(trace) - cut
        assert unselected(trace[:kept]) == unselected(full[:kept]), i
        assert model is fits[model.k - 1]
        _assert_stop_rule(model, trace, 5, obs)
        if model.k != plain.k:
            # a misprojection: the abandoned order's untargeted fit, still
            # unconverged at MAX_ITER, lowers the best BIC of the orders before it
            assert cut and not untargeted[last.k - 1].converged, i
            assert full[last.k - 1]["bic"] < min(row["bic"] for row in trace[:-1]), i
            departs.append(i)
    # on these 100 inputs the stop rule keeps the order an exhaustive search keeps
    assert differs == []
    # but Aitken's projection assumes geometrically shrinking gains: on these
    # three the abandoned order is creeping when the rule acts, then climbs
    # past its target before MAX_ITER, so the search keeps a smaller order
    assert departs == [3, 15, 83] and abandoned > len(departs)
    # but BIC is not unimodal in K on seeded input 174 (its values do not
    # repeat): K=3 scores above K=2, which stops the search, and K=4 below both
    from test_acceptance import _seeded_em_input
    obs = _seeded_em_input(174)
    model, trace = gmm.select_model(obs, k_max=5)
    full = _exhaustive_trace(obs, [gmm.fit_em(obs, k) for k in range(1, 6)])
    assert unselected(trace) == unselected(full[:len(trace)])
    assert [round(row["bic"], 2) for row in full] == [344.9, 299.35, 300.4, 288.01, 301.01]
    assert model.k == 2 and next(row["k"] for row in full if row["selected"]) == 4


def test_abandoned_fits_end_the_search_unselected(run_cache):
    # every treated run directory in the session run cache: both default
    # grids and C6/C7's held-out seeds
    from test_runner import _csv_rows
    from test_scheduler import _REPLAYED
    abandoned = 0
    for task, rate, seed in _REPLAYED:
        _, run_dir = run_cache.get(task=task, seed=seed, noise_rate=rate, mantra=True)
        epochs = {}
        for row in _csv_rows(run_dir / "gmm_trace.csv"):
            epochs.setdefault(row["epoch"], []).append(row)
        for epoch, rows in epochs.items():
            for i, row in enumerate(rows):
                if row["converged"] == "1" or int(row["n_iter"]) == gmm.MAX_ITER:
                    continue
                where = f"{run_dir.name}: epoch {epoch}, K={row['k']}"
                # its target was the log-likelihood that would lower the best
                # earlier BIC, and it fell more than a nat short
                best = min((float(r["bic"]) for r in rows[:i]), default=math.inf)
                assert float(row["bic"]) > best + 2, where
                assert row is rows[-1] and row["selected"] == "0", where
                abandoned += 1
    assert abandoned > 0


def test_starved_component_keeps_its_parameters():
    obs = np.random.default_rng(4).normal(0.0, 1.0, 200)
    start = (np.array([0.5, 0.5]), np.array([0.0, 50.0]), np.array([1.0, 1.0]))
    # the far component gets exactly zero responsibility from the first E-step
    with np.errstate(divide="raise", invalid="raise"):
        weights, means, variances, converged, history = gmm._em(obs, *start)
    # the M-step writes in place, into copies of the start arrays
    assert [a.tolist() for a in start] == [[0.5, 0.5], [0.0, 50.0], [1.0, 1.0]]
    assert means[1] == 50.0 and variances[1] == 1.0
    assert weights[1] <= 1e-12
    assert np.all(np.isfinite(means)) and np.all(np.isfinite(variances))
    assert math.isfinite(history[-1])
    *ref, ref_converged, ref_history = _reference_em(obs, *start)
    assert (len(history), converged) == (len(ref_history), ref_converged)
    np.testing.assert_allclose(means, ref[1], rtol=1e-12)
    np.testing.assert_allclose(variances, ref[2], rtol=1e-9)


def test_variances_survive_a_large_offset():
    # spread ~1e-2 around 1e4: E[x^2] - mu^2 would keep only about 4 digits here
    rng = np.random.default_rng(6)
    obs = 1e4 + np.concatenate([rng.normal(0.0, 1e-2, 300), rng.normal(0.06, 1e-2, 200)])
    for k in (1, 2):
        model, ref = gmm.fit_em(obs, k), _reference_fit(obs, k)
        assert model.converged and model.n_iter == ref.n_iter
        np.testing.assert_allclose(model.variances, ref.variances, rtol=1e-9)
