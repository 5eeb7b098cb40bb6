"""Drop scheduler: warmup, persistence, cap, and reset behavior on scripted losses."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from mantra import gmm, scheduler
from mantra.errors import ConfigError, SequencingError, UsageError
from mantra.scheduler import (DropPolicy, DropState, EpochDecision, active_samples,
                              drop_cap, evaluate_epoch)


def _policy(**overrides):
    base = dict(warmup=5, tau=0.7, persistence=2, max_drop_frac=0.3, k_max=3)
    base.update(overrides)
    return DropPolicy(**base)


def _bimodal_losses(n, noisy_ids, low=0.2, high=3.0):
    return [high if i in noisy_ids else low for i in range(n)]


def _active_ids(state):
    return active_samples(state, state.initial_ids).tolist()


def _dropped(state):
    """{id: epoch dropped at} of the dropped samples."""
    hit = state.dropped_at > 0
    return dict(zip(state.initial_ids[hit].tolist(), state.dropped_at[hit].tolist()))


def _scripted_losses(n, noisy_ids, low=0.2, high=3.0):
    # deterministic jitter keeps each mode tight but avoids exactly constant
    # blobs, whose coincident loss quantiles leave EM stuck at one component
    return [high * (1 + 0.01 * (i % 5 - 2)) if i in noisy_ids
            else low * (1 + 0.02 * (i % 7 - 3)) for i in range(n)]


def test_policy_validation():
    _policy().validate()
    bad = [dict(warmup=-1), dict(tau=0.5), dict(tau=1.2), dict(persistence=0),
           dict(max_drop_frac=-0.1), dict(max_drop_frac=1.5), dict(k_max=0)]
    for overrides in bad:
        with pytest.raises(ConfigError):
            _policy(**overrides).validate()
    # keyword-only, so a subclass can add fields without reordering these
    with pytest.raises(TypeError):
        DropPolicy(5)
    assert DropPolicy(warmup=5) == _policy()


def test_state_construction():
    with pytest.raises(UsageError):
        DropState.for_ids([1, 2, 2])
    state = DropState.for_ids(range(5))
    assert _active_ids(state) == [0, 1, 2, 3, 4]
    assert drop_cap(_policy(), state) == 1            # floor(0.3 * 5)
    assert drop_cap(_policy(max_drop_frac=0.3), DropState.for_ids(range(7))) == 2


def test_warmup_epochs_never_flag():
    state = DropState.for_ids(range(20))
    policy = _policy(warmup=3)
    noisy = set(range(15, 20))
    for epoch in (1, 2, 3):
        d = evaluate_epoch(state, policy, epoch, range(20), _bimodal_losses(20, noisy))
        assert d.in_warmup and d.selected_k == 0
        assert d.flagged == [] and d.dropped == [] and d.gmm_trace == []
    assert not state.counters.any() and not state.dropped_at.any()
    assert _dropped(state) == {}


def test_scripted_bimodal_run_drops_exactly_the_noisy_block():
    # 100 samples, 90 low / 10 high, default policy: flags at epoch 6,
    # persistence satisfied at epoch 7, exactly the 10 noisy ids dropped
    n = 100
    noisy = set(range(90, 100))
    state = DropState.for_ids(range(n))
    policy = _policy()
    for epoch in (1, 2, 3, 4, 5):
        evaluate_epoch(state, policy, epoch, range(n), [0.5] * n)

    d6 = evaluate_epoch(state, policy, 6, range(n), _scripted_losses(n, noisy))
    assert not d6.in_warmup and d6.selected_k >= 2
    assert sorted(d6.flagged) == sorted(noisy)
    assert d6.dropped == []                      # persistence not yet met

    d7 = evaluate_epoch(state, policy, 7, range(n), _scripted_losses(n, noisy))
    assert [sid for sid, _ in d7.dropped] == sorted(noisy)
    for sid, post in d7.dropped:
        assert post > 1.0 - 1e-9    # well-separated modes: posterior saturates
    assert _active_ids(state) == list(range(90))
    assert _dropped(state) == {sid: 7 for sid in noisy}

    # next epoch must be called with the shrunken active set
    with pytest.raises(UsageError):
        evaluate_epoch(state, policy, 8, range(n), _scripted_losses(n, noisy))
    d8 = evaluate_epoch(state, policy, 8, range(90), [0.5] * 90)
    assert d8.n_active == 90


def test_single_component_epoch_resets_persistence():
    n = 40
    noisy = set(range(36, 40))
    state = DropState.for_ids(range(n))
    policy = _policy(warmup=1)
    evaluate_epoch(state, policy, 1, range(n), [0.4] * n)

    evaluate_epoch(state, policy, 2, range(n), _scripted_losses(n, noisy))
    assert state.counters.max() == 1

    d3 = evaluate_epoch(state, policy, 3, range(n), [0.4] * n)   # unimodal epoch
    assert d3.selected_k == 1
    assert not state.counters.any()                              # reset

    evaluate_epoch(state, policy, 4, range(n), _scripted_losses(n, noisy))
    d5 = evaluate_epoch(state, policy, 5, range(n), _scripted_losses(n, noisy))
    assert [sid for sid, _ in d5.dropped] == sorted(noisy)       # fresh streak


def test_cap_binds_and_ties_fall_to_smaller_ids():
    # 20 of 100 noisy at one shared loss level but cap is 10: equal posteriors,
    # so the 10 smallest noisy ids win the budget
    n = 100
    noisy = set(range(80, 100))
    state = DropState.for_ids(range(n))
    policy = _policy(warmup=0, max_drop_frac=0.1)
    evaluate_epoch(state, policy, 1, range(n), _bimodal_losses(n, noisy))
    d2 = evaluate_epoch(state, policy, 2, range(n), _bimodal_losses(n, noisy))
    assert [sid for sid, _ in d2.dropped] == list(range(80, 90))
    assert len(_dropped(state)) == drop_cap(policy, state) == 10

    # budget exhausted: the still-flagged rest never drops
    active = _active_ids(state)
    d3 = evaluate_epoch(state, policy, 3, active,
                        _bimodal_losses(n, noisy)[:80] + [3.0] * 10)
    assert d3.dropped == [] and len(_dropped(state)) == 10


@pytest.mark.parametrize("cap, dropped", [
    (1, [(20, 0.95)]),
    # the budget equals the candidate count: both drop, listed in id order
    (2, [(10, 0.80), (20, 0.95)]),
], ids=["cap1", "cap2"])
def test_cap_prefers_higher_posterior_before_id(monkeypatch, cap, dropped):
    # real fits on well-separated losses saturate every outlier posterior at
    # 1.0, which only ever exercises the id tiebreak; script the mixture so
    # the two flagged ids carry distinct posteriors and the ordering shows
    n = 30
    scripted = np.full(n, 0.01)
    scripted[10] = 0.80
    scripted[20] = 0.95

    class _Fake:
        k = 2

    monkeypatch.setattr(scheduler.gmm, "select_model",
                        lambda features, k_max: (_Fake(), []))
    monkeypatch.setattr(scheduler.gmm, "posteriors",
                        lambda model, features: np.column_stack(
                            [1.0 - scripted, scripted]))

    state = DropState.for_ids(range(n))
    policy = _policy(warmup=0, max_drop_frac=cap / n, persistence=1, k_max=2)
    assert drop_cap(policy, state) == cap
    d = evaluate_epoch(state, policy, 1, range(n), [0.2] * n)
    assert d.flagged == [10, 20]
    assert d.dropped == dropped
    assert _dropped(state) == {sid: 1 for sid, _ in dropped}
    hit = [sid for sid, _ in dropped]
    assert state.posterior[hit].tolist() == [p for _, p in dropped]
    assert not np.delete(state.posterior, hit).any()


def test_zero_cap_disables_dropping():
    n = 10
    noisy = {8, 9}
    state = DropState.for_ids(range(n))
    policy = _policy(warmup=0, max_drop_frac=0.0, persistence=1)
    for epoch in (1, 2, 3):
        d = evaluate_epoch(state, policy, epoch, range(n), _bimodal_losses(n, noisy))
        assert d.cap == 0 and d.dropped == []
    assert _dropped(state) == {}


def test_sequencing_and_input_validation():
    state = DropState.for_ids(range(4))
    policy = _policy(warmup=0)
    with pytest.raises(SequencingError):
        evaluate_epoch(state, policy, 2, range(4), [0.1] * 4)
    evaluate_epoch(state, policy, 1, range(4), [0.1] * 4)
    with pytest.raises(UsageError):
        evaluate_epoch(state, policy, 2, range(4), [0.1] * 3)
    with pytest.raises(UsageError):
        evaluate_epoch(state, policy, 2, [0, 1, 2, 9], [0.1] * 4)


def test_active_samples_preserves_order():
    state = DropState.for_ids([3, 1, 2])
    state.dropped_at[1] = 5                       # id 1 dropped at epoch 5
    kept = active_samples(state, np.array([3, 1, 2]))
    assert kept.tolist() == [3, 2]
    assert _active_ids(state) == [3, 2] and _dropped(state) == {1: 5}


def test_duplicate_ids_are_rejected():
    # same set as the active ids, but id 1 twice: the mixture would be fit on
    # an extra point and one sample would collect two flags in one epoch
    state = DropState.for_ids(range(4))
    policy = _policy(warmup=0)
    with pytest.raises(UsageError):
        evaluate_epoch(state, policy, 1, [0, 1, 1, 2, 3], [0.1] * 5)
    assert state.last_epoch == 0
    with pytest.raises(UsageError):                # the active set, not in train order
        evaluate_epoch(state, policy, 1, [3, 1, 0, 2], [0.1] * 4)
    assert state.last_epoch == 0
    d = evaluate_epoch(state, policy, 1, [0, 1, 2, 3], [0.1] * 4)
    assert d.n_active == 4


@dataclass
class _RefState:
    initial_ids: tuple
    counters: dict = field(default_factory=dict)     # id -> consecutive flags
    dropped: dict = field(default_factory=dict)      # id -> epoch dropped at
    last_epoch: int = 0


def _reference_evaluate_epoch(state, policy, epoch, sample_ids, losses):
    """The per-id dict scheduler, kept as the oracle for the array state."""
    ids = [int(i) for i in sample_ids]
    state.last_epoch = epoch
    cap = drop_cap(policy, state)
    decision = EpochDecision(epoch=epoch, in_warmup=epoch <= policy.warmup,
                             selected_k=0, flagged=[], dropped=[], gmm_trace=[],
                             cap=cap, n_active=len(ids))
    if decision.in_warmup or not ids:
        return decision
    features = np.log1p(np.asarray(losses, dtype=np.float64))
    model, trace = gmm.select_model(features, k_max=policy.k_max)
    decision.gmm_trace = trace
    decision.selected_k = model.k
    if model.k == 1:
        state.counters.clear()
        return decision

    post = gmm.posteriors(model, features)[:, -1]
    posterior_by_id = {}
    for sid, p in zip(ids, post):
        posterior_by_id[sid] = float(p)
        if p > policy.tau:
            state.counters[sid] = state.counters.get(sid, 0) + 1
            decision.flagged.append(sid)
        else:
            state.counters.pop(sid, None)
    candidates = [sid for sid in ids
                  if state.counters.get(sid, 0) >= policy.persistence]
    budget = cap - len(state.dropped)
    if budget < len(candidates):
        candidates.sort(key=lambda sid: (-posterior_by_id[sid], sid))
        candidates = candidates[:max(budget, 0)]
    for sid in sorted(candidates):
        state.dropped[sid] = epoch
        state.counters.pop(sid, None)
        decision.dropped.append((sid, posterior_by_id[sid]))
    return decision


def _loss_streams(kind, seed, blob, n=80, epochs=12):
    """Scattered ids and per-epoch losses aligned with them.

    "mixed": a noisy quarter sits ~2 above gamma-distributed clean losses,
    and some clean samples join it on odd epochs only, so their streaks
    break; `blob` epochs from epoch 6 on are one tight blob each, so a blob
    epoch resets every streak.  "ties": two exact
    loss levels, so every flagged posterior saturates to the same value and
    the id tiebreak decides the cap.
    """
    rng = np.random.default_rng([seed, 77])
    ids = rng.choice(10 * n, size=n, replace=False)
    noisy = rng.random(n) < 0.25
    flicker = ~noisy & (rng.random(n) < 0.15)
    streams = []
    for epoch in range(1, epochs + 1):
        if kind == "ties":
            losses = np.where(noisy, 3.0, 0.2)
        elif 6 <= epoch < 6 + blob:
            losses = rng.normal(0.5, 0.01, n)
        else:
            high = noisy | (flicker & (epoch % 2 == 1))
            losses = rng.gamma(2.0, 0.1, n) + high * rng.normal(2.0, 0.4, n).clip(0.5)
        streams.append(losses)
    return ids, streams


def _run_against_reference(policy, kind, seed, blob=1):
    ids, streams = _loss_streams(kind, seed, blob)
    state = DropState.for_ids(ids)
    ref = _RefState(tuple(int(i) for i in ids))
    decisions = []
    for epoch, losses in enumerate(streams, start=1):
        rows = active_samples(state, np.arange(len(ids)))      # train order
        got = evaluate_epoch(state, policy, epoch, ids[rows], losses[rows])
        want = _reference_evaluate_epoch(ref, policy, epoch, ids[rows], losses[rows])
        assert got == want, f"epoch {epoch}"
        assert _dropped(state) == ref.dropped
        decisions.append(got)
    hit = state.dropped_at > 0
    assert not state.posterior[~hit].any()
    assert dict(zip(state.initial_ids[hit].tolist(), state.posterior[hit].tolist())) \
        == {sid: post for d in decisions for sid, post in d.dropped}
    return decisions


@pytest.mark.parametrize("blob", [1, 2, 3, 5])
@pytest.mark.parametrize("persistence", [1, 2, 3])
def test_evaluate_epoch_matches_dict_reference(blob, persistence):
    policy = _policy(warmup=2, persistence=persistence)
    decisions = _run_against_reference(policy, "mixed", seed=10 * blob + persistence,
                                       blob=blob)
    post_warmup = [d for d in decisions if not d.in_warmup]
    assert any(prev.flagged and d.selected_k == 1                 # a streak reset
               for prev, d in zip(post_warmup, post_warmup[1:]))
    assert any(d.flagged for d in post_warmup)
    assert any(d.dropped for d in post_warmup)


def test_evaluate_epoch_matches_dict_reference_when_tied_cap_binds():
    policy = _policy(warmup=1, max_drop_frac=0.1, persistence=1)
    decisions = _run_against_reference(policy, "ties", seed=3)
    dropped = [sid for d in decisions for sid, _ in d.dropped]
    assert len(dropped) == decisions[0].cap
    binding = decisions[[bool(d.dropped) for d in decisions].index(True)]
    assert len(binding.flagged) > len(binding.dropped)           # the cap cut
    assert len({p for d in decisions for _, p in d.dropped}) == 1     # tied
