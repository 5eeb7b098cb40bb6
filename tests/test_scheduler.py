"""Drop scheduler: warmup, persistence, cap, and reset behavior on scripted losses."""

import inspect
from dataclasses import FrozenInstanceError, dataclass, field, fields, replace

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


def _bimodal_losses(n, noisy, low=0.2, high=3.0):
    return [high if i in noisy else low for i in range(n)]


def _active(state):
    return active_samples(state).tolist()


def _dropped(state):
    """{train position: epoch dropped at} of the dropped samples."""
    hit = np.flatnonzero(state.dropped_at)
    return dict(zip(hit.tolist(), state.dropped_at[hit].tolist()))


def _scripted_losses(n, noisy, low=0.2, high=3.0):
    # deterministic jitter keeps each mode tight but avoids exactly constant
    # blobs, whose coincident loss quantiles leave EM stuck at one component
    return [high * (1 + 0.01 * (i % 5 - 2)) if i in noisy
            else low * (1 + 0.02 * (i % 7 - 3)) for i in range(n)]


def test_policy_validation():
    bad = [dict(warmup=-1), dict(tau=0.5), dict(tau=1.2), dict(persistence=0),
           dict(max_drop_frac=-0.1), dict(max_drop_frac=1.5), dict(k_max=0),
           # a bare policy checks the types of its own settings
           dict(k_max=2.0), dict(persistence=1.5), dict(warmup=True)]
    for overrides in bad:
        with pytest.raises(ConfigError):
            _policy(**overrides)
    # checked once, when built: evaluate_epoch does not check it again
    with pytest.raises(ConfigError):
        DropPolicy(warmup=5, persistence=0)
    # keyword-only, so a subclass can add fields without reordering these
    with pytest.raises(TypeError):
        DropPolicy(5)
    assert DropPolicy(warmup=5) == _policy()
    # frozen: a built policy keeps the settings that were checked, and a
    # variant is checked like a built policy
    policy = _policy()
    for name, value in (("tau", 0.2), ("persistence", 0)):
        with pytest.raises(FrozenInstanceError):
            setattr(policy, name, value)
    assert policy == _policy()
    assert replace(policy, tau=0.9) == _policy(tau=0.9)
    with pytest.raises(ConfigError):
        replace(policy, tau=0.2, persistence=0)


def test_state_construction():
    state = DropState.for_size(5)
    assert _active(state) == [0, 1, 2, 3, 4]
    state.counters[0] = 1                             # the arrays do not alias
    assert not state.dropped_at.any() and not state.posterior.any()
    assert drop_cap(_policy(), state) == 1            # floor(0.3 * 5)
    assert drop_cap(_policy(max_drop_frac=0.3), DropState.for_size(7)) == 2
    assert _active(DropState.for_size(0)) == []
    # the state and its calls know train positions only
    assert [f.name for f in fields(DropState)] == [
        "counters", "dropped_at", "posterior", "last_epoch"]
    assert list(inspect.signature(evaluate_epoch).parameters) == [
        "state", "policy", "epoch", "losses"]
    assert list(inspect.signature(active_samples).parameters) == ["state"]


def test_warmup_epochs_never_flag():
    state = DropState.for_size(20)
    policy = _policy(warmup=3)
    noisy = set(range(15, 20))
    for epoch in (1, 2, 3):
        d = evaluate_epoch(state, policy, epoch, _bimodal_losses(20, noisy))
        assert d.in_warmup and d.selected_k == 0
        assert d.flagged == [] and d.dropped == [] and d.gmm_trace == []
    assert not state.counters.any() and not state.dropped_at.any()
    assert _dropped(state) == {}


def test_scripted_bimodal_run_drops_exactly_the_noisy_block():
    # 100 samples, 90 low / 10 high, default policy: flags at epoch 6,
    # persistence satisfied at epoch 7, exactly the 10 noisy positions dropped
    n = 100
    noisy = set(range(90, 100))
    state = DropState.for_size(n)
    policy = _policy()
    for epoch in (1, 2, 3, 4, 5):
        evaluate_epoch(state, policy, epoch, [0.5] * n)

    d6 = evaluate_epoch(state, policy, 6, _scripted_losses(n, noisy))
    assert not d6.in_warmup and d6.selected_k >= 2
    assert sorted(d6.flagged) == sorted(noisy)
    assert d6.dropped == []                      # persistence not yet met

    d7 = evaluate_epoch(state, policy, 7, _scripted_losses(n, noisy))
    assert [pos for pos, _ in d7.dropped] == sorted(noisy)
    for pos, post in d7.dropped:
        assert post > 1.0 - 1e-9    # well-separated modes: posterior saturates
    assert _active(state) == list(range(90))
    assert _dropped(state) == {pos: 7 for pos in noisy}

    # next epoch must be called with the shrunken active set's losses
    with pytest.raises(UsageError):
        evaluate_epoch(state, policy, 8, _scripted_losses(n, noisy))
    d8 = evaluate_epoch(state, policy, 8, [0.5] * 90)
    assert d8.n_active == 90


def test_single_component_epoch_resets_persistence():
    n = 40
    noisy = set(range(36, 40))
    state = DropState.for_size(n)
    policy = _policy(warmup=1)
    evaluate_epoch(state, policy, 1, [0.4] * n)

    evaluate_epoch(state, policy, 2, _scripted_losses(n, noisy))
    assert state.counters.max() == 1

    d3 = evaluate_epoch(state, policy, 3, [0.4] * n)   # unimodal epoch
    assert d3.selected_k == 1
    assert not state.counters.any()                              # reset

    evaluate_epoch(state, policy, 4, _scripted_losses(n, noisy))
    d5 = evaluate_epoch(state, policy, 5, _scripted_losses(n, noisy))
    assert [pos for pos, _ in d5.dropped] == sorted(noisy)       # fresh streak


def test_cap_binds_and_ties_fall_to_earlier_positions():
    # 20 of 100 noisy at one shared loss level but cap is 10: equal posteriors,
    # so the 10 earliest noisy train positions win the budget
    n = 100
    noisy = set(range(80, 100))
    losses = np.array(_bimodal_losses(n, noisy))
    state = DropState.for_size(n)
    policy = _policy(warmup=0, max_drop_frac=0.1)
    evaluate_epoch(state, policy, 1, losses)
    d2 = evaluate_epoch(state, policy, 2, losses)
    assert len(d2.flagged) == 20 and len({post for _, post in d2.dropped}) == 1
    assert [pos for pos, _ in d2.dropped] == list(range(80, 90))
    assert len(_dropped(state)) == drop_cap(policy, state) == 10

    # budget exhausted: the rest, still flagged (on jittered losses, which a
    # second component fits), never drops
    jittered = np.array(_scripted_losses(n, noisy))[active_samples(state)]
    d3 = evaluate_epoch(state, policy, 3, jittered)
    assert d3.flagged == list(range(90, 100)) and d3.dropped == []
    assert len(_dropped(state)) == 10


@pytest.mark.parametrize("cap, dropped", [
    (1, [(20, 0.95)]),
    # the budget equals the candidate count: both drop, listed in train order
    (2, [(10, 0.80), (20, 0.95)]),
], ids=["cap1", "cap2"])
def test_cap_prefers_higher_posterior_before_id(monkeypatch, cap, dropped):
    # real fits on well-separated losses saturate every outlier posterior at
    # 1.0, which only ever exercises the position tiebreak; script the mixture
    # so the two flagged positions carry distinct posteriors and the ordering
    # shows: the posterior outranks train order
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

    state = DropState.for_size(n)
    policy = _policy(warmup=0, max_drop_frac=cap / n, persistence=1, k_max=2)
    assert drop_cap(policy, state) == cap
    d = evaluate_epoch(state, policy, 1, [0.2] * n)
    assert d.flagged == [10, 20]
    assert d.dropped == dropped
    assert _dropped(state) == {pos: 1 for pos, _ in dropped}
    hit = [pos for pos, _ in dropped]
    assert state.posterior[hit].tolist() == [p for _, p in dropped]
    assert not np.delete(state.posterior, hit).any()


def test_zero_cap_disables_dropping():
    n = 10
    noisy = {8, 9}
    state = DropState.for_size(n)
    policy = _policy(warmup=0, max_drop_frac=0.0, persistence=1)
    for epoch in (1, 2, 3):
        d = evaluate_epoch(state, policy, epoch, _bimodal_losses(n, noisy))
        assert d.cap == 0 and d.dropped == []
    assert _dropped(state) == {}


def test_sequencing_and_input_validation():
    state = DropState.for_size(4)
    policy = _policy(warmup=0)
    with pytest.raises(SequencingError):
        evaluate_epoch(state, policy, 2, [0.1] * 4)
    evaluate_epoch(state, policy, 1, [0.1] * 4)
    for wrong in ([0.1] * 3, [0.1] * 5):           # one loss per active sample
        with pytest.raises(UsageError):
            evaluate_epoch(state, policy, 2, wrong)
    assert state.last_epoch == 1                   # a rejected call consumes no epoch
    assert evaluate_epoch(state, policy, 2, [0.1] * 4).n_active == 4


def test_active_samples_preserves_order():
    state = DropState.for_size(3)
    state.dropped_at[1] = 5                       # position 1 dropped at epoch 5
    assert _active(state) == [0, 2] and _dropped(state) == {1: 5}
    assert np.array([30, 10, 20])[active_samples(state)].tolist() == [30, 20]


@dataclass
class _RefState:
    n: int
    counters: dict = field(default_factory=dict)     # position -> consecutive flags
    dropped: dict = field(default_factory=dict)      # position -> epoch dropped at
    last_epoch: int = 0

    def active(self):
        return [pos for pos in range(self.n) if pos not in self.dropped]


def _reference_evaluate_epoch(state, policy, epoch, losses):
    """The per-position dict scheduler, kept as the oracle for the array state."""
    active = state.active()
    state.last_epoch = epoch
    cap = int(np.floor(policy.max_drop_frac * state.n))
    decision = EpochDecision(epoch=epoch, in_warmup=epoch <= policy.warmup,
                             selected_k=0, flagged=[], dropped=[], gmm_trace=[],
                             cap=cap, n_active=len(active))
    if decision.in_warmup or not active:
        return decision
    features = np.log1p(np.asarray(losses, dtype=np.float64))
    model, trace = gmm.select_model(features, k_max=policy.k_max)
    decision.gmm_trace = trace
    decision.selected_k = model.k
    if model.k == 1:
        state.counters.clear()
        return decision

    post = gmm.posteriors(model, features)[:, -1]
    posterior_at = {}
    for pos, p in zip(active, post):
        posterior_at[pos] = float(p)
        if p > policy.tau:
            state.counters[pos] = state.counters.get(pos, 0) + 1
            decision.flagged.append(pos)
        else:
            state.counters.pop(pos, None)
    candidates = [pos for pos in active
                  if state.counters.get(pos, 0) >= policy.persistence]
    budget = cap - len(state.dropped)
    if budget < len(candidates):
        candidates.sort(key=lambda pos: (-posterior_at[pos], pos))
        candidates = candidates[:max(budget, 0)]
    for pos in sorted(candidates):
        state.dropped[pos] = epoch
        state.counters.pop(pos, None)
        decision.dropped.append((pos, posterior_at[pos]))
    return decision


def _loss_streams(kind, seed, blob, n=80, epochs=12):
    """Per-epoch losses of n samples in train order.

    "mixed": a noisy quarter sits ~2 above gamma-distributed clean losses,
    and some clean samples join it on odd epochs only, so their streaks
    break; `blob` epochs from epoch 6 on are one tight blob each, so a blob
    epoch resets every streak.  "ties": two exact
    loss levels, so every flagged posterior saturates to the same value and
    the position tiebreak decides the cap.
    """
    rng = np.random.default_rng([seed, 77])
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
    return streams


def _run_against_reference(policy, kind, seed, blob=1):
    streams = _loss_streams(kind, seed, blob)
    state = DropState.for_size(len(streams[0]))
    ref = _RefState(len(streams[0]))
    decisions = []
    for epoch, losses in enumerate(streams, start=1):
        rows = active_samples(state)
        assert rows.tolist() == ref.active(), f"epoch {epoch}"
        got = evaluate_epoch(state, policy, epoch, losses[rows])
        want = _reference_evaluate_epoch(ref, policy, epoch, losses[rows])
        assert got == want, f"epoch {epoch}"
        assert _dropped(state) == ref.dropped
        decisions.append(got)
    hit = np.flatnonzero(state.dropped_at)
    assert not np.delete(state.posterior, hit).any()
    assert dict(zip(hit.tolist(), state.posterior[hit].tolist())) \
        == {pos: post for d in decisions for pos, post in d.dropped}
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
    dropped = [pos for d in decisions for pos, _ in d.dropped]
    assert len(dropped) == decisions[0].cap
    binding = decisions[[bool(d.dropped) for d in decisions].index(True)]
    assert len(binding.flagged) > len(binding.dropped)           # the cap cut
    assert len({p for d in decisions for _, p in d.dropped}) == 1     # tied
    assert dropped == binding.flagged[:len(dropped)]             # earliest positions
