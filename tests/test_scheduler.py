"""Drop scheduler: warmup, persistence, cap, and reset behavior on scripted losses,
and every treated run directory's drops derived again from its files."""

import inspect
import json
from dataclasses import FrozenInstanceError, dataclass, field, fields, replace

import numpy as np
import pytest

from mantra import gmm
from mantra.errors import ConfigError, UsageError
from mantra.scheduler import (DropPolicy, DropState, EpochDecision, active_samples,
                              decide, evaluate_epoch)

from test_runner import _csv_rows


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


def _selected_k(decision):
    """The K an epoch's fit selected, read off its gmm_trace; 0 when nothing was fit."""
    return next((row["k"] for row in decision.gmm_trace if row["selected"]), 0)


def _flagged(state, dropped):
    """The positions over the threshold in the epoch that just dropped `dropped`:
    a live streak, or a drop that ended one."""
    return sorted(np.flatnonzero(state.counters).tolist() + [pos for pos, _ in dropped])


def _model(means):
    """A scripted mixture with equal weights, for decide: no fit behind it."""
    k = len(means)
    return gmm.GmmModel(weights=np.full(k, 1.0 / k), means=np.asarray(means, dtype=float),
                        variances=np.full(k, 0.1), log_likelihood=0.0, n_iter=0,
                        converged=True, ll_trace=[])


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
    # checked once, when built: neither evaluate_epoch nor decide checks it again
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
    assert _active(DropState.for_size(0)) == []
    # the state and its calls know train positions only
    assert [f.name for f in fields(DropState)] == [
        "counters", "dropped_at", "posterior", "last_epoch"]
    assert list(inspect.signature(evaluate_epoch).parameters) == [
        "state", "policy", "epoch", "losses"]
    assert list(inspect.signature(decide).parameters) == [
        "state", "policy", "epoch", "features", "model"]
    assert list(inspect.signature(active_samples).parameters) == ["state"]
    # a decision carries what the run reads: the fits and the drops
    assert [f.name for f in fields(EpochDecision)] == ["gmm_trace", "dropped"]


@pytest.mark.parametrize("n, cap", [(5, 1), (7, 2)])
def test_cap_is_the_floor_of_the_fraction_of_the_split(n, cap):
    # every position sits on the noisy mean, so all flag and tie: the cap
    # floor(0.3 * n) takes the earliest positions, and later epochs add none
    state = DropState.for_size(n)
    policy = _policy(warmup=0, persistence=1)
    model = _model([0.0, 1.0])
    dropped = decide(state, policy, 1, np.ones(n), model)
    assert [pos for pos, _ in dropped] == list(range(cap))
    assert _flagged(state, dropped) == list(range(n))
    assert decide(state, policy, 2, np.ones(n - cap), model) == []
    assert _dropped(state) == dict.fromkeys(range(cap), 1)


def test_warmup_epochs_never_flag():
    state = DropState.for_size(20)
    policy = _policy(warmup=3)
    noisy = set(range(15, 20))
    for epoch in (1, 2, 3):
        d = evaluate_epoch(state, policy, epoch, _bimodal_losses(20, noisy))
        assert d.dropped == [] and d.gmm_trace == [] and _selected_k(d) == 0
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
    assert _selected_k(d6) >= 2
    assert _flagged(state, d6.dropped) == sorted(noisy)
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
    evaluate_epoch(state, policy, 8, [0.5] * 90)
    assert state.last_epoch == 8


def test_single_component_epoch_resets_persistence():
    n = 40
    noisy = set(range(36, 40))
    state = DropState.for_size(n)
    policy = _policy(warmup=1)
    evaluate_epoch(state, policy, 1, [0.4] * n)

    evaluate_epoch(state, policy, 2, _scripted_losses(n, noisy))
    assert state.counters.max() == 1

    d3 = evaluate_epoch(state, policy, 3, [0.4] * n)   # unimodal epoch
    assert _selected_k(d3) == 1
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
    assert len(_flagged(state, d2.dropped)) == 20
    assert len({post for _, post in d2.dropped}) == 1
    assert [pos for pos, _ in d2.dropped] == list(range(80, 90))
    assert len(_dropped(state)) == 10                 # floor(0.1 * 100)

    # budget exhausted: the rest, still flagged (on jittered losses, which a
    # second component fits), never drops
    jittered = np.array(_scripted_losses(n, noisy))[active_samples(state)]
    d3 = evaluate_epoch(state, policy, 3, jittered)
    assert _flagged(state, d3.dropped) == list(range(90, 100)) and d3.dropped == []
    assert len(_dropped(state)) == 10


@pytest.mark.parametrize("cap, dropped", [
    (1, [20]),
    # the budget equals the candidate count: both drop, listed in train order
    (2, [10, 20]),
], ids=["cap1", "cap2"])
def test_cap_prefers_higher_posterior_before_id(cap, dropped):
    # real fits on well-separated losses saturate every outlier posterior at
    # 1.0, which only ever exercises the position tiebreak; a scripted mixture
    # gives the two flagged positions distinct posteriors, so the ordering
    # shows: the posterior outranks train order
    n = 30
    features = np.zeros(n)
    features[10], features[20] = 0.65, 0.8
    model = _model([0.0, 1.0])
    post = gmm.posteriors(model, features)[:, -1]
    assert np.flatnonzero(post > 0.7).tolist() == [10, 20] and post[10] < post[20]

    state = DropState.for_size(n)
    policy = _policy(warmup=0, max_drop_frac=cap / n, persistence=1, k_max=2)
    got = decide(state, policy, 1, features, model)
    assert got == [(pos, post[pos]) for pos in dropped]
    assert _flagged(state, got) == [10, 20]
    assert _dropped(state) == dict.fromkeys(dropped, 1)
    assert state.posterior[dropped].tolist() == post[dropped].tolist()
    assert not np.delete(state.posterior, dropped).any()


def test_zero_cap_disables_dropping():
    n = 10
    noisy = {8, 9}
    state = DropState.for_size(n)
    policy = _policy(warmup=0, max_drop_frac=0.0, persistence=1)
    for epoch in (1, 2, 3):
        d = evaluate_epoch(state, policy, epoch, _bimodal_losses(n, noisy))
        assert d.dropped == [] and _flagged(state, d.dropped) == [8, 9]
    assert _dropped(state) == {}


def test_sequencing_and_input_validation():
    state = DropState.for_size(4)
    policy = _policy(warmup=0)
    with pytest.raises(UsageError, match="expected epoch 1, got 2"):
        evaluate_epoch(state, policy, 2, [0.1] * 4)
    evaluate_epoch(state, policy, 1, [0.1] * 4)
    for wrong in ([0.1] * 3, [0.1] * 5):           # one loss per active sample
        with pytest.raises(UsageError):
            evaluate_epoch(state, policy, 2, wrong)
    assert state.last_epoch == 1                   # a rejected call consumes no epoch
    evaluate_epoch(state, policy, 2, [0.1] * 4)
    assert state.last_epoch == 2


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
    posterior: dict = field(default_factory=dict)    # position -> posterior at its drop
    last_epoch: int = 0

    def active(self):
        return [pos for pos in range(self.n) if pos not in self.dropped]

    def arrays(self):
        """name -> the DropState array this state stands for, 0 where a dict has no entry."""
        out = {}
        for name, values, dtype in (("counters", self.counters, np.int64),
                                    ("dropped_at", self.dropped, np.int64),
                                    ("posterior", self.posterior, np.float64)):
            out[name] = np.zeros(self.n, dtype=dtype)
            out[name][list(values)] = list(values.values())
        return out


def _reference_evaluate_epoch(state, policy, epoch, losses):
    """The per-position dict scheduler, kept as the oracle for the array state."""
    active = state.active()
    state.last_epoch = epoch
    decision = EpochDecision(gmm_trace=[], dropped=[])
    if epoch <= policy.warmup or not active:
        return decision
    features = np.log1p(np.asarray(losses, dtype=np.float64))
    model, decision.gmm_trace = gmm.select_model(features, k_max=policy.k_max)
    if model.k == 1:
        state.counters.clear()
        return decision

    post = gmm.posteriors(model, features)[:, -1]
    posterior_at = {}
    for pos, p in zip(active, post):
        posterior_at[pos] = float(p)
        if p > policy.tau:
            state.counters[pos] = state.counters.get(pos, 0) + 1
        else:
            state.counters.pop(pos, None)
    candidates = [pos for pos in active
                  if state.counters.get(pos, 0) >= policy.persistence]
    budget = int(np.floor(policy.max_drop_frac * state.n)) - len(state.dropped)
    if budget < len(candidates):
        candidates.sort(key=lambda pos: (-posterior_at[pos], pos))
        candidates = candidates[:max(budget, 0)]
    for pos in sorted(candidates):
        state.dropped[pos] = epoch
        state.posterior[pos] = posterior_at[pos]
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
    """Run both schedulers on one loss stream, comparing them every epoch.

    Returns (decision, flagged positions) per epoch."""
    streams = _loss_streams(kind, seed, blob)
    state = DropState.for_size(len(streams[0]))
    ref = _RefState(len(streams[0]))
    epochs = []
    for epoch, losses in enumerate(streams, start=1):
        rows = active_samples(state)
        assert rows.tolist() == ref.active(), f"epoch {epoch}"
        got = evaluate_epoch(state, policy, epoch, losses[rows])
        want = _reference_evaluate_epoch(ref, policy, epoch, losses[rows])
        assert (got.gmm_trace, got.dropped) == (want.gmm_trace, want.dropped), f"epoch {epoch}"
        for name, array in ref.arrays().items():
            assert np.array_equal(getattr(state, name), array), f"epoch {epoch}: {name}"
        epochs.append((got, _flagged(state, got.dropped)))
    # warmup epochs fit nothing, and every later epoch fits
    assert [bool(d.gmm_trace) for d, _ in epochs] == [
        epoch > policy.warmup for epoch in range(1, len(streams) + 1)]
    return epochs


@pytest.mark.parametrize("blob", [1, 2, 3, 5])
@pytest.mark.parametrize("persistence", [1, 2, 3])
def test_evaluate_epoch_matches_dict_reference(blob, persistence):
    policy = _policy(warmup=2, persistence=persistence)
    epochs = _run_against_reference(policy, "mixed", seed=10 * blob + persistence,
                                    blob=blob)
    fitted = epochs[policy.warmup:]
    assert any(prev_flagged and _selected_k(d) == 1                 # a streak reset
               for (_, prev_flagged), (d, _) in zip(fitted, fitted[1:]))
    assert any(flagged for _, flagged in fitted)
    assert any(d.dropped for d, _ in fitted)


def test_evaluate_epoch_matches_dict_reference_when_tied_cap_binds():
    policy = _policy(warmup=1, max_drop_frac=0.1, persistence=1)
    epochs = _run_against_reference(policy, "ties", seed=3)
    dropped = [pos for d, _ in epochs for pos, _ in d.dropped]
    assert len(dropped) == 8                                    # floor(0.1 * 80)
    binding, flagged = next((d, flagged) for d, flagged in epochs if d.dropped)
    assert len(flagged) > len(binding.dropped)                  # the cap cut
    assert len({p for d, _ in epochs for _, p in d.dropped}) == 1     # tied
    assert dropped == flagged[:len(dropped)]                    # earliest positions


# -- every drop derived again from its run directory -------------------------

# The treated arms that the session run cache already holds: both default
# grids (the artifact manifest's) and C6/C7's held-out seeds.
_REPLAYED = sorted(
    {(task, rate, seed) for task in ("classification", "summarization")
     for rate in (0.0, 0.05, 0.1, 0.15) for seed in (1, 2, 3, 4, 5)}
    | {("classification", rate, seed) for rate in (0.0, 0.1, 0.15) for seed in range(6, 11)}
    | {("summarization", rate, seed) for rate in (0.0, 0.15) for seed in range(6, 11)})


def _rebuilt_model(row):
    """The GmmModel of one gmm_trace.csv row, from its float reprs."""
    def floats(key):
        return np.array([float(x) for x in row[key].split(";")])

    return gmm.GmmModel(weights=floats("weights"), means=floats("means"),
                        variances=floats("variances"),
                        log_likelihood=float(row["log_likelihood"]),
                        n_iter=int(row["n_iter"]), converged=row["converged"] == "1",
                        ll_trace=[])


def _replayed_drops(run_dir):
    """drops.csv's rows, derived again through decide from four files of run_dir:
    results.json's config, noise_mask.csv (its rows are the train order),
    trajectory.csv and the selected rows of gmm_trace.csv."""
    config = json.loads((run_dir / "results.json").read_text(encoding="utf-8"))["config"]
    policy = DropPolicy(**{f.name: config[f.name] for f in fields(DropPolicy)})
    ids = [row["sample_id"] for row in _csv_rows(run_dir / "noise_mask.csv")]
    position = {sample_id: pos for pos, sample_id in enumerate(ids)}
    scored = {}                                   # epoch -> (positions, losses)
    for row in _csv_rows(run_dir / "trajectory.csv"):
        rows, losses = scored.setdefault(int(row["epoch"]), ([], []))
        rows.append(position[row["sample_id"]])
        losses.append(float(row["loss"]))
    models = {}                                   # epoch -> its selected mixture
    for row in _csv_rows(run_dir / "gmm_trace.csv"):
        if row["selected"] == "1":
            epoch = int(row["epoch"])
            assert epoch not in models, f"{run_dir.name}: two selected orders at epoch {epoch}"
            models[epoch] = _rebuilt_model(row)

    state = DropState.for_size(len(ids))
    drops = []
    for epoch, (rows, losses) in sorted(scored.items()):
        # the epoch scored exactly the positions the replayed drops leave active
        assert rows == active_samples(state).tolist(), f"{run_dir.name}: epoch {epoch}"
        if epoch in models:
            dropped = decide(state, policy, epoch, np.log1p(losses), models[epoch])
            drops += sorted(({"epoch": str(epoch), "sample_id": ids[pos],
                              "posterior": repr(post)} for pos, post in dropped),
                            key=lambda row: int(row["sample_id"]))
    assert sorted(models) == [e for e in sorted(scored) if e > policy.warmup], run_dir.name
    return drops


def test_every_drop_replays_from_its_run_directory(run_cache):
    replayed = 0
    for task, rate, seed in _REPLAYED:
        _, run_dir = run_cache.get(task=task, seed=seed, noise_rate=rate, mantra=True)
        want = _csv_rows(run_dir / "drops.csv")
        assert _replayed_drops(run_dir) == want, run_dir.name
        replayed += len(want)
    assert replayed > 0
