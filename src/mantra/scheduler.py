"""Adaptive sample dropping driven by mixture posteriors over losses.

After a warmup of untouched epochs, evaluate_epoch fits the log1p of each
epoch's per-sample losses with BIC-selected Gaussian mixtures, and decide,
the one place the drop rule is written, applies it to the selected mixture.
When more than one component is selected, the component with the largest
mean is read as the noisy population; samples whose posterior for that
component exceeds the threshold collect consecutive-epoch flags, and a
sample flagged `persistence` epochs in a row is dropped permanently.  A
single-component selection is treated as "no noise evidence this epoch" and
resets every counter.  Total drops never exceed floor(max_drop_frac *
initial train size); when candidates outnumber the remaining budget, higher
posterior wins and ties fall to the earlier train position.

The state is a set of arrays indexed by train position: the consecutive-flag
counters, the epoch each sample was dropped at (0 while it is active, so
`dropped_at == 0` is the active mask), and its noisy-component posterior at
that drop (0 while active).  It is the run's only drop record.  It holds no
losses: each epoch's fit sees that epoch's losses alone.  Nor does it hold
sample ids: the state and its decisions name train positions, and the
caller maps them to ids where it reads or writes them.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import gmm
from .errors import ConfigError, UsageError


def has_type(value, types):
    # bool subclasses int, but a flag is never a count or a metric
    return isinstance(value, types) and (types is bool or not isinstance(value, bool))


@dataclass(frozen=True, kw_only=True)
class DropPolicy:
    """The treatment's knobs, each checked once, when the policy is built.

    Frozen, so a built policy keeps the settings that were checked; a
    variant is dataclasses.replace(policy, ...), which checks it anew.
    Keyword-only, so a subclass may add fields in any order.  A run's
    runner.ExperimentConfig extends it and is itself the policy the run's
    scheduler reads.  The mixture feature is no knob: it is always np.log1p
    of the epoch's losses.
    """
    warmup: int
    tau: float = 0.7
    persistence: int = 2
    max_drop_frac: float = 0.3
    k_max: int = 3

    def __post_init__(self):
        # Each setting's type is its annotation's, a float setting also takes
        # an int, and no number is a bool; text settings are not checked.
        # fields() lists a subclass's settings too.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type not in (str, str | None) and not has_type(
                    value, (int, float) if f.type in (float, float | None) else f.type):
                raise ConfigError(f"{f.name} has the wrong type: {value!r}")
        if self.warmup < 0:
            raise ConfigError("warmup must be >= 0 epochs")
        if not (0.5 < self.tau <= 1.0):
            raise ConfigError(f"tau must lie in (0.5, 1], got {self.tau}")
        if self.persistence < 1:
            raise ConfigError("persistence must be >= 1")
        if not (0.0 <= self.max_drop_frac <= 1.0):
            raise ConfigError(
                f"max_drop_frac must lie in [0, 1], got {self.max_drop_frac}")
        if self.k_max < 1:
            raise ConfigError("k_max must be >= 1")


@dataclass(eq=False)
class DropState:
    counters: np.ndarray               # (n,) consecutive flags
    dropped_at: np.ndarray             # (n,) epoch dropped at, 0 = active
    posterior: np.ndarray              # (n,) noisy posterior at the drop, 0 = active
    last_epoch: int = 0

    @classmethod
    def for_size(cls, n):
        zeros = np.zeros(n, dtype=np.int64)
        return cls(counters=zeros, dropped_at=zeros.copy(), posterior=np.zeros(n))


@dataclass
class EpochDecision:
    gmm_trace: list                    # one dict per candidate K that was fit
    dropped: list                      # (position, posterior) pairs dropped this epoch


def evaluate_epoch(state, policy, epoch, losses):
    """Consume one epoch of losses: fit the mixture, then decide the drops.

    losses are the active samples' losses in train order: one per position
    active_samples returns.  Epochs must arrive contiguously (1, 2, ...);
    warmup epochs are only counted.  Dropped positions take effect from the
    next epoch's active set.
    """
    if epoch != state.last_epoch + 1:
        raise UsageError(f"expected epoch {state.last_epoch + 1}, got {epoch}")
    vals = np.asarray(losses, dtype=np.float64)
    n_active = np.count_nonzero(state.dropped_at == 0)
    if vals.shape[0] != n_active:
        raise UsageError(f"got {vals.shape[0]} losses for {n_active} active samples")
    state.last_epoch = epoch     # a rejected call must not consume the epoch
    if epoch <= policy.warmup or not n_active:
        return EpochDecision(gmm_trace=[], dropped=[])
    features = np.log1p(vals)
    model, trace = gmm.select_model(features, k_max=policy.k_max)
    return EpochDecision(gmm_trace=trace,
                         dropped=decide(state, policy, epoch, features, model))


def decide(state, policy, epoch, features, model):
    """Apply the drop rule to one fitted epoch; return its (position, posterior) drops.

    features are the mixture's inputs, one per active position in train
    order, and model the mixture selected on them.  A run passes what
    evaluate_epoch fit; a replay may pass a model rebuilt from gmm_trace.csv
    and the log1p of trajectory.csv's losses, and gets the same drops.
    """
    if model.k == 1:
        # No mixture evidence: treat the epoch as clean and restart persistence.
        state.counters[:] = 0
        return []
    pos = np.flatnonzero(state.dropped_at == 0)
    post = gmm.posteriors(model, features)[:, -1]   # component with largest mean
    state.counters[pos] = np.where(post > policy.tau, state.counters[pos] + 1, 0)

    cand = np.flatnonzero(state.counters[pos] >= policy.persistence)
    cap = int(np.floor(policy.max_drop_frac * len(state.dropped_at)))
    budget = cap - (len(state.dropped_at) - len(pos))
    # stable: equal posteriors keep train order, so the earlier position wins
    cand = np.sort(cand[np.argsort(-post[cand], kind="stable")][:max(budget, 0)])
    state.dropped_at[pos[cand]] = epoch
    state.posterior[pos[cand]] = post[cand]
    state.counters[pos[cand]] = 0
    return list(zip(pos[cand].tolist(), post[cand].tolist()))


def active_samples(state):
    """The active train positions, in train order."""
    return np.flatnonzero(state.dropped_at == 0)
