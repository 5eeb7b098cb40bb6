"""Test helpers: random starting models, and a finite-difference audit of the learners' gradients.

A run's model starts at zero (learner.new_classifier, learner.new_seq2seq).
The audit needs models away from that point, so randomized() overwrites a
fresh model's parameters with seeded normals; gradient_check() compares the
learner's closed-form gradients against central differences of its loss.
"""

from dataclasses import dataclass

import numpy as np

from mantra import learner
from mantra.errors import UsageError

_TAG_INIT = 41
_TAG_GRADCHECK = 43

GRADCHECK_COORDS = 100             # coordinates gradient_check samples,
GRADCHECK_SEED = 0                 # from this seed's stream,
GRADCHECK_TOL = 1e-4               # passing below this relative error


def randomized(model, scale, seed):
    """Fill model's parameters, in param_arrays order, with scale * normals from [seed, 41]."""
    rng = np.random.default_rng([seed, _TAG_INIT])
    for p in learner.param_arrays(model):
        p[...] = scale * rng.standard_normal(p.shape)
    return model


@dataclass
class GradCheckReport:
    max_rel_error: float
    n_checked: int
    passed: bool


def _mean_grads(model, split):
    # looked up through the modules at call time, so a monkeypatched
    # gradient path is the one audited
    if isinstance(model, learner.ClassifierModel):
        return list(learner._classifier_grads(model, split.x, split.y))
    grads = learner.kernels.seq_grad_sum(model.u, model.v, model.b, split.src_counts,
                                         split.src_len, split.tgt, split.tgt_len, model.bos)
    return [g / len(split) for g in grads]


def gradient_check(model, samples, h=1e-5):
    """Central-difference audit of the analytic gradients.

    Samples GRADCHECK_COORDS coordinates (all of them when the model is
    smaller), perturbs each by +/-h around the current value, and compares
    the numeric slope of the mean loss against the closed-form gradient.
    Relative error uses max(|analytic|, |numeric|, 1e-6) as denominator and
    passes below GRADCHECK_TOL.
    """
    learner._check_task(model, samples)
    if not samples:
        raise UsageError("gradient_check needs at least one sample")
    arrays = learner.param_arrays(model)
    sizes = [a.size for a in arrays]
    total = sum(sizes)
    n_checked = min(GRADCHECK_COORDS, total)
    coords = np.random.default_rng([GRADCHECK_SEED, _TAG_GRADCHECK]).choice(
        total, size=n_checked, replace=False)
    analytic = np.concatenate([g.ravel() for g in _mean_grads(model, samples)])

    def mean_loss():
        return float(learner.per_sample_losses(model, samples).mean())

    max_rel = 0.0
    offsets = np.cumsum([0] + sizes)
    for flat in coords:
        which = np.searchsorted(offsets, flat, side="right") - 1
        arr = arrays[which]
        local = int(flat - offsets[which])
        orig = arr.flat[local]
        arr.flat[local] = orig + h
        up = mean_loss()
        arr.flat[local] = orig - h
        down = mean_loss()
        arr.flat[local] = orig
        numeric = (up - down) / (2.0 * h)
        a = float(analytic[flat])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
        max_rel = max(max_rel, rel)
    return GradCheckReport(max_rel_error=max_rel, n_checked=n_checked,
                           passed=max_rel < GRADCHECK_TOL)
