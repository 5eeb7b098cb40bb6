"""In-memory span tracer for the pipeline benchmark.

The tracer replaces public functions of the mantra modules with wrappers
that record one span per call -- [name, start, end, parent span index,
run id] -- and bump per-layer counters.  Each function is wrapped at the
attribute its callers look it up by: `runner.generate_*` (runner imports
the generators by name), `kernels.seq_*` as module attributes (learner
calls them through the module), and the `gmm.fit_em` module global that
`select_model` calls.  Nothing under src/ changes; leaving the `installed`
block restores every original, and `restored` reports whether it did.
"""

import time
from collections import Counter
from contextlib import contextmanager

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_fit(c, args, kwargs, model):
    c["gmm.fit_em_calls"] += 1
    c["gmm.em_iters"] += int(model.n_iter)
    c["gmm.fits_nonconverged"] += not model.converged


def _count_select(c, args, kwargs, result):
    _, trace = result
    c["gmm.selected_nonconverged"] += sum(
        1 for row in trace if row["selected"] and not row["converged"])


def _count_decision(c, args, kwargs, decision):
    c["scheduler.dropped"] += len(decision.dropped)


def _count_trained(c, args, kwargs, result):
    c["learner.samples_trained"] += len(_arg(args, kwargs, 1, "samples"))


def _count_rows(c, args, kwargs, result):
    # record_epoch(self, epoch, sample_ids, ...): args include self.
    c["trajectory.rows"] += len(_arg(args, kwargs, 2, "sample_ids"))


def _count_losses(c, args, kwargs, result):
    # Target positions computed: tgt_len counts the trailing EOS.
    c["kernels.tokens"] += int(np.sum(_arg(args, kwargs, 6, "tgt_len")))


def _count_grad(c, args, kwargs, result):
    c["kernels.seq_grad_sum_calls"] += 1
    _count_losses(c, args, kwargs, result)


def _count_decode(c, args, kwargs, result):
    # A live sample computes one position per emitted token plus the EOS
    # step, unless it ran into max_len first.
    _, out_len = result
    max_len = _arg(args, kwargs, 7, "max_len")
    c["kernels.tokens"] += int(np.minimum(out_len + 1, max_len).sum())


def pipeline_targets():
    """(owner, attribute, span name, counter) for every traced function."""
    from mantra import gmm, kernels, learner, metrics, noise, runner, scheduler
    from mantra.trajectory import TrajectoryStore
    return [
        (runner, "run_experiment", "runner.run_experiment", None),
        (runner, "generate_classification_dataset", "data.generate", None),
        (runner, "generate_summarization_dataset", "data.generate", None),
        (noise, "inject_label_noise", "noise.inject", None),
        (noise, "inject_summary_noise", "noise.inject", None),
        (learner, "train_epoch", "learner.train_epoch", _count_trained),
        (learner, "per_sample_losses", "learner.per_sample_losses", None),
        (learner, "predict", "learner.predict", None),
        (learner, "save_model", "learner.save_model", None),
        (kernels, "seq_grad_sum", "kernels.seq_grad_sum", _count_grad),
        (kernels, "seq_losses", "kernels.seq_losses", _count_losses),
        (kernels, "greedy_decode", "kernels.greedy_decode", _count_decode),
        (scheduler, "evaluate_epoch", "scheduler.evaluate_epoch", _count_decision),
        (scheduler, "active_samples", "scheduler.active_samples", None),
        (gmm, "select_model", "gmm.select_model", _count_select),
        (gmm, "fit_em", "gmm.fit_em", _count_fit),
        (gmm, "posteriors", "gmm.posteriors", None),
        (TrajectoryStore, "record_epoch", "trajectory.record_epoch", _count_rows),
        (TrajectoryStore, "save_csv", "trajectory.save", None),
        (TrajectoryStore, "save_group_means_csv", "trajectory.save", None),
        (TrajectoryStore, "save_histogram_csv", "trajectory.save", None),
        (metrics, "bleu4", "metrics.bleu4", None),
        (metrics, "micro_f1", "metrics.micro_f1", None),
        (metrics, "detection_report", "metrics.detection_report", None),
    ]


@contextmanager
def patched(replacements):
    """Set (owner, attr, new) for the block; restore the originals after.

    Yields a list that, once the block has exited, holds a single bool:
    whether every attribute is the original object again.
    """
    originals = []
    status = []
    try:
        for owner, attr, new in replacements:
            originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)
        yield status
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
        status.append(all(getattr(owner, attr) is fn
                          for owner, attr, fn in originals))


class Tracer:
    """Spans and counters of the calls made through the wrapped functions."""

    ROOT = "runner.run_experiment"     # each call opens a new run id

    def __init__(self):
        self.spans = []                # [name, start, end, parent, run_id]
        self.counters = Counter()
        self.missing = []              # span targets the program lacks
        self._stack = []
        self._run_id = 0

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if name == self.ROOT:
                self._run_id += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def replacements(self, targets):
        out = []
        for owner, attr, name, count in targets:
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            out.append((owner, attr, self._wrap(name, fn, count)))
        return out

    def totals(self):
        """Per span name that was called: (total seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; calls run in sequence, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total, own = out.get(name, (0.0, 0.0))
            out[name] = (total + (end - start), own + (end - start) - child[i])
        return out
