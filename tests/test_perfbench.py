"""The benchmark harness can still find every function it traces.

perfbench/tracer.py wraps pipeline functions by owner and attribute name and
reads some of their arguments by position.  A rename or deletion here would
leave the benchmark with missing targets, so tier-1 checks the list.  Its
drop counter takes the len of what `scheduler.evaluate_epoch` returns as
`dropped`, so tier-1 feeds it a real decision.  Its row counter takes the
len of argument 2 of `TrajectoryStore.record_epoch`, so tier-1 traces a real
grid and checks that the runner passes `rows` there on both arms.
perfbench/bench.py times and checks every run by wrapping
`runner.run_experiment(config, out_dir=None)`, so tier-1 also checks that
call shape and that `run_grid` makes one such call per arm.  It builds its
direct runs' configs by keyword and reads a few settings off every config it
times, so tier-1 checks that construction and those reads too.  Its EM
counters read `n_iter`, `converged` and `selected` off what
`gmm.select_model(obs, k_max=...)` and `gmm.fit_em(obs, k)` return, so
tier-1 checks those fields.  It checks each run and scores the noisy
pairs by reading `as_dict()` (popping `runtime_sec`), `test_metric`,
`dropped_total`, `dropped_ids` and `detection["f1"]` off every report, and
`metric_delta` and `recovered` off `runner.compare_runs`, so tier-1 reads
them off a real grid's reports.
"""

import inspect
import json
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # exec the source rather than import it, so nothing is written to perfbench/
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         module.__dict__)
    return module


def test_every_traced_target_resolves_to_a_callable():
    targets = _load_tracer().pipeline_targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_counted_arguments_keep_their_positions():
    from mantra import kernels, learner
    from mantra.trajectory import TrajectoryStore
    # (function, position, name) as the tracer's counters read them
    for fn, pos, name in [(learner.train_epoch, 1, "samples"),
                          (TrajectoryStore.record_epoch, 2, "rows"),
                          (kernels.seq_grad_sum, 6, "tgt_len"),
                          (kernels.seq_losses, 6, "tgt_len"),
                          (kernels.greedy_decode, 7, "max_len")]:
        assert list(inspect.signature(fn).parameters)[pos] == name, fn.__name__


def test_row_counter_reads_a_real_record_epoch_call(tiny_cls_config):
    import numpy as np
    from mantra import runner
    from mantra.trajectory import TrajectoryStore
    tracer = _load_tracer()
    stores, keyword_calls = {}, []

    def count(c, args, kwargs, result):
        # the tracer reads rows at argument 2 of a positional call
        stores[id(args[0])] = args[0]
        keyword_calls.extend(kwargs)
        tracer._count_rows(c, args, kwargs, result)

    trace = tracer.Tracer()
    targets = [(TrajectoryStore, "record_epoch", "trajectory.record_epoch", count)]
    with tracer.patched(trace.replacements(targets)):
        reports = runner.run_grid(tiny_cls_config(n_train=200), [0.0, 0.15], [3])
    assert [r.dropped_total for r in reports] == [0, 0, 0, 16]
    assert keyword_calls == [] and len(stores) == 4
    scored = sum(np.count_nonzero(~np.isnan(s.losses)) for s in stores.values())
    assert trace.counters["trajectory.rows"] == scored


def test_mixture_fits_return_what_the_tracer_counts():
    from collections import Counter

    import numpy as np
    from mantra import gmm
    tracer = _load_tracer()
    obs = np.random.default_rng(0).normal(0.0, 1.0, 200)
    # the scheduler's call, and each fit it makes: K=2 does not lower BIC on
    # this unimodal input, so the order search stops there
    result = gmm.select_model(obs, k_max=3)
    model, rows = result
    assert [row["k"] for row in rows] == [1, 2]
    for row in rows:
        assert isinstance(row["n_iter"], int)
        assert isinstance(row["converged"], bool) and isinstance(row["selected"], bool)
    assert [row["k"] for row in rows if row["selected"]] == [model.k]
    fit = gmm.fit_em(obs, 2)
    assert isinstance(fit.n_iter, int) and isinstance(fit.converged, bool)
    counters = Counter()
    tracer._count_select(counters, (obs,), {"k_max": 3}, result)
    tracer._count_fit(counters, (obs, 2), {}, fit)
    assert counters["gmm.fit_em_calls"] == 1
    assert counters["gmm.em_iters"] == fit.n_iter
    assert counters["gmm.fits_nonconverged"] == (not fit.converged)
    assert counters["gmm.selected_nonconverged"] == sum(
        row["selected"] and not row["converged"] for row in rows)


def test_run_experiment_keeps_the_timed_call_shape():
    from mantra import runner
    params = inspect.signature(runner.run_experiment).parameters
    assert [(p.name, p.default) for p in params.values()] == \
        [("config", inspect.Parameter.empty), ("out_dir", None)]


def test_grid_runs_each_arm_through_the_module_attribute(monkeypatch, tiny_cls_config):
    from mantra import runner
    calls = []
    real = runner.run_experiment

    def timed(config, out_dir=None):
        calls.append((config.seed, config.mantra))
        return real(config, out_dir=out_dir)

    monkeypatch.setattr(runner, "run_experiment", timed)
    runner.run_grid(tiny_cls_config(), [0.15], [3, 4])
    # baseline before treated, per seed, in sweep order
    assert calls == [(3, False), (3, True), (4, False), (4, True)]


def test_benchmark_config_construction_and_reads():
    from mantra import runner
    # as bench.py builds a direct run's config, n_train None or a size
    for n_train, want in ((None, 1000), (4000, 4000)):
        config = runner.ExperimentConfig(task="sum", seed=2, noise_rate=float("0.15"),
                                         mantra=False, n_train=n_train)
        # every setting bench.py reads off a timed config
        assert (config.mantra, config.seed, config.noise_rate, config.max_drop_frac,
                config.n_train, config.epochs) == (False, 2, 0.15, 0.3, want, 10)


def test_drop_counter_reads_a_real_decision():
    import numpy as np
    from mantra import scheduler
    from test_scheduler import _policy, _scripted_losses
    tracer = _load_tracer()
    # the scripted 100-sample block of test_scheduler.py: its 10 noisy
    # samples are flagged at epoch 6 and dropped at epoch 7
    n, noisy = 100, set(range(90, 100))
    state = scheduler.DropState.for_size(n)
    trace = tracer.Tracer()
    targets = [(scheduler, "evaluate_epoch", "scheduler.evaluate_epoch",
                tracer._count_decision)]
    with tracer.patched(trace.replacements(targets)):
        for epoch in range(1, 8):
            losses = _scripted_losses(n, noisy) if epoch > 5 else [0.5] * n
            decision = scheduler.evaluate_epoch(state, _policy(), epoch, losses)
    assert len(decision.dropped) == 10
    assert trace.counters["scheduler.dropped"] == np.count_nonzero(state.dropped_at) == 10


def test_reports_carry_what_the_benchmark_reads(tiny_cls_config):
    from mantra import runner
    # a clean pair and a noisy pair whose treated arm drops 16 samples
    clean_base, clean_treat, base, treat = runner.run_grid(
        tiny_cls_config(n_train=200), [0.0, 0.15], [3])
    for report in (clean_base, clean_treat, base, treat):
        # a traced run is compared with its untraced twin on this dump
        doc = report.as_dict()
        assert isinstance(doc.pop("runtime_sec"), float)
        assert '"runtime_sec"' not in json.dumps(doc, sort_keys=True)
        assert isinstance(report.test_metric, float) and 0.0 <= report.test_metric <= 1.0
        assert report.dropped_total == len(report.dropped_ids)
        assert report.detection["f1"] is None or isinstance(report.detection["f1"], float)
    assert base.dropped_total == 0 and treat.dropped_total == 16
    assert isinstance(treat.detection["f1"], float)
    cmp = runner.compare_runs(base, treat, clean_a=clean_base, clean_b=clean_treat)
    assert cmp["metric_delta"] == treat.test_metric - base.test_metric
    assert isinstance(cmp["recovered"], bool)
