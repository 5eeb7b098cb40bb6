"""Self-test of the pipeline benchmark.

    python3 perfbench/selftest.py

Run it from the repository root; it takes about a minute.  It runs one
traced pair of every workload and asserts that:

* every span a workload exercises recorded at least one call, and the
  layers it bypasses recorded none (no kernel on cls-sweep; no gmm,
  scheduler or artifact write on sum-baseline-4k);
* every wrapped function is the original object again afterwards, also
  when the traced code raises;
* the traced outputs match the untraced ones and pass the output checks;
* the result emits exactly the metrics BENCHMARK.json names;
* the output checks catch a baseline run that dropped samples.

It also prints the largest self-time span of each workload.
"""

import dataclasses
import sys

from run import ROOT, prepare_process

COMMON = {"runner.run_experiment", "data.generate", "noise.inject",
          "learner.train_epoch", "learner.per_sample_losses", "learner.predict",
          "trajectory.record_epoch", "metrics.detection_report"}
TREATED = {"scheduler.evaluate_epoch", "scheduler.active_samples",
           "gmm.select_model", "gmm.fit_em", "gmm.posteriors"}
WRITES = {"learner.save_model", "trajectory.save"}
KERNELS = {"kernels.seq_grad_sum", "kernels.seq_losses", "kernels.greedy_decode"}
# workload -> (spans that must record calls, spans that must record none)
EXPECTED = {
    "cls-sweep": (COMMON | TREATED | WRITES | {"metrics.micro_f1"},
                  KERNELS | {"metrics.bleu4"}),
    "sum-sweep": (COMMON | TREATED | WRITES | KERNELS | {"metrics.bleu4"},
                  {"metrics.micro_f1"}),
    "sum-baseline-4k": (COMMON | KERNELS | {"metrics.bleu4"},
                        TREATED | WRITES | {"metrics.micro_f1"}),
}


def check_traced(bench, tracer_mod, spec, name):
    targets = tracer_mod.pipeline_targets()
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    result = bench.run(ROOT, bench.WORKLOADS[name], 1, 1, True)
    called = {span for _, span in result["ranking"]}
    must, must_not = EXPECTED[name]
    assert result["correct"] and result["failed"] == 0, result["failures"]
    assert not result["missing_targets"], result["missing_targets"]
    assert must <= called, f"{name}: no calls recorded for {sorted(must - called)}"
    assert not called & must_not, f"{name}: unexpected calls {sorted(called & must_not)}"
    assert all(getattr(o, a) is fn for o, a, fn in originals), "originals not restored"
    assert set(result["metrics"]) == set(result["values"]) == \
        {m["name"] for m in spec["per_layer"]}
    own, top = result["ranking"][0]
    print(f"{name}: {len(called)} spans called; largest self time {top} {own:.3f} s")


def check_restore_on_error(tracer_mod):
    targets = tracer_mod.pipeline_targets()
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    tracer = tracer_mod.Tracer()
    status = None
    try:
        with tracer_mod.patched(tracer.replacements(targets)) as status:
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert status == [True]
    assert all(getattr(o, a) is fn for o, a, fn in originals)


def check_output_checks(bench):
    from mantra import runner
    wl = bench.WORKLOADS["sum-baseline-4k"]
    config = runner.ExperimentConfig(task="sum", seed=3, noise_rate=0.15,
                                     mantra=False, epochs=4, warmup=1, n_train=40,
                                     n_val=8, n_test=8)
    report = runner.run_experiment(config)
    good = bench.Run(config, None, 0.0, None, report)
    bad = bench.Run(config, None, 0.0, None,
                    dataclasses.replace(report, dropped_total=1))
    rep = bench.Rep(0.0, [good, bad], 0, True, None, None)
    reasons = bench.check_rep(wl, rep)
    assert reasons[0] is None and "baseline arm dropped" in reasons[1], reasons
    missing = bench.check_rep(wl, bench.Rep(0.0, [good], 0, True, None, None))
    assert missing[1].startswith("did not run"), missing


def main():
    if not prepare_process():
        print("error: no mantra sources", file=sys.stderr)
        return 2
    import bench
    import tracer
    spec = bench.load_spec(ROOT)
    check_restore_on_error(tracer)
    check_output_checks(bench)
    for name in EXPECTED:
        check_traced(bench, tracer, spec, name)
    plain = bench.run(ROOT, bench.WORKLOADS["sum-baseline-4k"], 1, 1, False)
    assert plain["correct"], plain["failures"]
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(plain["values"]) == set(plain["metrics"]) | set(bench.REPORTED_UNITS)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
