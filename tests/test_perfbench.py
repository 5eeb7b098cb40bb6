"""The benchmark harness can still find every function it traces.

perfbench/tracer.py wraps pipeline functions by owner and attribute name and
reads some of their arguments by position.  A rename or deletion here would
leave the benchmark with missing targets, so tier-1 checks the list.
"""

import inspect
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
                          (TrajectoryStore.record_epoch, 2, "sample_ids"),
                          (kernels.seq_grad_sum, 6, "tgt_len"),
                          (kernels.seq_losses, 6, "tgt_len"),
                          (kernels.greedy_decode, 7, "max_len")]:
        assert list(inspect.signature(fn).parameters)[pos] == name, fn.__name__
