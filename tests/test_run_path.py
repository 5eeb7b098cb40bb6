"""Every function defined in src/mantra/ is on a run's path.

src/ holds what a run executes.  This test drives `mantra grid` for both
tasks (at sizes where the treated classification arm drops), `mantra run`
on each dataset-file form (features, text through a vocabulary, token
strings through a vocabulary), a malformed file and `mantra compare`
through cli.main under sys.setprofile, and fails on any function of the
package that none of them calls, so code only the tests use cannot grow
back into src/.  The allowlist holds the seams only the benchmark reads
(README "Benchmark"; ROADMAP item 5 removes them).
"""

import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import sys
from pathlib import Path

import mantra
from mantra import cli, data

ONLY_THE_BENCHMARK_CALLS = {"kernels.backend", "runner.RunReport.as_dict"}


def _code_objects(code):
    """code and every function code object nested in it."""
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _code_objects(const)


def _defined_functions():
    """qualified name -> code object of every function written in src/mantra/."""
    root = Path(mantra.__file__).parent
    found = {}
    for info in pkgutil.iter_modules([str(root)]):
        module = importlib.import_module(f"mantra.{info.name}")
        members = list(vars(module).values())
        members += [m for cls in members if inspect.isclass(cls) for m in vars(cls).values()]
        for member in members:
            member = getattr(member, "fget", None) or getattr(member, "__func__", member)
            code = getattr(member, "__code__", None)
            if code is None or Path(code.co_filename).parent != root:
                continue        # another module's, or written by @dataclass
            for nested in _code_objects(code):
                if not nested.co_name.startswith("<"):     # comprehensions, lambdas
                    # named by the file that defines it, not the module importing it
                    found[f"{Path(code.co_filename).stem}.{nested.co_qualname}"] = nested
    return found


def _main(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _run_every_input(tmp):
    # the seed-3 classification config of test_run_report_bookkeeping, whose
    # treated arm drops 16 samples at epoch 3, with its clean pair for compare
    small = ("--seeds", 3, "--epochs", 4, "--warmup", 1)
    assert _main("grid", "--task", "cls", "--rates", "0,0.15", *small, "--n-train", 200,
                 "--n-val", 16, "--n-test", 16, "--dim", 8, "--out", tmp / "cls") == 0
    assert _main("grid", "--task", "sum", "--rates", 0.15, *small, "--n-train", 40,
                 "--n-val", 10, "--n-test", 10, "--out", tmp / "sum") == 0
    runs = tmp / "cls" / "classification_r{}_s3_{}" / "results.json"
    assert _main("compare", str(runs).format(0.15, "baseline"),
                 str(runs).format(0.15, "mantra"),
                 "--clean-a", str(runs).format(0, "baseline"),
                 "--clean-b", str(runs).format(0, "mantra")) == 0

    vocab = tmp / "vocab.txt"
    vocab.write_text("alpha\nbeta\ngamma\n", encoding="utf-8")
    split = ["train"] * 6 + ["val", "test"]
    forms = {
        "features": ("cls", None, [{"split": s, "features": [i % 3, 1.0 - i % 2],
                                    "labels": [data.INTENTS[i % 2]]}
                                   for i, s in enumerate(split)]),
        "text": ("cls", vocab, [{"split": s, "text": "alpha beta" if i % 2 else "gamma",
                                 "labels": [data.INTENTS[i % 2]]}
                                for i, s in enumerate(split)]),
        "strings": ("sum", vocab, [{"split": s, "source": "alpha beta gamma",
                                    "target": "beta" if i % 2 else "gamma alpha"}
                                   for i, s in enumerate(split)]),
    }
    for name, (task, vocab_path, records) in forms.items():
        path = tmp / f"{name}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        given = ("--vocab", vocab_path) if vocab_path else ()
        assert _main("run", "--task", task, "--data", path, *given,
                     "--epochs", 2, "--warmup", 1) == 0, name
    (tmp / "bad.jsonl").write_text('{"split": "train",\n', encoding="utf-8")
    assert _main("run", "--task", "cls", "--data", tmp / "bad.jsonl") == 1


def test_every_function_in_src_runs(tmp_path):
    defined = _defined_functions()
    assert {"learner.save_model", "runner._write_artifacts.<locals>.path"} <= set(defined)
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _run_every_input(tmp_path)
    finally:
        sys.setprofile(previous)
    never = {name for name, code in defined.items() if code not in seen}
    assert never == ONLY_THE_BENCHMARK_CALLS
