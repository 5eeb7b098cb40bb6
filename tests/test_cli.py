"""Command-line interface: exit codes, output routing, env overrides."""

import argparse
import dataclasses
import json
import random

import pytest

from mantra import runner
from mantra.cli import build_parser, main


def _tiny_run_args(tmp_path, **extra):
    args = ["run", "--task", "cls", "--epochs", "4", "--warmup", "1",
            "--n-train", "60", "--n-val", "16", "--n-test", "16",
            "--dim", "8", "--seed", "3", "--noise-rate", "0.15"]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def test_run_subcommand(tmp_path, capsys):
    out = tmp_path / "run_out"
    code = main(_tiny_run_args(tmp_path, out=out))
    assert code == 0
    text = capsys.readouterr().out
    assert "test micro_f1 =" in text
    assert "dropped=" in text
    assert (out / "results.json").exists()
    saved = json.loads((out / "results.json").read_text())
    assert saved["config"]["noise_rate"] == 0.15


def test_a_run_that_drops_prints_its_detection(tmp_path, capsys):
    args = _tiny_run_args(tmp_path)
    args[args.index("--n-train") + 1] = "200"     # large enough to drop
    assert main(args) == 0
    assert "\ndropped=16 precision=1.000 recall=0.533 lift=6.67\n" in capsys.readouterr().out


@pytest.mark.parametrize("missing", ["val", "test"])
def test_a_file_with_an_empty_split_exits_2(tmp_path, capsys, missing):
    path = tmp_path / "d.jsonl"
    rows = [{"split": split, "features": [float(i), 1.0], "labels": ["Bug"]}
            for i, split in enumerate(("train", "train", "val", "test")) if split != missing]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert main(["run", "--task", "cls", "--epochs", "2", "--warmup", "1",
                 "--data", str(path)]) == 2
    assert "cannot evaluate on an empty split" in capsys.readouterr().err


def test_run_without_out_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(_tiny_run_args(tmp_path)) == 0
    assert list(tmp_path.iterdir()) == []


def test_env_out_takes_precedence(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "from_env"
    arg_dir = tmp_path / "from_arg"
    monkeypatch.setenv("MANTRA_OUT", str(env_dir))
    assert main(_tiny_run_args(tmp_path, out=arg_dir)) == 0
    assert env_dir.exists() and not arg_dir.exists()


def test_bad_usage_exits_2(tmp_path, capsys):
    # config error: warmup >= epochs
    args = _tiny_run_args(tmp_path)
    args[args.index("--warmup") + 1] = "9"
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err

    # the config, not the library checks behind it, rejects these settings
    for flag, value, message in (("--noise-rate", "1.5", "noise rate must lie in [0, 1], got 1.5"),
                                 ("--kmax", "0", "k_max must be >= 1")):
        assert main(_tiny_run_args(tmp_path) + [flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    # retired settings are unknown flags, not silently accepted
    for flag, value in (("--bins", "10"), ("--init-scale", "0.1"),
                        ("--window", "2"), ("--transform", "log1p"),
                        ("--noise-mode", "flip-one")):
        with pytest.raises(SystemExit) as exc:
            main(_tiny_run_args(tmp_path) + [flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    # malformed grid rate and seed lists
    grid = ["grid", "--task", "cls", "--epochs", "3", "--warmup", "1",
            "--n-train", "40", "--n-val", "8", "--n-test", "8"]
    for rates, seeds, message in (
            ("0.1;0.2", "1", "expected a comma-separated float list, got '0.1;0.2'"),
            ("0.1", "1;2", "expected a comma-separated int list, got '1;2'"),
            # distinct rates whose run directories would share one label
            ("0.1234567,0.1234568", "1", "grid rates 0.1234567 and 0.1234568 share "
                                         "the run directory label 0.123457")):
        assert main(grid + ["--rates", rates, "--seeds", seeds]) == 2
        assert message in capsys.readouterr().err


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1


def test_repeated_grid_rate_or_seed_exits_2(tmp_path, capsys):
    # 0.1 and 0.10 share the r0.1 directory label, and a bad rate or seed
    # fails its arm's config check; nothing may run or be written
    grid = ["grid", "--task", "cls", "--epochs", "3", "--warmup", "1",
            "--n-train", "40", "--n-val", "8", "--n-test", "8",
            "--out", str(tmp_path / "grid")]
    for rates, seeds in (("0.1,0.10", "1"), ("0,0.1", "1,1"), ("0,1.5", "1"),
                         ("0", "1,-1")):
        assert main(grid + ["--rates", rates, "--seeds", seeds]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "grid").exists()


@pytest.mark.parametrize("command", ["run", "grid"])
@pytest.mark.parametrize("out, env, named", [
    ("afile", None, "'afile'"),
    ("afile/sub", None, "'afile/sub'"),       # a file on the way to it
    ("", None, "''"),
    ("dangling", None, "'dangling'"),         # a link to nothing
    pytest.param("x" * 300, None, "'" + "x" * 300 + "'", id="name-too-long"),
    ("ok", "afile", "'afile'"),                # MANTRA_OUT wins over --out
])
def test_out_that_is_no_directory_exits_1_before_any_work(
        tmp_path, capsys, monkeypatch, command, out, env, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_bytes(b"kept")
    (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
    if env is not None:
        monkeypatch.setenv("MANTRA_OUT", env)
    calls = []
    for owner, name in ((runner, "generate_classification_dataset"),
                        (runner.learner, "train_epoch")):
        monkeypatch.setattr(owner, name, lambda *a, name=name, **kw: calls.append(name))
    args = (_tiny_run_args(tmp_path) if command == "run" else
            ["grid", "--task", "cls", "--epochs", "4", "--warmup", "1",
             "--n-train", "60", "--rates", "0.15", "--seeds", "3"])
    assert main(args + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.rstrip().endswith(named)
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "dangling"]
    assert (tmp_path / "afile").read_bytes() == b"kept"


def test_a_diverging_run_exits_1(capsys):
    assert main(["run", "--task", "sum", "--n-train", "40", "--n-val", "5",
                 "--n-test", "5", "--epochs", "4", "--warmup", "1", "--lr", "1e308"]) == 1
    assert capsys.readouterr().err == "error: losses must be finite\n"


@pytest.mark.parametrize("bad", ["d.jsonl", "v.txt", "r.json"])
def test_undecodable_input_exits_1(tmp_path, capsys, bad):
    files = {"d.jsonl": b'{"split": "train", "source": "a", "target": "a"}\n',
             "v.txt": b"a\n", "r.json": b"{}\n"}
    files[bad] += b"\xff\n"          # a byte that is not UTF-8, on line 2
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    report = str(tmp_path / "r.json")
    args = (["compare", report, report] if bad == "r.json" else
            ["run", "--task", "sum", "--data", str(tmp_path / "d.jsonl"),
             "--vocab", str(tmp_path / "v.txt")])
    assert main(args) == 1
    err = capsys.readouterr().err
    # the message names the file that holds the bad byte, of the two a run reads
    assert err.startswith(f"error: {tmp_path / bad}: " + (
        "not a JSON report" if bad == "r.json" else "line 2: not UTF-8 text"))
    assert "Traceback" not in err


def test_a_record_the_vocabulary_cannot_read_names_the_data_file(tmp_path, capsys):
    (tmp_path / "v.txt").write_text("fix\nbug\n")
    (tmp_path / "d.jsonl").write_text(
        '{"split": "train", "text": "fix zap", "labels": ["Bug"]}\n')
    assert main(["run", "--task", "cls", "--data", str(tmp_path / "d.jsonl"),
                 "--vocab", str(tmp_path / "v.txt")]) == 1
    # of the two files a run reads, line 1 is the data file's
    assert capsys.readouterr().err == (f"error: {tmp_path / 'd.jsonl'}: line 1: "
                                       "token 'zap' in text not in the vocabulary\n")


def test_a_vocabulary_line_of_two_tokens_names_the_vocabulary(tmp_path, capsys):
    (tmp_path / "v.txt").write_text("fix bug\nadd\n")
    (tmp_path / "d.jsonl").write_text('{"split": "train", "text": "fix", "labels": ["Bug"]}\n')
    assert main(["run", "--task", "cls", "--data", str(tmp_path / "d.jsonl"),
                 "--vocab", str(tmp_path / "v.txt")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'v.txt'}: line 1: ")


def test_files_that_open_with_a_byte_order_mark_run(tmp_path, capsys):
    (tmp_path / "v.txt").write_text("\ufeffalpha\nbeta\n", encoding="utf-8")
    rows = [{"split": split, "text": text, "labels": ["Bug"]}
            for split, text in (("train", "alpha beta"), ("train", "beta"),
                                ("val", "alpha"), ("test", "beta alpha"))]
    (tmp_path / "d.jsonl").write_text(
        "\ufeff" + "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    assert main(["run", "--task", "cls", "--data", str(tmp_path / "d.jsonl"),
                 "--vocab", str(tmp_path / "v.txt"), "--epochs", "2", "--warmup", "1"]) == 0
    assert capsys.readouterr().err == ""


def test_malformed_compare_report_exits_1(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "config": {"task": "classification", "seed": 1, "noise_rate": 0.1,
                   "mantra": False},
        "metric_name": "micro_f1", "test_metric": 0.5, "dropped_total": 0,
        "detection": {}}))
    for text, field in (("{}", "'config'"), ("[1]", "JSON object"),
                        ('{"config": {}, "metric_name": "", "test_metric": 0,'
                         ' "dropped_total": 0, "detection": {}}', "'config.task'")):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["compare", str(good), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err


def test_wrongly_typed_compare_field_exits_1(tmp_path, capsys):
    report = {"config": {"task": "classification", "seed": 1, "noise_rate": 0.1,
                         "mantra": False},
              "metric_name": "micro_f1", "test_metric": 0.5, "dropped_total": 0,
              "detection": {}}
    good = tmp_path / "good.json"
    good.write_text(json.dumps(report))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**report, "test_metric": "0.7"}))
    assert main(["compare", str(good), str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'test_metric'" in err
    assert "Traceback" not in err


def test_grid_and_compare_flow(tmp_path, capsys):
    grid_dir = tmp_path / "grid"
    code = main(["grid", "--task", "cls", "--epochs", "4", "--warmup", "1",
                 "--n-train", "60", "--n-val", "16", "--n-test", "16",
                 "--dim", "8", "--rates", "0,0.15", "--seeds", "3",
                 "--out", str(grid_dir)])
    assert code == 0
    assert (grid_dir / "summary.csv").exists()
    lines = capsys.readouterr().out.strip().splitlines()
    assert sum("mantra=on" in ln for ln in lines) >= 2

    noisy_base = grid_dir / "classification_r0.15_s3_baseline" / "results.json"
    noisy_treat = grid_dir / "classification_r0.15_s3_mantra" / "results.json"
    clean_base = grid_dir / "classification_r0_s3_baseline" / "results.json"
    clean_treat = grid_dir / "classification_r0_s3_mantra" / "results.json"
    # give the treated reference its own metric, so a swapped pairing shows
    treated_ref = json.loads(clean_treat.read_text())
    treated_ref["test_metric"] = 0.25
    clean_treat.write_text(json.dumps(treated_ref))
    code = main(["compare", str(noisy_base), str(noisy_treat),
                 "--clean-a", str(clean_base), "--clean-b", str(clean_treat)])
    assert code == 0
    text = capsys.readouterr().out
    result = json.loads(text)
    assert result["noise_rate"] == 0.15
    assert result["recovered"] in (True, False)
    assert result["mantra_degradation"] == 0.25 - result["mantra_test_metric"]

    # each clean reference is matched to its arm by its mantra flag, so
    # swapping both pairs of arguments prints the same report
    code = main(["compare", str(noisy_treat), str(noisy_base),
                 "--clean-a", str(clean_treat), "--clean-b", str(clean_base)])
    assert code == 0
    assert capsys.readouterr().out == text

    # a noisy or foreign clean reference is a configuration error
    foreign = json.loads(clean_base.read_text())
    foreign["config"]["task"] = "summarization"
    other = tmp_path / "other_task.json"
    other.write_text(json.dumps(foreign))
    for reference in (noisy_base, other):
        assert main(["compare", str(noisy_base), str(noisy_treat),
                     "--clean-a", str(reference)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    # same-arm comparison is a usage failure
    assert main(["compare", str(noisy_base), str(clean_base)]) == 2


def test_lr_is_echoed_in_results(tmp_path, capsys):
    out = tmp_path / "lr_out"
    assert main(_tiny_run_args(tmp_path, lr="5e-5", out=out) + ["--mantra", "off"]) == 0
    assert json.loads((out / "results.json").read_text())["config"]["lr"] == 5e-5


def test_noisy_summarization_run_on_a_vocab_file(tmp_path, capsys):
    # 12 tokens: the noise must draw targets from this vocabulary, not the
    # 40-token synthetic one
    words = [f"w{i}" for i in range(12)]
    (tmp_path / "v.txt").write_text("\n".join(words) + "\n")
    rng = random.Random(4)
    lines = []
    for i in range(80):
        source = rng.choices(words, k=rng.randint(3, 6))
        record = {"split": "train" if i < 60 else ("val" if i < 70 else "test"),
                  "source": " ".join(source),
                  "target": " ".join(words[(words.index(w) * 5) % 12] for w in source)}
        lines.append(json.dumps(record))
    (tmp_path / "d.jsonl").write_text("\n".join(lines) + "\n")
    args = ["run", "--task", "sum", "--noise-rate", "0.15", "--epochs", "4",
            "--warmup", "1", "--data", str(tmp_path / "d.jsonl"),
            "--vocab", str(tmp_path / "v.txt"), "--out", str(tmp_path / "out")]
    assert main(args) == 0
    assert "test bleu4 =" in capsys.readouterr().out


def test_vocab_a_classification_file_never_reads_exits_2(tmp_path, capsys):
    (tmp_path / "v.txt").write_text("fix\nbug\n")
    rows = [{"split": split, "features": [1.0, float(i)], "labels": ["Bug"]}
            for i, split in enumerate(("train", "train", "val", "test"))]
    (tmp_path / "d.jsonl").write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    args = ["run", "--task", "cls", "--epochs", "2", "--warmup", "1",
            "--data", str(tmp_path / "d.jsonl"), "--vocab", str(tmp_path / "v.txt")]
    assert main(args) == 2
    assert "v.txt" in capsys.readouterr().err
    assert main(args[:-2]) == 0          # the same file runs without the vocabulary


class _Captured(Exception):
    pass


def test_flags_left_off_keep_the_config_defaults(monkeypatch):
    seen = []

    def capture(config, *args, **kwargs):
        seen.append(config)
        raise _Captured

    monkeypatch.setattr(runner, "run_experiment", capture)
    monkeypatch.setattr(runner, "run_grid", capture)
    for argv, task in ((["run", "--task", "cls"], "cls"),
                       (["grid", "--task", "sum"], "sum")):
        with pytest.raises(_Captured):
            main(argv)
        assert seen.pop().as_dict() == runner.ExperimentConfig(task=task).as_dict()


def test_every_config_field_has_a_run_flag():
    # and every run or grid option is a field, so none is parsed and then dropped
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    fields = {f.name for f in dataclasses.fields(runner.ExperimentConfig)}
    dests = {action.dest for action in sub.choices["run"]._actions}
    assert fields - dests == set()
    for command in ("run", "grid"):
        dests = {action.dest for action in sub.choices[command]._actions}
        assert dests - fields == {"help", "out", "rates", "seeds"} & dests, command
