"""Command-line interface: exit codes, output routing, env overrides."""

import json

import pytest

from mantra.cli import main


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

    # malformed grid rate list
    assert main(["grid", "--task", "cls", "--epochs", "3", "--warmup", "1",
                 "--n-train", "40", "--n-val", "8", "--n-test", "8",
                 "--rates", "0.1;0.2", "--seeds", "1"]) == 2


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1


def test_repeated_grid_rate_or_seed_exits_2(tmp_path, capsys):
    # 0.1 and 0.10 share the r0.1 directory label; nothing may run or be written
    grid = ["grid", "--task", "cls", "--epochs", "3", "--warmup", "1",
            "--n-train", "40", "--n-val", "8", "--n-test", "8",
            "--out", str(tmp_path / "grid")]
    for rates, seeds in (("0.1,0.10", "1"), ("0,0.1", "1,1")):
        assert main(grid + ["--rates", rates, "--seeds", seeds]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "grid").exists()


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
    code = main(["compare", str(noisy_base), str(noisy_treat),
                 "--clean-a", str(clean_base), "--clean-b", str(clean_treat)])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["noise_rate"] == 0.15
    assert result["recovered"] in (True, False)

    # same-arm comparison is a usage failure
    assert main(["compare", str(noisy_base), str(clean_base)]) == 2


def test_paper_lr_preset(tmp_path, capsys):
    args = _tiny_run_args(tmp_path) + ["--lr-preset", "paper", "--mantra", "off"]
    assert main(args) == 0
