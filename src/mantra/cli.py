"""Command line entry points: `mantra run`, `mantra grid`, `mantra compare`.

Exit status: 0 on success; 2 for a ConfigError: bad flags or a setup that
cannot work, raised before any work unless the data reveals it (an empty
split, an unused vocabulary, too few samples to corrupt), after --out is made
and the data is read; 1 for any other MantraError or an OSError (unreadable
or malformed files, a diverging run, an --out path the OS refuses, tried
before any work).  MANTRA_OUT, when set, overrides any --out flag.

Every run setting, with its default and its checks, is declared once, in
runner.ExperimentConfig or the scheduler.DropPolicy it extends: `run` and
`grid` pass on only the flags given, each under its field's name, and choice
lists come from the modules that own them.
"""

import argparse
import dataclasses
import json
import os
import sys

from . import noise, runner
from .errors import ConfigError, MantraError


def _parse_list(text, kind):
    try:
        return [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected a comma-separated {kind.__name__} list, got {text!r}")


def _add_common_options(p):
    p.add_argument("--task", required=True, choices=sorted(runner.TASK_ALIASES),
                   help="task kind (cls/classification or sum/summarization)")
    p.add_argument("--epochs", type=int)
    defaults = runner.TASK_DEFAULTS
    p.add_argument("--warmup", type=int,
                   help="untouched epochs before dropping may start "
                        f"(default: {defaults['classification']['warmup']} classification, "
                        f"{defaults['summarization']['warmup']} summarization)")
    p.add_argument("--tau", type=float,
                   help="posterior threshold for flagging a sample")
    p.add_argument("--persistence", type=int,
                   help="consecutive flagged epochs required before a drop")
    p.add_argument("--max-drop-frac", type=float,
                   help="cap on the dropped fraction of the train split")
    p.add_argument("--kmax", type=int, dest="k_max", metavar="KMAX",
                   help="largest mixture order offered to BIC selection")
    p.add_argument("--lr", type=float,
                   help="learning rate (default: the task's desk rate)")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--noise-mode", choices=noise.LABEL_NOISE_MODES,
                   help="classification corruption style")
    p.add_argument("--data",
                   help="'synthetic' or a path to a JSON-lines dataset")
    p.add_argument("--vocab",
                   help="token-per-line vocabulary file for string datasets")
    p.add_argument("--n-train", type=int)
    p.add_argument("--n-val", type=int)
    p.add_argument("--n-test", type=int)
    p.add_argument("--dim", type=int, dest="n_features", metavar="DIM",
                   help="synthetic classification feature dimension")
    p.add_argument("--out", help="artifact directory "
                   "(MANTRA_OUT env var takes precedence)")


def _resolve_out(args):
    return os.environ.get("MANTRA_OUT") or getattr(args, "out", None)


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(runner.ExperimentConfig)}


def _config_from_args(args, **overrides):
    given = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS}
    return runner.ExperimentConfig(**{**given, **overrides})


def _detection_note(report):
    det = report.detection
    parts = [f"dropped={report.dropped_total}"]
    if det["precision"] is not None:
        parts.append(f"precision={det['precision']:.3f}")
    if det["recall"] is not None:
        parts.append(f"recall={det['recall']:.3f}")
    if det["lift"] is not None:
        parts.append(f"lift={det['lift']:.2f}")
    return " ".join(parts)


def _cmd_run(args):
    overrides = {"mantra": args.mantra == "on"} if "mantra" in args else {}
    config = _config_from_args(args, **overrides)
    out_dir = _resolve_out(args)
    report = runner.run_experiment(config, out_dir=out_dir)
    print(f"task={config.task} rate={config.noise_rate:g} seed={config.seed} "
          f"mantra={'on' if config.mantra else 'off'}")
    print(f"test {report.metric_name} = {report.test_metric:.6f}")
    print(_detection_note(report))
    if out_dir:
        print(f"artifacts -> {out_dir}")
    return 0


def _cmd_grid(args):
    base = _config_from_args(args)
    out_dir = _resolve_out(args)
    reports = runner.run_grid(base, _parse_list(args.rates, float),
                              _parse_list(args.seeds, int), out_dir=out_dir)
    for report in reports:
        cfg = report.config
        print(f"task={cfg['task']} rate={cfg['noise_rate']:g} seed={cfg['seed']} "
              f"mantra={'on' if cfg['mantra'] else 'off'} "
              f"{report.metric_name}={report.test_metric:.6f} "
              f"dropped={report.dropped_total}")
    if out_dir:
        print(f"summary -> {os.path.join(out_dir, 'summary.csv')}")
    return 0


def _cmd_compare(args):
    result = runner.compare_runs(args.report_a, args.report_b,
                                 clean_a=args.clean_a, clean_b=args.clean_b)
    print(json.dumps(result, sort_keys=True, indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mantra",
        description="Noise-treatment training pipeline: paired runs with "
                    "loss-trajectory noise detection and adaptive dropout.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single run",
                           argument_default=argparse.SUPPRESS)
    _add_common_options(p_run)
    p_run.add_argument("--noise-rate", type=float)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--mantra", choices=("on", "off"),
                       help="on: adaptive dropping; off: plain baseline")
    p_run.set_defaults(fn=_cmd_run)

    p_grid = sub.add_parser("grid", help="sweep rates x seeds x both arms",
                            argument_default=argparse.SUPPRESS)
    _add_common_options(p_grid)
    p_grid.add_argument("--rates", default="0,0.05,0.10,0.15",
                        help="comma-separated noise rates")
    p_grid.add_argument("--seeds", default="1,2,3,4,5",
                        help="comma-separated seeds")
    p_grid.set_defaults(fn=_cmd_grid)

    p_cmp = sub.add_parser("compare", help="contrast a baseline/treated pair")
    p_cmp.add_argument("report_a", help="results.json of one run")
    p_cmp.add_argument("report_b", help="results.json of its twin")
    p_cmp.add_argument("--clean-a", default=None,
                       help="noise-free reference results.json of the same task "
                            "and seed; it serves the arm with its mantra flag")
    p_cmp.add_argument("--clean-b", default=None,
                       help="a second reference, with the other mantra flag; "
                            "one reference alone serves both arms")
    p_cmp.set_defaults(fn=_cmd_compare)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MantraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
