"""Command line entry points: `mantra run`, `mantra grid`, `mantra compare`.

Exit status: 0 on success, 2 for configuration problems (bad flags or an
inconsistent experiment setup), 1 for runtime failures (unreadable files,
failed fits).  MANTRA_OUT, when set, overrides any --out flag.
"""

import argparse
import json
import os
import sys

from . import runner
from .errors import ConfigError, MantraError, UsageError


def _parse_floats(text):
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected a comma-separated float list, got {text!r}")


def _parse_ints(text):
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected a comma-separated int list, got {text!r}")


def _add_common_options(p):
    p.add_argument("--task", required=True, choices=sorted(runner.TASK_ALIASES),
                   help="task kind (cls/classification or sum/summarization)")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--warmup", type=int, default=None,
                   help="untouched epochs before dropping may start "
                        "(default: 5 classification, 3 summarization)")
    p.add_argument("--tau", type=float, default=0.7,
                   help="posterior threshold for flagging a sample")
    p.add_argument("--persistence", type=int, default=2,
                   help="consecutive flagged epochs required before a drop")
    p.add_argument("--max-drop-frac", type=float, default=0.3,
                   help="cap on the dropped fraction of the train split")
    p.add_argument("--kmax", type=int, default=3,
                   help="largest mixture order offered to BIC selection")
    p.add_argument("--transform", choices=("identity", "log1p"), default="log1p",
                   help="loss transform fed to the mixture fit")
    p.add_argument("--window", type=int, default=1,
                   help="trailing epochs averaged into the mixture feature")
    p.add_argument("--lr", type=float, default=None,
                   help="learning rate (default: the task's desk rate)")
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--init-scale", type=float, default=0.0,
                   help="stddev of the seeded parameter init (0 = zeros)")
    p.add_argument("--noise-mode", choices=("replace-set", "flip-one"),
                   default="replace-set",
                   help="classification corruption style")
    p.add_argument("--data", default="synthetic",
                   help="'synthetic' or a path to a JSON-lines dataset")
    p.add_argument("--vocab", default=None,
                   help="token-per-line vocabulary file for string datasets")
    p.add_argument("--n-train", type=int, default=None)
    p.add_argument("--n-val", type=int, default=None)
    p.add_argument("--n-test", type=int, default=None)
    p.add_argument("--dim", type=int, default=runner.DEFAULT_DIM,
                   help="synthetic classification feature dimension")
    p.add_argument("--bins", type=int, default=30,
                   help="histogram bins for the density exports")
    p.add_argument("--out", default=None, help="artifact directory "
                   "(MANTRA_OUT env var takes precedence)")


def _resolve_out(args):
    return os.environ.get("MANTRA_OUT") or args.out


def _config_from_args(args, **overrides):
    kwargs = dict(
        task=args.task, epochs=args.epochs, warmup=args.warmup,
        tau=args.tau, persistence=args.persistence,
        max_drop_frac=args.max_drop_frac, k_max=args.kmax,
        transform=args.transform, window=args.window,
        lr=args.lr, batch_size=args.batch_size,
        init_scale=args.init_scale, noise_mode=args.noise_mode,
        data=args.data, vocab=args.vocab, n_train=args.n_train,
        n_val=args.n_val, n_test=args.n_test, n_features=args.dim,
        hist_bins=args.bins,
    )
    kwargs.update(overrides)
    return runner.ExperimentConfig(**kwargs)


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
    config = _config_from_args(
        args, seed=args.seed, noise_rate=args.noise_rate,
        mantra=args.mantra == "on")
    out_dir = _resolve_out(args)
    report = runner.run_experiment(config, out_dir=out_dir)
    print(f"task={config.task} rate={config.noise_rate:g} seed={config.seed} "
          f"mantra={'on' if config.mantra else 'off'} backend={report.backend}")
    print(f"test {report.metric_name} = {report.test_metric:.6f}")
    print(_detection_note(report))
    if out_dir:
        print(f"artifacts -> {out_dir}")
    return 0


def _cmd_grid(args):
    base = _config_from_args(args)
    out_dir = _resolve_out(args)
    reports = runner.run_grid(base, _parse_floats(args.rates),
                              _parse_ints(args.seeds), out_dir=out_dir)
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

    p_run = sub.add_parser("run", help="execute a single run")
    _add_common_options(p_run)
    p_run.add_argument("--noise-rate", type=float, default=0.0)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--mantra", choices=("on", "off"), default="on",
                       help="on: adaptive dropping; off: plain baseline")
    p_run.set_defaults(fn=_cmd_run)

    p_grid = sub.add_parser("grid", help="sweep rates x seeds x both arms")
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
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MantraError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
