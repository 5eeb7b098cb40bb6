"""Shared fixtures: benchmark run cache, seeded mixture fits and small dataset helpers."""

import json

import numpy as np
import pytest

from mantra import gmm
from mantra.runner import ExperimentConfig, run_grid


class _RunCache:
    """Benchmark runs and their artifact directories, computed once per session.

    Runs are deterministic, so the acceptance criteria and the artifact
    manifest, which ask for many of the same configs, share one run of
    each.  A miss runs the config's baseline/treated pair through run_grid,
    as `mantra grid` does: the pair's shared prefix is computed once, and
    both arms write their artifacts.
    """

    def __init__(self, root):
        self.root = root
        self.runs = {}          # config as JSON -> (RunReport, run directory)

    def get(self, **kwargs):
        config = ExperimentConfig(**kwargs)
        key = json.dumps(config.as_dict(), sort_keys=True)
        if key not in self.runs:
            out = self.root / str(len(self.runs))
            reports = run_grid(config, [config.noise_rate], [config.seed], out_dir=str(out))
            # the arm directories end in _baseline and _mantra: sweep order
            run_dirs = sorted(path for path in out.iterdir() if path.is_dir())
            for report, run_dir in zip(reports, run_dirs):
                self.runs[json.dumps(report.config, sort_keys=True)] = (report, run_dir)
        return self.runs[key]


@pytest.fixture(scope="session")
def run_cache(tmp_path_factory):
    """The session's _RunCache: get(**config) returns (RunReport, run directory)."""
    return _RunCache(tmp_path_factory.mktemp("runs"))


@pytest.fixture(scope="session")
def bench_run(run_cache):
    """Callable returning a cached RunReport for a benchmark config."""
    return lambda **kwargs: run_cache.get(**kwargs)[0]


@pytest.fixture(scope="session")
def seeded_fits():
    """select_model(obs, k_max=5) of each of the 100 seeded EM inputs, and a
    fit of every K <= 5, run once.

    Entry i is (obs, (model, trace), fits) for obs = _seeded_em_input(i) of
    test_acceptance.py, fits being fit_em(obs, K) for K = 1..5 in K order:
    the fits select_model made, then fit_em of each order its search did not
    reach.  C3 and the EM oracle tests of test_gmm.py read them, so the fits
    run under errstate(raise): a floating-point error in the shipped loop
    fails them.
    """
    from test_acceptance import _seeded_em_input
    from test_gmm import _select_fitting_every_order
    with pytest.MonkeyPatch.context() as patch, \
            np.errstate(divide="raise", over="raise", invalid="raise"):
        return [(obs, *_select_fitting_every_order(patch, gmm._em, obs, 5))
                for obs in map(_seeded_em_input, range(100))]


@pytest.fixture()
def tiny_cls_config():
    """Classification config small enough for sub-second runner tests."""

    def make(**overrides):
        base = dict(
            task="classification",
            seed=3,
            noise_rate=0.15,
            epochs=4,
            warmup=1,
            n_train=60,
            n_val=16,
            n_test=16,
            n_features=8,
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    return make


@pytest.fixture()
def tiny_sum_config():
    def make(**overrides):
        base = dict(
            task="summarization",
            seed=3,
            noise_rate=0.15,
            epochs=4,
            warmup=1,
            n_train=40,
            n_val=10,
            n_test=10,
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    return make


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)
