"""Every artifact of the default grids equals the committed manifest, byte for byte.

tests/artifact_digests.txt is `python3 tools/artifact_digests.py`'s output:
the environment it was built in, then one SHA-256 per run directory and per
summary.csv of `mantra grid --task cls` and `mantra grid --task sum` at
their defaults.  This test rebuilds it through the same CLI calls, with each
arm served from the session run cache that the acceptance criteria share.
A change that means to alter an artifact regenerates the manifest.
"""

import os
import subprocess
import sys
from pathlib import Path

from mantra import runner

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "artifact_digests.txt"


def _entries(lines):
    """name -> digest of each manifest line after the environment line."""
    return dict(line.rsplit(" ", 1) for line in lines[1:])


def _difference(name, expected, have):
    if name not in have:
        return f"{name}: missing"
    if name not in expected:
        return f"{name}: not in the manifest"
    return f"{name}: differs"


def test_default_grids_match_the_manifest(monkeypatch, tmp_path, run_cache, digest_tool):
    want = MANIFEST.read_text(encoding="utf-8").splitlines()
    env = digest_tool.environment()
    assert env == want[0], f"the manifest was built on '{want[0]}', this is '{env}'"

    def cached_grid(base_config, rates, seeds, out_dir=None):
        # what run_grid writes, with every arm taken from the session cache
        os.makedirs(out_dir)
        reports = []
        for config in runner.grid_configs(base_config, rates, seeds):
            report, run_dir = run_cache.get(**config.as_dict())
            os.symlink(run_dir, os.path.join(out_dir, run_dir.name))
            reports.append(report)
        runner.write_summary(os.path.join(out_dir, "summary.csv"), reports)
        return reports

    monkeypatch.delenv("MANTRA_OUT", raising=False)
    monkeypatch.setattr(runner, "run_grid", cached_grid)
    got = digest_tool.manifest(str(tmp_path))
    expected, have = _entries(want), _entries(got)
    differ = [_difference(name, expected, have) for name in sorted(expected.keys() | have.keys())
              if expected.get(name) != have.get(name)]
    assert not differ, "artifacts differ from tests/artifact_digests.txt:\n" + "\n".join(differ)


def test_environment_names_the_blas_core():
    # OpenBLAS reads OPENBLAS_CORETYPE as it loads, so ask a fresh interpreter
    script = "import runpy, sys; print(runpy.run_path(sys.argv[1])['environment']())"
    out = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "tools" / "artifact_digests.py")],
        env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"},
        capture_output=True, text=True, check=True).stdout
    assert "; blas core Haswell; " in out
