"""The narrative scripts in demos/ run clean against this checkout.

Each demo runs in its own fresh interpreter with PYTHONPATH pointing at this
checkout's src, in an empty working directory.  The interpreters start
together: each takes 0.4-0.9 s.  A demo passes when it exits 0 and writes
nothing to stderr, so a warning or a traceback from any public call it makes
fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spintransfer

SRC = Path(spintransfer.__file__).resolve().parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """Start every demo at once; finished(path) waits for it and returns
    (exit code, stdout, stderr)."""
    cwd = tmp_path_factory.mktemp("demos")
    procs = {path: subprocess.Popen([sys.executable, str(path)], cwd=cwd,
                                    env={**os.environ, "PYTHONPATH": str(SRC)},
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for path in DEMOS}

    def result(path):
        out, err = procs[path].communicate(timeout=120)
        return procs[path].returncode, out, err

    yield result
    for proc in procs.values():
        proc.kill()
        proc.communicate()


def test_there_are_five_demos():
    assert [path.name for path in DEMOS] == [
        "01_chain_models.py", "02_windowed_encoding.py", "03_disorder_monte_carlo.py",
        "04_apollaro_tuning.py", "05_robustness_and_fermions.py"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_clean(path, finished):
    code, out, err = finished(path)
    assert (code, err) == (0, "")
    assert out
