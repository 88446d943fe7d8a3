"""Cold-start guard: what a fresh interpreter loads, and that deferred imports still work.

The package never imports scipy.optimize, and imports scipy.special only for
normal disorder draws, so importing the package, running a uniform sweep or
running the optimizer loads neither.  Each check runs in its own fresh
interpreter, since this test process has already loaded both.  The interpreters
start together: each spends about 0.7 s importing numpy and scipy.linalg.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spintransfer
from spintransfer import Objective, normal_disorder, optimize_apollaro, uniform_chain
from spintransfer.disorder import draw_realizations

SRC = Path(spintransfer.__file__).resolve().parents[1]
DEFERRED = ("scipy.optimize", "scipy.special")
LOADED = f"[m for m in {DEFERRED!r} if m in sys.modules]"
DRAW = "draw_realizations(uniform_chain(11), normal_disorder(0.1, 0.05, seed=7), 3, 70)"
OPTIMIZE = "optimize_apollaro(Objective(n=15), 0.5, 0.8, restarts=0, max_iter=15)"

CHECKS = {
    "import": "import spintransfer, spintransfer.cli\n"
              f"print(json.dumps({LOADED}))",
    "uniform_sweep": "import contextlib, io\n"
                     "from spintransfer import cli\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     "    code = cli.main(['sweep', '--model', 'uniform', '--n', '11',\n"
                     "                     '--j-axis', '0:0.1:0.1', '--b-axis', '0.05',\n"
                     "                     '--j-axis-name', 'delta_J', '--b-axis-name', 'delta_B',\n"
                     "                     '--samples', '5', '--out', sys.argv[1]])\n"
                     "rows = open(sys.argv[1]).read().count('\\n')\n"
                     f"print(json.dumps([code, rows, {LOADED}]))",
    "normal_draw": "from spintransfer import normal_disorder, uniform_chain\n"
                   "from spintransfer.disorder import draw_realizations\n"
                   f"before = {LOADED}\n"
                   f"c, f = {DRAW}\n"
                   "print(json.dumps([before, c.tobytes().hex(), f.tobytes().hex()]))",
    "optimizer": "from spintransfer import Objective, optimize_apollaro\n"
                 f"r = {OPTIMIZE}\n"
                 "print(json.dumps([r.x.hex(), r.y.hex(), r.objective_value.hex(),\n"
                 f"                  r.evaluations, {LOADED}]))",
}


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """Start every check in a new interpreter that imports the package from this
    checkout; fresh(name) waits for that check and returns the JSON it printed."""
    csv = tmp_path_factory.mktemp("cold") / "sweep.csv"
    procs = {name: subprocess.Popen([sys.executable, "-c", "import json, sys\n" + code,
                                     str(csv)],
                                    env={**os.environ, "PYTHONPATH": str(SRC)},
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for name, code in CHECKS.items()}

    def result(name):
        out, err = procs[name].communicate(timeout=60)
        assert procs[name].returncode == 0, err
        return json.loads(out)

    yield result
    for proc in procs.values():
        proc.kill()
        proc.communicate()


def test_import_loads_neither_optimize_nor_special(fresh):
    assert fresh("import") == []


def test_uniform_sweep_loads_neither(fresh):
    # exit 0; format line, header and two cells; neither package loaded
    assert fresh("uniform_sweep") == [0, 4, []]


def test_normal_draw_in_a_fresh_process_is_bit_identical(fresh):
    couplings, fields = eval(DRAW)
    assert fresh("normal_draw") == [[], couplings.tobytes().hex(), fields.tobytes().hex()]


def test_short_optimizer_run_in_a_fresh_process(fresh):
    result = eval(OPTIMIZE)
    assert result.evaluations > 0 and np.isfinite(result.objective_value)
    # bit-identical, and neither package loaded
    assert fresh("optimizer") == [result.x.hex(), result.y.hex(),
                                  result.objective_value.hex(), result.evaluations, []]
