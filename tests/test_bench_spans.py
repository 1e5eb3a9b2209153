"""The benchmark's traced run wraps package functions by name
(``perfbench/spans.py``); a wrapped name that disappears, or a CLI path that
stops going through one, must fail here and not only in the traced run."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

ARGVS = [
    ["local", "x^4,x^6+x^7", "--show", "reduced"],
    ["deform", "local", "x^4,x^6+x^7"],
    ["global", "x^6+x^3,x^4", "--show", "all"],
]

# installs the spans, runs the CLI with them on and prints the exit code
# and the span names of each run; it never calls T.dump, so nothing is
# written under perfbench/
SCRIPT = """
import contextlib, io, json, sys
import spans
from curvesgp import cli
T = spans.T
spans.install()
T.on = True
runs = []
for argv in json.loads(sys.argv[1]):
    first = len(T.start)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    runs.append([code, sorted({T.names[T.name[i]] for i in range(first, len(T.start))})])
print(json.dumps(runs))
"""


def test_traced_cli_runs_record_every_wrapped_layer():
    before = sorted(os.listdir(PERFBENCH))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), PERFBENCH]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(ARGVS)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert [code for code, _ in runs] == [0, 0, 0]
    # every command builds its basis through a wrapped binding
    assert all("basis.build" in names for _, names in runs)
    assert {name for _, names in runs for name in names} >= {
        "basis.build", "basis.reduced", "deformation.deform",
        "numsgp.presentation", "reduction.reduce.algorithmic",
        "reduction.reduce.expression", "reduction.reduce.reduced"}
    assert sorted(os.listdir(PERFBENCH)) == before
