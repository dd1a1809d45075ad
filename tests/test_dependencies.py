"""taubound has no runtime dependency: the command-line pipeline runs in a
fresh interpreter where sympy cannot be imported, and loads no sympy
module."""

import os
import subprocess
import sys

from conftest import corpus_path

FIELDS = ("Fp 2", "Fp 3", "Fp 5", "Fp 7", "Fp 32003", "Q")

# the child makes sympy unimportable, runs `enumerate` and `report` on each
# algebra file named in argv, and prints the sympy modules it has loaded
CHILD = r"""
import sys
sys.modules["sympy"] = None
from taubound.cli import cli_run
for path in sys.argv[1:]:
    for command in ("enumerate", "report"):
        code = cli_run([command, "--algebra", path])
        if code != 0:
            raise SystemExit(f"{command} {path} exited {code}")
print("sympy modules:", sorted(name for name, module in sys.modules.items()
                               if name.startswith("sympy") and module is not None))
"""


def test_pipeline_runs_without_sympy(tmp_path):
    paths = []
    for name in ("line3", "arrow_loop"):
        with open(corpus_path(f"{name}.alg")) as fh:
            text = fh.read()
        for field in FIELDS:
            path = tmp_path / f"{name}_{field.replace(' ', '')}.alg"
            path.write_text(text.replace("field Fp 32003", f"field {field}"))
            paths.append(str(path))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CHILD, *paths], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.rstrip().endswith("sympy modules: []")
