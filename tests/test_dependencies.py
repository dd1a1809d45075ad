"""taubound has no runtime dependency: the command-line pipeline runs in a
fresh interpreter where sympy cannot be imported, and loads no sympy
module.  No package module imports a name it never uses."""

import ast
import os
import subprocess
import sys

import taubound
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


def test_no_module_imports_a_name_it_does_not_use():
    package = os.path.dirname(taubound.__file__)
    unused = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "__init__.py":   # __init__ re-exports
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name.split(".")[0]): node.lineno
                                 for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({(a.asname or a.name): node.lineno for a in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {bound}" for bound, line in imported.items()
                   if bound not in used]
    assert not unused
