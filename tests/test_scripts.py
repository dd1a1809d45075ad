"""Smoke test of scripts/enumerate_corpus.py, which calls the public API
directly and has no caller inside the package."""

import importlib.util
import os

from taubound.cli import cli_run
from conftest import CORPUS, corpus_path

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                      "enumerate_corpus.py")

# (nodes, edges) of each corpus exchange graph: n-regular, so edges = nodes * n / 2
COUNTS = {"arrow_loop": (5, 5), "discrete2": (4, 4), "line2": (5, 5), "line3": (14, 21)}


def _script():
    spec = importlib.util.spec_from_file_location("enumerate_corpus", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_enumerate_corpus_table_and_exports(tmp_path, capsys):
    out = tmp_path / "graphs"
    assert _script().main([CORPUS, "--out", str(out), "--seed", "0"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["algebra", "dim", "nodes", "edges", "secs"]
    counts = {r.split()[0]: (int(r.split()[2]), int(r.split()[3])) for r in rows[1:]}
    assert counts == COUNTS
    for name in COUNTS:
        for fmt in ("json", "dot"):
            assert cli_run(["enumerate", "--algebra", corpus_path(f"{name}.alg"),
                            "--format", fmt, "--seed", "0"]) == 0
            assert (out / f"{name}.{fmt}").read_text() == capsys.readouterr().out, \
                (name, fmt)
