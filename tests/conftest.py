import importlib.util
import os

import pytest
from hypothesis import HealthCheck, settings

from taubound import parse_algebra_file, parse_registry_file

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS, name)


def perfbench_algebras():
    """The benchmark's algebra texts, read from the source checkout."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "algebras.py")
    spec = importlib.util.spec_from_file_location("perfbench_algebras", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pytest_terminal_summary(terminalreporter):
    """One line per acceptance criterion, printed whatever the capture
    settings are.  The results list lives in test_acceptance; look it up
    by module name so this works under any pytest import mode."""
    import sys

    for name, mod in list(sys.modules.items()):
        if name.rpartition(".")[2] != "test_acceptance":
            continue
        results = getattr(mod, "CRITERIA_RESULTS", None)
        if results:
            terminalreporter.section("acceptance criteria")
            for label, ok in results:
                terminalreporter.write_line(
                    f"[{'PASS' if ok else 'FAIL'}] {label}")
            return


@pytest.fixture(scope="session")
def arrow_loop():
    return parse_algebra_file(corpus_path("arrow_loop.alg"))


@pytest.fixture(scope="session")
def line2():
    return parse_algebra_file(corpus_path("line2.alg"))


@pytest.fixture(scope="session")
def line3():
    return parse_algebra_file(corpus_path("line3.alg"))


@pytest.fixture(scope="session")
def discrete2():
    return parse_algebra_file(corpus_path("discrete2.alg"))


@pytest.fixture(scope="session")
def corpus_algebras(arrow_loop, line2, line3, discrete2):
    return {"arrow_loop": arrow_loop, "line2": line2, "line3": line3,
            "discrete2": discrete2}


@pytest.fixture(scope="session")
def known_registry():
    return parse_registry_file(corpus_path("known.reg"))
