"""End-to-end CLI coverage through cli_run (in-process, no subprocess).
"""

import ast
import json
import os

import pytest

import taubound
from taubound.cli import cli_run
from conftest import corpus_path


ALG = corpus_path("arrow_loop.alg")
REG = corpus_path("known.reg")


def run(capsys, *argv):
    code = cli_run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# happy paths, one per subcommand


def test_validate_algebra_only(capsys):
    code, out, err = run(capsys, "validate", "--algebra", ALG)
    assert code == 0 and not err
    assert "dim 4" in out and "2 vertices" in out and "2 relations" in out


def test_validate_pair(capsys):
    code, out, _ = run(capsys, "validate", "--algebra", ALG,
                       "--module", "P(1)+S(1)")
    assert code == 0
    assert "valid-stt" in out


def test_tau_names_the_translate(capsys):
    code, out, _ = run(capsys, "tau", "--algebra", ALG, "--module", "S(1)")
    assert code == 0
    assert "tau has dimension vector (0,2) (total 2)" in out
    assert "isomorphic to P(2)" in out


def test_tau_of_projective_is_zero(capsys):
    code, out, _ = run(capsys, "tau", "--algebra", ALG, "--module",
                       "P(1)+P(2)")
    assert code == 0
    assert "(0,0)" in out and "isomorphic to 0" in out


def test_rigid(capsys):
    code, out, _ = run(capsys, "rigid", "--algebra", ALG, "--module", "S(1)")
    assert code == 0 and out.strip() == "tau-rigid"
    code, out, _ = run(capsys, "rigid", "--algebra", ALG, "--module", "S(2)")
    assert code == 0 and "not tau-rigid" in out


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--algebra", ALG)
    assert code == 0
    assert "5 pairs, 5 exchanges" in out
    assert "P1+S1   [tau-tilting-not-tilting]" in out


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--algebra", ALG,
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_nodes"] == 5
    assert {n["key"] for n in payload["nodes"]} == {
        "P1+P2", "P2", "P1+S1", "S1", "0"}


def test_enumerate_dot(capsys):
    code, out, _ = run(capsys, "enumerate", "--algebra", ALG,
                       "--format", "dot")
    assert code == 0
    assert out.startswith("digraph exchange {")
    assert out.count("color=red") == 1


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--algebra", ALG,
                       "--module", "P(1)+S(1)")
    assert code == 0 and out.strip() == "tau-tilting-not-tilting"
    code, out, _ = run(capsys, "classify", "--algebra", ALG, "--module", "0")
    assert code == 0 and out.strip() == "zero"


def test_endo(capsys):
    code, out, _ = run(capsys, "endo", "--algebra", ALG,
                       "--module", "P(1)+S(1)", "--registry", REG)
    assert code == 0
    assert "dim 3" in out
    assert "derdim estimate: 0 (exact, rule:hereditary-dynkin)" in out


def test_annihilator(capsys):
    code, out, _ = run(capsys, "annihilator", "--algebra", ALG,
                       "--module", "P(1)+S(1)")
    assert code == 0
    assert "dimension 1" in out and "beta" in out
    assert "nilpotency index 2" in out


def test_annihilator_of_faithful(capsys):
    code, out, _ = run(capsys, "annihilator", "--algebra", ALG,
                       "--module", "P(1)+P(2)")
    assert code == 0
    assert "annihilator is zero" in out


def test_loewy(capsys):
    code, out, _ = run(capsys, "loewy", "--algebra", ALG)
    assert code == 0
    assert "dim 4, radical dim 2, Loewy length 2" in out


def test_report_single_pair(capsys):
    code, out, _ = run(capsys, "report", "--algebra", ALG,
                       "--module", "P(1)+S(1)", "--registry", REG)
    assert code == 0
    assert "tight" in out
    assert "r=2" in out and "d_B=0" in out


def test_report_json_payload(capsys):
    code, out, _ = run(capsys, "report", "--algebra", ALG,
                       "--module", "P(1)+S(1)", "--registry", REG,
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "tight"
    assert payload["r"] == 2
    assert payload["rhs"] == {"value": 1, "kind": "exact"}
    assert payload["ann_dim"] == 1


def test_report_whole_graph(capsys):
    code, out, _ = run(capsys, "report", "--algebra", ALG,
                       "--registry", REG)
    assert code == 0
    assert "5 pairs" in out
    assert "tight=2" in out and "inapplicable=3" in out


def test_module_name_resolution(capsys):
    # a bare module name resolves to <name>.mod next to the algebra file;
    # radsquare.mod is the loop-vertex simple, which is not rigid
    code, out, _ = run(capsys, "rigid", "--algebra", ALG,
                       "--module", "radsquare")
    assert code == 0 and "not tau-rigid" in out


# ---------------------------------------------------------------------------
# exit codes and error text


def test_exit_2_on_missing_file(capsys):
    code, _, err = run(capsys, "validate", "--algebra", "no_such.alg")
    assert code == 2
    assert err.startswith("error: validate:")


def test_exit_2_on_bad_module_expression(capsys):
    code, _, err = run(capsys, "tau", "--algebra", ALG,
                       "--module", "Q(1)")
    assert code == 2
    assert "error: tau:" in err and "Q(1)" in err


def test_exit_2_on_unknown_vertex(capsys):
    code, _, err = run(capsys, "tau", "--algebra", ALG, "--module", "P(9)")
    assert code == 2
    assert "unknown vertex" in err


def test_exit_2_on_invalid_classify(capsys):
    code, _, err = run(capsys, "classify", "--algebra", ALG,
                       "--module", "P(1)")
    assert code == 2
    assert "error: classify:" in err


def test_exit_2_on_zero_denominator(capsys, tmp_path):
    alg = tmp_path / "f7.alg"
    alg.write_text("algebra f7\nfield Fp 7\nvertices 1 2\narrow a: 1 -> 2\n")
    mod = tmp_path / "m.mod"
    mod.write_text("module m over f7\ndims 1 1\nmap a = [[1/7]]\nend\n")
    code, _, err = run(capsys, "rigid", "--algebra", str(alg),
                       "--module", str(mod))
    assert code == 2
    assert "m.mod:3: bad scalar '1/7'" in err


def _two_vertex_algebra(tmp_path, p):
    alg = tmp_path / "big.alg"
    alg.write_text(f"algebra big\nfield Fp {p}\nvertices 1 2\narrow a: 1 -> 2\n")
    return str(alg)


# a strong pseudoprime to the bases 2, 3, 5 and 7; one to every base up to
# 37; and the least one to the first 13 prime bases
@pytest.mark.parametrize("p", [3215031751, 318665857834031151167461,
                               3317044064679887385961981])
def test_exit_2_on_a_composite_that_passes_small_base_tests(capsys, tmp_path, p):
    code, _, err = run(capsys, "validate", "--algebra", _two_vertex_algebra(tmp_path, p))
    assert code == 2
    assert f"field Fp needs a prime, got {p}" in err


@pytest.mark.parametrize("p", [2 ** 61 - 1, 2 ** 89 - 1])
def test_a_large_prime_field_is_accepted(capsys, tmp_path, p):
    code, out, err = run(capsys, "validate", "--algebra", _two_vertex_algebra(tmp_path, p))
    assert code == 0 and not err
    assert "dim 3" in out


def test_exit_2_on_a_decomposable_listed_summand(capsys, tmp_path):
    # P(1) + P(2) written out as one summand: a valid pair, listed wrongly
    mod = tmp_path / "both.mod"
    mod.write_text("module both over arrow_loop\ndims 1 3\n"
                   "map alpha = [[1],[0],[0]]\n"
                   "map beta = [[0,0,0],[0,0,0],[0,1,0]]\nend\n")
    code, _, err = run(capsys, "report", "--algebra", ALG, "--module", str(mod))
    assert code == 2
    assert "error: report:" in err and "decomposable" in err


def test_exit_3_on_budget(capsys):
    code, _, err = run(capsys, "enumerate", "--algebra",
                       corpus_path("line3.alg"), "--max-nodes", "2")
    assert code == 3
    assert err.startswith("certification failure: enumerate:")
    assert "enumeration budget exceeded" in err


@pytest.mark.parametrize("command,budget", [("enumerate", "-3"), ("enumerate", "0"),
                                            ("report", "-1")])
def test_exit_2_on_a_non_positive_budget(capsys, command, budget):
    code, out, err = run(capsys, command, "--algebra", corpus_path("line3.alg"),
                         "--max-nodes", budget)
    assert code == 2 and not out
    assert err.startswith(f"error: {command}:")
    assert f"--max-nodes must be at least 1, got {budget}" in err


@pytest.mark.parametrize("entry,fragment", [
    # an exact derdim A above the Loewy bound of the first pair's End(M)
    ("derdim arrow_loop = 3",
     "registry entry 'arrow_loop' contradicts the report on pair "
     "P1+P2 of arrow_loop: upper estimate 1 (loewy-bound) below exact value 3"),
    # every quotient is named A/I, so the name cannot be looked up
    ("derdim arrow_loop/I = 5",
     ":1: registry entry 'arrow_loop/I' names a quotient A/I"),
])
def test_exit_2_on_a_registry_contradiction(capsys, tmp_path, entry, fragment):
    reg = tmp_path / "bad.reg"
    reg.write_text(entry + "\n")
    code, out, err = run(capsys, "report", "--algebra", ALG, "--registry", str(reg))
    assert code == 2 and not out
    assert err.startswith("error: report:") and fragment in err


def test_no_module_raises_runtime_error():
    # RuntimeError has no exit code under the CLI contract: a failed
    # certificate raises CertificationError (exit 3), bad input InputError
    package = os.path.dirname(taubound.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                found.append(f"{name}:{node.lineno}")
    assert not found


def test_usage_error_exits_nonzero(capsys):
    code, _, _ = run(capsys, "tau", "--algebra", ALG)   # missing --module
    assert code == 2


# ---------------------------------------------------------------------------
# seeds and determinism


def test_json_outputs_are_byte_identical_across_runs(capsys):
    _, a, _ = run(capsys, "report", "--algebra", ALG, "--registry", REG,
                  "--format", "json")
    _, b, _ = run(capsys, "report", "--algebra", ALG, "--registry", REG,
                  "--format", "json")
    assert a == b


def test_seed_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("TAUBOUND_SEED", "17")
    code, a, _ = run(capsys, "enumerate", "--algebra", ALG,
                     "--format", "json")
    assert code == 0
    code, b, _ = run(capsys, "enumerate", "--algebra", ALG,
                     "--seed", "17", "--format", "json")
    assert code == 0
    assert a == b
    monkeypatch.setenv("TAUBOUND_SEED", "not-a-number")
    code, _, err = run(capsys, "enumerate", "--algebra", ALG)
    assert code == 2
    assert "TAUBOUND_SEED" in err
