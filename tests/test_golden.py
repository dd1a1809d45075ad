"""Golden outputs: the exact bytes of the graph export and of the bound
reports on every corpus algebra, and of `taubound endo` on corpus
modules, pinned by sha256.

A change to any digest means the package's output changed.  Update the
table only when that change is intended, and say why where it lands.
"""

import hashlib

import pytest

from taubound import enumerate_stt, export_graph_json, graph_reports
from taubound.cli import cli_run
from taubound.reports import canonical_json
from conftest import corpus_path

# algebra -> (export_graph_json(enumerate_stt(A, seed=0)),
#             graph_reports(A, registry=known.reg, seed=0))
GOLDEN = {
    "arrow_loop": ("8f00d3c4c35400c98ea372c4b24a507af28a5f2a68581cc758a816b37b5f7c49",
                   "6eb26abe116085bcf6421068eeeb980ee96b42501f5feed1080c66258736507c"),
    "discrete2": ("ea78b373251c3321efa3a81e190a770919bc4923780b325b59b8cf10cd1d899b",
                  "95aaa07ae23197aca1a2253e0bdaf8e228d9c92529d484323f607078faa9efe0"),
    "line2": ("975345a057b4ddb035c5a6499ae84f625e12fb95a18ec1750754007b88cabb9f",
              "462b83b5a57f03c7cf41427cbd912ee5db7320f0c85a920b4864eb87a4d258de"),
    "line3": ("f0822efe8c4ed2de7e6c506ca34eecb6c068cf8b005ff0d23c4a32d1a32c9e9b",
              "0c50359466c179f6b6ae0543a06841f85618c66145268d4b434eb5c19a00975d"),
}

# (algebra, module) -> the stdout of `taubound endo --algebra <algebra>.alg
# --module <module> --registry known.reg --seed 0`, as text and as JSON
ENDO_GOLDEN = {
    ("arrow_loop", "P(1)+P(2)"):
        ("26ea046aca69616f808742536b1664cbc6945115c0187fb80e0d1ed28127442a",
         "6cfd58df36561c749e303e45edf66bf994b7cc0d6a6f251e05fd996d80e55469"),
    ("arrow_loop", "P(1)+S(1)"):
        ("69badfdb1272264e4bc683b57a3c688d949e43eceb203344338df7132b091ccf",
         "eee32c98d909c9edf4eddd8e3d85454a7f5531cb6c811044cac84f4acf0aabf3"),
    ("arrow_loop", "S(1)"):
        ("1bab6969481a8e1aab1203501d2cfd9823171a29fe8ea0c8b070b570872fdb99",
         "06b8fa47552a8c2bc8b8c0be26d7eeb7986f296d6cbbc8f36eeef0a5ce4edc04"),
    ("arrow_loop", "radsquare"):
        ("8eab984104c8892408ec3597ff79d10197fe988f616a0fa3c272e2d5d222a387",
         "0b9e91b1749b007ea3d7f3c542b5c2a33db4452aa9c76bd0c1c42fa7856a740e"),
    ("line2", "P(1)+S(1)"):
        ("69badfdb1272264e4bc683b57a3c688d949e43eceb203344338df7132b091ccf",
         "eee32c98d909c9edf4eddd8e3d85454a7f5531cb6c811044cac84f4acf0aabf3"),
    ("line3", "P(1)+P(2)+P(3)"):
        ("6ae09fbf8b432262ecec33b7907c935ccb6bf796da3289c1a5b923cf8d2e2583",
         "39d2a5ae51e29c06fab4b044220d75932b9dfa53843dd2b487d2bd199f1ab6e2"),
    ("line3", "P(1)+S(1)+P(3)"):
        ("64ee6ac9cc33a80b7fe77ad90780d75d41df69b5c2fcb38a22ac405c29cc80cc",
         "8a9dceb72b5aad910928ea2d42e749e26331a2a48f1e706983b4eb509f10a2a0"),
    ("discrete2", "P(1)+P(2)"):
        ("e0ae98372e2532032af5e6cc176a26ed413304970072f42181c5feb2b1663a06",
         "10a26d1bb2d52cb251f07ecf3db30dca65a971f9100d2ce84d374f5df7cf6235"),
}


def _sha256(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_corpus_outputs_are_byte_identical(name, corpus_algebras, known_registry):
    A = corpus_algebras[name]
    graph_digest, reports_digest = GOLDEN[name]
    assert _sha256(export_graph_json(enumerate_stt(A, seed=0))) == graph_digest
    _, reports = graph_reports(A, registry=known_registry, seed=0)
    assert _sha256([r.to_json_dict() for r in reports]) == reports_digest


@pytest.mark.parametrize("name,module", sorted(ENDO_GOLDEN))
def test_endo_outputs_are_byte_identical(name, module, capsys):
    for fmt, digest in zip(("text", "json"), ENDO_GOLDEN[name, module]):
        assert cli_run(["endo", "--algebra", corpus_path(f"{name}.alg"), "--module", module,
                        "--registry", corpus_path("known.reg"), "--seed", "0",
                        "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
