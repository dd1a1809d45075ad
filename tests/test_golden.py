"""Golden outputs: the exact bytes of the graph export and of the bound
reports on every corpus algebra, pinned by sha256.

A change to any digest means the package's output changed.  Update the
table only when that change is intended, and say why where it lands.
"""

import hashlib

import pytest

from taubound import enumerate_stt, export_graph_json, graph_reports
from taubound.reports import canonical_json

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


def _sha256(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_corpus_outputs_are_byte_identical(name, corpus_algebras, known_registry):
    A = corpus_algebras[name]
    graph_digest, reports_digest = GOLDEN[name]
    assert _sha256(export_graph_json(enumerate_stt(A, seed=0))) == graph_digest
    _, reports = graph_reports(A, registry=known_registry, seed=0)
    assert _sha256([r.to_json_dict() for r in reports]) == reports_digest
