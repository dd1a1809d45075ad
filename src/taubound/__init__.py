"""Support tau-tilting pairs over bound quiver algebras: the AR translate,
certified decomposition, exchange-graph enumeration by mutation, and
derived-dimension bound reports."""

from .algebra import (Arrow, BoundQuiverAlgebra, Ideal, Quiver,
                      construct_algebra, delete_vertices, factor_algebra,
                      loewy_length, make_relation, opposite, radical)
from .decompose import Decomposition, decompose, iso_test
from .endo import (DerdimEstimate, derdim_estimate, dynkin_type, endo_algebra,
                   is_hereditary, merge_estimates, quiver_presentation)
from .exceptions import CertificationError, InputError, TaubError
from .fields import QQ, PrimeField, RationalField, default_prime_field
from .mutation import (ExchangeGraph, GraphEdge, GraphNode, IsoRegistry,
                       compact_label, enumerate_stt, fac_contains,
                       minimal_left_approximation, mutate, mutate_down,
                       pair_key)
from .parsing import (parse_algebra_file, parse_algebra_text,
                      parse_module_file, parse_module_text,
                      parse_registry_file, parse_registry_text)
from .reports import (BoundReport, TiltingProxyReport, canonical_json,
                      derdim_bound_report, export_graph_dot,
                      export_graph_json, graph_reports,
                      quotient_by_annihilator, tilting_proxy_check)
from .reps import (ModMap, Rep, annihilator, cokernel, direct_sum, dual, ext1_dim,
                   global_dimension, hom_basis, hom_dim, image, injective_rep,
                   is_faithful, kernel, minimal_presentation, projective,
                   projective_cover, projective_dimension, simple, zero_rep)
from .tau import (SttPair, ValidationResult, classify_pair, hom_to_tau,
                  is_tau_rigid, tau, tau_data, validate_stt_pair)

__version__ = "0.1.0"

__all__ = [
    "Arrow", "BoundQuiverAlgebra", "Ideal", "Quiver", "construct_algebra",
    "delete_vertices", "factor_algebra", "loewy_length", "make_relation",
    "opposite", "radical",
    "Decomposition", "decompose", "iso_test",
    "DerdimEstimate", "derdim_estimate", "dynkin_type", "endo_algebra",
    "is_hereditary", "merge_estimates", "quiver_presentation",
    "CertificationError", "InputError", "TaubError",
    "QQ", "PrimeField", "RationalField", "default_prime_field",
    "ExchangeGraph", "GraphEdge", "GraphNode", "IsoRegistry",
    "compact_label", "enumerate_stt", "fac_contains",
    "minimal_left_approximation", "mutate", "mutate_down", "pair_key",
    "parse_algebra_file", "parse_algebra_text", "parse_module_file",
    "parse_module_text", "parse_registry_file", "parse_registry_text",
    "BoundReport", "TiltingProxyReport", "canonical_json",
    "derdim_bound_report", "export_graph_dot", "export_graph_json",
    "graph_reports", "quotient_by_annihilator", "tilting_proxy_check",
    "ModMap", "Rep", "annihilator", "cokernel", "direct_sum", "dual", "ext1_dim",
    "global_dimension", "hom_basis", "hom_dim", "image", "injective_rep", "is_faithful",
    "kernel", "minimal_presentation", "projective", "projective_cover",
    "projective_dimension", "simple", "zero_rep",
    "SttPair", "ValidationResult", "classify_pair", "hom_to_tau",
    "is_tau_rigid", "tau", "tau_data", "validate_stt_pair",
]
