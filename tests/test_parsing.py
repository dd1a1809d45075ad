"""Grammar coverage for the .alg / .mod / .reg readers.

Exercises every directive, the block forms, matrix continuation lines,
and a pile of malformed inputs that must fail with a line-numbered
InputError.
"""

from fractions import Fraction

import pytest

from taubound import InputError, QQ
from taubound.parsing import (parse_algebra_text, parse_module_text,
                              parse_registry_text)


LOOP_ALG = """\
# two vertices, a loop on the second
algebra demo
field Fp 32003
vertices 1 2
arrow alpha: 1 -> 2
arrow beta: 2 -> 2
relations
  alpha*beta
  beta*beta
end
"""


def test_algebra_happy_path():
    A = parse_algebra_text(LOOP_ALG)
    assert A.name == "demo"
    assert A.field.characteristic == 32003
    assert A.n_vertices == 2
    assert [a.label for a in A.quiver.arrows] == ["alpha", "beta"]
    assert len(A.relations) == 2
    # both length-2 paths die, leaving the lazy paths and the two arrows
    assert A.dim == 4


def test_algebra_rational_field_and_single_line_relation():
    A = parse_algebra_text(
        "algebra frac\n"
        "field Q\n"
        "vertices 1 2 3\n"
        "arrow a: 1 -> 2\n"
        "arrow b: 2 -> 3\n"
        "arrow c: 1 -> 2\n"
        "relation 1/2 * a*b - c*b\n"
    )
    assert A.field is QQ
    assert A.dim == 7


def test_algebra_compact_field_spelling():
    A = parse_algebra_text(
        "algebra tiny\nfield Fp(7)\nvertices 1\n")
    assert A.field.characteristic == 7 and A.dim == 1


@pytest.mark.parametrize("line,fragment", [
    ("field Z", "bad field"),
    ("field Fp 6", "needs a prime"),
    ("vertices 1 1", "duplicate vertex"),
    ("wibble 3", "unknown directive"),
])
def test_algebra_line_errors(line, fragment):
    text = "algebra bad\n" + line + "\nvertices 9\n"
    with pytest.raises(InputError, match=fragment):
        parse_algebra_text(text)


def test_algebra_unknown_vertex_in_arrow():
    with pytest.raises(InputError, match=r"<algebra>:4: unknown vertex"):
        parse_algebra_text(
            "algebra bad\nfield Q\nvertices 1 2\narrow a: 1 -> 3\n")


def test_algebra_duplicate_arrow_label():
    with pytest.raises(InputError, match="duplicate arrow label"):
        parse_algebra_text(
            "algebra bad\nfield Q\nvertices 1 2\n"
            "arrow a: 1 -> 2\narrow a: 2 -> 1\n")


def test_algebra_bad_arrow_syntax():
    with pytest.raises(InputError, match="arrow syntax"):
        parse_algebra_text(
            "algebra bad\nfield Q\nvertices 1 2\narrow a 1 2\n")


def test_algebra_unclosed_relations_block():
    with pytest.raises(InputError, match="missing its 'end'"):
        parse_algebra_text(
            "algebra bad\nfield Q\nvertices 1 2\n"
            "arrow a: 1 -> 2\nrelations\n")


def test_algebra_relation_errors():
    base = ("algebra bad\nfield Q\nvertices 1 2 3\n"
            "arrow a: 1 -> 2\narrow b: 2 -> 3\n")
    with pytest.raises(InputError, match="unknown arrow 'z'"):
        parse_algebra_text(base + "relation a*z\n")
    with pytest.raises(InputError, match="must lead its term"):
        parse_algebra_text(base + "relation a*2*b\n")
    with pytest.raises(InputError, match="square of the arrow ideal"):
        parse_algebra_text(base + "relation a\n")
    with pytest.raises(InputError, match="names no arrows"):
        parse_algebra_text(base + "relation 3\n")


@pytest.mark.parametrize("field,scalar", [
    ("Q", "1/0"), ("Fp 7", "1/0"), ("Fp 7", "1/7"), ("Fp 7", "2/14"),
])
def test_algebra_bad_relation_scalar(field, scalar):
    text = (f"algebra bad\nfield {field}\nvertices 1 2 3\n"
            f"arrow a: 1 -> 2\narrow b: 2 -> 3\nrelation {scalar}*a*b\n")
    with pytest.raises(InputError, match=r"<algebra>:6: bad scalar"):
        parse_algebra_text(text)


def test_fp_scalar_is_reduced_before_it_is_mapped():
    # 7/14 = 1/2, whose denominator is a unit mod 7
    A = parse_algebra_text("algebra half\nfield Fp 7\nvertices 1 2 3\n"
                           "arrow a: 1 -> 2\narrow b: 2 -> 3\n"
                           "relation 7/14*a*b\n")
    assert A.relations[0][0][0] == 4


def test_algebra_missing_headers():
    with pytest.raises(InputError, match="no algebra line"):
        parse_algebra_text("field Q\nvertices 1\n")
    with pytest.raises(InputError, match="no field line"):
        parse_algebra_text("algebra x\nvertices 1\n")
    with pytest.raises(InputError, match="no vertices line"):
        parse_algebra_text("algebra x\nfield Q\n")


# ---------------------------------------------------------------------------
# modules


def test_module_happy_path(arrow_loop):
    M = parse_module_text(
        "module rad over arrow_loop\n"
        "dims 0 1\n"
        "map beta = [[0]]\n"
        "end\n", arrow_loop)
    assert M.dims == (0, 1)


def test_module_multiline_matrix(line2):
    M = parse_module_text(
        "module big over line2\n"
        "dims 2 2\n"
        "map a = [[1, 0],\n"
        "         [0, 1]]\n"
        "end\n", line2)
    assert M.dims == (2, 2)
    assert M.maps[0].entry(0, 0) == line2.field.one


def test_module_omitted_maps_default_to_zero(line3):
    M = parse_module_text(
        "module z over line3\ndims 1 1 1\nend\n", line3)
    assert all(m.is_zero() for m in M.maps)


def test_module_fraction_entries():
    A = parse_algebra_text("algebra q2\nfield Q\nvertices 1 2\n"
                           "arrow a: 1 -> 2\n")
    M = parse_module_text(
        "module half over q2\ndims 1 1\nmap a = [[1/2]]\nend\n", A)
    assert M.maps[0].entry(0, 0) == Fraction(1, 2)


def test_module_respects_relations(arrow_loop):
    # beta acting invertibly on vertex 2 violates beta*beta = 0
    with pytest.raises(InputError, match="relation"):
        parse_module_text(
            "module bad over arrow_loop\n"
            "dims 0 1\nmap beta = [[1]]\nend\n", arrow_loop)


@pytest.mark.parametrize("text,fragment", [
    ("dims 0 1\nend\n", "no 'module"),
    ("module m over arrow_loop\ndims 0 1\n", "missing its 'end'"),
    ("module m over other\ndims 0 1\nend\n", "is over 'other'"),
    ("module m over arrow_loop\nend\n", "no dims line"),
    ("module m over arrow_loop\ndims 1\nend\n", "needs 2 entries"),
    ("module m over arrow_loop\ndims 0 -1\nend\n", "nonnegative"),
    ("module m over arrow_loop\nmap beta = [[0]]\n", "map before the dims"),
    ("module m over arrow_loop\ndims 0 1\nmap gamma = [[0]]\nend\n",
     "unknown arrow"),
    ("module m over arrow_loop\ndims 0 1\nmap beta = [[0]]\n"
     "map beta = [[0]]\nend\n", "duplicate map"),
    ("module m over arrow_loop\ndims 0 2\nmap beta = [[0, 0]]\nend\n",
     "needs 2 rows"),
    ("module m over arrow_loop\ndims 0 2\n"
     "map beta = [[0],[0]]\nend\n", "rows need 2 entries"),
    ("module m over arrow_loop\ndims 0 1\nmap beta = [[0]] junk\nend\n",
     "bracketed rows"),
    ("module m over arrow_loop\ndims 0 1\nmap beta = [[0] junk]\nend\n",
     "stray text"),
    ("module m over arrow_loop\ndims 0 1\nmap beta = [[x]]\nend\n",
     "bad scalar"),
    ("module m over arrow_loop\ndims 0 1\nmap beta = [[1/0]]\nend\n",
     "bad scalar '1/0'"),
    ("module m over arrow_loop\ndims 0 1\nmap beta = [[1/32003]]\nend\n",
     "bad scalar '1/32003'"),
    ("module m over arrow_loop\ndims 0 1\nend\nmodule again\n",
     "text after 'end'"),
    ("module m over arrow_loop\ndims 0 1\nfrobnicate\nend\n",
     "unknown directive"),
])
def test_module_errors(arrow_loop, text, fragment):
    with pytest.raises(InputError, match=fragment):
        parse_module_text(text, arrow_loop)


def test_module_errors_carry_line_numbers(arrow_loop):
    with pytest.raises(InputError, match=r"<module>:3:"):
        parse_module_text(
            "module m over arrow_loop\ndims 0 1\nmap gamma = [[0]]\nend\n",
            arrow_loop)


# ---------------------------------------------------------------------------
# registries


def test_registry_happy_path():
    reg = parse_registry_text(
        "# comments are fine\n"
        "derdim arrow_loop = 1\n"
        "derdim line2 <= 3\n")
    assert reg == {"arrow_loop": ("exact", 1), "line2": ("upper", 3)}


def test_registry_syntax_error():
    with pytest.raises(InputError, match=r"<registry>:1: registry syntax"):
        parse_registry_text("derdim foo == 2\n")


def test_registry_duplicate():
    with pytest.raises(InputError, match="duplicate registry entry"):
        parse_registry_text("derdim a = 1\nderdim a = 2\n")


def test_registry_refuses_a_quotient_name():
    with pytest.raises(InputError, match=r"<registry>:2: registry entry "
                                         r"'pp3/I' names a quotient"):
        parse_registry_text("derdim pp3 <= 2\nderdim pp3/I = 0\n")


def test_registry_comments_and_blanks_only():
    assert parse_registry_text("# nothing\n\n") == {}


# ---------------------------------------------------------------------------
# corpus files round-trip through the same code path


def test_corpus_algebras_parse(corpus_algebras):
    dims = {A.name: A.dim for A in corpus_algebras.values()}
    assert dims == {"arrow_loop": 4, "line2": 3, "line3": 6, "discrete2": 2}


def test_corpus_registry(known_registry):
    assert known_registry["arrow_loop"] == ("exact", 1)
    assert set(known_registry) == {"arrow_loop", "line2", "line3",
                                   "discrete2"}
