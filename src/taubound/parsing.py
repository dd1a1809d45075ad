"""Parsers for the .alg / .mod / .reg file formats.

An algebra file holds one bound quiver algebra (line-oriented UTF-8,
'#' starts a comment):

    algebra arrow_loop
    field Fp 32003             # or: field Q
    vertices 1 2
    arrow alpha: 1 -> 2
    arrow beta: 2 -> 2
    relations
      alpha*beta
      beta*beta
    end

The ``relations`` block is optional; each line inside it is one linear
combination of parallel paths.  A term is arrow labels joined by '*'
with an optional leading scalar coefficient, and terms combine with
'+' / '-' (so ``a*b - 2*c`` is legal when the paths are parallel).

A module file gives one representation over a named algebra:

    module radsquare over arrow_loop
    dims 0 1
    map beta = [[0]]
    end

Each ``map`` line carries the arrow's matrix as a bracketed list of
rows with dims[target] rows and dims[source] columns; a matrix may
continue onto following lines until its brackets balance.  Omitted
maps default to zero.

A registry file records derived-dimension facts by algebra name:

    derdim arrow_loop = 1
    derdim big_example <= 3

A name ending in ``/I`` is refused, as every annihilator quotient bears it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .algebra import (Arrow, BoundQuiverAlgebra, Quiver, construct_algebra,
                      make_relation)
from .exceptions import InputError
from .fields import QQ, FieldError, PrimeField
from .linalg import Mat
from .reps import Rep

_NUM_RE = re.compile(r"^-?\d+(/\d+)?$")
_ROW_RE = re.compile(r"\[([^\[\]]*)\]")


def _clean_lines(text: str):
    """(lineno, content) pairs with comments and blanks stripped."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def _fail(path: str, lineno: int, msg: str):
    raise InputError(f"{path}:{lineno}: {msg}")


def _parse_scalar_token(field, tok: str, path: str, lineno: int):
    if not _NUM_RE.match(tok):
        _fail(path, lineno, f"bad scalar {tok!r}")
    num, _, den = tok.partition("/")
    try:
        frac = Fraction(int(num), int(den or 1))
        return field.of_fraction(frac.numerator, frac.denominator)
    except ZeroDivisionError:
        _fail(path, lineno, f"bad scalar {tok!r}: zero denominator")
    except FieldError as e:
        _fail(path, lineno, f"bad scalar {tok!r}: {e}")


def _parse_relation_expr(field, quiver: Quiver, expr: str, path: str,
                         lineno: int):
    """A signed sum of [coeff *] arrow paths -> a relation object."""
    arrow_index = {a.label: i for i, a in enumerate(quiver.arrows)}
    # split into signed terms
    body = expr.replace("-", "+-")
    parts = [p.strip() for p in body.split("+")]
    terms = []
    for part in parts:
        if not part:
            continue
        sign = field.one
        if part.startswith("-"):
            sign = field.neg(field.one)
            part = part[1:].strip()
        toks = [t.strip() for t in part.split("*")]
        if not toks or any(not t for t in toks):
            _fail(path, lineno, f"malformed term {part!r}")
        coeff = sign
        arrows = []
        for j, tok in enumerate(toks):
            if _NUM_RE.match(tok):
                if j != 0:
                    _fail(path, lineno,
                          f"scalar {tok!r} must lead its term")
                coeff = field.mul(coeff,
                                  _parse_scalar_token(field, tok, path, lineno))
            elif tok in arrow_index:
                arrows.append(arrow_index[tok])
            else:
                _fail(path, lineno, f"unknown arrow {tok!r}")
        if not arrows:
            _fail(path, lineno, f"term {part!r} names no arrows")
        terms.append((coeff, arrows))
    if not terms:
        _fail(path, lineno, "empty relation")
    try:
        return make_relation(field, quiver, terms)
    except InputError as e:
        _fail(path, lineno, str(e))


def parse_algebra_text(text: str, path: str = "<algebra>") -> BoundQuiverAlgebra:
    name = None
    field = None
    vertices: Optional[tuple] = None
    arrows: list[Arrow] = []
    relation_specs: list[tuple[int, str]] = []
    vertex_pos: dict = {}
    in_relations = False

    for lineno, line in _clean_lines(text):
        if in_relations:
            if line == "end":
                in_relations = False
            else:
                relation_specs.append((lineno, line))
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "algebra":
            if not rest:
                _fail(path, lineno, "missing algebra name")
            name = rest
        elif head == "field":
            toks = rest.split()
            try:
                if toks and toks[0] in ("Q", "QQ") and len(toks) == 1:
                    field = QQ
                elif (toks and toks[0] == "Fp" and len(toks) == 2
                      and toks[1].isdigit()):
                    field = PrimeField(int(toks[1]))
                else:
                    # tolerate the compact spelling Fp(32003)
                    m = re.match(r"^Fp\((\d+)\)$", rest)
                    if not m:
                        _fail(path, lineno,
                              f"bad field {rest!r} (use 'Fp <prime>' or 'Q')")
                    field = PrimeField(int(m.group(1)))
            except FieldError as e:
                _fail(path, lineno, str(e))
        elif head == "vertices":
            labs = rest.split()
            if not labs:
                _fail(path, lineno, "empty vertex list")
            parsed = tuple(int(l) if l.lstrip("-").isdigit() else l
                           for l in labs)
            if len(set(parsed)) != len(parsed):
                _fail(path, lineno, "duplicate vertex label")
            vertices = parsed
            vertex_pos = {str(l): i for i, l in enumerate(parsed)}
        elif head == "arrow":
            m = re.match(r"^(\S+?)\s*:\s*(\S+)\s*->\s*(\S+)$", rest)
            if not m:
                _fail(path, lineno, "arrow syntax: arrow <label>: <u> -> <v>")
            lab, u, v = m.groups()
            if vertices is None:
                _fail(path, lineno, "arrow before the vertices line")
            if u not in vertex_pos or v not in vertex_pos:
                _fail(path, lineno, f"unknown vertex in arrow {lab!r}")
            if any(a.label == lab for a in arrows):
                _fail(path, lineno, f"duplicate arrow label {lab!r}")
            arrows.append(Arrow(lab, vertex_pos[u], vertex_pos[v]))
        elif head == "relations" and not rest:
            in_relations = True
        elif head == "relation":
            # single-line form, handy in tests and quick experiments
            relation_specs.append((lineno, rest))
        else:
            _fail(path, lineno, f"unknown directive {head!r}")

    if in_relations:
        raise InputError(f"{path}: relations block is missing its 'end'")
    if name is None:
        raise InputError(f"{path}: no algebra line")
    if field is None:
        raise InputError(f"{path}: no field line")
    if vertices is None:
        raise InputError(f"{path}: no vertices line")
    quiver = Quiver(vertices, tuple(arrows))
    relations = [_parse_relation_expr(field, quiver, expr, path, lineno)
                 for lineno, expr in relation_specs]
    return construct_algebra(name, field, quiver, tuple(relations))


def parse_algebra_file(path: str) -> BoundQuiverAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read algebra file {path}: {e.strerror}")
    return parse_algebra_text(text, path)


def _parse_matrix_literal(field, text: str, nrows: int, ncols: int,
                          what: str, path: str, lineno: int):
    """``[[a,b],[c,d]]`` -> row-major scalar lists, sizes enforced."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        _fail(path, lineno, f"{what}: matrix must be bracketed rows")
    inner = s[1:-1]
    rows = _ROW_RE.findall(inner)
    leftover = _ROW_RE.sub("", inner).replace(",", "").strip()
    if leftover:
        _fail(path, lineno, f"{what}: stray text {leftover!r} in matrix")
    if len(rows) != nrows:
        _fail(path, lineno,
              f"{what}: needs {nrows} rows, got {len(rows)}")
    out = []
    for r in rows:
        toks = [t.strip() for t in r.split(",")] if r.strip() else []
        if len(toks) != ncols:
            _fail(path, lineno,
                  f"{what}: rows need {ncols} entries, got {len(toks)}")
        out.append([_parse_scalar_token(field, t, path, lineno)
                    for t in toks])
    return out


def parse_module_text(text: str, algebra: BoundQuiverAlgebra,
                      path: str = "<module>") -> Rep:
    F = algebra.field
    dims: Optional[tuple[int, ...]] = None
    maps: dict[str, list[list]] = {}
    declared_over = None
    seen_header = False
    closed = False
    arrow_labels = {a.label: i for i, a in enumerate(algebra.quiver.arrows)}

    lines = _clean_lines(text)
    i = 0
    while i < len(lines):
        lineno, line = lines[i]
        i += 1
        if closed:
            _fail(path, lineno, "text after 'end'")
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "module":
            m = re.match(r"^(\S+)\s+over\s+(\S+)$", rest)
            if not m:
                _fail(path, lineno, "syntax: module <name> over <algebra>")
            declared_over = m.group(2)
            seen_header = True
        elif head == "dims":
            vals = rest.split()
            if len(vals) != algebra.n_vertices:
                _fail(path, lineno,
                      f"dims needs {algebra.n_vertices} entries, got {len(vals)}")
            if not all(v.isdigit() for v in vals):
                _fail(path, lineno, "dims entries must be nonnegative integers")
            dims = tuple(int(v) for v in vals)
        elif head == "map":
            if dims is None:
                _fail(path, lineno, "map before the dims line")
            m = re.match(r"^(\S+)\s*=\s*(.*)$", rest, re.S)
            if not m:
                _fail(path, lineno, "syntax: map <arrow> = [[row],[row],...]")
            lab, body = m.group(1), m.group(2)
            if lab not in arrow_labels:
                _fail(path, lineno, f"unknown arrow {lab!r}")
            if lab in maps:
                _fail(path, lineno, f"duplicate map for arrow {lab!r}")
            # a matrix may continue onto later lines until brackets balance
            while body.count("[") > body.count("]") and i < len(lines):
                body += " " + lines[i][1]
                i += 1
            arr = algebra.quiver.arrows[arrow_labels[lab]]
            maps[lab] = _parse_matrix_literal(
                F, body, dims[arr.target], dims[arr.source],
                f"map {lab}", path, lineno)
        elif head == "end" and not rest:
            closed = True
        else:
            _fail(path, lineno, f"unknown directive {head!r}")

    if not seen_header:
        raise InputError(f"{path}: no 'module <name> over <algebra>' line")
    if not closed:
        raise InputError(f"{path}: module block is missing its 'end'")
    if declared_over is not None and declared_over != algebra.name:
        raise InputError(f"{path}: module is over {declared_over!r}, "
                         f"not {algebra.name!r}")
    if dims is None:
        raise InputError(f"{path}: no dims line")
    mats = []
    for a in algebra.quiver.arrows:
        nr, nc = dims[a.target], dims[a.source]
        rows = maps.get(a.label, [[F.zero] * nc for _ in range(nr)])
        mats.append(Mat(F, nr, nc, rows))
    try:
        return Rep(algebra, dims, tuple(mats), check=True)
    except InputError as e:
        raise InputError(f"{path}: {e}")
    except AssertionError as e:
        raise InputError(f"{path}: {e}")


def parse_module_file(path: str, algebra: BoundQuiverAlgebra) -> Rep:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read module file {path}: {e.strerror}")
    return parse_module_text(text, algebra, path)


def parse_registry_text(text: str, path: str = "<registry>") -> dict:
    out: dict[str, tuple[str, int]] = {}
    for lineno, line in _clean_lines(text):
        m = re.match(r"^derdim\s+(\S+)\s*(<=|=)\s*(\d+)$", line)
        if not m:
            _fail(path, lineno,
                  "registry syntax: derdim <name> = <n>  or  derdim <name> <= <n>")
        name, op, val = m.groups()
        kind = "exact" if op == "=" else "upper"
        if name.endswith("/I"):
            _fail(path, lineno, f"registry entry {name!r} names a quotient A/I")
        if name in out:
            _fail(path, lineno, f"duplicate registry entry for {name!r}")
        out[name] = (kind, int(val))
    return out


def parse_registry_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read registry file {path}: {e.strerror}")
    return parse_registry_text(text, path)
