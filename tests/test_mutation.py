"""Exchange graph enumeration and mutation.

The small corpus algebras have exchange graphs we can freeze completely,
plus counting oracles computed by brute force over the full list of
indecomposables (those lists are short enough to write down by hand).
"""

import importlib
import itertools
import time
from collections import Counter

import pytest

import taubound.mutation
from taubound import CertificationError, InputError, parse_algebra_text
from taubound.algebra import opposite
from taubound.decompose import _indec_iso, decompose, iso_test
from taubound.cli import cli_run
from taubound.linalg import Mat, Span
from taubound.mutation import (IsoRegistry, SttPair, _ClassStore, compact_label,
                               enumerate_stt, fac_contains, minimal_left_approximation,
                               mutate, mutate_down, pair_key)
from taubound.reps import (Rep, cokernel, direct_sum, dual, hom_basis,
                           injective_rep, projective, simple, zero_map)
from taubound.reports import export_graph_json
from taubound.tau import tau, validate_stt_pair
from conftest import corpus_path, perfbench_algebras
from oracles import _certify_left_minimal


_BENCH = perfbench_algebras()
LADDER = {name: text for name, text, _ in _BENCH.LADDER_FP + _BENCH.LADDER_Q}


def key_of(pair, seed=0):
    reg = IsoRegistry(pair.algebra, seed=seed)
    names = sorted(compact_label(reg.name_of(s)) for s in pair.summands)
    return pair_key(names)


# ---------------------------------------------------------------------------
# the frozen loop-algebra graph


def test_loop_graph_is_exactly_the_known_poset(arrow_loop):
    t0 = time.time()
    g = enumerate_stt(arrow_loop)
    elapsed = time.time() - t0
    assert elapsed < 1.0

    assert {n.key for n in g.nodes} == {"P1+P2", "P2", "P1+S1", "S1", "0"}
    assert g.n_edges == 5
    arcs = {(e.src, e.dst) for e in g.edges}
    assert arcs == {("P1+P2", "P2"), ("P1+P2", "P1+S1"),
                    ("P1+S1", "S1"), ("P2", "0"), ("S1", "0")}

    cls = {n.key: n.classification for n in g.nodes}
    assert cls == {"P1+P2": "tilting",
                   "P1+S1": "tau-tilting-not-tilting",
                   "P2": "proper-support",
                   "S1": "proper-support",
                   "0": "zero"}


def test_loop_graph_edge_labels(arrow_loop):
    g = enumerate_stt(arrow_loop)
    labels = {(e.src, e.dst): (e.removed, e.added) for e in g.edges}
    assert labels[("P1+P2", "P1+S1")] == ("P2", "S1")
    # when support grows, the added label names the deleted vertex's
    # projective: the vertex where the remaining module vanishes
    assert labels[("P1+P2", "P2")] == ("P1", "P1")
    assert labels[("P1+S1", "S1")] == ("P1", "P2")
    assert labels[("P2", "0")] == ("P2", "P2")
    assert labels[("S1", "0")] == ("S1", "P1")


def test_supports_match_zero_dims(arrow_loop):
    g = enumerate_stt(arrow_loop)
    for n in g.nodes:
        M = n.pair.module()
        for v in range(arrow_loop.n_vertices):
            assert (v in n.pair.support) == (M.dims[v] == 0)


def test_corpus_graph_sizes(corpus_algebras):
    sizes = {}
    for name, A in corpus_algebras.items():
        g = enumerate_stt(A)
        sizes[name] = (g.n_nodes, g.n_edges)
    assert sizes == {"arrow_loop": (5, 5), "line2": (5, 5),
                     "line3": (14, 21), "discrete2": (4, 4)}


def test_graphs_are_n_regular(corpus_algebras):
    # mutation exchanges any one of n slots, so every node meets n edges
    for A in corpus_algebras.values():
        g = enumerate_stt(A)
        deg = {n.key: 0 for n in g.nodes}
        for e in g.edges:
            deg[e.src] += 1
            deg[e.dst] += 1
        assert set(deg.values()) == {A.n_vertices}


# ---------------------------------------------------------------------------
# counting oracle: brute force over the full indecomposable lists


def line2_indecomposables(A):
    one = A.field.one
    P1 = Rep(A, (1, 1), (Mat.from_rows(A.field, [[one]]),))
    return [P1, simple(A, 0), simple(A, 1)]


def discrete2_indecomposables(A):
    return [simple(A, 0), simple(A, 1)]


def brute_force_pair_count(A, indecs):
    """Try every subset of indecomposables against every support set."""
    n = A.n_vertices
    count = 0
    for r in range(len(indecs) + 1):
        for mods in itertools.combinations(indecs, r):
            for k in range(n + 1):
                for sup in itertools.combinations(range(n), k):
                    if validate_stt_pair(A, list(mods), list(sup)).ok:
                        count += 1
    return count


def test_counting_oracle_line2(line2):
    t0 = time.time()
    brute = brute_force_pair_count(line2, line2_indecomposables(line2))
    assert time.time() - t0 < 1.0
    assert brute == 5
    assert enumerate_stt(line2).n_nodes == brute


def test_counting_oracle_discrete2(discrete2):
    t0 = time.time()
    brute = brute_force_pair_count(discrete2,
                                   discrete2_indecomposables(discrete2))
    assert time.time() - t0 < 1.0
    assert brute == 4
    assert enumerate_stt(discrete2).n_nodes == brute


# ---------------------------------------------------------------------------
# approximations


def test_left_approximation_with_no_homs(line2):
    A = line2
    f, kept = minimal_left_approximation(projective(A, 0),
                                         [projective(A, 1)])
    assert kept == []
    assert f.target.dim_total == 0


def test_left_approximation_and_cokernel(line2):
    A = line2
    f, kept = minimal_left_approximation(projective(A, 1),
                                         [projective(A, 0)])
    assert len(kept) == 1
    C, _ = cokernel(f)
    assert C.dims == (1, 0)          # the exchange produces S(1)


def greedy_approximation_counts(X, targets):
    """Copies per target of the approximation found by greedy deletion: drop
    any copy whose removal still leaves a left approximation, until none
    can be dropped.  Each trial builds its codomain Y and tests that every
    hom from X into each target factors through X -> Y."""
    A, F = X.algebra, X.algebra.field
    needs = [hom_basis(X, T) for T in targets]
    copies = [(ti, h) for ti, homs in enumerate(needs) for h in homs]

    def is_approximation(sel):
        ds = direct_sum(A, [targets[ti] for ti, _ in sel])
        f = zero_map(X, ds.rep)
        for (_, h), incl in zip(sel, ds.inclusions):
            f = f.add(incl.compose(h))
        for T, need in zip(targets, needs):
            if need:
                have = Span(F, len(need[0].vectorize()))
                for u in hom_basis(ds.rep, T):
                    have.add(u.compose(f).vectorize())
                if not all(have.contains(g.vectorize()) for g in need):
                    return False
        return True

    changed = True
    while changed:
        changed = False
        for i in range(len(copies)):
            trial = copies[:i] + copies[i + 1:]
            if is_approximation(trial):
                copies, changed = trial, True
                break
    return Counter(ti for ti, _ in copies)


@pytest.mark.parametrize("name", ["line4", "preproj3", "nakayama3_4",
                                  "arrow_loop", "line3_q"])
def test_radical_approximation_matches_greedy_deletion(name, arrow_loop):
    A = arrow_loop if name == "arrow_loop" else parse_algebra_text(LADDER[name])
    slots = 0
    for node in enumerate_stt(A).nodes:
        summands = node.pair.summands
        for slot, X in enumerate(summands):
            rest = summands[:slot] + summands[slot + 1:]
            if fac_contains(rest, X):
                continue
            _, kept = minimal_left_approximation(X, rest)
            assert Counter(ti for ti, _ in kept) == \
                greedy_approximation_counts(X, rest), (node.key, slot)
            slots += 1
    assert slots


def test_left_approximation_refuses_targets_outside_its_precondition(line2):
    A = line2
    P1, P2 = projective(A, 0), projective(A, 1)
    for X in (P1, P2):
        with pytest.raises(CertificationError, match="does not factor"):
            minimal_left_approximation(X, [P1, P1])
    both = direct_sum(A, [P1, P2]).rep
    with pytest.raises(CertificationError, match="split local"):
        minimal_left_approximation(P1, [both])


def test_approximation_builds_its_codomain_once(monkeypatch):
    # a down-step names its cokernel from class facts: Y = ⊕ T_c and
    # C = coker f are built, and C matched by basis homs, only for a new class
    calls = {attr: [] for attr in ("direct_sum", "cokernel", "_indec_iso")}

    def counting(attr):
        fn = getattr(taubound.mutation, attr)

        def wrapper(*args, **kwargs):
            calls[attr].append(args)
            return fn(*args, **kwargs)
        monkeypatch.setattr(taubound.mutation, attr, wrapper)

    for attr in calls:
        counting(attr)
    for name in ("line4", "preproj3", "nakayama3_4", "line3_q"):
        A = parse_algebra_text(LADDER[name])
        registry = IsoRegistry(A)   # its own P(v) and S(v) are interned here
        for seen in calls.values():
            seen.clear()
        g = enumerate_stt(A, registry=registry)
        classes = len({lab for n in g.nodes for lab in n.summand_names})
        new_classes = classes - A.n_vertices   # every P(v) is a summand of the root
        assert new_classes, name
        assert len(calls["direct_sum"]) == len(calls["cokernel"]) == new_classes, name
        # only naming a class compares it with the registry's entries
        stored = {id(K) for ks in g._store.classes.values() for K in ks}
        assert calls["_indec_iso"] and {id(args[0]) for args in calls["_indec_iso"]} <= stored


def test_fac_contains(line2):
    A = line2
    P1, S1, P2 = projective(A, 0), simple(A, 0), projective(A, 1)
    assert fac_contains([P1], S1)
    assert not fac_contains([P1], P2)
    assert not fac_contains([S1], P1)
    assert fac_contains([], simple(A, 0)) is False


# ---------------------------------------------------------------------------
# mutation as an involution


def edge_slots(g, e):
    """(down-slot in src, up-slot in dst) for a graph edge."""
    src, dst = g.node(e.src), g.node(e.dst)
    down = src.summand_names.index(e.removed)
    if e.added in dst.summand_names:
        up = dst.summand_names.index(e.added)
    else:
        grown = set(dst.pair.support) - set(src.pair.support)
        assert len(grown) == 1
        up = len(dst.pair.summands) + dst.pair.support.index(grown.pop())
    return down, up


def test_mutation_is_an_involution_on_every_edge(corpus_algebras, monkeypatch):
    t0 = time.time()
    graphs = [enumerate_stt(A) for A in corpus_algebras.values()]
    enumerations = []

    def counting(*args, **kwargs):
        enumerations.append(args)
        return enumerate_stt(*args, **kwargs)

    # up-steps go through A^op, never through the exchange graph
    monkeypatch.setattr(taubound.mutation, "enumerate_stt", counting)
    for g in graphs:
        for e in g.edges:
            down, up = edge_slots(g, e)
            fwd = mutate(g.node(e.src).pair, down)
            assert key_of(fwd) == e.dst
            back = mutate(g.node(e.dst).pair, up)
            assert key_of(back) == e.src
    assert enumerations == []
    assert time.time() - t0 < 10.0


def test_mutation_orientation_is_fac_decreasing(arrow_loop):
    # along every edge the replaced summand generates the removed one
    g = enumerate_stt(arrow_loop)
    for e in g.edges:
        src = g.node(e.src)
        dst = g.node(e.dst)
        removed = src.pair.summands[src.summand_names.index(e.removed)]
        assert fac_contains(list(src.pair.summands), removed)
        assert not fac_contains(list(dst.pair.summands), removed)


def test_up_mutation_from_the_zero_pair(arrow_loop):
    A = arrow_loop
    zero = SttPair(A, (), (0, 1))
    first = mutate(zero, 0)          # re-add the support slot at vertex 1
    second = mutate(zero, 1)
    assert {key_of(first), key_of(second)} == {"S1", "P2"}


def test_mutate_rejects_bad_input(arrow_loop):
    A = arrow_loop
    root = SttPair(A, (projective(A, 0), projective(A, 1)), ())
    with pytest.raises(InputError, match="out of range"):
        mutate(root, 7)
    bad = SttPair(A, (projective(A, 0),), ())
    with pytest.raises(InputError, match="cannot mutate an invalid pair"):
        mutate(bad, 0)


def test_mutate_down_certifies(arrow_loop):
    A = arrow_loop
    root = SttPair(A, (projective(A, 0), projective(A, 1)), ())
    step = mutate_down(root, 1)      # swap P(2) for S(1)
    assert step.added is not None and step.added.dims == (1, 0)
    assert key_of(step.pair) == "P1+S1"


def test_left_minimality_certificate(line2):
    # f: P(2) -> P(1), the inclusion of the radical, is left minimal; (f, 0)
    # into P(1) + P(1) is not: the projection onto the second copy kills it
    A = line2
    P1, P2 = projective(A, 0), projective(A, 1)
    [f] = hom_basis(P2, P1)
    _certify_left_minimal(f)
    ds = direct_sum(A, [P1, P1])
    padded = ds.inclusions[0].compose(f).add(
        ds.inclusions[1].compose(zero_map(P2, P1)))
    with pytest.raises(CertificationError, match="minimality"):
        _certify_left_minimal(padded)


def test_mutate_refuses_a_decomposable_listed_summand(arrow_loop):
    A = arrow_loop
    both = direct_sum(A, [projective(A, 0), projective(A, 1)]).rep
    with pytest.raises(InputError, match="decomposable"):
        mutate(SttPair(A, (both,), ()), 0)


def test_mutate_down_refuses_a_non_unique_support_completion(line3):
    # the rest is empty and vanishes at all three vertices; the refusal
    # names the algebra, the slot and the exchanged summand's dimensions
    with pytest.raises(CertificationError,
                       match=r"^mutation of line3 at slot 0 \(summand \(1,1,1\)\) "
                             r"failed certification: support completion is "
                             r"not unique \(3 candidate vertices\)$"):
        mutate_down(SttPair(line3, (projective(line3, 0),), ()), 0)
    op = opposite(line3)
    with pytest.raises(CertificationError,
                       match=r"^mutation of line3\^op at slot 0 \(summand "
                             r"\(1,0,0\)\) failed certification: support "
                             r"completion is not unique"):
        mutate_down(SttPair(op, (projective(op, 0),), ()), 0)


def test_enumeration_validates_no_pair(corpus_algebras, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return validate_stt_pair(*args, **kwargs)

    monkeypatch.setattr(taubound.mutation, "validate_stt_pair", counting)
    for A in corpus_algebras.values():
        calls.clear()
        g = enumerate_stt(A)
        assert not calls
        # the whole-pair check stays a reference for every node
        for node in g.nodes:
            assert validate_stt_pair(A, node.pair.summands,
                                     node.pair.support).ok, (A.name, node.key)


def test_free_pairs_are_valid(corpus_algebras):
    # enumerate_stt takes the free pair as valid by construction
    algebras = list(corpus_algebras.values()) + [parse_algebra_text(t)
                                                 for t in LADDER.values()]
    for A in algebras:
        projs = [projective(A, v) for v in range(A.n_vertices)]
        val = validate_stt_pair(A, projs, [])
        assert val.ok and val.summand_classes == A.n_vertices, A.name


def test_enumeration_names_only_the_new_summands(corpus_algebras, monkeypatch):
    named, steps = [], []
    name_of, down = IsoRegistry.name_of, taubound.mutation.mutate_down

    def counting_name_of(self, rep, **kwargs):
        named.append(rep)
        return name_of(self, rep, **kwargs)

    def counting_down(*args, **kwargs):
        step = down(*args, **kwargs)
        steps.append(step)
        return step

    monkeypatch.setattr(IsoRegistry, "name_of", counting_name_of)
    monkeypatch.setattr(taubound.mutation, "mutate_down", counting_down)
    for A in corpus_algebras.values():
        named.clear()
        steps.clear()
        g = enumerate_stt(A)
        new_summands = sum(step.added is not None for step in steps)
        assert len(named) <= A.n_vertices + new_summands, A.name
        # the carried names are the ones a fresh registry gives, slot by slot
        for node in g.nodes:
            reg = IsoRegistry(A)
            assert node.summand_names == tuple(
                compact_label(name_of(reg, s)) for s in node.pair.summands)
            assert key_of(node.pair) == node.key


# ---------------------------------------------------------------------------
# duality with the opposite algebra (Adachi-Iyama-Reiten 2014, Thm 2.14)


# Preprojective A2 and self-injective Nakayama (2, 2) are the same algebra
# up to arrow names; the benchmark's single-pair walk runs on both.
PREPROJ2 = """algebra preproj2
field Fp 32003
vertices 1 2
arrow a1: 1 -> 2
arrow b1: 2 -> 1
relations
  a1*b1
  b1*a1
end
"""

NAKAYAMA2_2 = """algebra nakayama2_2
field Fp 32003
vertices 1 2
arrow c1: 1 -> 2
arrow c2: 2 -> 1
relations
  c1*c2
  c2*c1
end
"""

KRONECKER = """algebra kronecker
field Fp 32003
vertices 1 2
arrow a: 1 -> 2
arrow b: 1 -> 2
"""


def same_pair(p, q):
    """Equal supports and summands matched one to one by isomorphism."""
    if sorted(p.support) != sorted(q.support) or \
            sorted(x.dims for x in p.summands) != sorted(y.dims for y in q.summands):
        return False
    return all(sum(iso_test(x, y).isomorphic for y in q.summands) == 1
               for x in p.summands)


def dual_pair(pair, op):
    """(Tr M_np + P*, M_p*) over ``op``; a projective summand is told by a
    zero translate and its vertex by isomorphism with P(v)."""
    A = pair.algebra
    summands, support = [], []
    for X in pair.summands:
        tX = tau(X)
        if tX.dim_total:
            summands.append(dual(tX, op))
        else:
            [v] = [v for v in range(A.n_vertices)
                   if iso_test(X, projective(A, v)).isomorphic]
            support.append(v)
    summands += [projective(op, v) for v in pair.support]
    return SttPair(op, tuple(summands), tuple(sorted(support)))


def test_opposite_of_the_opposite_is_the_algebra(corpus_algebras):
    for A in corpus_algebras.values():
        op = opposite(A)
        assert op.name == A.name + "^op" and op.dim == A.dim
        back = opposite(op)
        assert back.quiver == A.quiver
        assert back.relations == A.relations
        assert back.basis == A.basis


def test_duality_pieces(corpus_algebras):
    for A in corpus_algebras.values():
        op = opposite(A)
        for v in range(A.n_vertices):
            assert iso_test(dual(injective_rep(A, v), op),
                            projective(op, v)).isomorphic, (A.name, v)
        for node in enumerate_stt(A).nodes:
            for X in node.pair.summands:
                DX = dual(X, op)
                # the transposed matrices satisfy the reversed relations
                Rep(op, DX.dims, DX.maps)
                DDX = dual(DX, A)
                assert DDX.dims == X.dims and DDX.maps == X.maps
                tX = tau(X)
                if tX.dim_total:
                    TrX = dual(tX, op)
                    assert iso_test(dual(tau(TrX), A), X).isomorphic, \
                        (A.name, node.key, X.dims)


def test_opposite_reverses_the_exchange_graph(corpus_algebras):
    algebras = dict(corpus_algebras)
    for text in (PREPROJ2, NAKAYAMA2_2):
        A = parse_algebra_text(text)
        algebras[A.name] = A
    for name, A in algebras.items():
        op = opposite(A)
        g, gop = enumerate_stt(A), enumerate_stt(op)
        assert g.n_nodes == gop.n_nodes, name
        image = {}
        for node in g.nodes:
            dp = dual_pair(node.pair, op)
            assert validate_stt_pair(op, dp.summands, dp.support).ok, \
                (name, node.key)
            [image[node.key]] = [m.key for m in gop.nodes if same_pair(dp, m.pair)]
        assert len(set(image.values())) == gop.n_nodes
        reversed_edges = [(image[e.dst], image[e.src]) for e in g.edges]
        assert sorted(reversed_edges) == sorted((e.src, e.dst) for e in gop.edges)


def test_up_mutation_undoes_down_steps_on_kronecker():
    # tau-tilting infinite, so no enumeration could answer these up-steps
    A = parse_algebra_text(KRONECKER)
    frontier = [SttPair(A, (projective(A, 0), projective(A, 1)), ())]
    ups = 0
    for _ in range(3):
        reached = []
        for pair in frontier:
            for slot, X in enumerate(pair.summands):
                if fac_contains(pair.summands[:slot] + pair.summands[slot + 1:], X):
                    continue
                step = mutate_down(pair, slot)
                below = step.pair
                if step.added is not None:
                    up = len(below.summands) - 1
                else:
                    up = len(below.summands) + below.support.index(
                        step.new_support_vertex)
                assert same_pair(mutate(below, up), pair)
                ups += 1
                reached.append(below)
        frontier = reached
    assert ups == 5
    assert {X.dims for X in frontier[0].summands} == {(3, 4), (4, 5)}


LINE4 = """algebra line4
field Fp 32003
vertices 1 2 3 4
arrow a1: 1 -> 2
arrow a2: 2 -> 3
arrow a3: 3 -> 4
"""


def test_enumeration_tests_each_slot_for_fac_once(monkeypatch):
    calls = []
    fac = taubound.mutation.fac_contains

    def counting(generators, X, *args, **kwargs):
        calls.append((frozenset(map(id, generators)), id(X)))
        return fac(generators, X, *args, **kwargs)

    monkeypatch.setattr(taubound.mutation, "fac_contains", counting)
    g = enumerate_stt(parse_algebra_text(LINE4))
    assert g.n_nodes == 42
    # one call per (node, slot); the node's summands are the objects tested
    assert len(calls) == len(set(calls)) == sum(len(n.pair.summands) for n in g.nodes)


def test_mutate_down_refuses_an_up_only_slot(arrow_loop):
    A = arrow_loop
    pair = SttPair(A, (projective(A, 0), simple(A, 0)), ())
    # S(1) is a quotient of P(1)
    with pytest.raises(InputError, match="only mutates upwards"):
        mutate_down(pair, 1)


def test_enumeration_presents_each_module_once(monkeypatch):
    # tau is memoised on each summand, and a cokernel isomorphic to a stored
    # class continues as that class's object: one presentation per class
    presented, added = [], []
    tau_module = importlib.import_module("taubound.tau")   # not the function tau
    present, down = tau_module.minimal_presentation, taubound.mutation.mutate_down

    def counting(M):
        presented.append(M)
        return present(M)

    def recording_down(*args, **kwargs):
        step = down(*args, **kwargs)
        added.append(step.added)
        return step

    monkeypatch.setattr(tau_module, "minimal_presentation", counting)
    monkeypatch.setattr(taubound.mutation, "mutate_down", recording_down)
    A = parse_algebra_text(LINE4)
    exports = []
    for _ in range(2):   # each enumeration has its own store: no state carries over
        presented.clear()
        added.clear()
        g = enumerate_stt(A)
        assert g.n_nodes == 42
        summands = {id(X) for n in g.nodes for X in n.pair.summands}
        assert {id(X) for X in added if X is not None} <= summands
        assert len({name for n in g.nodes for name in n.summand_names}) == len(summands) == 10
        assert sorted(map(id, presented)) == sorted(summands)
        exports.append(export_graph_json(g))
    assert exports[0] == exports[1]


@pytest.mark.parametrize("name", ["line4", "preproj3", "nakayama3_4", "line3_q"])
def test_each_class_is_presented_decomposed_and_named_once(name, monkeypatch):
    calls = Counter()
    tau_module = importlib.import_module("taubound.tau")
    decompose_module = importlib.import_module("taubound.decompose")

    def counting(module, attr):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)

    counting(tau_module, "minimal_presentation")
    counting(taubound.mutation, "decompose")
    counting(decompose_module, "decompose")   # iso_test's own decompositions
    counting(IsoRegistry, "name_of")
    A = parse_algebra_text(LADDER[name])
    g = enumerate_stt(A)
    classes = len({lab for n in g.nodes for lab in n.summand_names})
    new_classes = classes - A.n_vertices   # every P(v) is a summand of the root
    assert calls["minimal_presentation"] == classes
    assert calls["decompose"] == 0   # a new class is certified by its λ_b
    assert calls["name_of"] <= A.n_vertices + new_classes


def _down_edge_graphs(corpus_algebras):
    algebras = list(corpus_algebras.values()) + [parse_algebra_text(t) for t in LADDER.values()]
    return [enumerate_stt(A) for A in algebras]


def test_every_approximation_is_left_minimal(corpus_algebras, monkeypatch):
    # left minimality holds by construction; the oracle proves it again
    # through End(Y), on every approximation of the corpus and ladder graphs
    approximate, certified = taubound.mutation._left_approximation, []

    def checked(X, targets, store):
        kept = approximate(X, targets, store)
        f = taubound.mutation._approximation_map(X, targets, kept, store)
        _certify_left_minimal(f)
        certified.append(f)
        return kept

    monkeypatch.setattr(taubound.mutation, "_left_approximation", checked)
    graphs = _down_edge_graphs(corpus_algebras)
    assert len(certified) == sum(g.n_edges for g in graphs) == 236


def test_every_stored_class_is_indecomposable(corpus_algebras):
    # the λ_b that certify a new class, against decompose's own certificate
    classes = 0
    for g in _down_edge_graphs(corpus_algebras):
        for K in (K for ks in g._store.classes.values() for K in ks):
            assert len(decompose(K).leaves) == 1
            assert g._store.lams(K) is not None
            classes += 1
    assert classes == 59


def test_store_free_mutation_agrees_on_every_down_edge(corpus_algebras):
    # the public mutate_down sees only the pair's own summands; its new
    # summand is isomorphic to the class object the enumeration carried on
    checked = 0
    for g in _down_edge_graphs(corpus_algebras):
        for e in g.edges:
            src, dst = g.node(e.src), g.node(e.dst)
            step = mutate_down(src.pair, src.summand_names.index(e.removed))
            if step.added is None:
                assert step.pair.support == dst.pair.support
                continue
            K = dst.pair.summands[dst.summand_names.index(e.added)]
            assert step.added is not K
            assert iso_test(step.added, K).isomorphic
            checked += 1
    assert checked == 102


def test_resolve_returns_only_an_isomorphic_class(corpus_algebras, monkeypatch):
    A = parse_algebra_text(LADDER["nakayama3_4"])
    F = A.field

    def uniserial(zero_arrow, scale=1):
        # dims (1,1,1) on the 3-cycle with one arrow zero: a uniserial of length 3
        return Rep(A, (1, 1, 1), tuple(
            Mat.from_rows(F, [[F.zero if a == zero_arrow else F.of_int(scale)]])
            for a in range(3)))

    U = [uniserial(a) for a in range(3)]
    assert not any(iso_test(X, Y).isomorphic for X, Y in itertools.combinations(U, 2))
    # P(v) is uniserial of length 4 with socle S(v): coker(S(v) -> P(v)) is
    # the uniserial of length 3 with top v, resolved without building it
    stored = [uniserial(0, scale=5), uniserial(1, scale=7)]
    store, found = _ClassStore(stored), []
    for v in range(3):
        X, T = simple(A, v), projective(A, v)
        assert len(store.hom(X, T)) == 1
        C, _ = cokernel(store.hom(X, T)[0])
        K = store.cokernel_class(X, [T], [(0, 0)], C.dims)
        assert [S is K for S in stored] == [iso_test(C, S).isomorphic for S in stored]
        assert _indec_iso(C, K) is not None if K else iso_test(C, U[2]).isomorphic
        found.append(next((k for k, S in enumerate(stored) if S is K), None))
    assert sorted(found, key=str) == [0, 1, None]

    # every answer of every enumeration's store, checked by iso_test on the
    # cokernel built here
    resolve, answers = _ClassStore.cokernel_class, Counter()

    def checked(self, X, targets, kept, dims):
        K = resolve(self, X, targets, kept, dims)
        ds = direct_sum(X.algebra, [targets[i] for i, _ in kept])
        f = zero_map(X, ds.rep)
        for (i, c), incl in zip(kept, ds.inclusions):
            f = f.add(incl.compose(self.hom(X, targets[i])[c]))
        C, _ = cokernel(f)
        assert C.dims == dims
        stored = list(self.classes.get(dims, ()))
        answers[K is None] += 1
        assert [iso_test(C, S).isomorphic for S in stored] == [S is K for S in stored]
        return K

    monkeypatch.setattr(_ClassStore, "cokernel_class", checked)
    _down_edge_graphs(corpus_algebras)
    assert answers[True] and answers[False]


@pytest.mark.parametrize("name", ["line4", "preproj3", "nakayama3_4", "line3_q"])
def test_each_composition_fact_is_computed_once(name, monkeypatch):
    # u.g for u in Hom(T, K), g in Hom(X, T) depends on the class triple only
    composed = []
    compose = taubound.reps.ModMap.compose

    def recording(self, other):
        composed.append((self, other))
        return compose(self, other)

    monkeypatch.setattr(taubound.reps.ModMap, "compose", recording)
    g = enumerate_stt(parse_algebra_text(LADDER[name]))
    facts = g._store._facts
    triples = [key[1:] for key in facts if key[0] == "comps"]
    assert triples
    pairs = Counter((id(u), id(h)) for u, h in composed)
    for X, T, K in triples:
        assert [len(row) for row in facts["comps", X, T, K]] == \
            [len(facts["hom", X, T])] * len(facts["hom", T, K])
        assert all(pairs[id(u), id(h)] == 1
                   for u in facts["hom", T, K] for h in facts["hom", X, T]), (X.dims, T.dims)


def test_exchange_refusals_keep_their_messages(line3):
    # pairs of pairwise non-isomorphic indecomposables that are not tau-rigid
    A = line3
    P2 = projective(A, 1)
    assert P2.dims == (0, 1, 1)
    with pytest.raises(CertificationError,
                       match=r"^mutation of line3 at slot 0 \(summand \(0,0,1\)\) failed "
                             r"certification: the exchange cokernel is isomorphic to a "
                             r"remaining summand$"):
        mutate_down(SttPair(A, (simple(A, 2), simple(A, 1), P2), ()), 0)
    B = parse_algebra_text(LADDER["preproj3"])
    names = {name: X for n in enumerate_stt(B).nodes
             for name, X in zip(n.summand_names, n.pair.summands)}
    with pytest.raises(CertificationError,
                       match=r"^mutation of preproj3 at slot 0 \(summand \(0,1,0\)\) "
                             r"failed certification: the exchange cokernel decomposed into "
                             r"\(1, 1\) copies instead of one indecomposable$"):
        mutate_down(SttPair(B, (simple(B, 1), names["M(1,1,1)"]), ()), 0)


def test_a_new_cokernel_is_checked_against_its_predicted_dimensions(line3, monkeypatch):
    # with every rank read as 0 no stored class matches, so each cokernel is
    # built, and its dimension vector refutes the prediction dim Y
    monkeypatch.setattr(taubound.mutation, "rank", lambda mat: 0)
    with pytest.raises(CertificationError,
                       match=r"^at node P1\+P2\+P3, summand P2: .*: the exchange cokernel "
                             r"\(1,0,0\) does not have the predicted dimension vector "
                             r"\(1, 1, 1\)$"):
        enumerate_stt(line3)


# ---------------------------------------------------------------------------
# budget and determinism


def test_budget_exceeded(line3):
    with pytest.raises(CertificationError,
                       match="enumeration budget exceeded"):
        enumerate_stt(line3, max_nodes=3)


@pytest.mark.parametrize("max_nodes", [0, -3])
def test_non_positive_budget_is_bad_input(line3, max_nodes, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(taubound.mutation, "IsoRegistry", no_work)
    with pytest.raises(InputError, match=f"--max-nodes must be at least 1, got {max_nodes}"):
        enumerate_stt(line3, max_nodes=max_nodes)


def test_a_budget_of_one_node_holds_only_the_root(line3):
    with pytest.raises(CertificationError, match="more than 1 nodes"):
        enumerate_stt(line3, max_nodes=1)


def test_a_failed_exchange_names_the_node_and_summand(line3, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise CertificationError("injected failure")

    monkeypatch.setattr(taubound.mutation, "_exchange_down", failing)
    with pytest.raises(CertificationError,
                       match=r"^at node P1\+P2\+P3, summand P1: mutation of line3 "
                             r"at slot 0 .*: injected failure$"):
        enumerate_stt(line3)
    assert cli_run(["enumerate", "--algebra", corpus_path("line3.alg")]) == 3
    assert "at node P1+P2+P3, summand P1:" in capsys.readouterr().err


def test_same_seed_reruns_are_byte_identical(corpus_algebras):
    for A in corpus_algebras.values():
        a = export_graph_json(enumerate_stt(A, seed=11))
        b = export_graph_json(enumerate_stt(A, seed=11))
        assert a == b


def test_seed_changes_leave_the_graph_stable(arrow_loop):
    keys = {n.key for n in enumerate_stt(arrow_loop, seed=0).nodes}
    for seed in (1, 7, 12345):
        assert {n.key for n in enumerate_stt(arrow_loop, seed=seed).nodes} \
            == keys
