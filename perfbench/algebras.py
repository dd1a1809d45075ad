"""The benchmark's algebras, generated as `.alg` text, and their pair-count
oracles.

The counts are closed forms from the literature, independent of the
package's own machinery:

* A_n line (path algebra of 1 -> 2 -> ... -> n): the Catalan number
  C_{n+1} (Adachi-Iyama-Reiten, *tau-tilting theory*, 2014).
* Preprojective algebra of type A_n: (n+1)! (Mizuno, 2014; AIR 2014).
* Self-injective Nakayama algebra with n vertices and Loewy length L >= n:
  binomial(2n, n) (Adachi, *The classification of tau-tilting modules over
  Nakayama algebras*, 2016).  Only L >= n is used, where this holds.
"""

from math import comb, factorial

FP = "Fp 32003"
Q = "Q"


def _header(name, field, n):
    return (f"algebra {name}\nfield {field}\n"
            f"vertices {' '.join(str(v) for v in range(1, n + 1))}\n")


def _relations(rels):
    return "relations\n" + "".join(f"  {r}\n" for r in rels) + "end\n"


def line_text(name, n, field):
    """Path algebra of the linearly oriented A_n quiver."""
    return _header(name, field, n) + "".join(
        f"arrow a{i}: {i} -> {i + 1}\n" for i in range(1, n))


def preprojective_text(name, n, field):
    """Preprojective algebra of type A_n (n >= 2): the double quiver with
    a_i: i -> i+1, b_i: i+1 -> i, and the mesh relation at every vertex."""
    arrows = "".join(f"arrow a{i}: {i} -> {i + 1}\narrow b{i}: {i + 1} -> {i}\n"
                     for i in range(1, n))
    rels = ["a1*b1", f"b{n - 1}*a{n - 1}"]
    rels += [f"a{i}*b{i} - b{i - 1}*a{i - 1}" for i in range(2, n)]
    return _header(name, field, n) + arrows + _relations(rels)


def nakayama_text(name, n, length, field):
    """Self-injective Nakayama algebra: the cyclic quiver on n vertices with
    every path of the given length set to zero."""
    arrows = "".join(f"arrow c{i}: {i} -> {i % n + 1}\n" for i in range(1, n + 1))
    rels = ["*".join(f"c{(i - 1 + k) % n + 1}" for k in range(length))
            for i in range(1, n + 1)]
    return _header(name, field, n) + arrows + _relations(rels)


def catalan(k):
    return comb(2 * k, k) // (k + 1)


# (name, .alg text, oracle pair count)
LADDER_FP = [
    ("line4", line_text("line4", 4, FP), catalan(5)),
    ("preproj3", preprojective_text("preproj3", 3, FP), factorial(4)),
    ("nakayama3_4", nakayama_text("nakayama3_4", 3, 4, FP), comb(6, 3)),
]

LADDER_Q = [
    ("line3_q", line_text("line3_q", 3, Q), catalan(4)),
    ("nakayama3_3_q", nakayama_text("nakayama3_3_q", 3, 3, Q), comb(6, 3)),
]

# arrow_loop is the package corpus algebra of the same name.  It has no
# closed form in the sources above; its 5 pairs are the frozen exchange
# graph of the package's acceptance gate C1.
ARROW_LOOP = """algebra arrow_loop
field Fp 32003
vertices 1 2
arrow alpha: 1 -> 2
arrow beta: 2 -> 2
relations
  alpha*beta
  beta*beta
end
"""

PAIR_QUERIES = [
    ("line3", line_text("line3", 3, FP), catalan(4)),
    ("preproj2", preprojective_text("preproj2", 2, FP), factorial(3)),
    ("nakayama2_2", nakayama_text("nakayama2_2", 2, 2, FP), comb(4, 2)),
    ("arrow_loop", ARROW_LOOP, 5),
]

# The Kronecker quiver (two parallel arrows) is tau-tilting infinite, so
# every node budget is exceeded and the correct outcome is a refusal.
# Summand dimensions grow with the budget (up to 9, 11 and 13 at 5, 6 and
# 7 nodes), and so does the refusal time, about doubling per step.  Three
# budgets give the p50 and the p90 a budget of their own, where a single
# budget would leave the p90 to the host's slowest moments.
KRONECKER = ("kronecker", "algebra kronecker\nfield Fp 32003\nvertices 1 2\n"
             "arrow a: 1 -> 2\narrow b: 1 -> 2\n")
KRONECKER_BUDGETS = (5, 6, 7)
