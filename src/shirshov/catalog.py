"""Ready-made presentations with verified bases: the Chinese monoid and
the tensor-product commutation set, plus a brute-force congruence oracle
that recounts normal forms without touching the rewriting machinery.
"""

from collections import namedtuple
from itertools import product

from .core import Alphabet, DegLexOrder, Polynomial, deglex_key
from .rewrite import RewriteSystem


class Presentation(namedtuple("Presentation", "alphabet relations kind")):
    """An alphabet with defining relations.

    kind "semigroup" requires every relation to be a difference of two
    words (coefficients 1 and -1), so both sides name monoid elements.
    """

    __slots__ = ()

    def __new__(cls, alphabet, relations, kind):
        relations = tuple(relations)
        if kind not in ("semigroup", "algebra"):
            raise ValueError("kind must be semigroup or algebra")
        if kind == "semigroup":
            for r in relations:
                coeffs = sorted(r.terms.values())
                if coeffs != [-1, 1]:
                    raise ValueError(
                        "semigroup relations must be word differences")
        return super().__new__(cls, alphabet, relations, kind)


def chinese_alphabet(k):
    return Alphabet(tuple("x%d" % (i + 1) for i in range(k)))


def chinese_relations(k):
    """The defining relations cba - bca and cba - cab over c >= b >= a,
    identities dropped.  No relation comes twice: distinct triples give
    distinct leading words cba, and for one triple bca = cab only when
    c = b = a, where both are identities."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rels = [Polynomial({(c, b, a): 1, other: -1})
            for c in range(k) for b in range(c + 1) for a in range(b + 1)
            for other in ((b, c, a), (c, a, b)) if other != (c, b, a)]
    return Presentation(alphabet=chinese_alphabet(k),
                        relations=tuple(rels), kind="semigroup")


def chinese_gsb(k):
    """The closed set for the Chinese monoid under deg-lex.

    Five families over ranks: with i > j > k,
      x_i x_j x_k - x_j x_i x_k,
      x_i x_k x_j - x_j x_i x_k,
      x_i x_j x_i x_k - x_i x_k x_i x_j;
    and with i > j (no third letter involved),
      x_i x_j x_j - x_j x_i x_j,
      x_i x_i x_j - x_i x_j x_i.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    elems = []
    for i in range(k):
        for j in range(i):
            elems.append(Polynomial({(i, j, j): 1, (j, i, j): -1}))
            elems.append(Polynomial({(i, i, j): 1, (i, j, i): -1}))
            for t in range(j):
                elems.append(Polynomial({(i, j, t): 1, (j, i, t): -1}))
                elems.append(Polynomial({(i, t, j): 1, (j, i, t): -1}))
                elems.append(Polynomial({(i, j, i, t): 1,
                                         (i, t, i, j): -1}))
    elems.sort(key=lambda p: deglex_key(p.leading_monomial()))
    return RewriteSystem(tuple(elems), DegLexOrder(chinese_alphabet(k)))


# perfbench imports it
def is_staircase(u, k):
    """Greedy parse of the row-block normal form: blocks with ascending
    lead letter r, each block first the pairs (x_r x_s) with s ascending
    below r, then a run of x_r."""
    u = tuple(u)
    pos = 0
    for r in range(k):
        for s in range(r):
            while u[pos:pos + 2] == (r, s):
                pos += 2
        while u[pos:pos + 1] == (r,):
            pos += 1
    return pos == len(u)


def congruence_classes(P, n):
    """Number of equivalence classes of length-n words under the
    presentation's relations, by breadth-first closure.

    Relations must preserve length (they do for word differences of equal
    length); applying u -> v and v -> u at every position partitions the
    words, independently of any rewriting order or term order.
    """
    if P.kind != "semigroup":
        raise ValueError("congruence counting needs a semigroup kind")
    pairs = []
    for r in P.relations:
        (w1, _), (w2, _) = sorted(r.terms.items(), key=lambda t: t[1])
        if len(w1) != len(w2):
            raise ValueError("length-changing relation %r" % (r,))
        pairs.append((w1, w2))

    k = len(P.alphabet)
    words = [w for w in product(range(k), repeat=n)]
    index = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for w in words:
        for w1, w2 in pairs:
            m = len(w1)
            for pos in range(n - m + 1):
                if w[pos:pos + m] == w1:
                    union(index[w], index[w[:pos] + w2 + w[pos + m:]])
                if w[pos:pos + m] == w2:
                    union(index[w], index[w[:pos] + w1 + w[pos + m:]])
    return len({find(i) for i in range(len(words))})


def tensor_alphabet(nx, ny):
    names = tuple("x%d" % (i + 1) for i in range(nx))
    names += tuple("y%d" % (i + 1) for i in range(ny))
    return Alphabet(names)


def tensor_relations(nx, ny):
    """Commutation set y x - x y for every pair, with every y-letter
    ranked above every x-letter."""
    if nx < 1 or ny < 1:
        raise ValueError("both alphabets need at least one generator")
    alphabet = tensor_alphabet(nx, ny)
    order = DegLexOrder(alphabet)
    elems = []
    for yi in range(nx, nx + ny):
        for xi in range(nx):
            elems.append(Polynomial({(yi, xi): 1, (xi, yi): -1}))
    return RewriteSystem(tuple(elems), order)
