"""Free dialgebras: diwords with a marked center, the two associative
products, reduction, a bounded linear-algebra basis check, and the
enveloping dialgebra of a Leibniz algebra with its PBW-type basis.

A diword over ranks is a nonempty letter tuple plus the index of its
center letter; it stands for x(-m) |- ... |- x0 -| ... -| x(k) where x0
is the center.  In printed form the center letter carries an @ mark.
"""

from collections import namedtuple
from itertools import combinations_with_replacement, product

from .core import (Polynomial, Structure, Terms, VectorSpan, add_scaled,
                   check_letters)


class Diword(namedtuple("Diword", "letters center")):
    """Letter ranks plus the position of the center letter.  Its length
    is the number of letters, so _make and _replace do not apply."""

    __slots__ = ()

    def __new__(cls, letters, center):
        letters = tuple(letters)
        if not letters:
            raise ValueError("diword needs at least one letter")
        if not 0 <= center < len(letters):
            raise ValueError("center %d outside word of length %d"
                             % (center, len(letters)))
        return super().__new__(cls, letters, center)

    def __len__(self):
        return len(self.letters)


def diword_key(u):
    """Sort key for the weight order: length, then center position, then
    the letter sequence."""
    return (len(u.letters), u.center, u.letters)


class DiPolynomial(Terms):
    """Rational linear combination of diwords."""

    __slots__ = ()
    _key = staticmethod(diword_key)


def _lift(x):
    if isinstance(x, Diword):
        return DiPolynomial({x: 1})
    if isinstance(x, DiPolynomial):
        return x
    raise TypeError("expected Diword or DiPolynomial, got %r" % (x,))


def _di_product(u, v, center_right):
    if isinstance(u, Diword) and isinstance(v, Diword):
        return Diword(u.letters + v.letters, len(u.letters) + v.center
                      if center_right else u.center)
    p, q = _lift(u), _lift(v)
    return DiPolynomial([(_di_product(a, b, center_right), ca * cb)
                         for a, ca in p.items() for b, cb in q.items()])


def di_left(u, v):
    """The product u |- v: letters concatenate, the center comes from the
    right factor.  Diword arguments give a Diword; polynomials extend
    bilinearly."""
    return _di_product(u, v, True)


def di_right(u, v):
    """The product u -| v: letters concatenate, the center comes from the
    left factor."""
    return _di_product(u, v, False)


def all_diwords(n_letters, length):
    """Every diword of the exact length over ranks 0..n_letters-1."""
    out = []
    for letters in product(range(n_letters), repeat=length):
        for c in range(length):
            out.append(Diword(letters, c))
    return out


class Dialgebra(Structure):
    """Monic relations in the free dialgebra on n_letters letters.

    Strategy of the derived `find`: the first relation with a
    compatible occurrence, at its leftmost factor.  A factor that holds
    the center takes a relation with the same center offset; any other
    takes, by `keys`, the relations whose center-forgetting image keeps
    the leading letters (`flat_ok`).  The products of the others still
    belong to the ideal and its rows.  The degree of a diword is its
    length.  A context (a, b, c) puts a relation between the letters a
    and b; c is None when the center lies inside the relation, else the
    center's position, counted from the left (c >= 0) or from the right
    end (c < 0).
    """

    elem = DiPolynomial
    low = 1
    degree = staticmethod(len)
    compositions = None

    def __init__(self, relations, n_letters):
        super().__init__(relations)
        self.n = n_letters
        for p in self.elements:
            for m in p.terms:
                check_letters(m.letters, n_letters)

    def _index(self):
        # `keys` reads whether the center-forgetting image of a relation
        # keeps its leading word, so it is set before the index
        self.flat_ok = []
        for p, lw in zip(self.elements, self.leading_words):
            flat = Polynomial([(m.letters, c) for m, c in p.items()])
            self.flat_ok.append(
                bool(flat) and flat.leading_monomial() == lw.letters)
        super()._index()

    def monomials(self, d):
        return sorted(all_diwords(self.n, d), key=diword_key)

    def keys(self, j):
        lw = self.leading_words[j]
        return (lw, lw.letters) if self.flat_ok[j] else (lw,)

    def parts(self, m):
        """The factors of m of the leading degrees, leftmost first: one
        that holds the center as (letters, offset), which equals its
        Diword, with the context (a, b, None); any other as its letters,
        with the context (a, b, c)."""
        word, cm = m.letters, m.center
        n = len(word)
        for pos in range(n):
            a = word[:pos]
            for length in self.lead_degrees:
                end = pos + length
                if pos <= cm < end <= n:
                    yield (word[pos:end], cm - pos), (a, word[end:], None)
                elif end <= n:
                    c = cm if cm < pos else cm - n
                    yield word[pos:end], (a, word[end:], c)

    @staticmethod
    def multiply(context, s):
        """The diwords a * t * b of the monomials t of s; a center outside
        s is a Python index into the letters and can merge monomials."""
        a, b, c = context
        return DiPolynomial([
            (Diword(a + t.letters + b, len(a) + t.center if c is None
                    else c % (len(a) + len(t) + len(b))), k)
            for t, k in s.items()])

    def contexts(self, room):
        """(a, b, c) with |a| + |b| = room, by |a|, a and b; the center
        inside the relation first, then in a, then in b.  Relations the
        reducer cannot use get contexts too: their S-words are in the
        ideal."""
        for la in range(room + 1):
            lb = room - la
            for a in product(range(self.n), repeat=la):
                for b in product(range(self.n), repeat=lb):
                    yield a, b, None
                    for q in range(la):
                        yield a, b, q
                    for r in range(-lb, 0):
                        yield a, b, r


# perfbench imports it
def di_irr(S, n_letters, max_len):
    """Diwords of length <= max_len with no compatible occurrence,
    ascending in the weight order."""
    return Dialgebra(S, n_letters).irreducible(max_len)


# perfbench imports it
def di_gsb_check_bounded(S, n_letters, max_len):
    """Bounded report of conditions (ii) and (iii) per length, as
    Structure.bounded_check gives it.  Compositions are not examined, so
    gsb_ok and failing are None."""
    return Dialgebra(S, n_letters).bounded_check(max_len)


class LeibnizAlgebra(namedtuple("LeibnizAlgebra", "dim bracket")):
    """Finite-dimensional Leibniz algebra by structure constants.

    bracket maps (i, j, k) to the coefficient of e_k in {e_i, e_j};
    absent keys are zero.  dim counts basis elements, indexed from 0.
    """

    __slots__ = ()

    def __new__(cls, dim, bracket):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        bracket = dict(bracket)
        for i, j, k in bracket:
            for idx in (i, j, k):
                if not 0 <= idx < dim:
                    raise ValueError("index %d outside basis 0..%d"
                                     % (idx, dim - 1))
        return super().__new__(cls, dim, add_scaled({}, bracket.items()))

    def bracket_of(self, i, j):
        """{e_i, e_j} as a coordinate dict."""
        return {k: self.bracket[i, j, k] for k in range(self.dim)
                if (i, j, k) in self.bracket}


def _bracket_vec(L, vec, j, acc, c=1):
    """acc + c * {v, e_j} for a coordinate dict v, in place, by linearity
    in the left slot."""
    for i, ci in vec.items():
        add_scaled(acc, L.bracket_of(i, j).items(), c * ci)
    return acc


def leibniz_check(L):
    """True when {{x,y},z} - {{x,z},y} - {{y,z},x} vanishes on all basis
    triples."""
    for x in range(L.dim):
        for y in range(L.dim):
            for z in range(L.dim):
                acc = _bracket_vec(L, L.bracket_of(x, y), z, {})
                _bracket_vec(L, L.bracket_of(x, z), y, acc, -1)
                _bracket_vec(L, L.bracket_of(y, z), x, acc, -1)
                if acc:
                    return False
    return True


def leibniz_i0(L):
    """Indices of the basis vectors spanning the subspace generated by
    all {a, a} and {a, b} + {b, a}.

    That subspace must be spanned by basis vectors themselves for a
    subset of indices to describe it; otherwise the basis of L has to be
    adapted first and this raises.
    """
    span = VectorSpan(key=lambda k: -k)
    for i in range(L.dim):
        span.insert(L.bracket_of(i, i))
        for j in range(i + 1, L.dim):
            span.insert(add_scaled(L.bracket_of(i, j),
                                   L.bracket_of(j, i).items()))
    indices = set()
    for pivot, row in span.rows.items():
        if set(row) != {pivot}:
            raise ValueError(
                "the squares span no coordinate subspace; rewrite the "
                "algebra in an adapted basis first")
        indices.add(pivot)
    return frozenset(indices)


def leibniz_dim2():
    """Two-dimensional example: {e_1, e_1} = e_0, every other bracket 0."""
    return LeibnizAlgebra(dim=2, bracket={(1, 1, 0): 1})


def leibniz_enveloping(L):
    """Defining relations of the enveloping dialgebra of L, built with
    the products di_left (|-) and di_right (-|) from the basis diwords
    e_k.

    Emits, in order: f(j, i) = e_j |- e_i - e_i -| e_j + {e_i, e_j} for
    all pairs; f(j, i) |- e_t for j > i; e_i0 |- e_t for i0 in the
    squares span; e_t -| f(j, i) for j > i; e_t -| e_i0.  Raises when the
    bracket violates the Leibniz identity.
    """
    if not leibniz_check(L):
        raise ValueError("structure constants violate the Leibniz identity")
    i0 = sorted(leibniz_i0(L))
    n = L.dim
    e = [Diword((k,), 0) for k in range(n)]
    f = {(j, i): DiPolynomial([(di_left(e[j], e[i]), 1),
                               (di_right(e[i], e[j]), -1)]
                              + [(e[k], c)
                                 for k, c in L.bracket_of(i, j).items()])
         for j in range(n) for i in range(n)}
    rels = list(f.values())
    rels += [di_left(f[j, i], e[t])
             for j in range(n) for i in range(j) for t in range(n)]
    rels += [DiPolynomial.monomial(di_left(e[i], e[t]))
             for i in i0 for t in range(n)]
    rels += [di_right(e[t], f[j, i])
             for t in range(n) for j in range(n) for i in range(j)]
    rels += [DiPolynomial.monomial(di_right(e[t], e[i]))
             for t in range(n) for i in i0]
    return rels


def pbw_basis(L, max_len):
    """Diwords e_j -| e_i1 -| ... -| e_ik with the tail nondecreasing and
    avoiding the squares span, up to the length bound, ascending.

    At max_len 1 this is the basis of L itself; its survival inside the
    enveloping dialgebra is the embedding statement.
    """
    if max_len < 1:
        return []
    excluded = leibniz_i0(L)
    tail_pool = [i for i in range(L.dim) if i not in excluded]
    # by length, then letters: the tails of one length come in lex order
    return [Diword((j,) + tail, 0) for k in range(max_len)
            for j in range(L.dim)
            for tail in combinations_with_replacement(tail_pool, k)]
