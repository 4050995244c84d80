"""Free dialgebras: diwords with a marked center, the two associative
products, reduction, a bounded linear-algebra basis check, and the
enveloping dialgebra of a Leibniz algebra with its PBW-type basis.

A diword over ranks is a nonempty letter tuple plus the index of its
center letter; it stands for x(-m) |- ... |- x0 -| ... -| x(k) where x0
is the center.  In printed form the center letter carries an @ mark.
"""

from collections import namedtuple
from itertools import accumulate, combinations_with_replacement, product
from operator import neg

from .core import (Polynomial, Structure, Terms, VectorSpan, _digits, _value,
                   add_scaled, check_letters)


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
    end (c < 0).  The code of a diword, its place in the order, is
    F[L] + center * n**L + v(letters), where F[L] = sum(l * n**l for l
    < L) counts the diwords shorter than L and v reads base n.
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
        self.flats = [Polynomial([(m.letters, c) for m, c in p.items()])
                      for p in self.elements]
        self.flat_ok = [bool(flat) and flat.leading_monomial() == lw.letters
                        for flat, lw in zip(self.flats,
                                            self.leading_words)]
        super()._index()

    def monomials(self, d):
        """The diwords of length d in key order: by center, then by
        letters."""
        return (Diword(letters, c) for c in range(d)
                for letters in product(range(self.n), repeat=d))

    def count(self, d):
        return d * self.n ** d

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
        """The diwords a * t * b of the monomials t of s.  A center inside
        s keeps its offset; a center outside s is a Python index into the
        letters and can merge terms, which `add_scaled` sums."""
        a, b, c = context
        new, room = tuple.__new__, len(a) + len(b)
        return DiPolynomial._of(add_scaled({}, [
            (new(Diword, (a + t.letters + b, len(a) + t.center if c is None
                          else c % (room + len(t.letters)))), k)
            for t, k in s.terms.items()]))

    def _powers(self, max_deg):
        """(power, first): n**k for k <= max_deg, and F[L], the code of the
        first diword of length L, for L <= max_deg."""
        power = [self.n ** k for k in range(max_deg + 1)]
        return power, list(accumulate(
            (k * power[k] for k in range(max_deg)), initial=0))

    def _clean(self, top):
        """[the clean words of length k, ascending, for k <= top]: those
        with no letter key, the letters of a relation with flat_ok, as a
        factor.  Such a word is no key and drops to a clean one at either
        end."""
        keys = {key for key in self.lead_index if not isinstance(key, Diword)}
        levels = [[()]]
        for _ in range(top):
            below = set(levels[-1])
            levels.append([w for v in levels[-1] for x in range(self.n)
                           if (w := v + (x,))[1:] in below and w not in keys])
        return levels

    def rows(self, max_deg):
        """The S-words a * s * b of length d <= max_deg, by d, element,
        |a|, a and b: the center inside s, then in a, then in b.  A word
        is clean, as `_clean` lists them, when it has no factor
        lw_j.letters of a relation s_j with flat_ok.  An S-word with the
        center inside s is kept only when a and b are clean.  One with
        the center at c outside s is kept only when the center-forgetting
        image flat(s) is nonzero and the letters strictly between the
        center and s, a[c+1:] for c >= 0 or b[:len(b)+c] for c < 0, are
        clean.  Relations the reducer cannot use get rows too: their
        S-words are in the ideal.  Each is
        {code(w): coefficient}, with |w| taken from the term, since a
        relation need not be homogeneous, and v(a*t*b) = (v(a) *
        n**|t| + v(t)) * n**|b| + v(b) as v(a) and v(b) run over
        range(n**|a|) and range(n**|b|), in the order of the words.

        For every d, the rows kept of length <= d span every S-word of
        length d, so the span, its rank at each length and its pivots are
        those of all S-words.  Take s = s_i, c >= 0, and write a = L*x,
        where L ends at the center.  Every monomial of the S-word has its
        center at c, so its letters decide it: the S-word is
        phi(x*flat(s_i)*b), where phi(y) is the diword L*y centered at c.
        phi is linear and keeps the deg-lex order of words, so the S-word
        is 0 when flat(s_i) is, and otherwise its leading diword is
        w = phi(x*v*b), with v the leading word of flat(s_i).  The proof
        goes by induction on (w, |x|), with L held fixed.  Let x =
        x1*g*x2, where g = lw_j.letters for a relation s_j with flat_ok,
        so that flat(s_j) = k*g + r_j with k != 0 and r_j below g:

            phi(x*flat(s_i)*b) = 1/k * phi(x1*flat(s_j)*x2*u*b), u over
                                 the words of flat(s_i),
                               - 1/k * phi(x1*z*x2*flat(s_i)*b), z over
                                 the words of r_j,

        with the coefficients of flat(s_i) and r_j.  A term of the first
        sum is the S-word of s_j at (L*x1, x2*u*b, c): its factor x1 is
        shorter than x, and its leading diword is w for u = v and below
        w otherwise.  A term of the second sum is the S-word of s_i at
        (L*x1*z*x2, b, c), whose leading diword is below w, since z < g
        and deg-lex is a monomial order.  None is longer than d, since
        |g| = |lw_j|, no word of r_j is longer than g and no word of
        flat(s_i) is longer than lw_i.  For c < 0 the sides swap: b =
        x*R, where R starts at the center, and the S-word is
        phi(a*flat(s_i)*x).  The argument needs |g| = |lw_j|.  Take for g
        the leading word of an image shorter than its relation's leading
        diword, and the first sum holds S-words longer than d; leaving
        out the rows such a g would leave out changes the span of some
        sets.

        With the center inside s_i and a = x1*g*x2, g as above, the
        S-word is 1/k times the sum over the terms k_t*t of s_i of the
        S-words of s_j at (x1, x2*t*b, c), c < 0 the center of t, less
        the sum over the words z of r_j, with their coefficients, of the
        S-words of s_i at (x1*z*x2, b) with the center inside.  None is
        longer than d.  The first have the center outside, so the kept
        rows span them; the leading diwords x1*z*x2*lw_i*b of the second
        are below a*lw_i*b, since z < g.  Induction on that diword, for
        each i, ends the proof; for b = x1*g*x2 the sides swap.
        """
        if not self.elements:
            return
        n = self.n
        top = max(max_deg - self.lead_degrees[-1], 0)
        words = [list(product(range(n), repeat=length))
                 for length in range(top + 1)]
        # the clean words of length <= top, the only sides a row keeps
        clean = set().union(*self._clean(top))
        # by |a| and v(a), and by |b| and v(b): whether the word is
        # clean, and the centers outside s that leave a row
        inner = [[w in clean for w in level] for level in words]
        left = [[[q for q in range(len(a)) if a[q + 1:] in clean]
                 for a in level] for level in words]
        right = [[[r for r in range(-len(b), 0) if b[:len(b) + r] in clean]
                  for b in level] for level in words]
        power, first = self._powers(max_deg)
        # each relation as its length, its terms and its image's terms
        terms = [(len(lw), [(len(t), _value(t.letters, n), t.center, k)
                            for t, k in s.items()],
                  [(len(x), _value(x, n), k) for x, k in flat.items()])
                 for s, lw, flat in zip(self.elements, self.leading_words,
                                        self.flats)]
        for d in range(1, max_deg + 1):
            for length, inside, outside in terms:
                room = d - length
                for la in range(room + 1):
                    lb = room - la
                    nb = power[lb]
                    # per term of length L = room + |t|: its code at v(a)
                    # = v(b) = 0 and the step of v(a); outside s, the step
                    # n**L of the center and L * n**L
                    ins = [(first[room + lt] + (la + c) * power[room + lt]
                            + vt * nb, power[lt] * nb, k)
                           for lt, vt, c, k in inside]
                    outs = [(first[room + lx] + vx * nb, power[lx] * nb,
                             power[room + lx], (room + lx) * power[room + lx],
                             k) for lx, vx, k in outside]
                    for va in range(power[la]):
                        at = inner[la][va] and [
                            (k0 + va * step, k) for k0, step, k in ins]
                        out = [(k0 + va * step, pc, end, k)
                               for k0, step, pc, end, k in outs]
                        for vb in range(nb):
                            if at and inner[lb][vb]:
                                yield d, {k0 + vb: k for k0, k in at}
                            if not outside:
                                continue
                            for q in left[la][va]:
                                yield d, {k0 + q * pc + vb: k
                                          for k0, pc, _, k in out}
                            for r in right[lb][vb]:
                                yield d, {k0 + end + r * pc + vb: k
                                          for k0, pc, end, k in out}

    def irreducible_by_degree(self, max_deg):
        """{d: the diwords of length d with no compatible occurrence,
        ascending}.  A factor without the center lies left or right of
        it, so (letters, c) is irreducible exactly when letters[:c] and
        letters[c+1:] are clean and no factor (letters[p:p+k], c - p)
        that holds the center is a key.  By center, left word, center
        letter and right word, they ascend."""
        index, clean, out = self.lead_index, self._clean(max_deg - 1), {}
        for d in range(1, max_deg + 1):
            out[d] = level = []
            for c in range(d):
                windows = [(p, p + k, c - p) for k in self.lead_degrees
                           for p in range(c + 1 - k, c + 1) if 0 <= p <= d - k]
                for a, x, b in product(clean[c], range(self.n),
                                       clean[d - c - 1]):
                    w = a + (x,) + b
                    if not any((w[p:e], o) in index for p, e, o in windows):
                        level.append(Diword(w, c))
        return out

    def empty_span(self, max_deg):
        """The span of `rows`; a column longer than max_deg has no key."""
        n, letters = self.n, range(self.n)
        power, first = self._powers(max_deg)

        def key(m):
            L = len(m.letters)
            if L <= max_deg and all(x in letters for x in m.letters):
                return first[L] + m.center * power[L] + _value(m.letters, n)

        def column(k):
            L = max(i for i in range(max_deg + 1) if first[i] <= k)
            center, v = divmod(k - first[L], power[L])
            return Diword(_digits(v, n, L), center)

        return VectorSpan(key, column)


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
    # the subspace is a coordinate one exactly when it holds e_p for
    # each of its pivots p, as many as its dimension
    span = VectorSpan(neg, neg)
    for i in range(L.dim):
        span.insert(span.keyed(L.bracket_of(i, i)))
        for j in range(i + 1, L.dim):
            span.insert(span.keyed(add_scaled(L.bracket_of(i, j),
                                              L.bracket_of(j, i).items())))
    indices = frozenset(span.pivots())
    if not all(span.contains({i: 1}) for i in indices):
        raise ValueError(
            "the squares span no coordinate subspace; rewrite the "
            "algebra in an adapted basis first")
    return indices


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
