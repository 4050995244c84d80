"""Free anti-commutative algebra on ranked letters: normal tree-words,
the signed product, inclusion compositions, the Hall-word relations whose
quotient is the free Lie algebra, and Lyndon-Shirshov word utilities.

Tree-words are nested pairs with integer ranks at the leaves; a tree is
normal when every internal node has left > right.  Products carry signs
so that every element is a combination of normal trees.
"""

from __future__ import annotations

from functools import lru_cache

from .core import (Terms, bounded_report, check_bound, check_monic,
                   composition_report, graded_span)


def ac_size(t):
    """Number of leaves."""
    if isinstance(t, int):
        return 1
    return ac_size(t[0]) + ac_size(t[1])


def _size_key(t):
    # (ac_size(t), ac_key(t)) in one pass over the tree.
    if isinstance(t, int):
        return 1, (1, t)
    ls, lk = _size_key(t[0])
    rs, rk = _size_key(t[1])
    return ls + rs, (ls + rs, lk, rk)


def ac_key(t):
    """Sort key for the recursive order: size first, then (left, right)
    lexicographically, leaves by rank."""
    return _size_key(t)[1]


def is_normal_acword(t):
    """Left > right at every internal node."""
    if isinstance(t, int):
        return True
    return (is_normal_acword(t[0]) and is_normal_acword(t[1])
            and ac_key(t[0]) > ac_key(t[1]))


class AcPolynomial(Terms):
    """Rational linear combination of normal tree-words."""

    __slots__ = ()
    _key = staticmethod(ac_key)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, t, coeff=1):
        return cls({t: coeff})


def _lift(x):
    if isinstance(x, AcPolynomial):
        return x
    return AcPolynomial({x: 1})


def ac_mul(u, v):
    """Signed product: [uv] when u > v, -[vu] when u < v, 0 on equality;
    bilinear on polynomials.  The result is always an AcPolynomial."""
    p, q = _lift(u), _lift(v)
    items = []
    for a, ca in p.items():
        ka = ac_key(a)
        for b, cb in q.items():
            kb = ac_key(b)
            if ka > kb:
                items.append(((a, b), ca * cb))
            elif ka < kb:
                items.append(((b, a), -ca * cb))
    return AcPolynomial(items)


@lru_cache(maxsize=None)
def _normal_by_degree(n_letters, degree):
    if degree == 1:
        return tuple(range(n_letters))
    out = []
    for ls in range(1, degree):
        for left in _normal_by_degree(n_letters, ls):
            for right in _normal_by_degree(n_letters, degree - ls):
                if ac_key(left) > ac_key(right):
                    out.append((left, right))
    return tuple(sorted(out, key=ac_key))


def normal_words(n_letters, max_deg):
    """All normal tree-words of size <= max_deg, ascending."""
    out = []
    for d in range(1, max_deg + 1):
        out.extend(_normal_by_degree(n_letters, d))
    return out


@lru_cache(maxsize=None)
def _hall_by_degree(n_letters, degree):
    if degree == 1:
        return tuple(range(n_letters))
    out = []
    for ls in range(1, degree):
        for left in _hall_by_degree(n_letters, ls):
            for right in _hall_by_degree(n_letters, degree - ls):
                if ac_key(left) <= ac_key(right):
                    continue
                if not isinstance(left, int) and \
                        ac_key(left[1]) > ac_key(right):
                    continue
                out.append((left, right))
    return tuple(sorted(out, key=ac_key))


def hall_words(n_letters, max_deg):
    """Hall tree-words of size <= max_deg, ascending: normal words where
    additionally every left factor [u1 u2] satisfies u2 <= the sibling on
    the right."""
    if max_deg < 1:
        raise ValueError("max_deg must be >= 1")
    out = []
    for d in range(1, max_deg + 1):
        out.extend(_hall_by_degree(n_letters, d))
    return out


def hall_gsb(n_letters, max_deg):
    """The relations ([u][v])[w] - ([u][w])[v] - [u]([v][w]) over Hall
    words u > v > w with total size <= max_deg, ascending by (size, u, v,
    w).  Each relation is monic with leading word [[uv]w]."""
    pool = hall_words(n_letters, max_deg)
    sizes = [ac_size(u) for u in pool]
    # The pool ascends in ac_key, so indices order triples like the keys.
    triples = []
    for iu in range(len(pool)):
        for iv in range(iu):
            for iw in range(iv):
                total = sizes[iu] + sizes[iv] + sizes[iw]
                if total <= max_deg:
                    triples.append((total, iu, iv, iw))
    triples.sort()
    out = []
    for _, iu, iv, iw in triples:
        u, v, w = pool[iu], pool[iv], pool[iw]
        rel = (ac_mul(ac_mul(u, v), w) - ac_mul(ac_mul(u, w), v)
               - ac_mul(u, ac_mul(v, w)))
        out.append(rel)
    return out


def _occurrence_paths(tree, target):
    """Paths (tuples of 0/1) to every subtree equal to target, preorder."""
    out = []

    def walk(t, path):
        if t == target:
            out.append(path)
        if not isinstance(t, int):
            walk(t[0], path + (0,))
            walk(t[1], path + (1,))

    walk(tree, ())
    return out


def _substitute(tree, path, replacement):
    """Replace the subtree at path by a polynomial and renormalize the
    ancestors through the signed product."""
    if not path:
        return _lift(replacement)
    left, right = tree
    if path[0] == 0:
        return ac_mul(_substitute(left, path[1:], replacement), right)
    return ac_mul(left, _substitute(right, path[1:], replacement))


def ac_compositions(f, g):
    """Inclusion compositions of the ordered pair: one per occurrence of
    lead(g) as a subtree of lead(f), each (lead(f), f - substitution).
    The ambient word is lead(f) itself, a normal word, so every subtree
    occurrence qualifies; the root occurrence of a self-pair gives an
    exactly-zero result."""
    lf, lg = f.leading_monomial(), g.leading_monomial()
    out = []
    for path in _occurrence_paths(lf, lg):
        out.append((lf, f - _substitute(lf, path, g)))
    return out


def ac_reducible(t, S):
    return any(_occurrence_paths(t, s.leading_monomial()) for s in S)


def ac_reduce_step(p, S):
    """One deterministic rewrite, or None: greatest reducible monomial,
    first element with an occurrence, its preorder-first path."""
    for mono in sorted(p.terms, key=ac_key, reverse=True):
        for s in S:
            paths = _occurrence_paths(mono, s.leading_monomial())
            if paths:
                step = _substitute(mono, paths[0], s)
                return p - step.scale(p.coeff(mono))
    return None


def ac_normal_form(p, S):
    """Fully reduced representative of p modulo monic relations S.
    Substituted monomials are strictly smaller, so this terminates."""
    check_monic(S, AcPolynomial)
    while True:
        nxt = ac_reduce_step(p, S)
        if nxt is None:
            return p
        p = nxt


def ac_irr_words(S, n_letters, max_deg):
    """Normal words of size <= max_deg containing no leading word of S as
    a subtree, ascending."""
    check_monic(S, AcPolynomial)
    leads = [s.leading_monomial() for s in S]
    return [t for t in normal_words(n_letters, max_deg)
            if not any(_occurrence_paths(t, l) for l in leads)]


def _ac_rows(S, n_letters, max_deg):
    # (d, vec) for every nonzero chain product of ambient size d, level by
    # level: a level is yielded in full, and its right products by normal
    # words go to the higher levels, before the next level starts.
    levels = {}
    for s in S:
        size = ac_size(s.leading_monomial())
        if size <= max_deg:
            levels.setdefault(size, []).append(s)
    for ambient in range(1, max_deg + 1):
        for p in levels.pop(ambient, ()):
            yield ambient, p.terms
            for d in range(1, max_deg - ambient + 1):
                for m in _normal_by_degree(n_letters, d):
                    prod = ac_mul(p, m)
                    if prod:
                        levels.setdefault(ambient + d, []).append(prod)


def ac_ideal_span(S, n_letters, max_deg):
    """Bounded row space of the ideal generated by S.

    Every ideal element is a combination of multiplication chains applied
    to a single generator, and anti-commutativity makes one-sided chains
    span both sides, so right-multiplying by normal words up to the size
    budget enumerates a spanning set.  Rows go in by ascending ambient
    size; ranks[d] is the rank of the span at bound d, for
    1 <= d <= max_deg.
    """
    check_monic(S, AcPolynomial)
    return graded_span(_ac_rows(S, n_letters, max_deg), ac_key,
                       range(1, max_deg + 1))


def ac_gsb_check_bounded(S, n_letters, max_deg):
    """Bounded three-condition report for a set of monic relations:
    compositions with ambient size within the bound reduce to zero;
    leading words of the bounded ideal span are reducible; irreducible
    plus rank matches the normal-word count, cumulative per degree.

    One span is built at max_deg, its rows in ascending ambient size, and
    gives both the pivots and the rank per size; the irreducible words are
    enumerated once and counted cumulatively per size.  Raises when the
    bound cannot hold some element's leading word.
    """
    check_monic(S, AcPolynomial)
    leads = [s.leading_monomial() for s in S]
    check_bound(max_deg, [ac_size(lw) for lw in leads])
    failing = composition_report(S, ac_compositions, ac_normal_form).failing
    span = ac_ideal_span(S, n_letters, max_deg)
    bad = [t for t in span.pivots()
           if not any(_occurrence_paths(t, lw) for lw in leads)]
    return bounded_report(max_deg, failing, bad, span.ranks,
                          map(ac_size, ac_irr_words(S, n_letters, max_deg)),
                          lambda d: len(_normal_by_degree(n_letters, d)))


def ac_flatten(t):
    """Left-to-right leaf sequence as a plain word."""
    if isinstance(t, int):
        return (t,)
    return ac_flatten(t[0]) + ac_flatten(t[1])


def is_ls_word(u):
    """True when the word is strictly greater than every proper cyclic
    rotation of itself (larger letters first convention)."""
    u = tuple(u)
    if not u:
        raise ValueError("the empty word has no rotations to compare")
    return all(u > u[i:] + u[:i] for i in range(1, len(u)))


def ls_words(n_letters, n):
    """All such words of length n over ranks 0..n_letters-1, ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    stack = [()]
    while stack:
        w = stack.pop()
        if len(w) == n:
            if is_ls_word(w):
                out.append(w)
            continue
        for letter in range(n_letters):
            stack.append(w + (letter,))
    out.sort()
    return out


def ls_bracketing(u):
    """Standard bracketing: split at the longest proper suffix that has
    the rotation property itself, and recurse; the flattened result is
    the input word."""
    u = tuple(u)
    if not is_ls_word(u):
        raise ValueError("%r is not greater than all its rotations" % (u,))
    if len(u) == 1:
        return u[0]
    for cut in range(1, len(u)):
        if is_ls_word(u[cut:]):
            return (ls_bracketing(u[:cut]), ls_bracketing(u[cut:]))
    raise AssertionError("a final letter is always a valid suffix")
