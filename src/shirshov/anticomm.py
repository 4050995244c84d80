"""Free anti-commutative algebra on ranked letters: normal tree-words,
the signed product, inclusion compositions, the Hall-word relations whose
quotient is the free Lie algebra, and Lyndon-Shirshov word utilities.

Tree-words are nested pairs with integer ranks at the leaves; a tree is
normal when every internal node has left > right.  Products carry signs
so that every element is a combination of normal trees.
"""

from functools import lru_cache
from itertools import combinations, product

from .core import Structure, Terms, check_letters


def ac_size(t):
    """Number of leaves."""
    if isinstance(t, int):
        return 1
    return ac_size(t[0]) + ac_size(t[1])


def ac_key(t):
    """Sort key for the recursive order: size first, then (left, right)
    lexicographically, leaves by rank."""
    if isinstance(t, int):
        return 1, t
    lk, rk = ac_key(t[0]), ac_key(t[1])
    return lk[0] + rk[0], lk, rk


def _normal_key(t, n=None):
    """ac_key(t) when t is a normal tree-word, else None, in one walk;
    raises when n is given and a leaf is no rank below n."""
    if not isinstance(t, tuple):
        if n is not None:
            check_letters((t,), n)
        return 1, t
    lk, rk = _normal_key(t[0], n), _normal_key(t[1], n)
    if lk is None or rk is None or lk <= rk:
        return None
    return lk[0] + rk[0], lk, rk


def is_normal_acword(t):
    """Left > right at every internal node."""
    return _normal_key(t) is not None


class AcPolynomial(Terms):
    """Rational linear combination of normal tree-words."""

    __slots__ = ()
    _key = staticmethod(ac_key)


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
def _normal_by_degree(n_letters, degree, hall=False):
    # The normal tree-words of one size, ascending; with hall, only the
    # Hall words among them.  ac_key compares sizes first, so (left,
    # right) is normal when left is the larger, or, at equal size, comes
    # later in its ascending list; by left, then right, the pairs ascend.
    if degree == 1:
        return tuple(range(n_letters))
    out = []
    for ls in range((degree + 1) // 2, degree):
        rights = _normal_by_degree(n_letters, degree - ls, hall)
        for k, left in enumerate(_normal_by_degree(n_letters, ls, hall)):
            for right in rights[:k] if 2 * ls == degree else rights:
                if hall and not isinstance(left, int) and \
                        ac_key(left[1]) > ac_key(right):
                    continue
                out.append((left, right))
    return tuple(out)


def normal_words(n_letters, max_deg):
    """All normal tree-words of size <= max_deg, ascending."""
    out = []
    for d in range(1, max_deg + 1):
        out.extend(_normal_by_degree(n_letters, d))
    return out


def hall_words(n_letters, max_deg):
    """Hall tree-words of size <= max_deg, ascending: normal words where
    additionally every left factor [u1 u2] satisfies u2 <= the sibling on
    the right."""
    if max_deg < 1:
        raise ValueError("max_deg must be >= 1")
    out = []
    for d in range(1, max_deg + 1):
        out.extend(_normal_by_degree(n_letters, d, True))
    return out


def hall_gsb(n_letters, max_deg):
    """The relations ([u][v])[w] - ([u][w])[v] - [u]([v][w]) over Hall
    words u > v > w with total size <= max_deg, ascending by (size, u, v,
    w).  Each relation is monic with leading word [[uv]w]."""
    pool = hall_words(n_letters, max_deg)
    sizes = [ac_size(u) for u in pool]
    # The pool ascends in ac_key, so the index triples iw < iv < iu give
    # u > v > w and order them like the keys.
    triples = sorted(
        (total, iu, iv, iw)
        for iw, iv, iu in combinations(range(len(pool)), 3)
        if (total := sizes[iu] + sizes[iv] + sizes[iw]) <= max_deg)
    out = []
    for _, iu, iv, iw in triples:
        u, v, w = pool[iu], pool[iv], pool[iw]
        out.append(ac_mul(ac_mul(u, v), w) - ac_mul(ac_mul(u, w), v)
                   - ac_mul(u, ac_mul(v, w)))
    return out


class AntiCommutative(Structure):
    """Monic relations in the free anti-commutative algebra on n_letters
    letters.

    Strategy of the derived `find`: the first relation whose leading
    word is a subtree, at its preorder-first occurrence; the degree of
    a tree-word is its size.  A context is a chain of (side, sibling)
    pairs up to the root, the sibling right of the subtree for side 0
    and left for side 1.  `rows` yields chains of right products, keyed
    by `Structure.empty_span`, as a tree-word's code has no closed form.
    """

    elem = AcPolynomial
    low = 1
    degree = staticmethod(ac_size)

    def __init__(self, relations, n_letters):
        super().__init__(relations)
        self.n = n_letters
        for i, p in enumerate(self.elements):
            for t in p.terms:
                if _normal_key(t, n_letters) is None:
                    raise ValueError("element %d: %r is not normal" % (i, t))

    def monomials(self, d):
        return _normal_by_degree(self.n, d)

    @staticmethod
    def parts(t):
        """Every subtree of t with its chain, in preorder."""
        stack = [(t, ())]
        while stack:
            part = stack.pop()
            yield part
            sub, chain = part
            if not isinstance(sub, int):
                left, right = sub
                stack.append((right, ((1, left),) + chain))
                stack.append((left, ((0, right),) + chain))

    @staticmethod
    def multiply(context, s):
        """Renormalize s through the signed product with each sibling of
        the chain, innermost first."""
        p = _lift(s)
        for side, sibling in context:
            p = ac_mul(p, sibling) if side == 0 else ac_mul(sibling, p)
        return p

    def rows(self, max_deg):
        """(d, {code: coefficient}) for the nonzero chain products ((s m1)
        ... mk) of a relation s by normal words, d = |lead s| + |m1| + ...
        + |mk| <= max_deg, level by level: each is yielded once and
        extended by every normal word that fits.  They span the ideal,
        since anti-commutativity makes one-sided chains span both sides,
        and a chain that reaches 0 stays 0, as the product is bilinear."""
        code = self.empty_span(max_deg).key
        levels = {}
        for s, lw in zip(self.elements, self.leading_words):
            levels.setdefault(ac_size(lw), []).append(s)
        for d in range(1, max_deg + 1):
            for p in levels.pop(d, ()):
                yield d, {code(m): c for m, c in p.terms.items()}
                for e in range(1, max_deg - d + 1):
                    for m in _normal_by_degree(self.n, e):
                        q = ac_mul(p, m)
                        if q:
                            levels.setdefault(d + e, []).append(q)


# perfbench imports it
def ac_gsb_check_bounded(S, n_letters, max_deg):
    """Bounded three-condition report for a set of monic relations, per
    size, as Structure.bounded_check gives it."""
    return AntiCommutative(S, n_letters).bounded_check(max_deg)


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
    return [w for w in product(range(n_letters), repeat=n) if is_ls_word(w)]


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
