"""Exact arithmetic core: ordered alphabets, words as rank tuples, the
degree-lexicographic order, noncommutative polynomials over the rationals,
sparse exact Gaussian elimination, the bounded three-condition report that
every structure fills in, and the rewriting engine that all four
structures share: associative algebras, dialgebras, modules and
anti-commutative algebras.

Words are tuples of generator ranks; () is the monoid identity.  A
coefficient is exact and never a float: an int when its value is integral,
a fractions.Fraction otherwise.  `exact` brings a value to that form and
`exact_div` divides two of them, since `1 / c` on an int gives a float.
`add_scaled` is the one kernel every linear combination goes through: it
keeps each sum in that form and drops a coefficient that reaches 0.
"""

from bisect import insort
from collections import namedtuple
from fractions import Fraction


def exact(c):
    """The coefficient c as an int when its value is integral, else as a
    Fraction.  Raises TypeError for a float or anything else that is not
    an int or a Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError("coefficient %r is not an int or a Fraction" % (c,))


def exact_div(a, b):
    """a / b for exact coefficients a and b, as `exact` gives it."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return exact(Fraction(a, b))


def add_scaled(acc, items, c=1):
    """Add c * v into the dict acc for every (m, v) in items, keeping each
    sum as `exact` gives it and dropping a key whose sum is 0; returns
    acc.  c is an exact coefficient."""
    one = c == 1
    for m, v in items:
        v = acc.get(m, 0) + (v if one else c * v)
        if type(v) is not int:  # an int sum is exact already
            v = exact(v)
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)
    return acc


def _value(word, n):
    # the word read as a base-n numeral
    v = 0
    for x in word:
        v = v * n + x
    return v


def deglex_key(word):
    """Sort key realizing the degree-then-lexicographic order on rank tuples."""
    return (len(word), word)


class Alphabet(tuple):
    """The tuple of the generator names; position in it is the rank.

    Ranks run 0..n-1 with the first listed name smallest.
    """

    def __new__(cls, names):
        self = super().__new__(cls, names)
        if not self:
            raise ValueError("alphabet needs at least one generator")
        index = {}
        for i, n in enumerate(self):
            if not n or not isinstance(n, str):
                raise ValueError("generator names must be nonempty strings")
            if n in index:
                raise ValueError("duplicate generator name %r" % (n,))
            index[n] = i
        self._index = index
        return self

    @property
    def names(self):
        return tuple(self)

    def rank(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValueError("unknown generator %r" % (name,)) from None

    def name(self, rank):
        return self[rank]

    def word(self, *names):
        """Build a word from generator names, e.g. ab.word('x', 'y')."""
        return tuple(self.rank(n) for n in names)


def check_letters(letters, n, what="letter"):
    """Raise unless every letter is an int rank below n; what names a
    letter in the message."""
    for letter in letters:
        if not (isinstance(letter, int) and 0 <= letter < n):
            raise ValueError(
                "%s %r outside alphabet of size %d" % (what, letter, n))


class DegLexOrder(namedtuple("DegLexOrder", "alphabet")):
    """Degree-lexicographic word order over a fixed alphabet.

    Shorter words come first; equal lengths compare letterwise by rank.
    This is a monomial well order: u > v implies aub > avb.
    """

    __slots__ = ()
    key = staticmethod(deglex_key)


class Terms:
    """Finite linear combination of monomials with nonzero exact
    coefficients (see `exact`): `coeff` and `leading_coeff` may return an
    int, so a caller divides by one through `exact_div` or `Fraction`.
    Subclasses fix the monomial kind and its order `_key`."""

    __slots__ = ("terms",)
    _key = staticmethod(deglex_key)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, m, coeff=1):
        return cls({m: coeff})

    def __init__(self, items=()):
        if hasattr(items, "items"):
            items = items.items()
        self.terms = add_scaled({}, items)

    @classmethod
    def _of(cls, terms):
        # wraps a dict that already keeps the coefficient rule
        out = cls.__new__(cls)
        out.terms = terms
        return out

    # -- container basics ----------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if isinstance(other, Terms):
            return type(self) is type(other) and self.terms == other.terms
        if other == 0:
            return not self.terms
        return NotImplemented

    __hash__ = None

    def items(self):
        return self.terms.items()

    def coeff(self, monomial):
        return self.terms.get(monomial, 0)

    # -- linear structure ----------------------------------------------

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, c):
        """self + c * other in one pass."""
        if type(other) is not type(self):
            return NotImplemented
        return self._of(add_scaled(dict(self.terms), other.terms.items(), c))

    def __neg__(self):
        return self._of({m: -c for m, c in self.terms.items()})

    def scale(self, c):
        c = exact(c)
        return self._of({m: exact(v * c) for m, v in self.terms.items()}
                        if c else {})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    # -- leading-term machinery ------------------------------------------

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero element has no leading term")
        return max(self.terms, key=type(self)._key)

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def monic(self):
        """Scaled copy whose leading coefficient is 1; self when it
        already is, since no code changes an element's terms in place."""
        c = self.leading_coeff()
        return self if c == 1 else self.scale(exact_div(1, c))

    def sorted_terms(self):
        """(monomial, coefficient) pairs in descending monomial order."""
        key = type(self)._key
        return [(m, self.terms[m]) for m in
                sorted(self.terms, key=key, reverse=True)]

    def __repr__(self):
        body = ", ".join("%r: %s" % (m, c) for m, c in self.sorted_terms())
        return "%s({%s})" % (type(self).__name__, body)


class Polynomial(Terms):
    """Noncommutative polynomial: rational linear combination of words."""

    __slots__ = ()

    @classmethod
    def monomial(cls, word, coeff=1):
        return cls({tuple(word): coeff})

    @classmethod
    def one(cls):
        return cls({(): 1})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial._of(add_scaled({}, [
            (u + v, cu * cv) for u, cu in self.terms.items()
            for v, cv in other.terms.items()]))


class VectorSpan:
    """Row space of sparse exact vectors, built incrementally.

    Elimination runs in key space.  key(m) is the key of the column m
    and column(k) the column whose key is k; `key` is injective on the
    columns.  A structure's span keys a monomial by its int code, its
    place in the kind's order (`Structure.empty_span`).  `insert` takes
    a vector {key: coefficient} with exact nonzero coefficients, which
    the span may keep, as every kind's `rows` yields it; a vector over
    columns enters as `insert(keyed(vec))`.  Each stored row has
    coefficient 1 at its pivot, its greatest key.  The pivot set and rank
    are canonical invariants of the span, independent of insertion order;
    the stored rows are not.  A reduction that steps from row A into the
    pivot b of a row B in A's tail subtracts A[b] * B from A, which
    keeps A's pivot and the row space, so chains of rows shorten as they
    are walked.  A span built by Structure.span maps each closed degree
    to its rank in `ranks`.  `contains` and `is_pivot` take columns, and
    a column whose key is None is in no row.  `pivots()` reads columns
    through `column`.
    """

    def __init__(self, key, column):
        self.key = key
        self._column = column
        self.ranks = {}
        self._rows = {}

    def _reduce(self, kvec):
        # Reduces kvec in place by the stored rows; returns its pivot key,
        # or None once it is zero.  A step from row A into the pivot of
        # row B, a key of A, folds B into A.
        rows = self._rows
        last = ()
        while kvec:
            lead = max(kvec)
            row = rows.get(lead)
            if row is None:
                return lead
            if lead in last:
                add_scaled(last, row.items(), -last[lead])
            add_scaled(kvec, row.items(), -kvec[lead])
            last = row
        return None

    def insert(self, kvec):
        """Add a vector in key space; True when it enlarged the span."""
        lead = self._reduce(kvec)
        if lead is None:
            return False
        c = kvec[lead]
        self._rows[lead] = kvec if c == 1 else {
            k: exact_div(v, c) for k, v in kvec.items()}
        return True

    def keyed(self, vec):
        """vec over columns as {key: exact nonzero coefficient}, or None
        when a column has no key."""
        key = self.key
        kvec = {}
        for m, c in vec.items():
            c = exact(c)
            if c:
                k = key(m)
                if k is None:
                    return None
                kvec[k] = c
        return kvec

    def contains(self, vec):
        kvec = self.keyed(vec)
        return kvec is not None and self._reduce(kvec) is None

    def is_pivot(self, column):
        """Whether column is the pivot of a stored row."""
        k = self.key(column)
        return k is not None and k in self._rows

    @property
    def rank(self):
        return len(self._rows)

    def pivots(self):
        """Pivot columns, key-descending."""
        return list(map(self._column, sorted(self._rows, reverse=True)))


class BudgetExceeded(RuntimeError):
    """Raised by shirshov_complete when the wall-clock budget runs out."""


def check_bound(max_deg, lead_degrees):
    """Raise unless max_deg >= 0 and holds every leading monomial, given
    by its degree; a leading monomial above the bound would leave the
    compositions of its element unexamined."""
    if max_deg < 0:
        raise ValueError("max_deg must be >= 0")
    for i, d in enumerate(lead_degrees):
        if d > max_deg:
            raise ValueError("max_deg %d is below element %d's leading "
                             "degree %d" % (max_deg, i, d))


GsbReport = namedtuple("GsbReport", "holds checked failing")


class DegreeLine(namedtuple("DegreeLine",
                            "degree irreducible rank total ok")):
    """Cumulative counts of the monomials of degree <= degree."""

    __slots__ = ()

    @property
    def length(self):
        """The degree, read as a word length for dialgebras and modules."""
        return self.degree


class BoundedReport(namedtuple("BoundedReport", "max_deg gsb_ok failing "
                                "leading_ok bad_leadings counts_ok table")):
    """Bounded Composition-Diamond report: (i) the compositions within
    the bound reduce to zero; (ii) the leading monomials of the bounded
    ideal have reducible leading words; (iii) at every degree the
    irreducible count plus the bounded span rank equals the monomial
    count, cumulatively.  gsb_ok and failing are None when the check
    examines no compositions; holds and agree range over the conditions
    examined."""

    __slots__ = ()

    def _examined(self):
        return [ok for ok in (self.gsb_ok, self.leading_ok, self.counts_ok)
                if ok is not None]

    @property
    def holds(self):
        return all(self._examined())

    @property
    def agree(self):
        return len(set(self._examined())) == 1


def rewrite(p, find, image):
    """Normal form of p: rewrite its key-greatest monomial with an
    occurrence until none is left.

    find(m) returns an occurrence of a leading monomial in the monomial m,
    or None; image(m, occ) is the ideal element the occurrence gives, with
    coefficient 1 at m and smaller monomials elsewhere.  A step subtracts
    the coefficient of m times its image, which changes only monomials
    below m.  So the monomials are settled once each, greatest first: an
    irreducible one keeps its coefficient for good, and a reducible one is
    rewritten, the image's new monomials joining the pending ones below
    it.  Returns p itself when nothing was rewritten.
    """
    key = type(p)._key
    terms = p.terms
    pending = sorted((key(m), m) for m in terms)  # ascending
    while pending:
        m = pending.pop()[1]
        c = terms.get(m)
        if c is None:  # cancelled by an earlier step
            continue
        occ = find(m)
        if occ is None:
            continue
        if terms is p.terms:
            terms = dict(terms)
        img = image(m, occ).terms
        for u in img:
            if u not in terms:
                # pending already if an earlier step cancelled it; its
                # second copy then finds it gone or is probed again
                insort(pending, (key(u), u))
        add_scaled(terms, img.items(), -c)
    return p if terms is p.terms else p._of(terms)


class Structure:
    """Monic relations in a free structure, rewritten by `rewrite`.

    A subclass names its element class `elem` and the least degree `low`
    of a monomial, and supplies degree(m); monomials(d), in ascending
    order, a sequence unless the kind gives count(d) in closed form;
    parts(m), every (part, context) of the monomial m where a relation
    may apply, in the kind's order; multiply(context, s), the S-word that
    puts s into the context; and rows(max_deg), the (d, {code(m):
    coefficient}) in ascending d that `span` inserts into
    `empty_span(max_deg)`: S-words of degree d <= max_deg such that those
    of degree <= d span every S-word of degree <= d.  keys(j), the parts
    at which element j applies, defaults to its leading monomial.  The
    base class checks that every relation is a nonzero monic `elem`,
    keeps the relations in `elements` and their leading monomials in
    `leading_words`, and indexes the keys once: `lead_index` maps each to
    its first element, and `lead_degrees` lists the distinct leading
    degrees, descending.  From parts and keys it derives `find` and
    `compositions`, one walk over the parts of each leading monomial;
    from the S-words, the rewriting image.  A kind may override `find`
    for another strategy, `compositions`, `irreducible_by_degree` and
    `empty_span`.
    """

    elem = Terms
    low = 0

    def __init__(self, relations):
        self.elements = tuple(relations)
        leads = []
        for i, s in enumerate(self.elements):
            if not isinstance(s, self.elem) or not s:
                raise ValueError("element %d is not a nonzero %s"
                                 % (i, self.elem.__name__))
            lw = s.leading_monomial()
            if s.terms[lw] != 1:
                raise ValueError("element %d is not monic" % i)
            leads.append(lw)
        self.leading_words = tuple(leads)
        self._index()

    def keys(self, j):
        """The parts at which element j applies."""
        return (self.leading_words[j],)

    def _index(self):
        self.lead_index = {}
        for j in range(len(self.leading_words)):
            for key in self.keys(j):
                self.lead_index.setdefault(key, j)
        self.lead_degrees = sorted({self.degree(lw) for lw in
                                    self.leading_words}, reverse=True)

    def __len__(self):
        return len(self.elements)

    def find(self, m):
        """(i, context) for the least element i with a key among the
        parts of m, at its first such part, or None."""
        index = self.lead_index
        best = None
        for part, context in self.parts(m):
            i = index.get(part)
            if i is not None and (best is None or i < best[0]):
                best = i, context
        return best

    def compositions(self):
        """The inclusion compositions (w, result) of every ordered pair
        (i, j), by i, then j, then the kind's order of the parts: w =
        leading_words[i] and result = elements[i] - multiply(context,
        elements[j]) for every part of w that is a key of element j.
        Every other pair has no composition.  The root part of a
        self-pair gives an exactly-zero result.  A kind whose
        compositions are not examined sets compositions = None."""
        owners = {}
        for j in range(len(self)):
            for key in self.keys(j):
                owners.setdefault(key, []).append(j)
        for i, lw in enumerate(self.leading_words):
            contexts = {}  # j -> the contexts of its keys in lw
            for part, context in self.parts(lw):
                for j in owners.get(part, ()):
                    contexts.setdefault(j, []).append(context)
            f = self.elements[i]
            for j in sorted(contexts):
                g = self.elements[j]
                for context in contexts[j]:
                    yield lw, f - self.multiply(context, g)

    def image(self, m, occ):
        """The S-word of the occurrence occ = (i, context) of element i
        in m, scaled to coefficient 1 at m."""
        i, context = occ
        p = self.multiply(context, self.elements[i])
        c = p.terms[m]
        return p if c == 1 else p.scale(exact_div(1, c))

    def normal_form(self, p):
        return rewrite(p, self.find, self.image)

    def count(self, d):
        """The number of monomials of degree d: the length of
        monomials(d), which a kind whose monomials(d) is an iterator
        gives in closed form."""
        return len(self.monomials(d))

    def irreducible_by_degree(self, max_deg):
        """{d: the monomials of degree d with no occurrence, ascending}
        for low <= d <= max_deg; a walk over parts stops at a key."""
        index = self.lead_index
        return {d: [m for m in self.monomials(d)
                    if not any(part in index for part, _ in self.parts(m))]
                for d in range(self.low, max_deg + 1)}

    def irreducible(self, max_deg):
        """Monomials of degree <= max_deg with no occurrence, ascending."""
        return [m for level in self.irreducible_by_degree(max_deg).values()
                for m in level]

    def _failing(self, max_deg=None):
        """(checked, failing) over the compositions (w, result) whose
        ambient monomial w has degree <= max_deg, all of them when max_deg
        is None: how many there are, and those whose result has a nonzero
        normal form."""
        checked = 0
        failing = []
        for w, result in self.compositions():
            if max_deg is None or self.degree(w) <= max_deg:
                checked += 1
                if self.normal_form(result):
                    failing.append((w, result))
        return checked, tuple(failing)

    def is_gsb(self):
        """Every composition of every ordered pair reduces to 0.  Raises
        NotImplementedError for a kind whose compositions are not
        examined; bounded_check is its check."""
        if self.compositions is None:
            raise NotImplementedError(
                "%s examines no compositions; use bounded_check"
                % type(self).__name__)
        checked, failing = self._failing()
        return GsbReport(holds=not failing, checked=checked, failing=failing)

    def empty_span(self, max_deg):
        """The VectorSpan that `span` inserts `rows(max_deg)` into, keyed
        by one dict: a monomial of degree <= max_deg by its code, its
        place in the kind's order, and any other column by None."""
        words = [m for d in range(self.low, max_deg + 1)
                 for m in self.monomials(d)]
        return VectorSpan({m: i for i, m in enumerate(words)}.get,
                          words.__getitem__)

    def span(self, max_deg):
        """One span of `rows(max_deg)`, the S-words of degree <=
        max_deg; ranks[d] is its rank at bound d, for low <= d <= max_deg,
        recorded as degree d closes.  Rank does not depend on insertion
        order, and the rows of degree <= d span every S-word of degree
        <= d, so ranks[d] is the rank of the span those S-words build."""
        span = self.empty_span(max_deg)
        d = self.low
        for deg, vec in self.rows(max_deg):
            while d < deg:
                span.ranks[d] = span.rank
                d += 1
            span.insert(vec)
        while d <= max_deg:
            span.ranks[d] = span.rank
            d += 1
        return span

    def bounded_check(self, max_deg):
        """Bounded report: the compositions whose ambient monomial has
        degree <= max_deg, where examined, reduce to 0; every pivot of the
        span at max_deg has an occurrence; irreducible count plus span
        rank matches the monomial count per degree, cumulatively.  Raises
        when the bound cannot hold some relation's leading monomial."""
        check_bound(max_deg, map(self.degree, self.leading_words))
        failing = None
        if self.compositions is not None:
            failing = self._failing(max_deg)[1]
        span = self.span(max_deg)
        levels = self.irreducible_by_degree(max_deg)
        # an irreducible pivot has no occurrence; codes follow the order,
        # so the levels read backwards give them descending
        bad = tuple(m for level in reversed(levels.values())
                    for m in reversed(level) if span.is_pivot(m))
        table = []
        irr = total = 0
        for d, rank in span.ranks.items():
            total += self.count(d)
            irr += len(levels[d])
            table.append(DegreeLine(degree=d, irreducible=irr, rank=rank,
                                    total=total, ok=(irr + rank == total)))
        return BoundedReport(
            max_deg=max_deg,
            gsb_ok=None if failing is None else not failing,
            failing=failing, leading_ok=not bad, bad_leadings=bad,
            counts_ok=all(line.ok for line in table), table=tuple(table))
