"""Computations the benchmark checks results against.

Nothing here uses the rewriting code of `shirshov`: congruence classes
come from union-find over all words of one length, class counts of the
plactic monoid from the hook-content formula, Lie dimensions from the
Moebius formula, and Chinese normal forms are certified by a search for a
chain of defining relations joining a word to its claimed normal form.
"""

from __future__ import annotations

import heapq
from itertools import product


def partner_table(pairs):
    """Map each side of each word pair to the words it may be replaced by."""
    table = {}
    for u, v in pairs:
        table.setdefault(u, []).append(v)
        table.setdefault(v, []).append(u)
    return table


def _neighbours(word, table, widths):
    for m in widths:
        for pos in range(len(word) - m + 1):
            for v in table.get(word[pos:pos + m], ()):
                yield word[:pos] + v + word[pos + m:]


def class_ids(pairs, k, n):
    """Congruence class id of every length-n word over letters 0..k-1,
    under the two-sided closure of the length-preserving word pairs."""
    table = partner_table(pairs)
    widths = sorted({len(u) for u in table})
    words = list(product(range(k), repeat=n))
    index = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for w in words:
        for x in _neighbours(w, table, widths):
            ri, rj = find(index[w]), find(index[x])
            if ri != rj:
                parent[ri] = rj
    return {w: find(i) for w, i in index.items()}


def class_count(pairs, k, n):
    return len(set(class_ids(pairs, k, n).values()))


def _partitions(n, max_part, max_rows):
    if n == 0:
        yield ()
        return
    if max_rows == 0:
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first, max_rows - 1):
            yield (first,) + rest


def ssyt_count(k, n):
    """Semistandard Young tableaux with n cells and entries 1..k, by the
    hook-content formula.  By the Robinson-Schensted-Knuth
    correspondence this is the number of plactic classes of length-n
    words over k letters."""
    total = 0
    for shape in _partitions(n, n, k):
        cols = [sum(1 for r in shape if r > j) for j in range(shape[0])] \
            if shape else []
        num = den = 1
        for i, row in enumerate(shape):
            for j in range(row):
                num *= k + j - i
                den *= (row - j - 1) + (cols[j] - i - 1) + 1
        total += num // den
    return total


def _mobius(n):
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def witt(k, n):
    """Dimension of the degree-n part of the free Lie algebra on k
    generators: (1/n) sum over d | n of mu(d) k^(n/d)."""
    return sum(_mobius(d) * k ** (n // d)
               for d in range(1, n + 1) if n % d == 0) // n


def chinese_pairs(k):
    """Defining relations of the rank-k Chinese monoid over letters
    0..k-1: cba = bca = cab for c >= b >= a."""
    pairs = set()
    for c in range(k):
        for b in range(c + 1):
            for a in range(b + 1):
                for other in ((b, c, a), (c, a, b)):
                    if other != (c, b, a):
                        pairs.add(((c, b, a), other))
    return sorted(pairs)


def congruent(word, target, table):
    """Whether a chain of relation applications joins word to target.

    Best-first search through the class of word, nearest (in letters that
    differ from target) first.  The order only decides how soon the
    target is met; an answer of False means the whole class was searched.
    """
    if len(word) != len(target):
        return False
    widths = sorted({len(u) for u in table})

    def dist(u):
        return sum(a != b for a, b in zip(u, target))

    seen = {word}
    heap = [(dist(word), word)]
    while heap:
        _, u = heapq.heappop(heap)
        if u == target:
            return True
        for x in _neighbours(u, table, widths):
            if x not in seen:
                seen.add(x)
                heapq.heappush(heap, (dist(x), x))
    return False


def term_text(items):
    """Text of a sum of (body, coefficient) terms: unit coefficients left
    out, signs folded into the separators."""
    parts = []
    for body, c in items:
        frag = body if abs(c) == 1 else "%s*%s" % (abs(c), body)
        if not parts:
            parts.append("-" + frag if c < 0 else frag)
        else:
            parts.append(("- " if c < 0 else "+ ") + frag)
    return " ".join(parts)


def assoc_text(terms, names):
    """Canonical text of a polynomial given as {word: Fraction}, as the
    CLI prints it: terms in descending deg-lex order of ranks, and a bare
    coefficient for the empty word."""
    if not terms:
        return "0"
    items = []
    for w in sorted(terms, key=lambda u: (len(u), u), reverse=True):
        c = terms[w]
        if w:
            items.append(("*".join(names[r] for r in w), c))
        else:
            items.append((str(abs(c)), 1 if c > 0 else -1))
    return term_text(items)
