"""Command-line front end: a small presentation file format, subcommands
binding every engine, and deterministic plain-text reports.  Only `core`
is imported up front; the engines come through the package's lazy public
names, so a command loads only the engine it runs.

Report layout: a `format: 1` line, then `key: value` diagnostics, and the
bare result on the last line.  Exit codes: 0 when the checked property
holds or the run succeeded, 1 when a property is false or completion was
capped, 2 on parse or input errors, 3 when a resource budget ran out.
"""

import argparse
import re
import sys
from collections import namedtuple
from types import SimpleNamespace

from .core import (Alphabet, BudgetExceeded, DegLexOrder, Polynomial,
                   check_bound, exact_div)

_lib = sys.modules[__package__]


class ParseError(ValueError):
    def __init__(self, line, col, msg):
        super().__init__("line %d, col %d: %s" % (line, col, msg))
        self.line = line
        self.col = col


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)"
                    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[*+\-@()\[\]=]))")


def _tokenize(text, lineno):
    text = text.split("#", 1)[0]
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            col = len(text) - len(rest) + 1
            raise ParseError(lineno, col, "unexpected character %r" % rest[0])
        col = m.start(m.lastgroup) + 1
        tokens.append((m.lastgroup, m.group(m.lastgroup), col))
        pos = m.end()
    return tokens


class _Cursor:
    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.lineno = lineno
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self, expect=None, what=None):
        tok = self.peek()
        if tok is None:
            raise ParseError(self.lineno, self._end_col(),
                             "expected %s at end of line" % (what or expect))
        if expect is not None and (tok[0], tok[1]) != expect and \
                tok[0] != expect:
            raise ParseError(self.lineno, tok[2],
                             "expected %s, found %r" % (what or expect,
                                                        tok[1]))
        self.i += 1
        return tok

    def accept(self, op):
        """Consume the next token when it is the operator op; returns
        whether it was."""
        tok = self.peek()
        if tok is None or tok[:2] != ("op", op):
            return False
        self.i += 1
        return True

    def _end_col(self):
        if self.tokens:
            return self.tokens[-1][2] + len(self.tokens[-1][1])
        return 1

    def error(self, msg):
        tok = self.peek()
        col = tok[2] if tok else self._end_col()
        raise ParseError(self.lineno, col, msg)


PresentationFile = namedtuple("PresentationFile",
                              "kind alphabet mgens relations")


def _rank(cur, alphabet, name, col):
    try:
        return alphabet.rank(name)
    except ValueError:
        raise ParseError(cur.lineno, col,
                         "unknown generator %r" % name) from None


def _parse_ac_tree(cur, alphabet):
    """A letter or a (left right) pair, as its product in normal form."""
    tok = cur.peek()
    if tok is None:
        cur.error("expected a letter or a parenthesized pair")
    if tok[0] == "name":
        cur.next()
        return _lib.AcPolynomial({_rank(cur, alphabet, tok[1], tok[2]): 1})
    if not cur.accept("("):
        cur.error("expected a letter or (")
    left = _parse_ac_tree(cur, alphabet)
    right = _parse_ac_tree(cur, alphabet)
    if not cur.accept(")"):
        cur.error("expected )")
    return _lib.ac_mul(left, right)


def _parse_factor(cur, kind, alphabet, mgens, term, after_star):
    """Read one factor into term: a numeral into its coefficient, an ac
    tree into its trees, and a letter, an @-marked center letter or a
    module generator [y] into its monomial; only a numeral may follow the
    module generator."""
    tok = cur.peek()
    if tok is None or (after_star and tok[:2] == ("op", "*")):
        cur.error("expected a factor after *" if after_star
                  else "expected a term")
    tkind, value, col = tok
    if tkind == "num":
        cur.next()
        num, _, den = value.partition("/")
        try:
            term.coeff *= exact_div(int(num), int(den or 1))
        except ZeroDivisionError:
            raise ParseError(cur.lineno, col, "zero denominator") from None
    elif term.ygen is not None:
        raise ParseError(cur.lineno, col,
                         "nothing may follow the module generator")
    elif kind == "ac":
        term.trees.append(_parse_ac_tree(cur, alphabet))
    elif tkind == "name":
        cur.next()
        term.letters.append(_rank(cur, alphabet, value, col))
    elif kind == "dialgebra" and cur.accept("@"):
        ntok = cur.next("name", "a generator after @")
        if term.center is not None:
            raise ParseError(cur.lineno, ntok[2],
                             "a diword has exactly one center")
        term.center = len(term.letters)
        term.letters.append(_rank(cur, alphabet, ntok[1], ntok[2]))
    elif kind == "module" and cur.accept("["):
        ntok = cur.next("name", "a module generator")
        if ntok[1] not in mgens:
            raise ParseError(cur.lineno, ntok[2],
                             "unknown module generator %r" % ntok[1])
        cur.next(("op", "]"), "]")
        term.ygen = mgens.index(ntok[1])
    else:
        cur.error("expected a factor")


def _parse_term(cur, kind, alphabet, mgens):
    """One product term, factor {* factor}; returns its (monomial,
    coefficient) pairs.

    A term of numerals alone whose product is 0 has none, which every
    kind reads as zero; other bare scalars are associative only.  An ac
    term gives the pairs of its renormalised tree product."""
    term = SimpleNamespace(coeff=1, letters=[], trees=[], center=None,
                           ygen=None)
    _parse_factor(cur, kind, alphabet, mgens, term, False)
    while cur.accept("*"):
        _parse_factor(cur, kind, alphabet, mgens, term, True)

    letters = tuple(term.letters)
    if not term.coeff and not (letters or term.trees or term.ygen is not None):
        return []
    if kind == "assoc":
        return [(letters, term.coeff)]
    if kind == "dialgebra":
        if not letters:
            cur.error("a dialgebra term needs letters")
        if term.center is None:
            cur.error("mark the center letter with @")
        return [(_lib.Diword(letters, term.center), term.coeff)]
    if kind == "module":
        if term.ygen is None:
            cur.error("a module term ends with [generator]")
        return [(_lib.ModuleWord(letters, term.ygen), term.coeff)]
    if not term.trees:
        cur.error("an ac term needs a tree or a letter")
    acc = term.trees[0]
    for t in term.trees[1:]:
        acc = _lib.ac_mul(acc, t)
    return acc.scale(term.coeff).items()


def _parse_expr(cur, kind, alphabet, mgens):
    """expr := [+|-] term {(+|-) term}, to the end of the line: a term
    followed by anything but + or - is an error."""
    items = []
    sign = 1
    if not cur.accept("+") and cur.accept("-"):
        sign = -1
    while True:
        items += [(m, sign * c)
                  for m, c in _parse_term(cur, kind, alphabet, mgens)]
        if cur.peek() is None:
            break
        if cur.accept("+"):
            sign = 1
        elif cur.accept("-"):
            sign = -1
        else:
            cur.error("expected + or - between terms")
    return _SPECS[kind].elem(items)


def parse_element(text, kind, alphabet, mgens=(), lineno=1):
    """Parse one element in the given structure; raises ParseError."""
    cur = _Cursor(_tokenize(text, lineno), lineno)
    if not cur.tokens:
        cur.error("expected an expression")
    return _parse_expr(cur, kind, alphabet, mgens)


def _names(cur, directive, what):
    """The names after a gens or mgens directive: at least one, and no
    name twice."""
    names = []
    while cur.peek() is not None:
        tok = cur.next("name", "a %s name" % what)
        if tok[1] in names:
            raise ParseError(cur.lineno, tok[2],
                             "duplicate %s name %r" % (what, tok[1]))
        names.append(tok[1])
    if not names:
        cur.error("%s needs at least one name" % directive)
    return tuple(names)


def parse_presentation(text):
    """Parse a presentation file into its kind, alphabets and relations;
    bracket lines give the relations of the enveloping dialgebra of a
    Leibniz algebra."""
    kind = None
    gens = None
    mgens = ()
    bracket = {}
    bracket_pairs = set()
    rel_lines = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        cur = _Cursor(tokens, lineno)
        head = cur.next("name", "a directive")
        word = head[1]
        if word == "kind":
            if kind is not None:
                raise ParseError(lineno, head[2], "duplicate kind line")
            tok = cur.next("name", "one of %s" % (KINDS,))
            if tok[1] not in KINDS:
                raise ParseError(lineno, tok[2],
                                 "kind must be one of %s" % (KINDS,))
            kind = tok[1]
        elif word == "gens":
            if gens is not None:
                raise ParseError(lineno, head[2], "duplicate gens line")
            gens = Alphabet(_names(cur, word, "generator"))
        elif word == "mgens":
            if kind != "module":
                raise ParseError(lineno, head[2],
                                 "mgens lines belong to kind module")
            if mgens:
                raise ParseError(lineno, head[2], "duplicate mgens line")
            mgens = _names(cur, word, "module generator")
        elif word == "bracket":
            if kind != "dialgebra":
                raise ParseError(lineno, head[2],
                                 "bracket lines belong to kind dialgebra")
            if gens is None:
                raise ParseError(lineno, head[2], "gens must come first")
            if rel_lines:
                raise ParseError(lineno, head[2],
                                 "bracket and rel lines cannot be mixed")
            ti = cur.next("name", "a generator name")
            tj = cur.next("name", "a generator name")
            cur.next(("op", "="), "=")
            i = _rank(cur, gens, ti[1], ti[2])
            j = _rank(cur, gens, tj[1], tj[2])
            if (i, j) in bracket_pairs:
                raise ParseError(lineno, ti[2], "duplicate bracket line for "
                                 "%s %s" % (ti[1], tj[1]))
            bracket_pairs.add((i, j))
            combo = _parse_expr(cur, "assoc", gens, ())
            for w, c in combo.items():
                if len(w) != 1:
                    raise ParseError(lineno, head[2],
                                     "bracket values are linear in the "
                                     "generators")
                bracket[(i, j, w[0])] = c
        elif word == "rel":
            if kind is None:
                raise ParseError(lineno, head[2], "kind must come first")
            if gens is None:
                raise ParseError(lineno, head[2], "gens must come first")
            if bracket_pairs:
                raise ParseError(lineno, head[2],
                                 "bracket and rel lines cannot be mixed")
            if kind == "module" and not mgens:
                raise ParseError(lineno, head[2],
                                 "mgens must come before module relations")
            elem = _parse_expr(cur, kind, gens, mgens)
            if not elem:
                raise ParseError(lineno, head[2], "the relation is zero")
            rel_lines.append(elem.monic())
        else:
            raise ParseError(lineno, head[2],
                             "unknown directive %r" % word)

    if kind is None:
        raise ParseError(1, 1, "missing kind line")
    if gens is None:
        raise ParseError(1, 1, "missing gens line")
    if kind == "module" and not mgens:
        raise ParseError(1, 1, "kind module needs an mgens line")

    relations = rel_lines
    if bracket_pairs:
        try:
            relations = _lib.leibniz_enveloping(
                _lib.LeibnizAlgebra(dim=len(gens), bracket=bracket))
        except ValueError as exc:
            raise ParseError(1, 1, str(exc)) from None
    return PresentationFile(kind=kind, alphabet=gens, mgens=mgens,
                            relations=relations)


# -- canonical printing --------------------------------------------------


def fmt_word(w, alphabet):
    if not w:
        return "1"
    return "*".join(alphabet.name(r) for r in w)


def fmt_diword(dw, alphabet):
    parts = []
    for i, r in enumerate(dw.letters):
        name = alphabet.name(r)
        parts.append("@" + name if i == dw.center else name)
    return "*".join(parts)


def fmt_mword(mw, alphabet, mgens):
    tail = "[%s]" % mgens[mw.y]
    if not mw.u:
        return tail
    return "*".join(alphabet.name(r) for r in mw.u) + "*" + tail


def fmt_acword(t, alphabet):
    if isinstance(t, int):
        return alphabet.name(t)
    return "(%s %s)" % (fmt_acword(t[0], alphabet),
                        fmt_acword(t[1], alphabet))


def fmt_element(e, pfile):
    """Canonical text: descending terms, unit coefficients omitted, signs
    folded into the separators."""
    if not e:
        return "0"
    fmt = _SPECS[pfile.kind].fmt
    parts = []
    for m, c in e.sorted_terms():
        body = fmt(m, pfile)
        if m == ():
            frag = str(abs(c))
        elif abs(c) == 1:
            frag = body
        else:
            frag = "%s*%s" % (abs(c), body)
        if not parts:
            parts.append("-" + frag if c < 0 else frag)
        else:
            parts.append(("- " if c < 0 else "+ ") + frag)
    return " ".join(parts)


def fmt_presentation(pfile):
    lines = ["kind %s" % pfile.kind,
             "gens %s" % " ".join(pfile.alphabet.names)]
    if pfile.kind == "module":
        lines.append("mgens %s" % " ".join(pfile.mgens))
    for r in pfile.relations:
        lines.append("rel %s" % fmt_element(r, pfile))
    return "\n".join(lines) + "\n"


# -- subcommands ----------------------------------------------------------
# Each runs on a presentation from a file or a catalog preset and returns
# its report as (lines, result, exit code); main prints it.


def _emit(lines, result):
    print("format: 1")
    for line in lines:
        print(line)
    print(result)


def _bool(x):
    return "true" if x else "false"


# What the subcommands need to know of one kind of structure: elem maps
# (monomial, coeff) pairs to an element, fmt (monomial, pfile) to text and
# structure a pfile to its core.Structure; exact is True when check runs
# is_gsb, not the bounded check.
_Kind = namedtuple("_Kind", "elem fmt structure exact")


_SPECS = {
    "assoc": _Kind(
        elem=Polynomial,
        fmt=lambda m, pf: fmt_word(m, pf.alphabet),
        structure=lambda pf: _lib.RewriteSystem(tuple(pf.relations),
                                                DegLexOrder(pf.alphabet)),
        exact=True),
    "dialgebra": _Kind(
        elem=lambda items: _lib.DiPolynomial(items),
        fmt=lambda m, pf: fmt_diword(m, pf.alphabet),
        structure=lambda pf: _lib.Dialgebra(pf.relations, len(pf.alphabet)),
        exact=False),
    "module": _Kind(
        elem=lambda items: _lib.ModuleElement(items),
        fmt=lambda m, pf: fmt_mword(m, pf.alphabet, pf.mgens),
        structure=lambda pf: _lib.FreeModule(pf.relations, len(pf.alphabet),
                                             len(pf.mgens)),
        exact=True),
    "ac": _Kind(
        elem=lambda items: _lib.AcPolynomial(items),
        fmt=lambda m, pf: fmt_acword(m, pf.alphabet),
        structure=lambda pf: _lib.AntiCommutative(pf.relations,
                                                  len(pf.alphabet)),
        exact=False),
}
KINDS = tuple(_SPECS)


def _verdict(lines, holds):
    return lines, _bool(holds), 0 if holds else 1


def _report_lines(rep):
    lines = ["max_deg: %d" % rep.max_deg]
    if rep.gsb_ok is not None:
        lines.append("compositions: %s" % _bool(rep.gsb_ok))
    return lines + ["leadings: %s" % _bool(rep.leading_ok),
                    "counts: %s" % _bool(rep.counts_ok)]


def _structure(pfile):
    return _SPECS[pfile.kind].structure(pfile)


def _check(pfile, head, max_deg):
    # The exact check where the kind has one, else the bounded one at
    # max_deg, by default one above the longest leading monomial.
    lines = [head, "elements: %d" % len(pfile.relations)]
    if max_deg is not None:
        check_bound(max_deg, ())
    structure = _structure(pfile)
    if _SPECS[pfile.kind].exact:
        rep = structure.is_gsb()
        return _verdict(lines + ["checked: %d" % rep.checked,
                                 "failing: %d" % len(rep.failing)],
                        rep.holds)
    if max_deg is None:
        max_deg = 1 + max(structure.lead_degrees, default=0)
    rep = structure.bounded_check(max_deg)
    return _verdict(lines + _report_lines(rep), rep.holds)


def _cdcheck(pfile, head, max_deg):
    rep = _structure(pfile).bounded_check(max_deg)
    lines = [head] + _report_lines(rep)
    lines += ["deg %d: irr=%d rank=%d total=%d %s"
              % (line.degree, line.irreducible, line.rank, line.total,
                 "ok" if line.ok else "FAIL") for line in rep.table]
    return _verdict(lines, rep.holds)


def _irr(pfile, head, max_len, count_only):
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    structure = _structure(pfile)
    if max_len < structure.low:
        raise ValueError("max_len must be >= %d" % structure.low)
    levels = (structure.irreducible_codes if count_only
              else structure.irreducible_by_degree)(max_len)
    lines = [head, "max_len: %d" % max_len]
    if not count_only:
        fmt = _SPECS[pfile.kind].fmt
        lines += [" ".join(["len %d:" % d] + [fmt(w, pfile) for w in words])
                  for d, words in levels.items()]
    return lines, " ".join(str(len(words)) for words in levels.values()), 0


def _nf(pfile, head, text):
    elem = parse_element(text, pfile.kind, pfile.alphabet, pfile.mgens)
    return [head], fmt_element(_structure(pfile).normal_form(elem), pfile), 0


def _complete(pfile, head, args):
    if pfile.kind != "assoc":
        raise ValueError("complete supports kind assoc only")
    rep = _lib.shirshov_complete(_structure(pfile), max_deg=args.max_deg,
                                 max_elems=args.max_elems,
                                 budget_seconds=args.budget_seconds)
    out = pfile._replace(relations=list(rep.basis.elements))
    lines = [head,
             "added: %d" % rep.added,
             "iterations: %d" % rep.iterations,
             "elements: %d" % len(rep.basis)]
    lines += ["elem: %s" % fmt_element(e, out) for e in rep.basis.elements]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(fmt_presentation(out))
        lines.append("wrote: %s" % args.out)
    return lines, rep.status, 0 if rep.status == "completed" else 1


def _preset(args):
    """The catalog preset the options name, as a presentation, with the
    head line of its report; refuses an option the preset or the action
    would ignore."""
    chinese = args.preset == "chinese"
    for unused, msg in (
            (args.rank is not None and not chinese,
             "--rank applies to the chinese preset only"),
            ((args.nx, args.ny) != (None, None) and chinese,
             "--nx and --ny apply to the tensor preset only"),
            (args.irr is not None and args.cdcheck is not None,
             "--irr and --cdcheck exclude each other"),
            (args.count_only and args.irr is None,
             "--count-only needs --irr")):
        if unused:
            raise ValueError(msg)
    if chinese:
        rank = 2 if args.rank is None else args.rank
        system = _lib.chinese_gsb(rank)
        label = "chinese rank=%d" % rank
    else:
        nx = 1 if args.nx is None else args.nx
        ny = 1 if args.ny is None else args.ny
        system = _lib.tensor_relations(nx, ny)
        label = "tensor nx=%d ny=%d" % (nx, ny)
    pfile = PresentationFile(kind="assoc", alphabet=system.order.alphabet,
                             mgens=(), relations=list(system.elements))
    return pfile, "preset: %s" % label


def _catalog(pfile, head, args):
    if args.cdcheck is not None:
        return _cdcheck(pfile, head, args.cdcheck)
    if args.irr is not None:
        return _irr(pfile, head, args.irr, args.count_only)
    return _check(pfile, head, None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shirshov",
        description="Composition-based rewriting over free structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify closedness under compositions")
    p.add_argument("file")
    p.add_argument("--max-deg", type=int, default=None,
                   help="bound for the structures with bounded checks")
    p.set_defaults(run=lambda pfile, head, args:
                   _check(pfile, head, args.max_deg))

    p = sub.add_parser("complete", help="run the completion procedure")
    p.add_argument("file")
    p.add_argument("--max-deg", type=int, required=True)
    p.add_argument("--max-elems", type=int, required=True)
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--out", default=None,
                   help="write the resulting basis as a presentation file")
    p.set_defaults(run=_complete)

    p = sub.add_parser("nf", help="normal form of an element")
    p.add_argument("file")
    p.add_argument("--elem", required=True)
    p.set_defaults(run=lambda pfile, head, args:
                   _nf(pfile, head, args.elem))

    p = sub.add_parser("irr", help="irreducible words per length")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(run=lambda pfile, head, args:
                   _irr(pfile, head, args.max_len, args.count_only))

    p = sub.add_parser("cdcheck", help="bounded three-condition report")
    p.add_argument("file")
    p.add_argument("--max-deg", type=int, required=True)
    p.set_defaults(run=lambda pfile, head, args:
                   _cdcheck(pfile, head, args.max_deg))

    p = sub.add_parser("catalog", help="run a built-in presentation")
    p.add_argument("preset", choices=("chinese", "tensor"))
    p.add_argument("--rank", type=int, default=None,
                   help="generator count for the chinese preset")
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--ny", type=int, default=None)
    p.add_argument("--cdcheck", type=int, default=None, metavar="N")
    p.add_argument("--irr", type=int, default=None, metavar="N")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(run=_catalog)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value that starts with "-", such as the element
    # "-x1", as an option; the argument after --elem is always its value
    i = 0
    while i < len(argv) - 1:
        if argv[i] == "--elem":
            argv[i:i + 2] = ["--elem=" + argv[i + 1]]
        i += 1
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "catalog":
            pfile, head = _preset(args)
        else:
            with open(args.file, "r", encoding="utf-8") as fh:
                pfile = parse_presentation(fh.read())
            head = "kind: %s" % pfile.kind
        lines, result, code = args.run(pfile, head, args)
    except BudgetExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    _emit(lines, result)
    return code


if __name__ == "__main__":
    sys.exit(main())
