"""The benchmark's three workloads.

Each workload is built from a seed into library operations (timed in the
benchmark process), CLI invocations (each timed in a fresh process), a
set of checks run on the outputs after the timed region, and a summary of
the work done.  The checks compare against
`oracles.py`, never against stored output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from shirshov import (Alphabet, DegLexOrder, Polynomial, RewriteSystem,
                      ac_gsb_check_bounded, cd_lemma_check, chinese_gsb,
                      di_gsb_check_bounded, di_irr, hall_gsb, irr_words,
                      is_gsb, is_staircase, leibniz_dim2, leibniz_enveloping,
                      module_cd_check, normal_form, pbw_basis,
                      shirshov_complete)
from shirshov.freemodule import module_irr, random_module_set

import oracles

# plactic-complete
PLACTIC_RANK = 3
PLACTIC_MAX_DEG = 8
PLACTIC_CLI_MAX_DEG = 6
MAX_ELEMS = 1000  # never reached: completion stops on the degree cap
DESC = ("x3", "x2", "x1")  # x3 ranked smallest: completion does not end
ASC = ("x1", "x2", "x3")   # completes with 11 elements

# assoc-verify
GSB_RANK = 6
CD_RANK, CD_MAX_DEG = 3, 8
NF_RANK, NF_BATCH = 5, 100
CLI_RANK, CLI_CD_MAX_DEG, CLI_IRR_LEN = 4, 7, 8
BAD_FILE = "kind assoc\ngens x1 x2\nrel x2*x2*x2*x2*x2 - x1\n"

# structures-bounded
DI_MAX_LEN = 6
DI_CLI_MAX_LEN = 5
AC_MAX_DEG = 8
AC_CLI_MAX_DEG = 6
MODULE_SETS, MODULE_MAX_LEN = 50, 7
MODULE_CLI_MAX_LEN = 6
DI_FILE = "kind dialgebra\ngens e0 e1\nbracket e1 e1 = e0\n"


@dataclass
class LibOp:
    """One timed library call that attempts `count` operations."""

    name: str
    run: object
    count: int = 1


@dataclass
class CliOp:
    """One `shirshov` invocation.

    `check(code, lines)` returns (ok, detail) for its exit code and
    output lines.  `fault(code, lines)` is set for an invocation that hits
    a known fault of the program: it counts as failed whenever that
    returns True and is checked only otherwise.
    """

    name: str
    argv: list
    check: object
    fault: object = None


@dataclass
class Workload:
    lib_ops: list
    cli_ops: list
    checks: object  # first-pass results -> [(name, ok, detail)]
    work: object    # results -> {label: int or list of ints}


def _write(workdir, name, text):
    path = Path(workdir) / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _assoc_file(names, elems):
    rels = "".join("rel %s\n" % oracles.assoc_text(p.terms, names)
                   for p in elems)
    return "kind assoc\ngens %s\n%s" % (" ".join(names), rels)


def _rel_lines(elems, monomial_text):
    return "".join("rel %s\n" % oracles.term_text(
        [(monomial_text(m), c) for m, c in e.terms.items()]) for e in elems)


def _tree_text(t, names):
    if isinstance(t, int):
        return names[t]
    return "(%s %s)" % (_tree_text(t[0], names), _tree_text(t[1], names))


def _mword_text(mw, names, mgens):
    return "*".join([names[r] for r in mw.u] + ["[%s]" % mgens[mw.y]])


def _field(lines, key):
    prefix = key + ": "
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def _last(lines):
    return lines[-1] if lines else None


def _per_length(words, max_len, length=len):
    counts = [0] * (max_len + 1)
    for w in words:
        counts[length(w)] += 1
    return counts


def _differences(cumulative):
    return [b - a for a, b in zip([0] + cumulative, cumulative)]


def _table_lines(table):
    return ["deg %d: irr=%d rank=%d total=%d %s"
            % (getattr(line, "degree", getattr(line, "length", None)),
               line.irreducible, line.rank, line.total,
               "ok" if line.ok else "FAIL") for line in table]


def _cli_matches(code, lines, holds, expect_lines):
    """CLI output agrees with a library verdict and report lines."""
    want = "true" if holds else "false"
    missing = [l for l in expect_lines if l not in lines]
    ok = code == (0 if holds else 1) and _last(lines) == want \
        and not missing
    return ok, "exit %s, last %r, %d report lines differ" % (
        code, _last(lines), len(missing))


# -- plactic-complete ----------------------------------------------------


def knuth_relations(k):
    """Knuth relations of the rank-k plactic monoid over letter values
    1..k: z x y = x z y for x <= y < z, y z x = y x z for x < y <= z."""
    rels = []
    for x in range(1, k + 1):
        for y in range(x, k + 1):
            for z in range(y + 1, k + 1):
                rels.append(((z, x, y), (x, z, y)))
    for x in range(1, k + 1):
        for y in range(x + 1, k + 1):
            for z in range(y, k + 1):
                rels.append(((y, z, x), (y, x, z)))
    return rels


def _plactic_system(pairs, names):
    alphabet = Alphabet(names)
    elems = []
    for u, v in pairs:
        ru = tuple(alphabet.rank("x%d" % a) for a in u)
        rv = tuple(alphabet.rank("x%d" % a) for a in v)
        elems.append(Polynomial({ru: 1, rv: -1}).monic())
    return RewriteSystem(tuple(elems), DegLexOrder(alphabet))


def plactic_complete(seed, workdir):
    rng = random.Random("%d:plactic" % seed)
    rels = knuth_relations(PLACTIC_RANK)
    # The seed fixes the listing order and orientation of the relations.
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in rels]
    rng.shuffle(pairs)
    desc = _plactic_system(pairs, DESC)
    asc = _plactic_system(pairs, ASC)
    lines = "".join("rel %s - %s\n" % ("*".join("x%d" % a for a in u),
                                       "*".join("x%d" % a for a in v))
                    for u, v in pairs)
    desc_file = _write(workdir, "plactic-desc.txt",
                       "kind assoc\ngens %s\n%s" % (" ".join(DESC), lines))
    _write(workdir, "plactic-asc.txt",
           "kind assoc\ngens %s\n%s" % (" ".join(ASC), lines))

    lib_ops = [
        LibOp("complete", lambda: shirshov_complete(
            desc, PLACTIC_MAX_DEG, MAX_ELEMS)),
        LibOp("complete_fwd", lambda: shirshov_complete(
            asc, PLACTIC_MAX_DEG, MAX_ELEMS)),
    ]

    def check_cli(code, lines):
        lib = shirshov_complete(desc, PLACTIC_CLI_MAX_DEG, MAX_ELEMS)
        expect = ["added: %d" % lib.added, "iterations: %d" % lib.iterations,
                  "elements: %d" % len(lib.basis)]
        elems = sorted("elem: " + oracles.assoc_text(p.terms, DESC)
                       for p in lib.basis.elements)
        got = sorted(l for l in lines if l.startswith("elem: "))
        ok = (code == (0 if lib.status == "completed" else 1)
              and _last(lines) == lib.status
              and all(l in lines for l in expect) and got == elems)
        return ok, "exit %s, last %r, %d elem lines (library %d)" % (
            code, _last(lines), len(got), len(elems))

    cli_ops = [CliOp("complete", ["complete", desc_file, "--max-deg",
                                  str(PLACTIC_CLI_MAX_DEG), "--max-elems",
                                  str(MAX_ELEMS)], check_cli)]

    def checks(res):
        zero_based = [(tuple(a - 1 for a in u), tuple(a - 1 for a in v))
                      for u, v in rels]
        ids = [oracles.class_ids(zero_based, PLACTIC_RANK, n)
               for n in range(PLACTIC_MAX_DEG + 1)]
        classes = [len(set(i.values())) for i in ids]
        ssyt = [oracles.ssyt_count(PLACTIC_RANK, n)
                for n in range(PLACTIC_MAX_DEG + 1)]
        out = [("plactic.classes_match_tableaux", classes == ssyt,
                "classes %s, tableaux %s" % (classes, ssyt))]
        for name, names in (("complete", DESC), ("complete_fwd", ASC)):
            rep = res[name]
            irr = _per_length(irr_words(rep.basis, PLACTIC_MAX_DEG),
                              PLACTIC_MAX_DEG)
            out.append(("plactic.%s.irr_counts" % name, irr == classes,
                        "irr %s, classes %s" % (irr, classes)))
            value = [int(n[1:]) - 1 for n in names]
            bad = 0
            for p in rep.basis.elements:
                items = sorted(p.terms.items(), key=lambda t: t[1])
                ok = ([c for _, c in items] == [-1, 1]
                      and len(items[0][0]) == len(items[1][0])
                      <= PLACTIC_MAX_DEG)
                if ok:
                    u, v = (tuple(value[r] for r in w) for w, _ in items)
                    ok = ids[len(u)][u] == ids[len(v)][v]
                bad += not ok
            out.append(("plactic.%s.basis_congruent" % name, not bad,
                        "%d of %d elements are not a congruent word "
                        "difference" % (bad, len(rep.basis))))
            if rep.status == "completed":
                out.append(("plactic.%s.completed_is_gsb" % name,
                            is_gsb(rep.basis).holds, rep.status))
        return out

    def work(res):
        out = {}
        for name in ("complete", "complete_fwd"):
            rep = res[name]
            out["%s.status" % name] = rep.status
            out["%s.added" % name] = rep.added
            out["%s.rounds" % name] = rep.iterations
            out["%s.elements" % name] = len(rep.basis)
            out["%s.irr" % name] = _per_length(
                irr_words(rep.basis, PLACTIC_MAX_DEG), PLACTIC_MAX_DEG)
        return out

    return Workload(lib_ops, cli_ops, checks, work)


# -- assoc-verify --------------------------------------------------------


def _random_poly(rng, k, n_terms, lengths):
    coeffs = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))
    terms = {}
    while len(terms) < n_terms:
        w = tuple(rng.randrange(k) for _ in range(rng.randint(*lengths)))
        terms[w] = rng.choice(coeffs)
    return Polynomial(terms)


def _check_chinese_nf(batch, results, system, k):
    """Each word's normal form is one staircase word joined to it by
    defining relations; each polynomial's normal form is the matching
    combination of those words."""
    table = oracles.partner_table(oracles.chinese_pairs(k))
    stair = {}
    bad_words = bad_polys = 0
    for p, q in zip(batch, results):
        expect = {}
        for w, c in p.terms.items():
            if w not in stair:
                nf = normal_form(Polynomial({w: 1}), system).terms
                s = next(iter(nf)) if len(nf) == 1 else None
                ok = (s is not None and nf[s] == 1 and is_staircase(s, k)
                      and oracles.congruent(w, s, table))
                stair[w] = s if ok else None
                bad_words += not ok
            s = stair[w]
            expect[s] = expect.get(s, 0) + c
        expect = {s: c for s, c in expect.items() if c}
        bad_polys += expect != q.terms
    return bad_words == 0 and bad_polys == 0, \
        "%d words without a congruent staircase normal form, " \
        "%d polynomials off" % (bad_words, bad_polys)


def assoc_verify(seed, workdir):
    g_gsb = chinese_gsb(GSB_RANK)
    g_cd = chinese_gsb(CD_RANK)
    g_nf = chinese_gsb(NF_RANK)
    rng = random.Random("%d:nf" % seed)
    batch = [_random_poly(rng, NF_RANK, rng.randint(3, 5), (10, 12))
             for _ in range(NF_BATCH)]

    rng = random.Random("%d:cli" % seed)
    names = tuple("x%d" % (i + 1) for i in range(CLI_RANK))
    cli_elems = list(chinese_gsb(CLI_RANK).elements)
    rng.shuffle(cli_elems)
    cli_system = RewriteSystem(tuple(cli_elems),
                               DegLexOrder(Alphabet(names)))
    elem = _random_poly(rng, CLI_RANK, 4, (8, 10))
    chinese_file = _write(workdir, "chinese.txt",
                          _assoc_file(names, cli_elems))
    bad_file = _write(workdir, "overlong.txt", BAD_FILE)

    lib_ops = [
        LibOp("is_gsb", lambda: is_gsb(g_gsb)),
        LibOp("cdcheck", lambda: cd_lemma_check(g_cd, CD_MAX_DEG)),
        LibOp("nf", lambda: [normal_form(p, g_nf) for p in batch],
              count=NF_BATCH),
    ]

    def check_catalog(code, lines):
        rep = cd_lemma_check(chinese_gsb(CD_RANK), CLI_CD_MAX_DEG)
        holds = rep.gsb_ok and rep.leading_ok and rep.counts_ok
        return _cli_matches(code, lines, holds, _table_lines(rep.table))

    def check_nf(code, lines):
        want = oracles.assoc_text(normal_form(elem, cli_system).terms, names)
        return code == 0 and _last(lines) == want, \
            "exit %s, last %r, library %r" % (code, _last(lines), want)

    def check_irr(code, lines):
        want = " ".join(map(str, _per_length(
            irr_words(cli_system, CLI_IRR_LEN), CLI_IRR_LEN)))
        return code == 0 and _last(lines) == want, \
            "exit %s, last %r, library %r" % (code, _last(lines), want)

    def check_check(code, lines):
        rep = is_gsb(cli_system)
        return _cli_matches(code, lines, rep.holds,
                            ["checked: %d" % rep.checked,
                             "failing: %d" % len(rep.failing)])

    # `cdcheck` reports true although the leading word x2^5 is longer than
    # the bound, so the compositions it must cover are never examined
    # (`check` on the same file reports 4 failing compositions).  Any
    # answer but that one is accepted.
    def overlong_fault(code, lines):
        return code == 0 and _last(lines) == "true"

    cli_ops = [
        CliOp("catalog_cdcheck", ["catalog", "chinese", "--rank",
                                  str(CD_RANK), "--cdcheck",
                                  str(CLI_CD_MAX_DEG)], check_catalog),
        CliOp("nf", ["nf", chinese_file, "--elem",
                     oracles.assoc_text(elem.terms, names)], check_nf),
        CliOp("irr", ["irr", chinese_file, "--max-len", str(CLI_IRR_LEN),
                      "--count-only"], check_irr),
        CliOp("check", ["check", chinese_file], check_check),
        CliOp("cdcheck_overlong", ["cdcheck", bad_file, "--max-deg", "3"],
              lambda code, lines: (True, "known fault not shown"),
              fault=overlong_fault),
    ]

    def checks(res):
        out = []
        rep = res["is_gsb"]
        out.append(("chinese.is_gsb", rep.holds and rep.checked > 0,
                    "holds %s, %d checked" % (rep.holds, rep.checked)))
        rep = res["cdcheck"]
        totals = [sum(CD_RANK ** j for j in range(d + 1))
                  for d in range(CD_MAX_DEG + 1)]
        table_ok = all(line.total == totals[line.degree]
                       and line.irreducible + line.rank == line.total
                       for line in rep.table)
        out.append(("chinese.cd_counts",
                    rep.gsb_ok and rep.leading_ok and rep.counts_ok
                    and table_ok and len(rep.table) == CD_MAX_DEG + 1,
                    "conditions %s %s %s, table %s" % (
                        rep.gsb_ok, rep.leading_ok, rep.counts_ok,
                        table_ok)))
        irr = _differences([line.irreducible for line in rep.table])
        classes = [oracles.class_count(oracles.chinese_pairs(CD_RANK),
                                       CD_RANK, n)
                   for n in range(CD_MAX_DEG + 1)]
        out.append(("chinese.irr_match_classes", irr == classes,
                    "irr %s, classes %s" % (irr, classes)))
        ok, detail = _check_chinese_nf(batch, res["nf"], g_nf, NF_RANK)
        out.append(("chinese.normal_forms", ok, detail))
        return out

    def work(res):
        rep = res["cdcheck"]
        return {
            "is_gsb.compositions": res["is_gsb"].checked,
            "cdcheck.rank_top": rep.table[-1].rank,
            "cdcheck.irr": _differences([line.irreducible
                                         for line in rep.table]),
            "nf.terms": sum(len(q) for q in res["nf"]),
        }

    return Workload(lib_ops, cli_ops, checks, work)


# -- structures-bounded --------------------------------------------------


def structures_bounded(seed, workdir):
    leibniz = leibniz_dim2()
    di_rels = leibniz_enveloping(leibniz)
    hall = hall_gsb(2, AC_MAX_DEG)
    hall_cli = hall_gsb(2, AC_CLI_MAX_DEG)
    rng = random.Random(seed)
    sets = [random_module_set(2, 2, 3, rng) for _ in range(MODULE_SETS)]

    names, mgens = ("x1", "x2"), ("v1", "v2")
    di_file = _write(workdir, "leibniz.txt", DI_FILE)
    ac_file = _write(workdir, "hall.txt", "kind ac\ngens x1 x2\n"
                     + _rel_lines(hall_cli, lambda t: _tree_text(t, names)))
    module_file = _write(
        workdir, "module.txt", "kind module\ngens x1 x2\nmgens v1 v2\n"
        + _rel_lines(sets[0], lambda mw: _mword_text(mw, names, mgens)))

    lib_ops = [
        LibOp("di_check", lambda: di_gsb_check_bounded(di_rels, 2,
                                                       DI_MAX_LEN)),
        LibOp("ac_check", lambda: ac_gsb_check_bounded(hall, 2,
                                                       AC_MAX_DEG)),
        LibOp("module_check", lambda: [module_cd_check(S, 2, 2,
                                                       MODULE_MAX_LEN)
                                       for S in sets], count=MODULE_SETS),
    ]

    def check_di(code, lines):
        rep = di_gsb_check_bounded(di_rels, 2, DI_CLI_MAX_LEN)
        return _cli_matches(code, lines, rep.holds, [
            "max_deg: %d" % DI_CLI_MAX_LEN,
            "leadings: %s" % ("true" if rep.leading_ok else "false"),
            "counts: %s" % ("true" if rep.counts_ok else "false")])

    def check_ac(code, lines):
        rep = ac_gsb_check_bounded(hall_cli, 2, AC_CLI_MAX_DEG)
        return _cli_matches(code, lines, rep.holds, _table_lines(rep.table))

    def check_module_irr(code, lines):
        words = module_irr(sets[0], 2, 2, MODULE_CLI_MAX_LEN)
        want = " ".join(map(str, _per_length(
            words, MODULE_CLI_MAX_LEN, length=lambda mw: len(mw.u))))
        return code == 0 and _last(lines) == want, \
            "exit %s, last %r, library %r" % (code, _last(lines), want)

    # `check --max-deg 0` runs with the default bound instead, because the
    # option is read as `args.max_deg or default`.  A report of bound 0 or
    # a rejection of the bound (exit 2) is accepted.
    def bound_zero_fault(code, lines):
        return not (code == 2 or _field(lines, "max_deg") == "0")

    cli_ops = [
        CliOp("di_check", ["check", di_file, "--max-deg",
                           str(DI_CLI_MAX_LEN)], check_di),
        CliOp("ac_cdcheck", ["cdcheck", ac_file, "--max-deg",
                             str(AC_CLI_MAX_DEG)], check_ac),
        CliOp("module_irr", ["irr", module_file, "--max-len",
                             str(MODULE_CLI_MAX_LEN)], check_module_irr),
        CliOp("ac_check_bound0", ["check", ac_file, "--max-deg", "0"],
              lambda code, lines: (True, "known fault not shown"),
              fault=bound_zero_fault),
    ]

    def checks(res):
        out = []
        rep = res["di_check"]
        bad = []
        for line in rep.table:
            n = line.length
            pbw = pbw_basis(leibniz, n)
            total = sum(j * 2 ** j for j in range(1, n + 1))
            if (set(di_irr(di_rels, 2, n)) != set(pbw)
                    or line.total != total
                    or line.total - line.rank != len(pbw)):
                bad.append(n)
        out.append(("dialgebra.pbw", rep.holds and not bad
                    and len(rep.table) == DI_MAX_LEN,
                    "holds %s, lengths off: %s" % (rep.holds, bad)))
        rep = res["ac_check"]
        irr = _differences([line.irreducible for line in rep.table])
        lie = [oracles.witt(2, d) for d in range(1, AC_MAX_DEG + 1)]
        out.append(("anticomm.witt", rep.holds and irr == lie,
                    "holds %s, irr %s, witt %s" % (rep.holds, irr, lie)))
        reps = res["module_check"]
        totals = [2 * sum(2 ** j for j in range(d + 1))
                  for d in range(MODULE_MAX_LEN + 1)]
        disagree = sum(not r.agree for r in reps)
        off = sum([line.total for line in r.table] != totals for r in reps)
        out.append(("module.conditions_agree", not disagree and not off,
                    "%d of %d sets disagree, %d tables off"
                    % (disagree, len(reps), off)))
        return out

    def work(res):
        di, ac = res["di_check"], res["ac_check"]
        return {
            "di_check.rank_top": di.table[-1].rank,
            "di_check.irr": _differences([line.irreducible
                                          for line in di.table]),
            "ac_check.rank_top": ac.table[-1].rank,
            "ac_check.irr": _differences([line.irreducible
                                          for line in ac.table]),
            "module_check.rank_top": sum(r.table[-1].rank
                                         for r in res["module_check"]),
            "module_check.closed": sum(r.gsb_ok
                                       for r in res["module_check"]),
        }

    return Workload(lib_ops, cli_ops, checks, work)


BUILDERS = {"plactic-complete": plactic_complete,
            "assoc-verify": assoc_verify,
            "structures-bounded": structures_bounded}
