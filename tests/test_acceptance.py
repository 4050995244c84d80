"""Acceptance criteria, one test per criterion.

Each test prints a single `criterion N: PASS` line with its wall time and
enforces the pinned per-criterion limit.  All comparisons are exact; no
tolerances apply anywhere.
"""

import random
import time

from conftest import witt
from shirshov.anticomm import (AntiCommutative, ac_gsb_check_bounded,
                               ac_size, hall_gsb, ls_bracketing, ls_words)
from shirshov.catalog import (chinese_gsb, chinese_relations,
                              congruence_classes, is_staircase,
                              tensor_relations)
from shirshov.core import Alphabet, DegLexOrder, Polynomial
from shirshov.dialgebra import (all_diwords, di_gsb_check_bounded, di_irr,
                                di_left, di_right, leibniz_dim2,
                                leibniz_enveloping, pbw_basis)
from shirshov.freemodule import module_cd_check, random_module_set
from shirshov.gsb import (all_compositions, cd_lemma_check, is_gsb,
                          shirshov_complete)
from shirshov.rewrite import RewriteSystem, irr_words

from references import ac_flatten, membership_oracle


class Clock:
    def __init__(self, criterion, limit):
        self.criterion = criterion
        self.limit = limit
        self.start = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, (
            "criterion %d took %.2fs, over the %ds limit"
            % (self.criterion, elapsed, self.limit))
        print("criterion %d: PASS (%.2fs, limit %ds)"
              % (self.criterion, elapsed, self.limit))


def test_criterion_01_chinese_bases_are_closed():
    clock = Clock(1, 10)
    for k in (2, 3):
        rep = is_gsb(chinese_gsb(k))
        assert rep.holds, "rank %d basis has a nontrivial composition" % k
    clock.done()


def test_criterion_02_three_counts_agree_for_rank_two():
    clock = Clock(2, 30)
    S = chinese_gsb(2)
    words = irr_words(S, 5)
    per_irr = [sum(1 for w in words if len(w) == n) for n in range(6)]
    assert per_irr == [1, 2, 4, 6, 9, 12]

    per_stair = []
    for n in range(6):
        total = 0
        for m in range(2 ** n):
            u = tuple((m >> i) & 1 for i in range(n))
            if is_staircase(u, 2):
                total += 1
        per_stair.append(total)
    assert per_stair == per_irr

    P = chinese_relations(2)
    per_classes = [congruence_classes(P, n) for n in range(6)]
    assert per_classes == per_irr
    clock.done()


def test_criterion_03_tensor_basis_has_no_compositions():
    clock = Clock(3, 5)
    T = tensor_relations(2, 2)
    assert all_compositions(T) == []
    assert is_gsb(T).holds
    words = irr_words(T, 4)
    for n in range(5):
        got = sum(1 for w in words if len(w) == n)
        expected = sum(2 ** a * 2 ** (n - a) for a in range(n + 1))
        assert got == expected
    clock.done()


def test_criterion_04_dialgebra_laws_hold_exhaustively():
    clock = Clock(4, 10)
    pool = []
    for length in range(1, 5):
        pool.extend((w, length) for w in all_diwords(2, length))
    checked = 0
    for u, lu in pool:
        for v, lv in pool:
            if lu + lv > 5:
                continue
            for w, lw in pool:
                if lu + lv + lw > 6:
                    continue
                checked += 1
                assert di_right(di_right(u, v), w) \
                    == di_right(u, di_right(v, w))
                assert di_right(di_right(u, v), w) \
                    == di_right(u, di_left(v, w))
                assert di_right(di_left(u, v), w) \
                    == di_left(u, di_right(v, w))
                assert di_left(di_right(u, v), w) \
                    == di_left(di_left(u, v), w)
                assert di_left(u, di_left(v, w)) \
                    == di_left(di_left(u, v), w)
    assert checked == 4360
    clock.done()


def test_criterion_05_leibniz_enveloping_matches_pbw():
    clock = Clock(5, 30)
    L = leibniz_dim2()
    S = leibniz_enveloping(L)
    rep = di_gsb_check_bounded(S, 2, 3)
    assert rep.holds
    for line in rep.table:
        assert line.total - line.rank == 2 * line.length
    for d in (1, 2, 3):
        pbw = pbw_basis(L, d)
        assert len(pbw) == 2 * d
        assert di_irr(S, 2, d) == pbw
    clock.done()


def test_criterion_06_module_conditions_agree_on_random_sets():
    clock = Clock(6, 60)
    rng = random.Random(2026)
    for trial in range(50):
        S = random_module_set(2, 2, 3, rng)
        rep = module_cd_check(S, 2, 2, 5)
        assert rep.gsb_ok == rep.leading_ok == rep.counts_ok, (
            "trial %d: conditions disagree" % trial)
    clock.done()


def test_criterion_07_hall_relations_form_a_bounded_basis():
    clock = Clock(7, 30)
    S = hall_gsb(2, 5)
    rep = ac_gsb_check_bounded(S, 2, 5)
    assert rep.holds
    per = {}
    for w in AntiCommutative(S, 2).irreducible(5):
        per[ac_size(w)] = per.get(ac_size(w), 0) + 1
    assert [per.get(n, 0) for n in range(1, 6)] == [2, 1, 2, 3, 6]
    assert [per.get(n, 0) for n in range(1, 6)] == [
        witt(2, n) for n in range(1, 6)]
    clock.done()


def test_criterion_08_ls_words_count_and_bracket_back():
    clock = Clock(8, 5)
    for n in range(1, 8):
        words = ls_words(2, n)
        assert len(words) == witt(2, n)
        for u in words:
            assert ac_flatten(ls_bracketing(u)) == u
    clock.done()


def test_criterion_09_completion_closes_the_branching_example():
    clock = Clock(9, 60)
    ab = Alphabet(("y", "x"))
    x, y = ab.rank("x"), ab.rank("y")
    seed = Polynomial([((x, x), 1), ((y, x), -1)])
    original = RewriteSystem((seed,), DegLexOrder(ab))
    rep = shirshov_complete(original, max_deg=6, max_elems=50)
    assert rep.status == "degree-capped"
    basis = rep.basis

    comps = [c for c in all_compositions(basis) if len(c.w) <= 6]
    assert comps and all(not basis.normal_form(c.result) for c in comps)

    for elem in basis.elements:
        assert membership_oracle(elem, original, 6)

    span = original.span(6)
    rank_per_len = {}
    for p in span.pivots():
        rank_per_len[len(p)] = rank_per_len.get(len(p), 0) + 1
    words = irr_words(basis, 6)
    for n in range(7):
        quotient_dim = 2 ** n - rank_per_len.get(n, 0)
        assert sum(1 for w in words if len(w) == n) == quotient_dim
    clock.done()


def test_criterion_10_diagnostics_agree_across_a_suite():
    clock = Clock(10, 120)
    suite = [(chinese_gsb(2), 5), (chinese_gsb(3), 5),
             (tensor_relations(2, 2), 4)]

    ab = Alphabet(("a", "b"))
    order = DegLexOrder(ab)

    def random_system(rng):
        elems = []
        leads = set()
        for _ in range(rng.randint(1, 3)):
            words = set()
            while len(words) < rng.randint(2, 3):
                d = rng.randint(1, 3)
                words.add(tuple(rng.randrange(2) for _ in range(d)))
            poly = Polynomial([(w, rng.choice((1, -1, 2)))
                               for w in sorted(words)])
            if not poly:
                continue
            lead = poly.leading_monomial()
            if lead in leads or len(lead) == 0:
                continue
            leads.add(lead)
            elems.append(poly.monic())
        if not elems:
            return None
        return RewriteSystem(tuple(elems), order)

    rng = random.Random(7)
    closed = 0
    broken = 0
    attempts = 0
    while (closed < 20 or broken < 20) and attempts < 4000:
        attempts += 1
        S = random_system(rng)
        if S is None:
            continue
        if closed < 20:
            done = None
            try:
                done = shirshov_complete(S, max_deg=5, max_elems=25)
            except Exception:
                done = None
            if done is not None and done.status == "completed":
                suite.append((done.basis, 5))
                closed += 1
                continue
        if broken < 20 and not is_gsb(S).holds:
            suite.append((S, 5))
            broken += 1
    assert closed == 20 and broken == 20

    for system, bound in suite:
        rep = cd_lemma_check(system, bound)
        assert rep.gsb_ok == (rep.leading_ok and rep.counts_ok)
    clock.done()
