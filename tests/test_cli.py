import io
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from conftest import src_env
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shirshov import cli
from shirshov.anticomm import AcPolynomial, normal_words
from shirshov.cli import (KINDS, ParseError, PresentationFile, fmt_element,
                          fmt_presentation, main, parse_element,
                          parse_presentation)
from shirshov.core import Alphabet, Polynomial
from shirshov.dialgebra import DiPolynomial, Diword
from shirshov.freemodule import ModuleElement, ModuleWord

from references import parse_element as reference_parse_element
from references import parse_presentation as reference_parse_presentation

CHINESE2 = """\
# defining relations of the rank-2 presentation
kind assoc
gens x1 x2
rel x2*x1*x1 - x1*x2*x1
rel x2*x2*x1 - x2*x1*x2
"""

OPEN = """\
kind assoc
gens y x
rel x*x - y*x
"""

LEIBNIZ = """\
kind dialgebra
gens a b
bracket a a = b
"""

MODULE = """\
kind module
gens x1 x2
mgens v w
rel x1*x1*[v] - x2*[v]
rel x1*[w]
"""

AC = """\
kind ac
gens x1 x2
rel ((x2 x1) x1)
"""


def write(tmp_path, text, name="p.pres"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_presentation_basics():
    P = parse_presentation(CHINESE2)
    assert P.kind == "assoc"
    assert P.alphabet.names == ("x1", "x2")
    assert len(P.relations) == 2
    assert P.relations[0] == Polynomial([((1, 0, 0), 1), ((0, 1, 0), -1)])


def test_parse_normalizes_to_monic():
    P = parse_presentation("kind assoc\ngens x y\nrel 2*x*x - 4*y\n")
    f = P.relations[0]
    assert f.leading_coeff() == 1
    assert f.coeff((1,)) == -2


def test_presentation_round_trip():
    for text in (CHINESE2, OPEN, MODULE, AC):
        P = parse_presentation(text)
        Q = parse_presentation(fmt_presentation(P))
        assert Q.kind == P.kind
        assert Q.alphabet == P.alphabet
        assert Q.mgens == P.mgens
        assert Q.relations == P.relations


def test_parse_element_kinds():
    ab = Alphabet(("x", "y"))
    p = parse_element("1/2*x*y - 3", "assoc", ab)
    assert p.coeff((0, 1)) == Fraction(1, 2)
    assert p.coeff(()) == -3
    assert fmt_element(p, parse_presentation(
        "kind assoc\ngens x y\nrel x\n")) == "1/2*x*y - 3"


def test_parse_element_errors():
    ab = Alphabet(("x", "y"))
    with pytest.raises(ParseError):
        parse_element("x*", "assoc", ab)
    with pytest.raises(ParseError):
        parse_element("x z", "assoc", ab)
    with pytest.raises(ParseError):
        parse_element("", "assoc", ab)
    with pytest.raises(ParseError):
        parse_element("x*y", "dialgebra", ab)  # no center
    with pytest.raises(ParseError):
        parse_element("@x*@y", "dialgebra", ab)  # two centers
    with pytest.raises(ParseError):
        parse_element("x*[v]", "module", ab, ())  # unknown module generator
    with pytest.raises(ParseError):
        parse_element("[v]*x", "module", ab, ("v",))  # generator not last
    with pytest.raises(ParseError):
        parse_element("(x y", "ac", ab)
    with pytest.raises(ParseError):
        parse_element("3", "ac", ab)


def test_parse_errors_report_position():
    try:
        parse_presentation("kind assoc\ngens x y\nrel x**y\n")
    except ParseError as exc:
        assert exc.line == 3
        assert exc.col == 7
    else:
        raise AssertionError("expected a ParseError")


def test_file_level_errors(tmp_path, capsys):
    for text in (
            "gens x\nrel x\n",                      # missing kind
            "kind assoc\nkind assoc\ngens x\n",     # duplicate kind
            "kind assoc\nrel x\n",                  # rel before gens
            "kind assoc\ngens x\nrel x - x\n",      # zero relation
            "kind assoc\ngens x\nmgens v\n",        # mgens outside module
            "kind module\ngens x\nrel x*[v]\n",     # rel before mgens
            "kind assoc\ngens x\nbracket x x = x\n",
            "kind nosuch\ngens x\n",
            "kind assoc\ngens x\nfoo bar\n",
            "kind dialgebra\ngens a\nrel @a\nbracket a a = a\n",
    ):
        with pytest.raises(ParseError):
            parse_presentation(text)
    # a repeated name or line is refused where it is, and exits 2
    brackets = "kind dialgebra\ngens e0 e1 e2 e3\nbracket e1 e2 = e0\n"
    for text, line, col, msg in (
            (brackets + "bracket e2 e1 = -e3\nbracket e1 e2 = e3\n", 5, 9,
             "duplicate bracket line for e1 e2"),
            (brackets + "bracket e1 e2 = 2*e0\n", 4, 9,
             "duplicate bracket line for e1 e2"),
            ("kind assoc\ngens x y x\n", 2, 10, "duplicate generator name"),
            ("kind module\ngens x\nmgens v v\n", 3, 9,
             "duplicate module generator name"),
            ("kind module\ngens x\nmgens v\nmgens w\n", 4, 1,
             "duplicate mgens line"),
    ):
        with pytest.raises(ParseError) as err:
            parse_presentation(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert msg in str(err.value)
        assert main(["check", write(tmp_path, text)]) == 2
        assert msg in capsys.readouterr().err


def test_check_exit_codes(tmp_path, capsys):
    assert main(["check", write(tmp_path, CHINESE2)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("format: 1\n")
    assert out.strip().endswith("true")
    assert main(["check", write(tmp_path, OPEN)]) == 1
    assert capsys.readouterr().out.strip().endswith("false")


def test_check_bounded_kinds(tmp_path, capsys):
    assert main(["check", write(tmp_path, LEIBNIZ), "--max-deg", "3"]) == 0
    assert "kind: dialgebra" in capsys.readouterr().out
    assert main(["check", write(tmp_path, MODULE)]) == 0
    assert main(["check", write(tmp_path, AC), "--max-deg", "4"]) == 0
    capsys.readouterr()


def test_check_max_deg_zero_is_a_bound_not_unset(tmp_path, capsys):
    path = write(tmp_path, AC)
    assert main(["check", path, "--max-deg", "0"]) == 2
    captured = capsys.readouterr()
    assert "max_deg: 4" not in captured.out
    assert "below" in captured.err
    assert main(["check", path, "--max-deg", "3"]) == 0
    assert "max_deg: 3\n" in capsys.readouterr().out


def test_bounded_checks_refuse_a_bound_below_a_leading_word(tmp_path,
                                                            capsys):
    path = write(tmp_path, "kind assoc\ngens x1 x2\n"
                           "rel x2*x2*x2*x2*x2 - x1\n")
    assert main(["cdcheck", path, "--max-deg", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "below" in captured.err
    assert main(["cdcheck", write(tmp_path, AC), "--max-deg", "2"]) == 2
    assert "below" in capsys.readouterr().err


def test_parse_failure_exit_code(tmp_path, capsys):
    path = write(tmp_path, "kind assoc\ngens x\nrel x + $\n")
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err


def test_missing_file_is_not_a_crash(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.pres")]) == 2
    assert "error" in capsys.readouterr().err


def test_complete_command(tmp_path, capsys):
    out_path = str(tmp_path / "done.pres")
    code = main(["complete", write(tmp_path, OPEN), "--max-deg", "6",
                 "--max-elems", "50", "--out", out_path])
    assert code == 1
    report = capsys.readouterr().out
    assert report.strip().endswith("degree-capped")
    with open(out_path) as fh:
        Q = parse_presentation(fh.read())
    assert len(Q.relations) == 5

    chinese3 = """kind assoc
gens x1 x2 x3
rel x3*x2*x1 - x2*x3*x1
rel x3*x2*x1 - x3*x1*x2
rel x2*x1*x1 - x1*x2*x1
rel x2*x2*x1 - x2*x1*x2
rel x3*x1*x1 - x1*x3*x1
rel x3*x3*x1 - x3*x1*x3
rel x3*x2*x2 - x2*x3*x2
rel x3*x3*x2 - x3*x2*x3
"""
    code = main(["complete", write(tmp_path, chinese3, "c3.pres"),
                 "--max-deg", "6", "--max-elems", "40"])
    assert code == 0
    report = capsys.readouterr().out
    assert "elements: 9" in report
    assert report.strip().endswith("completed")


def test_complete_reaches_the_trivial_quotient(tmp_path, capsys):
    # x*y = 1 and y*x = 2 give 2*x = x*y*x = x, so the ideal holds 1
    text = "kind assoc\ngens x y\nrel x*y - 1\nrel y*x - 2\n"
    out_path = str(tmp_path / "trivial.pres")
    code = main(["complete", write(tmp_path, text), "--max-deg", "4",
                 "--max-elems", "5", "--out", out_path])
    assert code == 0
    report = capsys.readouterr().out
    assert "elem: 1\n" in report
    assert report.strip().endswith("completed")
    with open(out_path) as fh:
        assert parse_presentation(fh.read()).relations == [Polynomial.one()]
    assert main(["check", out_path]) == 0
    assert capsys.readouterr().out.strip().endswith("true")
    assert main(["irr", out_path, "--max-len", "3", "--count-only"]) == 0
    assert capsys.readouterr().out.strip().endswith("0 0 0 0")
    assert main(["irr", out_path, "--max-len", "1"]) == 0
    assert "\nlen 0:\nlen 1:\n" in capsys.readouterr().out
    assert main(["cdcheck", out_path, "--max-deg", "3"]) == 0
    assert capsys.readouterr().out.strip().endswith("true")


def test_complete_rejects_other_kinds(tmp_path, capsys):
    code = main(["complete", write(tmp_path, AC), "--max-deg", "4",
                 "--max-elems", "5"])
    assert code == 2
    capsys.readouterr()


def test_complete_budget_exit_code(tmp_path, capsys):
    code = main(["complete", write(tmp_path, OPEN), "--max-deg", "30",
                 "--max-elems", "100000", "--budget-seconds", "1e-9"])
    assert code == 3
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["-1", "nan"])
def test_complete_refuses_a_negative_or_nan_budget(tmp_path, capsys, budget):
    code = main(["complete", write(tmp_path, OPEN), "--max-deg", "3",
                 "--max-elems", "5", "--budget-seconds", budget])
    assert code == 2
    assert "budget_seconds must be >= 0" in capsys.readouterr().err


def test_complete_takes_a_zero_budget(tmp_path, capsys):
    code = main(["complete", write(tmp_path, CHINESE2), "--max-deg", "3",
                 "--max-elems", "5", "--budget-seconds", "0"])
    assert code in (0, 3)
    capsys.readouterr()


def test_nf_command(tmp_path, capsys):
    code = main(["nf", write(tmp_path, CHINESE2), "--elem",
                 "x2*x1*x1 + 2*x2*x2*x1"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "2*x2*x1*x2 + x1*x2*x1"
    code = main(["nf", write(tmp_path, MODULE), "--elem", "x1*x1*[v]"])
    assert code == 0
    assert capsys.readouterr().out.strip().endswith("x2*[v]")
    code = main(["nf", write(tmp_path, AC), "--elem", "((x2 x1) x1)"])
    assert code == 0
    assert capsys.readouterr().out.strip().endswith("\n0")


def test_nf_takes_an_element_with_a_leading_minus(tmp_path, capsys):
    path = write(tmp_path, CHINESE2)
    assert main(["nf", path, "--elem", "-x1"]) == 0
    assert capsys.readouterr().out.strip().endswith("\n-x1")
    assert main(["nf", path, "--elem", "-x2*x1*x1"]) == 0
    assert capsys.readouterr().out.strip().endswith("\n-x1*x2*x1")


def test_irr_command(tmp_path, capsys):
    code = main(["irr", write(tmp_path, CHINESE2), "--max-len", "5",
                 "--count-only"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "1 2 4 6 9 12"
    code = main(["irr", write(tmp_path, CHINESE2), "--max-len", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "len 0: 1\n" in out
    assert "len 1: x1 x2\n" in out


def test_cdcheck_command(tmp_path, capsys):
    assert main(["cdcheck", write(tmp_path, CHINESE2), "--max-deg",
                 "4"]) == 0
    out = capsys.readouterr().out
    assert "compositions: true" in out
    assert "deg 4: irr=22 rank=9 total=31 ok" in out
    assert main(["cdcheck", write(tmp_path, OPEN), "--max-deg", "3"]) == 1
    capsys.readouterr()
    assert main(["cdcheck", write(tmp_path, LEIBNIZ), "--max-deg",
                 "3"]) == 0
    capsys.readouterr()


def test_catalog_command(capsys):
    assert main(["catalog", "chinese", "--rank", "3"]) == 0
    out = capsys.readouterr().out
    assert "preset: chinese rank=3" in out
    assert out.strip().endswith("true")
    assert main(["catalog", "chinese", "--rank", "2", "--irr", "5",
                 "--count-only"]) == 0
    assert capsys.readouterr().out.strip().endswith("1 2 4 6 9 12")
    assert main(["catalog", "tensor", "--nx", "2", "--ny", "2",
                 "--cdcheck", "3"]) == 0
    assert "counts: true" in capsys.readouterr().out


@pytest.mark.parametrize("argv,message", [
    (["tensor", "--rank", "5", "--count-only"],
     "--rank applies to the chinese preset only"),
    (["tensor", "--rank", "2"], "--rank applies to the chinese preset only"),
    (["chinese", "--nx", "3", "--irr", "2", "--cdcheck", "3"],
     "--nx and --ny apply to the tensor preset only"),
    (["chinese", "--ny", "1"],
     "--nx and --ny apply to the tensor preset only"),
    (["chinese", "--irr", "2", "--cdcheck", "3"],
     "--irr and --cdcheck exclude each other"),
    (["tensor", "--count-only"], "--count-only needs --irr"),
    (["chinese", "--cdcheck", "3", "--count-only"],
     "--count-only needs --irr"),
])
def test_catalog_refuses_options_it_would_ignore(capsys, argv, message):
    assert main(["catalog"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


# Every refusal of the parser and of the commands' own bounds that no
# other test reaches, with the exact message the CLI prints for it.
REFUSALS = [
    ("gens x\n", "line 1, col 1: missing kind line"),
    ("kind assoc\n", "line 1, col 1: missing gens line"),
    ("kind module\ngens x\n",
     "line 1, col 1: kind module needs an mgens line"),
    ("kind assoc\ngens x\ngens y\n", "line 3, col 1: duplicate gens line"),
    ("kind module\ngens x\nmgens\n",
     "line 3, col 6: mgens needs at least one name"),
    ("kind\n", "line 1, col 5: expected one of ('assoc', 'dialgebra', "
                "'module', 'ac') at end of line"),
    ("1 x\n", "line 1, col 1: expected a directive, found '1'"),
    ("kind dialgebra\nbracket a a = a\n",
     "line 2, col 1: gens must come first"),
    ("kind dialgebra\ngens a\nbracket a a = a*a\n",
     "line 3, col 1: bracket values are linear in the generators"),
    ("kind dialgebra\ngens a\nbracket a a = 0\nrel @a\n",
     "line 4, col 1: bracket and rel lines cannot be mixed"),
    ("kind dialgebra\ngens a b\nbracket a b = a\nbracket b a = b\n",
     "line 1, col 1: structure constants violate the Leibniz identity"),
    ("kind assoc\ngens x\nrel x + \n", "line 3, col 8: expected a term"),
    ("kind dialgebra\ngens a\nrel 2\n",
     "line 3, col 6: a dialgebra term needs letters"),
    ("kind ac\ngens x\nrel (x *)\n", "line 3, col 8: expected a letter or ("),
    ("kind ac\ngens x\nrel (x\n",
     "line 3, col 7: expected a letter or a parenthesized pair"),
    ("kind ac\ngens x\nrel (x z)\n", "line 3, col 8: unknown generator 'z'"),
    (["catalog", "chinese", "--rank", "0"], "k must be >= 1"),
    (["catalog", "tensor", "--ny", "0"],
     "both alphabets need at least one generator"),
    (["complete", CHINESE2, "--max-deg", "4", "--max-elems", "-1"],
     "max_elems must be >= 0"),
]


@pytest.mark.parametrize("case,message", REFUSALS)
def test_every_refusal_exits_2_with_its_message(tmp_path, capsys, case,
                                                  message):
    # a case is a file for check, or an argv whose presentation text, if
    # any, is written to a file first
    if isinstance(case, str):
        argv = ["check", write(tmp_path, case)]
    else:
        argv = [write(tmp_path, a) if "\n" in a else a for a in case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_dialgebra_file_round_trip(tmp_path, capsys):
    # a bracket file expands to enveloping relations; nf uses them
    code = main(["nf", write(tmp_path, LEIBNIZ), "--elem", "a*@a"])
    assert code == 0
    assert capsys.readouterr().out.strip().endswith("@a*a - @b")


def test_deeply_nested_relation_is_an_input_error(tmp_path, capsys):
    tree = "x1"
    for _ in range(3000):
        tree = "(%s x2)" % tree
    path = write(tmp_path, "kind ac\ngens x1 x2\nrel %s\n" % tree)
    assert main(["check", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expression nested too deeply\n"


NO_RELATIONS = {
    "assoc": "kind assoc\ngens x1 x2\n",
    "dialgebra": "kind dialgebra\ngens x1 x2\n",
    "module": "kind module\ngens x1 x2\nmgens v\n",
    "ac": "kind ac\ngens x1 x2\n",
}


@pytest.mark.parametrize("kind", ["dialgebra", "ac"])
def test_check_without_relations_defaults_to_bound_one(tmp_path, capsys,
                                                       kind):
    assert main(["check", write(tmp_path, NO_RELATIONS[kind])]) == 0
    out = capsys.readouterr().out
    assert "max_deg: 1\n" in out
    assert out.endswith("\ntrue\n")


@pytest.mark.parametrize("kind", sorted(NO_RELATIONS))
def test_negative_bounds_are_refused_for_every_kind(tmp_path, capsys, kind):
    path = write(tmp_path, NO_RELATIONS[kind])
    for command in ("cdcheck", "check"):
        assert main([command, path, "--max-deg", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_deg must be >= 0\n"
    assert main(["irr", path, "--max-len", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_len must be >= 0\n"


ONE_RELATION = {
    "assoc": ("rel x2*x1 - x1*x2\n", "1 2 3 4 5 6"),
    "dialgebra": ("rel x2*@x1 - @x2*x1\n", "2 7 20 52 128"),
    "module": ("rel x2*x1*[v] - x1*[v]\n", "1 2 3 6 12 24"),
    "ac": ("rel ((x2 x1) x1)\n", "2 1 1 2 5"),
}


@pytest.mark.parametrize("kind", sorted(NO_RELATIONS))
def test_irr_count_only_formats_no_word(tmp_path, capsys, monkeypatch,
                                        kind):
    def fmt(m, pfile):
        raise AssertionError("formatted %r" % (m,))

    relation, counts = ONE_RELATION[kind]
    path = write(tmp_path, NO_RELATIONS[kind] + relation)
    monkeypatch.setitem(cli._SPECS, kind, cli._SPECS[kind]._replace(fmt=fmt))
    assert main(["irr", path, "--max-len", "5", "--count-only"]) == 0
    assert capsys.readouterr().out.endswith("\nmax_len: 5\n%s\n" % counts)


@pytest.mark.parametrize("kind", sorted(NO_RELATIONS))
def test_irr_refuses_a_length_below_the_shortest_word(tmp_path, capsys,
                                                      kind):
    # dialgebra and ac words have at least one letter, so their tables
    # start at length 1; max_len 0 would print an empty result line
    code = main(["irr", write(tmp_path, NO_RELATIONS[kind]), "--max-len",
                 "0"])
    captured = capsys.readouterr()
    if kind in ("dialgebra", "ac"):
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: max_len must be >= 1\n"
    else:
        assert code == 0
        assert captured.out.endswith("\nmax_len: 0\nlen 0: %s\n1\n"
                                     % ("1" if kind == "assoc" else "[v]"))


def test_a_zero_normal_form_reads_back(tmp_path, capsys):
    path = write(tmp_path, AC)
    assert main(["nf", path, "--elem", "((x2 x1) x1)"]) == 0
    assert capsys.readouterr().out.endswith("\n0\n")
    assert main(["nf", path, "--elem", "0"]) == 0
    assert capsys.readouterr().out.endswith("\n0\n")
    ab = Alphabet(("x", "y"))
    for kind in KINDS:
        assert not parse_element("0", kind, ab, ("v",))
        assert not parse_element("0*3 - 0", kind, ab, ("v",))
    with pytest.raises(ParseError):
        parse_element("0 + 2", "module", ab, ("v",))


@pytest.mark.parametrize("kind", sorted(NO_RELATIONS))
def test_a_zero_denominator_is_an_input_error(tmp_path, capsys, kind):
    text = NO_RELATIONS[kind]
    path = write(tmp_path, text + "rel 3/0*x1 - x2\n")
    assert main(["check", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: line %d, col 5: zero denominator\n"
                            % (text.count("\n") + 1))
    path = write(tmp_path, text)
    assert main(["nf", path, "--elem", "1/0*x1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1, col 1: zero denominator\n"


# Token soup: terms of the file's kind, now and then a term of another
# kind, a product of two terms, a stray token or a stray line, so that
# many files parse and reach the engines.
ATOMS = {
    "assoc": ["x1", "x2", "x1*x2", "x2*x2*x1", "1", "1/2"],
    "dialgebra": ["@x1", "x2*@x1", "@x2*x1*x1", "x1*@x1*x2"],
    "module": ["[v]", "x1*[w]", "x2*x1*[v]", "x1*x1*[w]"],
    "ac": ["x1", "(x2 x1)", "((x2 x1) x1)", "x2*(x2 x1)"],
}
ANY_ATOM = st.sampled_from(sorted({a for pool in ATOMS.values()
                                   for a in pool}))
COEFFS = st.sampled_from([""] * 6 + ["2*", "1/2*", "0*", "3/0*"])
STRAYS = st.sampled_from(["[", "]", "@", "(", ")", "*", "=", "#", "$", "y",
                          "rel", "3/0", "0/4"])
STRAY_LINES = st.sampled_from(["mgens v", "gens x1", "kind ac", "rel",
                               "bracket x1 x1 = x2", "foo"])


def rarely(draw):
    return draw(st.sampled_from(range(8))) == 7


@st.composite
def soup(draw, kind):
    words = []
    for _ in range(draw(st.integers(1, 3))):
        atoms = ANY_ATOM if rarely(draw) else st.sampled_from(ATOMS[kind])
        term = draw(COEFFS) + draw(atoms)
        if rarely(draw):  # a product of two atoms, or one with ** in it
            term += draw(st.sampled_from(["*", "**"])) + draw(atoms)
        words += [draw(st.sampled_from("+-")), term]
    words = words[draw(st.integers(0, 1)):]
    if rarely(draw):
        words.insert(draw(st.integers(0, len(words))), draw(STRAYS))
    return " ".join(words)


@st.composite
def soup_files(draw):
    """(presentation text, --elem text, bound) for one kind, or for an
    unknown one."""
    kind = draw(st.sampled_from(KINDS * 2 + ("nosuch",)))
    pool = kind if kind in ATOMS else "assoc"
    lines = ["kind %s" % kind, "gens x1 x2"]
    if kind == "module":
        lines.append("mgens v w")
    if rarely(draw):
        lines = lines[1:]
    bracket = kind == "dialgebra" and draw(st.booleans())
    for _ in range(draw(st.integers(0, 3))):
        if rarely(draw):
            lines.append(draw(STRAY_LINES))
        elif bracket:
            lines.append("bracket %s = %s" % (
                draw(st.sampled_from(["x1 x1", "x1 x2", "x2 x1", "x2 x2"])),
                draw(soup("assoc"))))
        else:
            lines.append("rel " + draw(soup(pool)))
    return ("\n".join(lines) + "\n", draw(soup(pool)),
            str(draw(st.integers(-1, 3))))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(soup_files())
def test_every_command_on_token_soup_exits_with_a_contract_code(case):
    text, elem, bound = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "soup.pres")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in (["check", path], ["check", path, "--max-deg", bound],
                     ["nf", path, "--elem=" + elem],
                     ["irr", path, "--max-len", bound],
                     ["cdcheck", path, "--max-deg", bound],
                     ["complete", path, "--max-deg", bound,
                      "--max-elems", "3", "--budget-seconds", "5"]):
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2, 3)
            # a refused or stopped command prints no partial report
            assert code in (0, 1) or out.getvalue() == ""


ALPHABET = Alphabet(("x1", "x2"))
MGENS = ("v", "w")
LETTERS = st.lists(st.integers(0, 1), max_size=4).map(tuple)
MONOMIALS = {
    "assoc": LETTERS,
    "dialgebra": LETTERS.filter(bool).flatmap(lambda u: st.builds(
        Diword, st.just(u), st.integers(0, len(u) - 1))),
    "module": st.builds(ModuleWord, LETTERS, st.integers(0, 1)),
    "ac": st.sampled_from(normal_words(2, 5)),
}
CONTAINERS = {"assoc": Polynomial, "dialgebra": DiPolynomial,
              "module": ModuleElement, "ac": AcPolynomial}


@st.composite
def elements(draw):
    kind = draw(st.sampled_from(KINDS))
    coeffs = st.fractions(-5, 5, max_denominator=4).filter(bool)
    terms = draw(st.dictionaries(MONOMIALS[kind], coeffs, max_size=4))
    return kind, CONTAINERS[kind](terms)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(elements())
@example(("assoc", Polynomial()))
@example(("dialgebra", DiPolynomial()))
@example(("module", ModuleElement()))
@example(("ac", AcPolynomial()))
def test_printed_elements_parse_back(case):
    kind, e = case
    pfile = PresentationFile(kind, ALPHABET, MGENS, [])
    assert parse_element(fmt_element(e, pfile), kind, ALPHABET, MGENS) == e


def outcome(parse, *args):
    """What a parse gives: its result, or the place and text of its
    error."""
    try:
        return parse(*args)
    except ParseError as exc:
        return exc.line, exc.col, str(exc)


# "x1**x2" must be refused after the first *, and so must a letter after
# the module generator.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(soup_files())
@example(("kind assoc\ngens x1 x2\nrel x1**x2\n", "x1**x2", "1"))
@example(("kind module\ngens x1 x2\nmgens v w\nrel [v]*x1\n", "[v]*x1",
          "1"))
def test_the_parser_agrees_with_the_reference_on_token_soup(case):
    text, elem, _ = case
    assert outcome(parse_presentation, text) \
        == outcome(reference_parse_presentation, text)
    for kind in KINDS:
        assert outcome(parse_element, elem, kind, ALPHABET, MGENS) \
            == outcome(reference_parse_element, elem, kind, ALPHABET, MGENS)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(elements())
def test_the_parser_agrees_with_the_reference_on_printed_elements(case):
    kind, e = case
    text = fmt_element(e, PresentationFile(kind, ALPHABET, MGENS, []))
    assert outcome(parse_element, text, kind, ALPHABET, MGENS) \
        == outcome(reference_parse_element, text, kind, ALPHABET, MGENS)


# Each command loads core and cli, then only the engine its kind runs: the
# package resolves its public names on first use.  No command loads
# dataclasses, which would bring inspect with it: the records are named
# tuples.
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
KIND_FILES = {
    "assoc": ("chinese2.pres", "x2*x2*x1*x1 + 3*x2*x1*x1 - x1",
              {"rewrite"}),
    "dialgebra": ("di_fractional.pres", "e1*e1*@e0", {"dialgebra"}),
    "module": ("module_closed.pres", "x2*x2*x2*[v1] - 3*x2*[v1]",
               {"freemodule", "rewrite"}),
    "ac": ("hall6.pres", "(((x2 x1) x2) x1)", {"anticomm"}),
}
LOADS = [(["-c", "import shirshov"], set()),
         (["-m", "shirshov", "--help"], {"core", "cli"}),
         (["-m", "shirshov", "catalog", "chinese", "--rank", "3"],
          {"core", "cli", "rewrite", "catalog"}),
         (["-m", "shirshov", "complete", "complete_small.pres",
           "--max-deg", "6", "--max-elems", "10"],
          {"core", "cli", "rewrite", "gsb"})]
LOADS += [(["-m", "shirshov", *argv], {"core", "cli"} | engine)
          for path, elem, engine in KIND_FILES.values()
          for argv in (["check", path, "--max-deg", "6"],
                       ["nf", path, "--elem", elem],
                       ["irr", path, "--max-len", "3"],
                       ["cdcheck", path, "--max-deg", "6"])]


def loaded_modules(args):
    """The modules a fresh `python -v ARGS` process loads, read from the
    import lines that -v writes to stderr."""
    proc = subprocess.run([sys.executable, "-v", *args], cwd=GOLDEN,
                          env=src_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode in (0, 1), proc.stderr[-2000:]
    return set(re.findall(r"^import '([\w.]+)'", proc.stderr, re.MULTILINE))


@pytest.mark.parametrize("args, expected", LOADS,
                         ids=[" ".join(a) for a, _ in LOADS])
def test_a_command_loads_only_the_engine_it_runs(args, expected):
    loaded = loaded_modules(args)
    assert {m[len("shirshov."):] for m in loaded
            if m.startswith("shirshov.")} == expected
    assert "dataclasses" not in loaded
