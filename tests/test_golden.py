"""Byte-for-byte CLI output of the bounded commands on a fixed golden set.

`tests/golden/cases.json` maps each case to its argv and exit code; the
expected stdout is `tests/golden/<case>.out`.  Arguments naming a file in
`tests/golden/` are resolved there.  The outputs were captured from the
implementation that rebuilt the bounded ideal span for every degree, so
they pin the reports of the graded span to the old ones exactly.  The
`*fractional*` cases, whose coefficients are not all integral, were
captured while every coefficient was still a Fraction, so they pin the
printing of int and Fraction coefficients to the old output.
"""

import json
from pathlib import Path

import pytest

from shirshov.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    case = CASES[name]
    argv = [str(GOLDEN / a) if (GOLDEN / a).is_file() else a
            for a in case["argv"]]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == (GOLDEN / (name + ".out")).read_text()


def test_every_golden_output_has_a_case_and_every_case_an_output():
    outputs = {p.stem for p in GOLDEN.glob("*.out")}
    assert outputs == set(CASES)
