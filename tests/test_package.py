"""The package's public names: a fixed set, each resolved on first use to
the object its defining module holds."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import src_env

import shirshov
from shirshov import core, gsb

EXPORTS = sorted("""
AcPolynomial AntiCommutative ac_gsb_check_bounded ac_key ac_mul hall_gsb
hall_words is_ls_word ls_bracketing ls_words normal_words
Presentation chinese_gsb chinese_relations congruence_classes is_staircase
tensor_relations
Alphabet DegLexOrder Polynomial Terms VectorSpan deglex_key
Dialgebra DiPolynomial Diword LeibnizAlgebra di_gsb_check_bounded di_irr
di_left di_right diword_key leibniz_check leibniz_dim2 leibniz_enveloping
pbw_basis
FreeModule ModuleElement ModuleWord act module_cd_check mword_key
BudgetExceeded cd_lemma_check find_compositions inter_reduce is_gsb
shirshov_complete
RewriteSystem irr_words normal_form
""".split())


def test_all_is_the_pinned_export_list():
    assert len(EXPORTS) == 51
    assert sorted(shirshov.__all__) == EXPORTS
    assert len(set(shirshov.__all__)) == len(shirshov.__all__)


@pytest.mark.parametrize("name", EXPORTS)
def test_each_name_is_the_object_of_its_defining_module(name):
    obj = getattr(shirshov, name)
    assert obj.__module__.startswith("shirshov.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_star_import_binds_every_name():
    namespace = {}
    exec("from shirshov import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert all(namespace[n] is getattr(shirshov, n) for n in EXPORTS)


def test_dir_lists_every_name_before_any_is_used():
    # in a fresh process, where no name has been resolved yet
    out = subprocess.run(
        [sys.executable, "-c", "import shirshov; print(*dir(shirshov))"],
        env=src_env(), capture_output=True, text=True, check=True,
        timeout=60).stdout.split()
    assert set(EXPORTS) <= set(out)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        shirshov.no_such_name
    assert not hasattr(shirshov, "no_such_name")
    with pytest.raises(ImportError):
        exec("from shirshov import no_such_name", {})


def test_version():
    assert shirshov.__version__ == "0.1.0"


def test_budget_exceeded_is_one_class():
    assert shirshov.BudgetExceeded is core.BudgetExceeded
    assert gsb.BudgetExceeded is core.BudgetExceeded


def test_src_imports_only_the_standard_library():
    # The engine is stdlib-only: every absolute import in the package
    # names shirshov itself or a module of the standard library.
    paths = sorted(Path(shirshov.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "shirshov" and top not in sys.stdlib_module_names:
                    outside.append((path.name, name))
    assert outside == []
