"""Exact composition-based rewriting over free associative algebras,
dialgebras, free modules, and free anti-commutative algebras, with
completion, normal forms, and bounded verification oracles.  Each public
name imports its module on first use (PEP 562)."""

from importlib import import_module

_EXPORTS = {
    "anticomm": "AcPolynomial AntiCommutative ac_gsb_check_bounded ac_key "
                "ac_mul hall_gsb hall_words is_ls_word ls_bracketing "
                "ls_words normal_words",
    "catalog": "Presentation chinese_gsb chinese_relations "
               "congruence_classes is_staircase tensor_relations",
    "core": "Alphabet BudgetExceeded DegLexOrder Polynomial Terms "
            "VectorSpan deglex_key",
    "dialgebra": "Dialgebra DiPolynomial Diword LeibnizAlgebra "
                 "di_gsb_check_bounded di_irr di_left di_right diword_key "
                 "leibniz_check leibniz_dim2 leibniz_enveloping pbw_basis",
    "freemodule": "FreeModule ModuleElement ModuleWord act module_cd_check "
                  "mword_key",
    "gsb": "cd_lemma_check find_compositions inter_reduce is_gsb "
           "shirshov_complete",
    "rewrite": "RewriteSystem irr_words normal_form",
}
_MODULE = {name: module for module, names in _EXPORTS.items()
           for name in names.split()}
__all__ = list(_MODULE)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = globals()[name] = getattr(
        import_module("." + _MODULE[name], __name__), name)
    return value


def __dir__():
    return sorted(set(globals()).union(__all__))
