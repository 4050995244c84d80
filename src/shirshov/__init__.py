"""Exact composition-based rewriting over free associative algebras,
dialgebras, free modules, and free anti-commutative algebras, with
completion, normal forms, and bounded verification oracles."""

from .anticomm import (AcPolynomial, AntiCommutative, ac_gsb_check_bounded,
                       ac_key, ac_mul, hall_gsb, hall_words, is_ls_word,
                       ls_bracketing, ls_words, normal_words)
from .catalog import (Presentation, chinese_gsb, chinese_relations,
                      congruence_classes, is_staircase,
                      staircase_equals_irr, tensor_relations)
from .core import (Alphabet, DegLexOrder, Polynomial, Terms, VectorSpan,
                   deglex_key)
from .dialgebra import (Dialgebra, DiPolynomial, Diword, LeibnizAlgebra,
                        di_gsb_check_bounded, di_irr, di_left, di_right,
                        diword_key, leibniz_check, leibniz_dim2,
                        leibniz_enveloping, pbw_basis)
from .freemodule import (FreeModule, ModuleElement, ModuleWord, act,
                         module_cd_check, mword_key)
from .gsb import (BudgetExceeded, cd_lemma_check, find_compositions,
                  inter_reduce, is_gsb, shirshov_complete)
from .rewrite import RewriteSystem, irr_words, membership_oracle, normal_form

__version__ = "0.1.0"
