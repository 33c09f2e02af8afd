"""Egraph-based quantifier reduction and model-based projection.

Conjunctions of equality literals over uninterpreted functions, arrays, and
non-recursive algebraic datatypes are loaded into an egraph; quantifier
reduction picks ground class representatives and extracts an equivalent
conjunction over fewer variables, while model-based projection saturates
theory rules under a model to eliminate array/datatype variables entirely.
"""

from .egraph import EGraph, InconsistentFormulaError
from .extraction import (ExtractionBudgetError, InadmissibleReprError,
                         build_repr_graph, is_admissible, to_expr, to_formula)
from .mbp import MbpResult, ModelMismatchError, SaturationBudgetError, mbp
from .model import (AdtVal, ArrayVal, Elem, Model, eval_term, holds, mk_array,
                    parse_model, satisfies)
from .oracle import (Bounds, SearchSpaceError, Verdict, equiv_exists,
                     find_model, implies_exists)
from .parser import ParseError, Problem, parse_problem
from .qel import find_core, find_defs, process, qel, refine_defs
from .terms import (Formula, InputError, Literal, Signature, Sort, SortKind,
                    Term, TermStore, formula_to_sexpr, literal_to_sexpr,
                    term_to_sexpr)

__all__ = [
    "AdtVal", "ArrayVal", "Bounds", "EGraph",
    "Elem", "ExtractionBudgetError", "Formula", "InadmissibleReprError",
    "InconsistentFormulaError", "InputError", "Literal",
    "MbpResult", "Model", "ModelMismatchError", "ParseError", "Problem",
    "SaturationBudgetError", "SearchSpaceError", "Signature",
    "Sort", "SortKind", "Term", "TermStore", "Verdict", "build_repr_graph",
    "equiv_exists", "eval_term",
    "find_core", "find_defs", "find_model", "formula_to_sexpr", "holds",
    "implies_exists", "is_admissible",
    "literal_to_sexpr", "mbp", "mk_array", "parse_model",
    "parse_problem", "process", "qel", "refine_defs", "satisfies",
    "term_to_sexpr", "to_expr", "to_formula",
]
