"""Function fields, Steinberg symbols, Rosset-Tate traces, and valuations."""

from .ratfunc import Poly, RatFunc
from .ffield import (E36FF, E64FF, ELLIPTIC, FERMAT4, FERMAT6, INTERC, MAPS,
                     FFElem, FieldError, FunctionField, QuotientMap,
                     SubfieldError, ff_parse, kummer_norm,
                     project_fermat6_to_interC, project_interC_to_e36,
                     substitute_quotient)
from .symbols import (NonterminationError, Symbol, SymbolError,
                      evaluate_pullback, pushforward_e36, rosset_tate,
                      rosset_tate_chain, verify_annihilation)
from .series import Place, divisor, ord_at, tame_symbol, verify_divisor

__all__ = [
    "Poly", "RatFunc", "E36FF", "E64FF", "ELLIPTIC", "FERMAT4", "FERMAT6",
    "INTERC", "MAPS", "FFElem", "FieldError", "FunctionField",
    "QuotientMap", "SubfieldError", "ff_parse", "kummer_norm", "project_fermat6_to_interC",
    "project_interC_to_e36", "substitute_quotient", "NonterminationError",
    "Symbol", "SymbolError", "evaluate_pullback", "pushforward_e36",
    "rosset_tate", "rosset_tate_chain",
    "verify_annihilation", "Place", "divisor", "ord_at", "tame_symbol",
    "verify_divisor",
]
