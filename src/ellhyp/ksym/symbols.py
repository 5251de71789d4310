"""Steinberg symbols, the Rosset-Tate trace, and the norm pushforward chain.

The trace is a plain list of (coefficient, Symbol) terms with no silent
normalization: a claimed equality is exhibited as a concrete move sequence,
and ``Symbol.inv_first`` is the explicit move {f, g} = -{f^-1, g}.  The
polynomials g_i of the trace are ``Poly`` with ``FFElem`` coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ffield import (E36FF, FERMAT6, INTERC, MAPS, FFElem, FieldError,
                     ff_parse, kummer_norm, project_fermat6_to_interC,
                     project_interC_to_e36, substitute_quotient)
from .ratfunc import Poly


class SymbolError(Exception):
    pass


class NonterminationError(SymbolError):
    pass


@dataclass(frozen=True)
class Symbol:
    """An ordered Steinberg symbol {f, g} of nonzero field elements."""

    f: FFElem
    g: FFElem

    def __post_init__(self):
        if self.f.field is not self.g.field:
            raise FieldError("symbol slots live on different curves")
        if self.f.is_zero() or self.g.is_zero():
            raise SymbolError("symbol slots must be nonzero")

    @property
    def field(self):
        return self.f.field

    def inv_first(self) -> "Symbol":
        """{f^-1, g}, which equals -{f, g}."""
        return Symbol(self.f.inv(), self.g)


# the Rosset-Tate polynomials over a function field --------------------------

def trailing(f: Poly):
    """(a_m, m) with a_m the lowest-order nonzero coefficient."""
    for m, c in enumerate(f.coeffs):
        if c:
            return c, m
    raise SymbolError("zero polynomial has no trailing term")


def star(f: Poly) -> Poly:
    """f*(T) = (a_m T^m)^{-1} f(T), a_m the trailing coefficient."""
    a_m, m = trailing(f)
    return Poly(f.coeffs[m:]) * a_m.inv()


def content_sign(f: Poly) -> FFElem:
    """c(f) = (-1)^n a_n with n the degree and a_n the leading term."""
    lead = f.leading()
    return lead if f.degree % 2 == 0 else -lead


def verify_annihilation(g: Poly, curve_map, generator: FFElem) -> bool:
    """True iff g, pulled back through the map, vanishes at the generator."""
    return evaluate_pullback(g, curve_map, generator).is_zero()


def evaluate_pullback(g: Poly, curve_map, generator: FFElem) -> FFElem:
    """g with every coefficient pulled back through the map, at the
    generator of the covering curve."""
    if generator.field is not curve_map.cover:
        raise FieldError("generator must live on the covering curve")
    return Poly([substitute_quotient(curve_map, c)
                 for c in g.coeffs]).eval(generator)


def rosset_tate(g0: Poly, g1: Poly) -> tuple:
    """Trace of {c(g1-root), generator} down the extension cut out by g0.

    Builds the chain g_{i+1} = g*_{i-1} mod g_i of strictly decreasing degree
    and returns it with -sum_{i=1}^{m} {c(g*_{i-1}), c(g_i)} as the terms
    [(-1, {c(g*_{i-1}), c(g_i)}) for i = 1..m].
    """
    if g0.is_zero() or g1.is_zero():
        raise SymbolError("Rosset-Tate inputs must be nonzero")
    lead = g0.leading()
    if lead != lead.field.one() or g0.degree < 1:
        raise SymbolError("g0 must be monic of degree >= 1")
    if g1.degree >= g0.degree:
        raise SymbolError("g1 must have degree smaller than g0")
    chain = rosset_tate_chain(g0, g1)
    return chain, [(-1, Symbol(content_sign(star(chain[i - 1])),
                               content_sign(chain[i])))
                   for i in range(1, len(chain))]


def rosset_tate_chain(g0: Poly, g1: Poly):
    """The nonzero g_i sequence g_0, g_1, ..., g_m, ending in a constant.

    Raises NonterminationError if the degree fails to decrease or a
    remainder vanishes before degree 0 is reached.  The strict decrease
    bounds the chain by deg g1 + 2 entries."""
    chain = [g0, g1]
    while not chain[-1].is_zero() and chain[-1].degree >= 1:
        nxt = star(chain[-2]).divmod(chain[-1])[1]
        if nxt.is_zero():
            raise NonterminationError(
                "degenerate Rosset-Tate step: zero remainder below degree 1")
        if nxt.degree >= chain[-1].degree:
            raise NonterminationError("Rosset-Tate degree failed to decrease")
        chain.append(nxt)
    if chain[-1].is_zero():
        chain.pop()
    return chain


# the conductor-36 pushforward chain ------------------------------------------

def pushforward_e36() -> Symbol:
    """p_* of {1-x, 1-y} on the Fermat sextic, down to the conductor-36 curve.

    Step q (degree 3, twist x): {1-x, 1-y} -> {N_q(1-x), 1-y} on the
    intermediate curve v^2 + y^6 = 1, with N_q(1-x) = 1-x^3 = 1-v.
    Step r (degree 2, twist y): {1-v, 1-y} -> {1-v, N_r(1-y)} = {1-v, 1+u}.
    """
    one_minus_x = ff_parse(FERMAT6, "1-x")
    one_minus_y_f6 = ff_parse(FERMAT6, "1-y")
    # projection formula for q applies: 1-y is the pullback of 1-y on interC
    if substitute_quotient(MAPS["q"], ff_parse(INTERC, "1-y")) != one_minus_y_f6:
        raise SymbolError("projection-formula hypothesis fails for q")
    norm_q = project_fermat6_to_interC(kummer_norm(one_minus_x, 3, "x"))
    first = Symbol(norm_q, ff_parse(INTERC, "1-y"))
    # projection formula for r: 1-v is the pullback of 1-v on e36
    if substitute_quotient(MAPS["r"], ff_parse(E36FF, "1-v")) != first.f:
        raise SymbolError("projection-formula hypothesis fails for r")
    norm_r = project_interC_to_e36(kummer_norm(first.g, 2, "y"))
    return Symbol(ff_parse(E36FF, "1-v"), norm_r)
