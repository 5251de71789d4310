"""Steinberg symbols, the Rosset-Tate trace, and the norm pushforward chain.

Symbol sums carry no silent normalization: bilinearity, antisymmetry and
inverse moves are explicit rewriting operations, so a claimed equality is
always exhibited as a concrete move sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ffield import (E36FF, FERMAT6, INTERC, MAPS, FFElem, FieldError,
                     ff_parse, kummer_norm, project_fermat6_to_interC,
                     project_interC_to_e36, substitute_quotient)


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

    def inv_first(self) -> "SymbolSum":
        """{f, g} = -{f^-1, g}."""
        return SymbolSum([(-1, Symbol(self.f.inv(), self.g))])


class SymbolSum:
    """Integer combination of symbols; equality is exact slot-wise."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        out = []
        for c, s in terms:
            c = int(c)
            if c:
                out.append((c, s))
        self.terms = tuple(out)

    def __add__(self, other):
        return SymbolSum(self.terms + other.terms)

    def __neg__(self):
        return SymbolSum(tuple((-c, s) for c, s in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def collect(self) -> "SymbolSum":
        """Merge coefficients of exactly-equal symbols (an explicit move)."""
        acc = []
        for c, s in self.terms:
            for i, (c0, s0) in enumerate(acc):
                if s0 == s:
                    acc[i] = (c0 + c, s0)
                    break
            else:
                acc.append((c, s))
        return SymbolSum(acc)

    def __eq__(self, other):
        if not isinstance(other, SymbolSum):
            return NotImplemented
        return self.collect().terms == other.collect().terms

    def __repr__(self):
        if not self.terms:
            return "SymbolSum(0)"
        return "SymbolSum(" + " + ".join(
            f"{c}*{{{s.f!r}, {s.g!r}}}" for c, s in self.terms) + ")"


# polynomials over a function field ------------------------------------------

class PolyFF:
    """Polynomial in T with FFElem coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        cs = [c if isinstance(c, FFElem) else field.scalar(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> FFElem:
        if self.is_zero():
            raise SymbolError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def trailing(self):
        """(a_m, m) with a_m the lowest-order nonzero coefficient."""
        for m, c in enumerate(self.coeffs):
            if not c.is_zero():
                return c, m
        raise SymbolError("zero polynomial has no trailing term")

    def is_monic(self) -> bool:
        return not self.is_zero() and self.leading() == self.field.one()

    def __eq__(self, other):
        return (isinstance(other, PolyFF) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"PolyFF[{self.field.name}]({list(self.coeffs)!r})"

    def __mul__(self, other):
        if isinstance(other, FFElem):
            return PolyFF(self.field, [c * other for c in self.coeffs])
        out = [self.field.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return PolyFF(self.field, out)

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero()
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return PolyFF(self.field, [x - y for x, y in zip(a, b)])

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        q = [self.field.zero()] * max(0, self.degree - other.degree + 1)
        r = list(self.coeffs)
        inv_lead = other.leading().inv()
        while len(r) >= len(other.coeffs):
            while r and r[-1].is_zero():
                r.pop()
            if len(r) < len(other.coeffs):
                break
            d = len(r) - len(other.coeffs)
            c = r[-1] * inv_lead
            q[d] = c
            for i, bc in enumerate(other.coeffs):
                r[d + i] = r[d + i] - c * bc
        return PolyFF(self.field, q), PolyFF(self.field, r)

    def star(self) -> "PolyFF":
        """f*(T) = (a_m T^m)^{-1} f(T), a_m the trailing coefficient."""
        a_m, m = self.trailing()
        inv = a_m.inv()
        return PolyFF(self.field, [c * inv for c in self.coeffs[m:]])

    def content_sign(self) -> FFElem:
        """c(f) = (-1)^n a_n with n the degree and a_n the leading term."""
        lead = self.leading()
        return lead if self.degree % 2 == 0 else -lead

    def eval(self, x: FFElem) -> FFElem:
        acc = x.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + _transport(c, x.field)
        return acc


def _transport(c: FFElem, target) -> FFElem:
    if c.field is target:
        return c
    raise FieldError("coefficient lives on the wrong curve; pull it back first")


def pullback_polyff(curve_map, g: PolyFF) -> PolyFF:
    """Pull back every coefficient of g through the quotient map."""
    return PolyFF(curve_map.cover,
                  [substitute_quotient(curve_map, c) for c in g.coeffs])


def verify_annihilation(g: PolyFF, curve_map, generator: FFElem) -> bool:
    """True iff g, pulled back through the map, vanishes at the generator."""
    return evaluate_pullback(g, curve_map, generator).is_zero()


def evaluate_pullback(g: PolyFF, curve_map, generator: FFElem) -> FFElem:
    if generator.field is not curve_map.cover:
        raise FieldError("generator must live on the covering curve")
    return pullback_polyff(curve_map, g).eval(generator)


def rosset_tate(g0: PolyFF, g1: PolyFF) -> SymbolSum:
    """Trace of {c(g1-root), generator} down the extension cut out by g0.

    Builds the chain g_{i+1} = g*_{i-1} mod g_i of strictly decreasing degree
    and returns -sum_{i=1}^{m} {c(g*_{i-1}), c(g_i)}.
    """
    if g0.is_zero() or g1.is_zero():
        raise SymbolError("Rosset-Tate inputs must be nonzero")
    if not g0.is_monic() or g0.degree < 1:
        raise SymbolError("g0 must be monic of degree >= 1")
    if g1.degree >= g0.degree:
        raise SymbolError("g1 must have degree smaller than g0")
    chain = rosset_tate_chain(g0, g1)
    return SymbolSum([(-1, Symbol(chain[i - 1].star().content_sign(),
                                  chain[i].content_sign()))
                      for i in range(1, len(chain))])


def rosset_tate_chain(g0: PolyFF, g1: PolyFF):
    """The nonzero g_i sequence g_0, g_1, ..., g_m, ending in a constant.

    Raises NonterminationError if the degree fails to decrease or a
    remainder vanishes before degree 0 is reached.  The strict decrease
    bounds the chain by deg g1 + 2 entries."""
    chain = [g0, g1]
    while not chain[-1].is_zero() and chain[-1].degree >= 1:
        nxt = chain[-2].star().divmod(chain[-1])[1]
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
