"""Function fields of the Fermat, intermediate, and elliptic curves.

Each field is Q(zeta_24)(base)[ext] with a single relation ext^d = m(base):

    fermat4:  y^4 = 1 - x^4          fermat6:  y^6 = 1 - x^6
    interC :  v^2 = 1 - y^6          e36    :  v^2 = u^3 + 1
    e64    :  v^2 = u^3 - 4u

Elements are vectors of rational functions in the base variable, reduced so
the ext-degree is < d.  Since d divides 24, zeta_d lies in Q(zeta_24), and
the inverse is the product of the d - 1 conjugates ext |-> zeta_d^j ext over
the norm, as for Q(zeta_24) itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..cyclo import CycloNum, cyclo_atom, parse_expression
from ..cyclo import zero as cy_zero
from .ratfunc import Poly, RatFunc


class FieldError(Exception):
    pass


class SubfieldError(FieldError):
    pass


@dataclass(frozen=True)
class FunctionField:
    name: str
    base_var: str
    ext_var: str
    degree: int
    m: Poly  # relation: ext^degree = m(base)

    def __repr__(self):
        return f"FunctionField({self.name})"

    def zero(self) -> "FFElem":
        return FFElem(self, [RatFunc(0)] * self.degree)

    def one(self) -> "FFElem":
        return self.scalar(1)

    def scalar(self, c) -> "FFElem":
        v = [RatFunc(0)] * self.degree
        v[0] = c if isinstance(c, RatFunc) else RatFunc(Poly.const(c))
        return FFElem(self, v)

    def base_gen(self) -> "FFElem":
        return self.scalar(RatFunc.var())

    def ext_gen(self) -> "FFElem":
        v = [RatFunc(0)] * self.degree
        v[1 if self.degree > 1 else 0] = RatFunc(1)
        return FFElem(self, v)


def _fermat_m(n: int) -> Poly:
    cs = [cy_zero()] * (n + 1)
    cs[0] = CycloNum.from_rational(1)
    cs[n] = CycloNum.from_rational(-1)
    return Poly(cs)


FERMAT4 = FunctionField("fermat4", "x", "y", 4, _fermat_m(4))
FERMAT6 = FunctionField("fermat6", "x", "y", 6, _fermat_m(6))
INTERC = FunctionField("interC", "y", "v", 2, _fermat_m(6))
E36FF = FunctionField("e36", "u", "v", 2, Poly([1, 0, 0, 1]))
E64FF = FunctionField("e64", "u", "v", 2, Poly([0, -4, 0, 1]))

FIELDS = {f.name: f for f in (FERMAT4, FERMAT6, INTERC, E36FF, E64FF)}


class FFElem:
    """Element sum_k coeffs[k] * ext^k of a FunctionField."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FunctionField, coeffs):
        cs = [c if isinstance(c, RatFunc) else RatFunc(c) for c in coeffs]
        if len(cs) > field.degree:
            raise ValueError("coefficient vector longer than extension degree")
        cs += [RatFunc(0)] * (field.degree - len(cs))
        self.field = field
        self.coeffs = tuple(cs)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, FFElem):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.name, self.coeffs))

    def __repr__(self):
        parts = []
        ev = self.field.ext_var
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            head = "" if k == 0 else (ev if k == 1 else f"{ev}^{k}")
            parts.append(f"({c.num!r})/({c.den!r}){'*' + head if head else ''}")
        return f"FFElem[{self.field.name}](" + (" + ".join(parts) or "0") + ")"

    def _same(self, other) -> "FFElem":
        if isinstance(other, FFElem):
            if other.field is not self.field:
                raise FieldError("mixing elements of different function fields")
            return other
        if isinstance(other, (int, Fraction, CycloNum, RatFunc, Poly)):
            return self.field.scalar(other if isinstance(other, RatFunc)
                                     else RatFunc(other if isinstance(other, Poly)
                                                  else Poly.const(other)))
        raise TypeError(f"cannot coerce {other!r} into {self.field}")

    def __add__(self, other):
        o = self._same(other)
        return FFElem(self.field, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return FFElem(self.field, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self._same(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._same(other)
        d = self.field.degree
        m = RatFunc(self.field.m)
        prod = [RatFunc(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(o.coeffs):
                if not b.is_zero():
                    prod[i + j] = prod[i + j] + a * b
        out = prod[:d]
        for i in range(d, 2 * d - 1):
            if not prod[i].is_zero():
                out[i - d] = out[i - d] + prod[i] * m
        return FFElem(self.field, out)

    __rmul__ = __mul__

    def inv(self) -> "FFElem":
        """1/f = p / N with p = prod_{j=1}^{d-1} sigma_j(f), where sigma_j
        maps ext |-> zeta_d^j ext, and N = f p in K(base): the conjugate
        product over the norm, as CycloNum.inv does for Q(zeta_24)."""
        if self.is_zero():
            raise ZeroDivisionError(f"inverse of zero in {self.field}")
        if all(c.is_zero() for c in self.coeffs[1:]):
            return self.field.scalar(self.coeffs[0].inv())
        d = self.field.degree
        p = None
        for j in range(1, d):
            s = FFElem(self.field, [c * CycloNum.zeta_pow(24 // d * j * k)
                                    for k, c in enumerate(self.coeffs)])
            p = s if p is None else p * s
        norm = (self * p).coeffs
        if any(not c.is_zero() for c in norm[1:]):
            raise FieldError(f"norm to the base field of {self.field.name} "
                             "has a nonzero ext-part")
        n_inv = norm[0].inv()
        return FFElem(self.field, [c * n_inv for c in p.coeffs])

    def __truediv__(self, other):
        return self * self._same(other).inv()

    def __rtruediv__(self, other):
        return self._same(other) * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def base_twist(self, zeta: CycloNum) -> "FFElem":
        """Substitute base |-> zeta * base in every coefficient."""
        return FFElem(self.field, [c.scale_var(zeta) for c in self.coeffs])

    def norm_to_rational_subfield(self) -> RatFunc:
        """N(a + b*ext) = (a + b*ext)(a - b*ext) = a^2 - b^2*m in Q(zeta_24)(base).

        Quadratic fields only (the elliptic curves and interC).  The
        numerator and denominator are formed over one common denominator and
        reduced once."""
        if self.field.degree != 2:
            raise FieldError(f"norm to the rational subfield is implemented "
                             f"for quadratic fields, not {self.field.name}")
        a, b = self.coeffs
        num = a.num * a.num * b.den * b.den \
            - b.num * b.num * a.den * a.den * self.field.m
        return RatFunc(num, a.den * a.den * b.den * b.den)


# parsing -------------------------------------------------------------------

def ff_parse(field: FunctionField, text: str) -> FFElem:
    """Parse an expression in the field's variables, e.g. ``(1-v)/(1+u)``."""
    gens = {field.base_var: field.base_gen(), field.ext_var: field.ext_gen()}

    def atom(token):
        if token in gens:
            return gens[token]
        c = cyclo_atom(token)
        return None if c is None else field.scalar(c)

    return parse_expression(text, field.name, atom)


# quotient-map pullbacks ----------------------------------------------------

@dataclass(frozen=True)
class QuotientMap:
    """A covering map given by the pullbacks of the target's generators."""

    name: str
    source: FunctionField  # the curve downstairs
    cover: FunctionField   # the curve upstairs
    base_image: FFElem     # image of source.base_var in the cover field
    ext_image: FFElem      # image of source.ext_var in the cover field

    def __post_init__(self):
        # the images must satisfy the source relation
        rel = self.ext_image ** self.source.degree \
            - _eval_poly_ff(self.source.m, self.base_image)
        if not rel.is_zero():
            raise FieldError(f"map {self.name} does not satisfy the curve relation")


def _eval_poly_ff(p: Poly, x: FFElem) -> FFElem:
    acc = x.field.zero()
    for c in reversed(p.coeffs):
        acc = acc * x + x.field.scalar(c)
    return acc


def _ratfunc_at_ff(c: RatFunc, x: FFElem) -> FFElem:
    return _eval_poly_ff(c.num, x) / _eval_poly_ff(c.den, x)


def substitute_quotient(curve_map: QuotientMap, f: FFElem) -> FFElem:
    """Pull back f on the quotient curve through the map to the cover."""
    if f.field is not curve_map.source:
        raise FieldError(
            f"element lives on {f.field.name}, map starts at {curve_map.source.name}")
    acc = curve_map.cover.zero()
    for k in reversed(range(len(f.coeffs))):
        acc = acc * curve_map.ext_image + _ratfunc_at_ff(f.coeffs[k],
                                                         curve_map.base_image)
    return acc


def _build_maps():
    # E36 quotient of the Fermat sextic: (x, y) -> (u, v) = (-y^2, x^3)
    p36 = QuotientMap("p36", E36FF, FERMAT6,
                      base_image=FFElem(FERMAT6, [RatFunc(0), RatFunc(0),
                                                  RatFunc(-1)]),
                      ext_image=FERMAT6.scalar(RatFunc(Poly([0, 0, 0, 1]))))
    # E64 quotient of the Fermat quartic:
    # (x, y) -> (u, v) = (2(y^2+1)/x^2, 4y(y^2+1)/x^3)
    x2 = RatFunc(Poly([0, 0, 1]))
    x3 = RatFunc(Poly([0, 0, 0, 1]))
    u_img = FFElem(FERMAT4, [RatFunc(2) / x2, RatFunc(0), RatFunc(2) / x2])
    v_img = FFElem(FERMAT4, [RatFunc(0), RatFunc(4) / x3,
                             RatFunc(0), RatFunc(4) / x3])
    p64 = QuotientMap("p64", E64FF, FERMAT4, base_image=u_img, ext_image=v_img)
    # q: fermat6 -> interC, (x, y) -> (y, v) = (y, x^3)
    q = QuotientMap("q", INTERC, FERMAT6,
                    base_image=FERMAT6.ext_gen(),
                    ext_image=FERMAT6.scalar(RatFunc(Poly([0, 0, 0, 1]))))
    # r: interC -> e36, (y, v) -> (u, v) = (-y^2, v)
    r = QuotientMap("r", E36FF, INTERC,
                    base_image=INTERC.scalar(RatFunc(Poly([0, 0, -1]))),
                    ext_image=INTERC.ext_gen())
    return {"p36": p36, "p64": p64, "q": q, "r": r}


MAPS = _build_maps()


# Kummer norms and subfield projections --------------------------------------

def kummer_norm(f: FFElem, d: int, twist: str) -> FFElem:
    """prod_{j<d} f(twist -> zeta_d^j twist); must be twist-invariant."""
    if 24 % d:
        raise FieldError(f"zeta_{d} is not in Q(zeta_24)")
    if twist != f.field.base_var:
        raise FieldError(f"{twist!r} is not the base variable of {f.field.name}")
    zeta = CycloNum.zeta_pow(24 // d)
    acc = f
    z = zeta
    for _ in range(d - 1):
        acc = acc * f.base_twist(z)
        z = z * zeta
    if acc.base_twist(zeta) != acc:
        raise SubfieldError("Kummer norm is not invariant under the twist")
    return acc


def _invariant_ratfunc(c: RatFunc, d: int, zeta: CycloNum) -> RatFunc:
    """Rewrite a twist-invariant c as a rational function of base^d."""
    num, den = c.num, c.den
    z = zeta
    for _ in range(d - 1):
        num = num * den.scale_var(z)
        den = den * den.scale_var(z)
        z = z * zeta
    try:
        return RatFunc(num.exponent_divide(d), den.exponent_divide(d))
    except ValueError as exc:
        raise SubfieldError(str(exc)) from None


def project_fermat6_to_interC(f: FFElem) -> FFElem:
    """Rewrite an x -> zeta_3 x invariant element of fermat6 on interC.

    fermat6 elements are sum_k c_k(x) y^k; invariance makes each c_k a
    rational function of x^3 = v, and on interC y is the base variable.
    """
    if f.field is not FERMAT6:
        raise FieldError("expected an element of fermat6")
    zeta = CycloNum.zeta_pow(8)  # zeta_3
    if f.base_twist(zeta) != f:
        raise SubfieldError("element is not invariant under x -> zeta_3 x")
    y_base = INTERC.base_gen()
    v_gen = INTERC.ext_gen()
    out = INTERC.zero()
    for k, c in enumerate(f.coeffs):
        if c.is_zero():
            continue
        cv = _invariant_ratfunc(c, 3, zeta)  # rational function of v
        num = _eval_poly_ff(cv.num, v_gen)
        den = _eval_poly_ff(cv.den, v_gen)
        out = out + num / den * y_base ** k
    return out


def project_interC_to_e36(f: FFElem) -> FFElem:
    """Rewrite a y -> -y invariant element of interC on e36 via u = -y^2."""
    if f.field is not INTERC:
        raise FieldError("expected an element of interC")
    minus_one = CycloNum.from_rational(-1)
    if f.base_twist(minus_one) != f:
        raise SubfieldError("element is not invariant under y -> -y")
    out = []
    for c in f.coeffs:
        cw = _invariant_ratfunc(c, 2, minus_one)  # rational function of y^2
        # y^2 = -u
        out.append(RatFunc(cw.num.scale_var(minus_one),
                           cw.den.scale_var(minus_one)))
    return FFElem(E36FF, out)
