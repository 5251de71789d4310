"""Function fields of the Fermat, intermediate, and elliptic curves.

Each field is Q(zeta_24)(base)[ext] with a single relation ext^d = m(base):

    fermat4:  y^4 = 1 - x^4          fermat6:  y^6 = 1 - x^6
    interC :  v^2 = 1 - y^6          e36, e64: v^2 = u^3 + a u + b

The elliptic fields take their relation from the curve records of ``ecdiv``
(``FunctionField.curve``), where each Weierstrass equation is written once.

An element is sum_k nums[k] ext^k / den with k < d: d polynomials in the
base variable over one monic denominator, with gcd(den, *nums) = 1.  This is
the layout of CycloNum one level down (Cohen, GTM 138, Secs. 3.3 and 4.2).
The form is canonical, so equality is tuple equality; each operation works
on polynomials and ends in one ``reduce_fraction``.  Since d divides 24,
zeta_d lies in Q(zeta_24), and the inverse is the product of the d - 1
conjugates ext |-> zeta_d^j ext of the numerator over its norm polynomial,
as for Q(zeta_24) itself.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

from ..cyclo import CycloNum, cyclo_atom, parse_expression
from ..ecdiv import CURVES, Curve
from .ratfunc import Poly, RatFunc, reduce_fraction


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
    curve: Curve | None = dataclasses.field(default=None, compare=False,
                                            repr=False)  # elliptic fields

    def __repr__(self):
        return f"FunctionField({self.name})"

    def zero(self) -> "FFElem":
        return FFElem(self, [])

    def one(self) -> "FFElem":
        return self.scalar(1)

    def scalar(self, c) -> "FFElem":
        """c an int, Fraction, CycloNum or Poly in the base variable."""
        return FFElem(self, [c])

    def base_gen(self) -> "FFElem":
        return self.scalar(Poly.var())

    def ext_gen(self) -> "FFElem":
        return FFElem(self, [0, 1])


def _fermat_m(n: int) -> Poly:
    return Poly([1] + [0] * (n - 1) + [-1])


FERMAT4 = FunctionField("fermat4", "x", "y", 4, _fermat_m(4))
FERMAT6 = FunctionField("fermat6", "x", "y", 6, _fermat_m(6))
INTERC = FunctionField("interC", "y", "v", 2, _fermat_m(6))


def _elliptic(curve: Curve) -> FunctionField:
    """The function field of v^2 = u^3 + a u + b, pointing back to its curve."""
    return FunctionField(f"e{curve.N}", "u", "v", 2,
                         Poly([curve.b, curve.a, 0, 1]), curve)


ELLIPTIC = {N: _elliptic(c) for N, c in CURVES.items()}
E36FF = ELLIPTIC[36]
E64FF = ELLIPTIC[64]

_POLY_ONE = Poly.const(1)


class FFElem:
    """Element sum_k nums[k] ext^k / den of a FunctionField, in canonical
    form: den monic and gcd(den, *nums) = 1 (see ``reduce_fraction``)."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: FunctionField, nums, den=1):
        ps = [n if isinstance(n, Poly) else Poly.const(n) for n in nums]
        if len(ps) > field.degree:
            raise ValueError("coefficient vector longer than extension degree")
        ps += [Poly()] * (field.degree - len(ps))
        self.field = field
        self.nums, self.den = reduce_fraction(
            ps, den if isinstance(den, Poly) else Poly.const(den))

    @staticmethod
    def _raw(field: FunctionField, nums: tuple, den: Poly) -> "FFElem":
        """Wrap a fraction that is already in canonical form."""
        x = object.__new__(FFElem)
        x.field, x.nums, x.den = field, nums, den
        return x

    def is_zero(self) -> bool:
        return all(n.is_zero() for n in self.nums)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, FFElem):
            return NotImplemented
        return (self.field is other.field and self.nums == other.nums
                and self.den == other.den)

    def __hash__(self):
        return hash((self.field.name, self.nums, self.den))

    def __repr__(self):
        parts = []
        ev = self.field.ext_var
        for k, n in enumerate(self.nums):
            if n.is_zero():
                continue
            head = "" if k == 0 else (ev if k == 1 else f"{ev}^{k}")
            parts.append(f"({n!r}){'*' + head if head else ''}")
        return (f"FFElem[{self.field.name}](({' + '.join(parts) or '0'})"
                f" / ({self.den!r}))")

    def _same(self, other) -> "FFElem":
        if isinstance(other, FFElem):
            if other.field is not self.field:
                raise FieldError("mixing elements of different function fields")
            return other
        if isinstance(other, (int, Fraction, CycloNum, Poly)):
            return self.field.scalar(other)
        raise TypeError(f"cannot coerce {other!r} into {self.field}")

    def __add__(self, other):
        o = self._same(other)
        if self.den == o.den:
            return FFElem(self.field, [a + b for a, b in zip(self.nums, o.nums)],
                          self.den)
        return FFElem(self.field, [a * o.den + b * self.den
                                   for a, b in zip(self.nums, o.nums)],
                      self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return FFElem._raw(self.field, tuple(-n for n in self.nums), self.den)

    def __sub__(self, other):
        return self + (-self._same(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._same(other)
        d = self.field.degree
        prod = [Poly()] * (2 * d - 1)
        for i, a in enumerate(self.nums):
            if a.is_zero():
                continue
            for j, b in enumerate(o.nums):
                if not b.is_zero():
                    prod[i + j] = prod[i + j] + a * b
        # ext^d = m
        for i in range(d, 2 * d - 1):
            if not prod[i].is_zero():
                prod[i - d] = prod[i - d] + prod[i] * self.field.m
        return FFElem(self.field, prod[:d], self.den * o.den)

    __rmul__ = __mul__

    def inv(self) -> "FFElem":
        """1/f = den p / N with A = sum nums[k] ext^k, p = prod_{j=1}^{d-1}
        sigma_j(A), where sigma_j maps ext |-> zeta_d^j ext, and N = A p the
        norm polynomial: the conjugate product over the norm, as
        CycloNum.inv does for Q(zeta_24)."""
        if self.is_zero():
            raise ZeroDivisionError(f"inverse of zero in {self.field}")
        if all(n.is_zero() for n in self.nums[1:]):
            return FFElem(self.field, [self.den], self.nums[0])
        d = self.field.degree
        # nums over 1 is canonical, so A and its conjugates need no gcd
        p = None
        for j in range(1, d):
            s = FFElem._raw(self.field, tuple(
                n * CycloNum.zeta_pow(24 // d * j * k)
                for k, n in enumerate(self.nums)), _POLY_ONE)
            p = s if p is None else p * s
        norm = (FFElem._raw(self.field, self.nums, _POLY_ONE) * p).nums
        if any(not n.is_zero() for n in norm[1:]):
            raise FieldError(f"norm to the base field of {self.field.name} "
                             "has a nonzero ext-part")
        return FFElem(self.field, [self.den * n for n in p.nums], norm[0])

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
        """Substitute base |-> zeta * base."""
        return FFElem(self.field, [n.scale_var(zeta) for n in self.nums],
                      self.den.scale_var(zeta))

    def norm_to_rational_subfield(self) -> RatFunc:
        """N((a0 + a1*ext)/den) = (a0^2 - a1^2 m) / den^2 in Q(zeta_24)(base).

        Quadratic fields only (the elliptic curves and interC).  When a1 = 0
        the quotient a0^2 / den^2 is already reduced, because gcd(a0, den)
        = 1 in canonical form, and it is wrapped without a gcd."""
        if self.field.degree != 2:
            raise FieldError(f"norm to the rational subfield is implemented "
                             f"for quadratic fields, not {self.field.name}")
        a0, a1 = self.nums
        if a1.is_zero():
            return RatFunc._raw(a0 * a0, self.den * self.den)
        return RatFunc(a0 * a0 - a1 * a1 * self.field.m, self.den * self.den)


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
            - self.source.m.eval(self.base_image)
        if not rel.is_zero():
            raise FieldError(f"map {self.name} does not satisfy the curve relation")


def _substitute(nums, den: Poly, base: FFElem, ext: FFElem) -> FFElem:
    """sum_k nums[k](base) ext^k / den(base), by Horner in each variable."""
    return Poly([n.eval(base) for n in nums]).eval(ext) / den.eval(base)


def substitute_quotient(curve_map: QuotientMap, f: FFElem) -> FFElem:
    """Pull back f on the quotient curve through the map to the cover."""
    if f.field is not curve_map.source:
        raise FieldError(
            f"element lives on {f.field.name}, map starts at {curve_map.source.name}")
    return _substitute(f.nums, f.den, curve_map.base_image,
                       curve_map.ext_image)


def _build_maps():
    x2 = Poly([0, 0, 1])
    x3 = Poly([0, 0, 0, 1])
    # E64 quotient of the Fermat quartic:
    # (x, y) -> (u, v) = (2(y^2+1)/x^2, 4y(y^2+1)/x^3)
    p64 = QuotientMap("p64", E64FF, FERMAT4,
                      base_image=FFElem(FERMAT4, [2, 0, 2], x2),
                      ext_image=FFElem(FERMAT4, [0, 4, 0, 4], x3))
    # q: fermat6 -> interC, (x, y) -> (y, v) = (y, x^3)
    q = QuotientMap("q", INTERC, FERMAT6,
                    base_image=FERMAT6.ext_gen(),
                    ext_image=FERMAT6.scalar(x3))
    # r: interC -> e36, (y, v) -> (u, v) = (-y^2, v)
    r = QuotientMap("r", E36FF, INTERC,
                    base_image=INTERC.scalar(Poly([0, 0, -1])),
                    ext_image=INTERC.ext_gen())
    return {"p64": p64, "q": q, "r": r}


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


def _invariant_parts(f: FFElem, d: int, twist: str):
    """nums and den of f rewritten in base^d.

    f is invariant under base |-> zeta_d base exactly when every part is a
    polynomial in base^d: twisting maps the canonical form to a canonical
    form up to the factor zeta_d^(deg den), and if that factor were not 1,
    a power of base would divide den and every numerator."""
    try:
        return ([n.exponent_divide(d) for n in f.nums],
                f.den.exponent_divide(d))
    except ValueError:
        raise SubfieldError(
            f"element is not invariant under {twist}") from None


def project_fermat6_to_interC(f: FFElem) -> FFElem:
    """Rewrite an x -> zeta_3 x invariant element of fermat6 on interC.

    fermat6 elements are sum_k n_k(x) y^k / den(x); invariance makes every
    part a polynomial in x^3 = v, and on interC y is the base variable.
    """
    if f.field is not FERMAT6:
        raise FieldError("expected an element of fermat6")
    nums, den = _invariant_parts(f, 3, "x -> zeta_3 x")
    return _substitute(nums, den, INTERC.ext_gen(), INTERC.base_gen())


def project_interC_to_e36(f: FFElem) -> FFElem:
    """Rewrite a y -> -y invariant element of interC on e36 via u = -y^2."""
    if f.field is not INTERC:
        raise FieldError("expected an element of interC")
    nums, den = _invariant_parts(f, 2, "y -> -y")
    minus_one = CycloNum.from_rational(-1)
    return FFElem(E36FF, [n.scale_var(minus_one) for n in nums],
                  den.scale_var(minus_one))
