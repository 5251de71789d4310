"""Dense univariate polynomials and fractions of them over Q(zeta_24).

``Poly`` is the one polynomial type of ``ksym``.  Its coefficients are
``CycloNum`` for function-field numerators and norms, or ``FFElem`` for the
Rosset-Tate polynomials over a function field; the arithmetic only asks the
coefficients for +, -, *, ==, ``inv`` and truth, and a zero it needs comes
from a coefficient.

A fraction is kept as numerators over one common denominator, normalised by
``reduce_fraction``: the denominator is monic and has no common factor with
all the numerators.  The form is canonical, so equality is tuple equality,
as for ``CycloNum`` one level down (Cohen, GTM 138, Sec. 3.3).
``ksym.ffield.FFElem`` stores its d coefficients this way, and ``RatFunc``
is the one-numerator case that norms return.
"""

from __future__ import annotations

from fractions import Fraction

from ..cyclo import CycloNum, one as cy_one


_ONE = cy_one()


def _coeff(c):
    """A coefficient as stored: literal ints and Fractions become CycloNum."""
    if type(c) is CycloNum:  # the common case; isinstance on Fraction is slow
        return c
    if isinstance(c, (int, Fraction)):
        return CycloNum.from_rational(c)
    return c


def _zero_filled(cs: list, c) -> list:
    """cs with every slot that received no term (None) set to c - c, the
    zero of the coefficient ring."""
    if any(s is None for s in cs):
        zero = c - c
        cs = [zero if s is None else s for s in cs]
    return cs


class Poly:
    """Polynomial with CycloNum or FFElem coefficients, little-endian,
    trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> "Poly":
        return Poly([c])

    @staticmethod
    def var() -> "Poly":
        return Poly([0, 1])

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [None] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    s = out[i + j]
                    out[i + j] = x * y if s is None else s + x * y
        return Poly(_zero_filled(out, a[-1]))

    __rmul__ = __mul__

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b = other.coeffs
        q = [None] * max(0, len(self.coeffs) - len(b) + 1)
        r = list(self.coeffs)
        lead = b[-1]
        inv_lead = lead if lead == _ONE else lead.inv()
        while len(r) >= len(b):
            while r and not r[-1]:
                r.pop()
            if len(r) < len(b):
                break
            d = len(r) - len(b)
            c = r[-1] * inv_lead
            q[d] = c
            for i, bc in enumerate(b):
                r[d + i] = r[d + i] - c * bc
        return Poly(_zero_filled(q, lead)), Poly(r)

    def gcd(self, other) -> "Poly":
        """Monic gcd (zero only for gcd(0, 0)).

        Euclid with every divisor made monic: the monic gcd is unique, and
        rescaling keeps the coefficients from swelling.  A nonzero constant
        remainder means the inputs are coprime."""
        a, b = self, other
        while not b.is_zero():
            if b.degree == 0:
                return Poly.const(1)
            b = b.monic()
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def monic(self) -> "Poly":
        if self.is_zero() or self.coeffs[-1] == _ONE:
            return self
        return self * self.leading().inv()

    def eval(self, x):
        """Horner evaluation at x, a CycloNum or an FFElem; the value lies
        in x's ring."""
        acc = x - x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def scale_var(self, z: CycloNum) -> "Poly":
        """p(z * x)."""
        out = []
        zk = cy_one()
        for c in self.coeffs:
            out.append(c * zk)
            zk = zk * z
        return Poly(out)

    def exponent_divide(self, d: int) -> "Poly":
        """p(x) with only exponents divisible by d, rewritten in w = x^d."""
        out = []
        for i, c in enumerate(self.coeffs):
            if i % d:
                if c:
                    raise ValueError(
                        f"exponent {i} not divisible by {d} in exponent division")
            else:
                out.append(c)
        return Poly(out)


def reduce_fraction(nums, den: Poly):
    """The canonical form of nums[k] / den: (nums', den') with den' monic and
    gcd(den', *nums') = 1.

    One gcd chain runs over den and the nonzero numerators and stops once it
    reaches a constant, which is the usual outcome after one or two steps."""
    if den.is_zero():
        raise ZeroDivisionError("fraction with zero denominator")
    g = den
    for n in nums:
        if g.degree == 0:
            break
        if not n.is_zero():
            g = g.gcd(n)
    if g.degree > 0:
        nums = [n.divmod(g)[0] for n in nums]
        den = den.divmod(g)[0]
    lead = den.leading()
    if lead != _ONE:
        lead = lead.inv()
        nums = [n * lead for n in nums]
        den = den * lead
    return tuple(nums), den


class RatFunc:
    """A value num / den of Q(zeta_24)(x) in canonical form (monic den,
    gcd(num, den) = 1): the norm of a function-field element to its base
    field.  Arithmetic happens on FFElem, so a RatFunc is only read."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        (self.num,), self.den = reduce_fraction((num,), den)

    @staticmethod
    def _raw(num: Poly, den: Poly) -> "RatFunc":
        """Wrap a pair that is already in canonical form."""
        x = object.__new__(RatFunc)
        x.num, x.den = num, den
        return x

    def __repr__(self):
        return f"RatFunc({self.num!r} / {self.den!r})"

    def max_degree(self) -> int:
        return max(self.num.degree, self.den.degree)
