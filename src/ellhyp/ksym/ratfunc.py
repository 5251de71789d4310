"""Dense univariate polynomials over Q(zeta_24) and their fractions.

A fraction is kept as numerators over one common denominator, normalised by
``reduce_fraction``: the denominator is monic and has no common factor with
all the numerators.  The form is canonical, so equality is tuple equality,
as for ``CycloNum`` one level down (Cohen, GTM 138, Sec. 3.3).
``ksym.ffield.FFElem`` stores its d coefficients this way, and ``RatFunc``
is the one-numerator case that norms return.
"""

from __future__ import annotations

from ..cyclo import CycloNum, one as cy_one, zero as cy_zero


_ONE = cy_one()


def _cy(x) -> CycloNum:
    if isinstance(x, CycloNum):
        return x
    return CycloNum.from_rational(x)


class Poly:
    """Polynomial with CycloNum coefficients, little-endian, trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_cy(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> "Poly":
        return Poly([_cy(c)])

    @staticmethod
    def var() -> "Poly":
        return Poly([0, 1])

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> CycloNum:
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
        n = max(len(a), len(b))
        return Poly([(a[i] if i < len(a) else cy_zero())
                     + (b[i] if i < len(b) else cy_zero()) for i in range(n)])

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CycloNum):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [cy_zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return Poly(out)

    def __rmul__(self, other):
        return self * _cy(other) if not isinstance(other, Poly) else other * self

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [cy_zero()] * max(0, self.degree - other.degree + 1)
        r = list(self.coeffs)
        lead = other.leading()
        inv_lead = lead if lead == _ONE else lead.inv()
        while len(r) >= len(other.coeffs):
            while r and not r[-1]:
                r.pop()
            if len(r) < len(other.coeffs):
                break
            d = len(r) - len(other.coeffs)
            c = r[-1] * inv_lead
            q[d] = c
            for i, bc in enumerate(other.coeffs):
                r[d + i] = r[d + i] - c * bc
        return Poly(q), Poly(r)

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

    def eval(self, x: CycloNum) -> CycloNum:
        """Horner evaluation."""
        acc = cy_zero()
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
