"""Dense univariate polynomials and rational functions over Q(zeta_24)."""

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

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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

    def eval(self, x):
        """Horner evaluation; x may be a CycloNum or anything with * and +."""
        if self.is_zero():
            return cy_zero() if isinstance(x, CycloNum) else 0 * x
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
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


class RatFunc:
    """Reduced fraction of Polys; denominator monic and coprime to numerator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        if den is None:
            den = Poly.const(1)
        elif not isinstance(den, Poly):
            den = Poly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        g = num.gcd(den)
        if not g.is_zero() and g.degree > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lead = den.leading()
        if lead != _ONE:
            lead = lead.inv()
            num = num * lead
            den = den * lead
        self.num = num
        self.den = den

    @staticmethod
    def var() -> "RatFunc":
        return RatFunc(Poly.var())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.num!r} / {self.den!r})"

    def __add__(self, other):
        o = _rf(other)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_rf(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = _rf(other)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _rf(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return _rf(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return (RatFunc(self.den, self.num)) ** (-n)
        return RatFunc(self.num ** n, self.den ** n)

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFunc(self.den, self.num)

    def eval(self, x: CycloNum) -> CycloNum:
        d = self.den.eval(x)
        if not d:
            raise ZeroDivisionError("pole of rational function at evaluation point")
        return self.num.eval(x) * d.inv()

    def scale_var(self, z: CycloNum) -> "RatFunc":
        return RatFunc(self.num.scale_var(z), self.den.scale_var(z))

    def max_degree(self) -> int:
        return max(self.num.degree, self.den.degree)


def _rf(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, Poly):
        return RatFunc(x)
    return RatFunc(Poly.const(x))
