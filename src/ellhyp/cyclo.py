"""Exact arithmetic in Q(zeta_24), the common coefficient field.

Elements are rational-coefficient vectors of length 8 reduced modulo the
24th cyclotomic polynomial x^8 - x^4 + 1.  The field contains zeta_3, i,
zeta_8 and hence sqrt(2), sqrt(3), sqrt(-3), which covers every algebraic
coordinate appearing downstream.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import mpmath

from .mpnum import ArbComplex, PrecisionContext, _ulp

DEGREE = 8
ORDER = 24


class CycloNum:
    """An element of Q(zeta_24) in canonical reduced form."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > DEGREE:
            raise ValueError("coefficient vector longer than field degree")
        cs += [Fraction(0)] * (DEGREE - len(cs))
        self.coeffs = tuple(cs)

    @staticmethod
    def from_rational(q) -> "CycloNum":
        return CycloNum([Fraction(q)])

    @staticmethod
    def zeta_pow(k: int) -> "CycloNum":
        """zeta_24^k for any integer k."""
        k %= ORDER
        poly = [Fraction(0)] * (k + 1)
        poly[k] = Fraction(1)
        return CycloNum(_reduce(poly))

    def __repr__(self):
        return f"CycloNum({list(self.coeffs)})"

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{i}")
        return " + ".join(parts) if parts else "0"

    def __hash__(self):
        return hash(self.coeffs)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __bool__(self):
        return any(c != 0 for c in self.coeffs)

    def __add__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return CycloNum([a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloNum([-a for a in self.coeffs])

    def __sub__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        prod = [Fraction(0)] * (2 * DEGREE - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b != 0:
                    prod[i + j] += a * b
        return CycloNum(_reduce(prod))

    __rmul__ = __mul__

    def inv(self) -> "CycloNum":
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta_24)")
        # extended Euclid in Q[x] against Phi_24
        r0, r1 = list(_PHI), list(self.coeffs)
        t0, t1 = [Fraction(0)], [Fraction(1)]
        while any(c != 0 for c in r1):
            q, r = _polydivmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, _polysub(t0, _polymul(q, t1))
        # r0 = gcd, a nonzero constant (Phi_24 is irreducible)
        c = _polytrim(r0)
        if len(c) != 1:
            raise ArithmeticError("gcd with Phi_24 not constant")
        inv_c = 1 / c[0]
        return CycloNum(_reduce([ti * inv_c for ti in t0]))

    def __truediv__(self, other):
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = _coerce(other)
        return o * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        result = one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def galois(self, k: int) -> "CycloNum":
        """The automorphism zeta |-> zeta^k, gcd(k, 24) = 1."""
        if math.gcd(k, ORDER) != 1:
            raise ValueError(f"k={k} is not coprime to {ORDER}")
        out = zero()
        for i, c in enumerate(self.coeffs):
            if c != 0:
                out = out + CycloNum.from_rational(c) * CycloNum.zeta_pow(i * k)
        return out

    def conj(self) -> "CycloNum":
        """Complex conjugation (the automorphism zeta |-> zeta^-1)."""
        return self.galois(-1 % ORDER)

    def embed(self, ctx: PrecisionContext) -> ArbComplex:
        """Numerical value at zeta_24 = exp(2 pi i / 24)."""
        with ctx.workprec():
            z = mpmath.expjpi(mpmath.mpf(2) / ORDER)
            acc = mpmath.mpc(0)
            # Horner, fixed order
            for c in reversed(self.coeffs):
                acc = acc * z + mpmath.mpf(c.numerator) / c.denominator
            return ArbComplex(acc, _ulp(abs(acc)) * 64)

    def sort_key(self):
        return tuple((c.numerator, c.denominator) for c in self.coeffs)


_PHI = tuple([Fraction(1), 0, 0, 0, Fraction(-1), 0, 0, 0, Fraction(1)][::-1])
# Phi_24(x) = x^8 - x^4 + 1, stored little-endian: index = exponent.


def _coerce(x):
    if isinstance(x, CycloNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNum.from_rational(x)
    return NotImplemented


def _reduce(poly):
    """Reduce a little-endian coefficient list modulo x^8 = x^4 - 1."""
    poly = list(poly)
    for i in range(len(poly) - 1, DEGREE - 1, -1):
        c = poly[i]
        if c != 0:
            poly[i - 4] += c
            poly[i - 8] -= c
        poly[i] = Fraction(0)
    return poly[:DEGREE]


def _polytrim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _polysub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _polymul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _polydivmod(a, b):
    a = _polytrim(a)
    b = _polytrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(_polytrim(r)) >= len(b):
        r = _polytrim(r)
        d = len(r) - len(b)
        c = r[-1] / b[-1]
        q[d] = c
        for i, bc in enumerate(b):
            r[d + i] -= c * bc
    return q, _polytrim(r)


def zero() -> CycloNum:
    return CycloNum()


def one() -> CycloNum:
    return CycloNum.from_rational(1)


# named constants
ZETA24 = CycloNum.zeta_pow(1)
I = CycloNum.zeta_pow(6)
ZETA3 = CycloNum.zeta_pow(8)
ZETA6 = CycloNum.zeta_pow(4)
ZETA8 = CycloNum.zeta_pow(3)
SQRT2 = CycloNum.zeta_pow(3) + CycloNum.zeta_pow(-3)
SQRT3 = CycloNum.zeta_pow(2) + CycloNum.zeta_pow(-2)
SQRT_MINUS3 = 2 * ZETA3 + 1

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[a-zA-Z_]\w*|\*\*|[-+*/^()])")

_CONSTANTS = {
    "z": ZETA24,
    "zeta24": ZETA24,
    "i": I,
    "zeta3": ZETA3,
    "zeta6": ZETA6,
    "zeta8": ZETA8,
    "sqrt2": SQRT2,
    "sqrt3": SQRT3,
}


def parse_cyclo(text: str) -> CycloNum:
    """Parse expressions like ``1/2 + 3*z^2 - z^7`` into a CycloNum."""
    tokens = _tokenize(text)
    val, pos = _parse_expr(tokens, 0)
    if pos != len(tokens):
        raise ValueError(f"trailing input in cyclo literal: {text!r}")
    return val


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad cyclo literal near {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _parse_expr(tokens, pos):
    sign = 1
    if pos < len(tokens) and tokens[pos] in "+-":
        if tokens[pos] == "-":
            sign = -1
        pos += 1
    val, pos = _parse_term(tokens, pos)
    val = sign * val
    while pos < len(tokens) and tokens[pos] in "+-":
        op = tokens[pos]
        rhs, pos = _parse_term(tokens, pos + 1)
        val = val + rhs if op == "+" else val - rhs
    return val, pos


def _parse_term(tokens, pos):
    val, pos = _parse_power(tokens, pos)
    while pos < len(tokens) and tokens[pos] in ("*", "/"):
        op = tokens[pos]
        rhs, pos = _parse_power(tokens, pos + 1)
        val = val * rhs if op == "*" else val / rhs
    return val, pos


def _parse_power(tokens, pos):
    base, pos = _parse_atom(tokens, pos)
    if pos < len(tokens) and tokens[pos] in ("^", "**"):
        pos += 1
        neg = False
        if pos < len(tokens) and tokens[pos] == "-":
            neg = True
            pos += 1
        if pos >= len(tokens) or not tokens[pos].isdigit():
            raise ValueError("exponent must be an integer literal")
        e = int(tokens[pos])
        pos += 1
        base = base ** (-e if neg else e)
    return base, pos


def _parse_atom(tokens, pos):
    if pos >= len(tokens):
        raise ValueError("unexpected end of cyclo literal")
    t = tokens[pos]
    if t == "(":
        val, pos = _parse_expr(tokens, pos + 1)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise ValueError("unbalanced parenthesis in cyclo literal")
        return val, pos + 1
    if t == "-":
        val, pos = _parse_atom(tokens, pos + 1)
        return -val, pos
    if "/" in t and t[0].isdigit():
        return CycloNum.from_rational(Fraction(t)), pos + 1
    if t.isdigit():
        return CycloNum.from_rational(int(t)), pos + 1
    if t in _CONSTANTS:
        return _CONSTANTS[t], pos + 1
    raise ValueError(f"unknown token {t!r} in cyclo literal")
