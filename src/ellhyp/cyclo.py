"""Exact arithmetic in Q(zeta_24), the common coefficient field.

An element is stored as ``(num, den)``: ``num`` is a tuple of 8 Python ints,
the coefficients of 1, z, ..., z^7 modulo the 24th cyclotomic polynomial
x^8 - x^4 + 1, and ``den`` is a positive int with
``gcd(num[0], ..., num[7], den) = 1``.  This is the usual number-field
representation (Cohen, GTM 138, Sec. 4.2).  The form is canonical, so
equality is tuple equality; each operation works on integers and ends in
one gcd normalisation: for two rational operands (``num[1:]`` zero, the
common case downstream) a few integer products and one 2-argument gcd.

The power basis is an integral basis of Z[zeta_24], so each automorphism
zeta |-> zeta^k maps an integer vector to one of the same content, and
``galois`` is a table-driven linear map that needs no normalisation.  The
inverse uses the Galois norm: with p the product of the seven non-trivial
conjugates of x, N(x) = x p is rational and 1/x = p / N(x).

The field contains zeta_3, i, zeta_8 and hence sqrt(2), sqrt(3), sqrt(-3),
which covers every algebraic coordinate appearing downstream.

``parse_expression`` is the one literal parser of the package, one walk over
a whitelist of Python ``ast`` nodes: ``parse_cyclo`` and
``ksym.ffield.ff_parse`` differ only in the atoms they pass it, and
``parse_cyclo_pair`` reads a point ``(u,v)`` through the same parse.
"""

from __future__ import annotations

import ast
import math
import operator
import warnings
from fractions import Fraction

DEGREE = 8
ORDER = 24
# num[1:] of a rational element; a test reads num[4] first, as most
# irrational elements downstream have a z^4 term (zeta_3 = z^4 - 1)
_TAIL = (0,) * (DEGREE - 1)


def _zeta_vectors():
    """The integer vectors of zeta^m, m = 0 .. 23, using z^8 = z^4 - 1."""
    vec = (1,) + _TAIL
    out = []
    for _ in range(ORDER):
        out.append(vec)
        top = vec[-1]
        vec = (-top,) + vec[:3] + (vec[3] + top,) + vec[4:7]
    return tuple(out)


_ZETA_VEC = _zeta_vectors()
# _GALOIS[k][j] is the vector of sigma_k(zeta^j) = zeta^(j k), gcd(k, 24) = 1
_GALOIS = {k: tuple(_ZETA_VEC[j * k % ORDER] for j in range(DEGREE))
           for k in range(ORDER) if math.gcd(k, ORDER) == 1}


class CycloNum:
    """An element num / den of Q(zeta_24) in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > DEGREE:
            raise ValueError("coefficient vector longer than field degree")
        den = math.lcm(*(c.denominator for c in cs))
        num = [c.numerator * (den // c.denominator) for c in cs]
        self.num, self.den = _normal(num + [0] * (DEGREE - len(num)), den)

    @staticmethod
    def _make(num, den: int) -> "CycloNum":
        """num / den from 8 ints and a nonzero int, normalised."""
        x = object.__new__(CycloNum)
        x.num, x.den = _normal(num, den)
        return x

    @staticmethod
    def _raw(num: tuple, den: int) -> "CycloNum":
        """Wrap a pair that is already in canonical form."""
        x = object.__new__(CycloNum)
        x.num, x.den = num, den
        return x

    @staticmethod
    def from_rational(q) -> "CycloNum":
        q = Fraction(q)
        return CycloNum._raw((q.numerator,) + _TAIL, q.denominator)

    @staticmethod
    def zeta_pow(k: int) -> "CycloNum":
        """zeta_24^k for any integer k."""
        return CycloNum._raw(_ZETA_VEC[k % ORDER], 1)

    @property
    def coeffs(self) -> tuple:
        """The 8 coefficients as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.num)

    def _reduced(self) -> tuple:
        """Each coefficient as (numerator, denominator) in lowest terms."""
        out = []
        for n in self.num:
            g = math.gcd(n, self.den)
            out.append((n // g, self.den // g))
        return tuple(out)

    def __repr__(self):
        return f"CycloNum({list(self.coeffs)})"

    def __str__(self):
        parts = []
        for i, (n, d) in enumerate(self._reduced()):
            if n == 0:
                continue
            c = str(n) if d == 1 else f"{n}/{d}"
            if i == 0:
                parts.append(c)
            elif i == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{i}")
        return " + ".join(parts) if parts else "0"

    def __hash__(self):
        return hash((self.num, self.den))

    def __eq__(self, other):
        other = other if type(other) is CycloNum else _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __bool__(self):
        return any(self.num)

    def __add__(self, other):
        o = other if type(other) is CycloNum else _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, da, db = self.num, o.num, self.den, o.den
        if not a[4] and a[1:] == _TAIL == b[1:]:
            return _rational(a[0] * db + b[0] * da, da * db)
        if da == db:
            return CycloNum._make([x + y for x, y in zip(a, b)], da)
        return CycloNum._make([x * db + y * da for x, y in zip(a, b)],
                              da * db)

    __radd__ = __add__

    def __neg__(self):
        return CycloNum._raw(tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = other if type(other) is CycloNum else _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, da, db = self.num, o.num, self.den, o.den
        if not a[4] and a[1:] == _TAIL == b[1:]:
            return _rational(a[0] * db - b[0] * da, da * db)
        if da == db:
            return CycloNum._make([x - y for x, y in zip(a, b)], da)
        return CycloNum._make([x * db - y * da for x, y in zip(a, b)],
                              da * db)

    def __rsub__(self, other):
        o = _coerce(other)
        return o if o is NotImplemented else o - self

    def __mul__(self, other):
        o = other if type(other) is CycloNum else _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, d = self.num, o.num, self.den * o.den
        ra, rb = not a[4] and a[1:] == _TAIL, not b[4] and b[1:] == _TAIL
        if ra or rb:  # a rational factor scales the other's vector
            if ra and rb:
                return _rational(a[0] * b[0], d)
            c, v = (a[0], b) if ra else (b[0], a)
            return CycloNum._make([c * x for x in v], d)
        return CycloNum._make(_convolve(a, b), d)

    __rmul__ = __mul__

    def inv(self) -> "CycloNum":
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta_24)")
        num = self.num
        if num[1:] == _TAIL:
            return CycloNum._make((self.den,) + _TAIL, num[0])
        # Gal = <5, 7, 13>.  Along the tower of fixed fields,
        # y <- y sigma_k(y) ends at N(x) and p collects sigma_k(y), so p is
        # the product of the seven conjugates sigma_k(x), k != 1.
        y, p = num, None
        for k in (5, 7, 13):
            s = _galois(y, k)
            p = s if p is None else _convolve(p, s)
            y = _convolve(y, s)
        if any(y[1:]):
            raise ArithmeticError("Galois norm in Q(zeta_24) not rational")
        # num * p = y[0], so 1 / (num / den) = p * den / y[0]
        return CycloNum._make([c * self.den for c in p], y[0])

    def __truediv__(self, other):
        o = other if type(other) is CycloNum else _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = _coerce(other)
        return o if o is NotImplemented else o * self.inv()

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
        # sigma_k preserves the content of an integer vector, so the
        # result is canonical without a gcd
        return CycloNum._raw(tuple(_galois(self.num, k % ORDER)), self.den)

    def conj(self) -> "CycloNum":
        """Complex conjugation (the automorphism zeta |-> zeta^-1)."""
        return self.galois(-1 % ORDER)

    def sort_key(self):
        return self._reduced()


def _normal(num, den: int):
    """The canonical pair for num / den: content coprime to den, den > 0."""
    g = math.gcd(*num, den)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(num), den
    return tuple(n // g for n in num), den // g


def _rational(n: int, d: int) -> CycloNum:
    """The canonical n / d of Q, d > 0, by one 2-argument gcd."""
    g = math.gcd(n, d)
    return CycloNum._raw((n // g,) + _TAIL, d // g)


def _convolve(a, b) -> list:
    """The product of two integer vectors, reduced by z^8 = z^4 - 1."""
    prod = [0] * (2 * DEGREE - 1)
    nz = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in nz:
                prod[i + j] += x * y
    for i in range(2 * DEGREE - 2, DEGREE - 1, -1):
        c = prod[i]
        if c:
            prod[i - 4] += c
            prod[i - 8] -= c
    return prod[:DEGREE]


def _galois(num, k: int) -> list:
    """sigma_k applied to an integer vector, 0 <= k < 24."""
    out = [0] * DEGREE
    for c, vec in zip(num, _GALOIS[k]):
        if c:
            for i, v in enumerate(vec):
                if v:
                    out[i] += c * v
    return out


def _coerce(x):
    if isinstance(x, CycloNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNum.from_rational(x)
    return NotImplemented


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


def cyclo_atom(token: str):
    """The CycloNum a number or named constant denotes, else None."""
    if token.isdigit():
        return CycloNum.from_rational(int(token))
    return _CONSTANTS.get(token)


def parse_cyclo(text: str) -> CycloNum:
    """Parse expressions like ``1/2 + 3*z^2 - z^7`` into a CycloNum."""
    return parse_expression(text, "cyclo", cyclo_atom)


def parse_cyclo_pair(text: str) -> tuple:
    """``(u,v)``: two cyclo literals inside the text's one enclosing pair of
    parentheses, split at its only comma."""
    def pair(source, call):
        # as the arguments of a call to the prefixed name, the pair's
        # parentheses are the call's, so ((u,v)) and (u),(v) are not pairs;
        # the arguments hold no comma, so a single comma rules out (u,v,)
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.end_col_offset == 1 and len(call.args) == 2
                and not call.keywords and source.count(",") == 1):
            raise ValueError("expected (u,v)")
        return tuple(_walk(arg, source, "cyclo", cyclo_atom)
                     for arg in call.args)
    return _read("f" + text, "point", pair)


# parsing -------------------------------------------------------------------
#
# A literal is a Python expression with ``^`` for ``**``.  One walk over a
# whitelist of its ``ast`` nodes serves Q(zeta_24) and the function fields:
# the caller's ``atom(token)`` gives the value a leaf's source text denotes,
# or None.  Python's precedence holds, so ``/`` is always division and a
# sign binds looser than a power.

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


def parse_expression(text: str, kind: str, atom):
    """Evaluate an arithmetic literal; ``kind`` names it in error messages."""
    return _read(text, kind,
                 lambda source, body: _walk(body, source, kind, atom))


def _read(text: str, kind: str, evaluate):
    """``evaluate(source, body)`` on the normalised text and its tree."""
    # whitespace only separates tokens; "#" would start a comment
    source = " ".join(text.split()).replace("^", "**")
    if "#" in source:
        raise ValueError(f"bad {kind} literal: unexpected '#'")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            body = ast.parse(source, mode="eval").body
        return evaluate(source, body)
    except SyntaxError as exc:
        raise ValueError(f"bad {kind} literal: {exc.msg}") from None
    except RecursionError:
        raise ValueError(f"bad {kind} literal: nested too deeply") from None


def _walk(node, source: str, kind: str, atom):
    """The value of a whitelisted node; any other node is an error."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        base = _walk(node.left, source, kind, atom)
        e = node.right
        neg = isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub)
        digits = ast.get_source_segment(source, e.operand if neg else e)
        if not digits.isdigit():
            raise ValueError("exponent must be an integer literal")
        return base ** (-int(digits) if neg else int(digits))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_walk(node.left, source, kind, atom),
                                      _walk(node.right, source, kind, atom))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_walk(node.operand, source, kind, atom)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
        return _walk(node.operand, source, kind, atom)
    if isinstance(node, (ast.Constant, ast.Name)):
        token = ast.get_source_segment(source, node)
        val = atom(token)
        if val is None:
            raise ValueError(f"unknown token {token!r} in {kind} literal")
        return val
    raise ValueError(f"unexpected {ast.get_source_segment(source, node)!r} "
                     f"in {kind} literal")
