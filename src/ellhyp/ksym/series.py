"""Valuations, local expansions, tame symbols, and divisor verification.

Places on the elliptic curves carry the standard uniformizers: u - u0 at
finite points with v != 0, v at the finite 2-torsion points, and t = u/v at
infinity where u = t^-2 (1 + O(t)), v = t^-3 (1 + O(t)).

Valuations (`ord_at`) are closed forms in f = a + b*v with a, b rational
functions of u, where ord_u0 is a root multiplicity found by synthetic
division:

  * at infinity, ord u = -2 and ord v = -3;
  * at a 2-torsion point (u0, 0), ord(u - u0) = 2 and ord v = 1;
    in both cases ord a and ord b*v differ in parity, so ord f is their min;
  * at a finite point (u0, v0) with v0 != 0, ord f = k = min(ord_u0 a,
    ord_u0 b) unless the unit part vanishes there, and then ord f comes from
    the norm a^2 - b^2 m, because the unit part does not vanish at -P.

Laurent expansions (`LaurentSeries`, `_expand`) remain for the leading
coefficients of the tame symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cyclo import CycloNum
from ..ecdiv import CURVE36, CURVE64, CurvePoint, Divisor
from .ffield import E36FF, E64FF, FFElem, FieldError
from .ratfunc import Poly, RatFunc

_ZERO = CycloNum.from_rational(0)
_ONE = CycloNum.from_rational(1)


class ExpansionDepthError(Exception):
    pass


class LaurentSeries:
    """Truncated Laurent series sum_i coeffs[i] t^(offset+i), known below
    t^(offset+len(coeffs)).  Leading coefficients may be zero (cancellation);
    precision bookkeeping is explicit."""

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset: int, coeffs):
        self.offset = int(offset)
        self.coeffs = [c if isinstance(c, CycloNum) else
                       CycloNum.from_rational(c) for c in coeffs]

    @staticmethod
    def const(c, prec: int) -> "LaurentSeries":
        return LaurentSeries(0, [c] + [_ZERO] * (prec - 1))

    @property
    def end(self) -> int:
        return self.offset + len(self.coeffs)

    def first_nonzero(self):
        """Index into coeffs of the first nonzero term, or None."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def order(self) -> int:
        i = self.first_nonzero()
        if i is None:
            raise ExpansionDepthError(
                "series is zero to the working precision; deepen the expansion")
        return self.offset + i

    def leading_coeff(self) -> CycloNum:
        return self.coeffs[self.first_nonzero()]

    def __add__(self, other):
        o = min(self.offset, other.offset)
        e = min(self.end, other.end)
        if e <= o:
            raise ExpansionDepthError("no overlapping precision in addition")
        out = [_ZERO] * (e - o)
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                k = src.offset + i - o
                if 0 <= k < len(out):
                    out[k] = out[k] + c
        return LaurentSeries(o, out)

    def __neg__(self):
        return LaurentSeries(self.offset, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a0 = self.first_nonzero()
        b0 = other.first_nonzero()
        la, lb = len(self.coeffs), len(other.coeffs)
        # absolute precision of the product
        end = min(self.end + other.offset + (b0 if b0 is not None else lb),
                  other.end + self.offset + (a0 if a0 is not None else la))
        o = self.offset + other.offset
        n = end - o
        if n <= 0:
            raise ExpansionDepthError("no precision left in multiplication")
        out = [_ZERO] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            if i >= n:
                break
            for j, b in enumerate(other.coeffs):
                if i + j >= n:
                    break
                if b:
                    out[i + j] = out[i + j] + a * b
        return LaurentSeries(o, out)

    def inv(self) -> "LaurentSeries":
        i = self.first_nonzero()
        if i is None:
            raise ExpansionDepthError("cannot invert a series that is zero "
                                      "to the working precision")
        unit = self.coeffs[i:]
        n = len(unit)
        lead_inv = unit[0].inv()
        out = [lead_inv] + [_ZERO] * (n - 1)
        for k in range(1, n):
            acc = _ZERO
            for j in range(1, k + 1):
                if unit[j]:
                    acc = acc + unit[j] * out[k - j]
            out[k] = -lead_inv * acc
        return LaurentSeries(-(self.offset + i), out)

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        result = LaurentSeries.const(_ONE, len(self.coeffs))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


@dataclass(frozen=True)
class Place:
    """A closed point of the elliptic curve with its uniformizer rule."""

    field: object  # E36FF or E64FF
    point: CurvePoint

    def __post_init__(self):
        if self.field not in (E36FF, E64FF):
            raise FieldError("places are implemented on the elliptic curves")
        if not self.point.infinite:
            m = self.field.m
            if m.eval(self.point.u) != self.point.v * self.point.v:
                raise FieldError("place is not on the curve")

    @property
    def kind(self) -> str:
        if self.point.infinite:
            return "infinity"
        if not self.point.v:
            return "two_torsion"
        return "finite"

    def uniformizer(self) -> str:
        return {"infinity": "u/v", "two_torsion": "v",
                "finite": f"u - u0"}[self.kind]


def _poly_at_series(p: Poly, s: LaurentSeries, prec: int) -> LaurentSeries:
    acc = LaurentSeries.const(_ZERO, prec)
    for c in reversed(p.coeffs):
        acc = acc * s + LaurentSeries.const(c, prec)
    return acc


def _local_coords(pl: Place, depth: int):
    """(u(t), v(t)) at the place to `depth` relative terms."""
    m = pl.field.m
    if pl.kind == "finite":
        u0, v0 = pl.point.u, pl.point.v
        # t = u - u0, v = sqrt(m(u0 + t)) by Newton from v0
        u = LaurentSeries(0, [u0, _ONE] + [_ZERO] * (depth - 2))
        target = _poly_at_series(m, u, depth)
        v = LaurentSeries.const(v0, depth)
        for _ in range(depth.bit_length() + 2):
            v = (v + target * v.inv()) * LaurentSeries.const(
                CycloNum.from_rational(1) / CycloNum.from_rational(2), depth)
        return u, v
    if pl.kind == "two_torsion":
        u0 = pl.point.u
        # t = v, solve m(u) = t^2 by Newton from u0 (m'(u0) != 0)
        mp = m.derivative()
        t2 = LaurentSeries(2, [_ONE] + [_ZERO] * (depth - 1))
        u = LaurentSeries.const(u0, depth)
        for _ in range(depth.bit_length() + 2):
            f_val = _poly_at_series(m, u, depth) - t2
            u = u - f_val * _poly_at_series(mp, u, depth).inv()
        v = LaurentSeries(1, [_ONE] + [_ZERO] * (depth - 1))
        return u, v
    # infinity: t = u/v, u = t^-2 s, v = t^-3 s with
    # s^3 - s^2 + a t^4 s + b t^6 = 0, s(0) = 1   (m = u^3 + a u + b)
    a = m.coeffs[1] if len(m.coeffs) > 1 else _ZERO
    b = m.coeffs[0] if len(m.coeffs) > 0 else _ZERO
    at4 = LaurentSeries(4, [a] + [_ZERO] * (depth - 1))
    bt6 = LaurentSeries(6, [b] + [_ZERO] * (depth - 1))
    s = LaurentSeries.const(_ONE, depth)
    three = LaurentSeries.const(CycloNum.from_rational(3), depth)
    two = LaurentSeries.const(CycloNum.from_rational(2), depth)
    for _ in range(depth.bit_length() + 2):
        f_val = s * s * s - s * s + at4 * s + bt6
        fp = three * s * s - two * s + at4
        s = s - f_val * fp.inv()
    tm2 = LaurentSeries(-2, [_ONE] + [_ZERO] * (depth - 1))
    tm3 = LaurentSeries(-3, [_ONE] + [_ZERO] * (depth - 1))
    return tm2 * s, tm3 * s


def _expand(f: FFElem, pl: Place, depth: int) -> LaurentSeries:
    u, v = _local_coords(pl, depth)
    acc = None
    vk = LaurentSeries.const(_ONE, depth)
    for k, c in enumerate(f.coeffs):
        if k:
            vk = vk * v
        if c.is_zero():
            continue
        num = _poly_at_series(c.num, u, depth)
        den = _poly_at_series(c.den, u, depth)
        term = num * den.inv() * vk
        acc = term if acc is None else acc + term
    if acc is None:
        raise ZeroDivisionError("valuation of the zero function")
    return acc


def _root_split(p: Poly, u0: CycloNum):
    """(k, q(u0)) with p = (u - u0)^k q and q(u0) != 0, for p != 0.

    Each synthetic division by u - u0 gives the quotient and the remainder
    p(u0); division continues while the remainder is zero."""
    cs = p.coeffs
    k = 0
    while True:
        acc = cs[-1]
        quo = [acc]
        for c in reversed(cs[:-1]):
            acc = acc * u0 + c
            quo.append(acc)
        if acc:
            return k, acc
        cs = quo[-2::-1]
        k += 1


def _ord_u0(r: RatFunc, u0: CycloNum) -> int:
    """Root multiplicity of u0 in the numerator minus that in the denominator."""
    return _root_split(r.num, u0)[0] - _root_split(r.den, u0)[0]


def ord_at(f: FFElem, pl: Place) -> int:
    """Order of vanishing of f = a + b*v (a, b in Q(zeta_24)(u)) at the place.

    Closed forms on v^2 = m(u) (Silverman, AEC II.1-2):
      * at infinity ord u = -2 and ord v = -3, and at a 2-torsion point
        (u0, 0) ord(u - u0) = 2 and ord v = 1.  ord a and ord b*v then have
        different parity, so they cannot cancel: ord f = min(ord a, ord b*v);
      * at a finite point P = (u0, v0) with v0 != 0, u - u0 is a uniformizer
        and v is a unit.  With k = min(ord_u0 a, ord_u0 b), f = (u - u0)^k g
        and g = a' + b'*v is regular at P.  If g(P) != 0 the order is k;
        otherwise g(-P) = -2 b'(u0) v0 != 0, so ord_P g = ord_u0 N(g) with
        N(g) = N(f) / (u - u0)^(2k) the norm a^2 - b^2 m.
    """
    if f.field is not pl.field:
        raise FieldError("element and place live on different curves")
    if f.is_zero():
        raise ZeroDivisionError("valuation of the zero function")
    terms = [(j, c) for j, c in enumerate(f.coeffs) if not c.is_zero()]
    if pl.kind == "infinity":
        return min(2 * (c.den.degree - c.num.degree) - 3 * j for j, c in terms)
    u0 = pl.point.u
    if pl.kind == "two_torsion":
        return min(2 * _ord_u0(c, u0) + j for j, c in terms)
    v0 = pl.point.v
    parts = []  # (j, ord_u0 c, value at u0 of c / (u - u0)^ord)
    for j, c in terms:
        kn, vn = _root_split(c.num, u0)
        kd, vd = _root_split(c.den, u0)
        parts.append((j, kn - kd, vn * vd.inv()))
    k = min(o for _, o, _ in parts)
    g_at_p = _ZERO
    for j, o, val in parts:
        if o == k:
            g_at_p = g_at_p + (val * v0 if j else val)
    if g_at_p:
        return k
    # k + ord_u0 N(g), with ord_u0 N(g) = ord_u0 N(f) - 2k
    return _ord_u0(f.norm_to_rational_subfield(), u0) - k


def _leading(f: FFElem, pl: Place, depth: int = 12, max_depth: int = 400):
    d = depth
    while d <= max_depth:
        try:
            s = _expand(f, pl, d)
            return s.order(), s.leading_coeff()
        except ExpansionDepthError:
            d *= 2
    raise ExpansionDepthError(
        f"expansion depth {max_depth} exceeded at {pl.point!r}")


def tame_symbol(f: FFElem, g: FFElem, pl: Place) -> CycloNum:
    """(-1)^(ord f ord g) (f^ord(g) / g^ord(f))(pl), exact in Q(zeta_24)."""
    m, lf = _leading(f, pl)
    n, lg = _leading(g, pl)
    # the ratio has order 0, so its value is the leading-coefficient ratio
    val = (lf ** n) * (lg ** m).inv()
    if (m * n) % 2:
        val = -val
    return val


def verify_divisor(f: FFElem, claimed: Divisor, report: list | None = None,
                   up_to_two_torsion: bool = False) -> bool:
    """Check div(f) == claimed: orders match at the claimed support, the
    degree is 0, and the claimed poles exhaust the pole bound from the norm.

    With up_to_two_torsion=True, multiplicities are allowed to be regrouped
    among 2-torsion points (where classes vanish in the Bloch group) as long
    as the regrouped total is preserved and every non-2-torsion multiplicity
    is exact.  This accepts published displays that split a 2-torsion
    multiplicity across equivalent points.
    """
    ok = True

    def note(msg):
        nonlocal ok
        ok = False
        if report is not None:
            report.append(msg)

    if claimed.degree() != 0:
        note(f"claimed divisor has degree {claimed.degree()}, expected 0")
    two_torsion_delta = 0
    pos_claimed = 0
    pos_computed = 0
    support = {point: mult for point, mult in claimed}
    if up_to_two_torsion:
        curve = CURVE36 if f.field is E36FF else CURVE64
        for point in curve.two_torsion():
            support.setdefault(point, 0)
    for point, mult in support.items():
        pl = Place(f.field, point)
        got = ord_at(f, pl)
        if got != mult:
            if up_to_two_torsion and _is_two_torsion(f.field, point):
                two_torsion_delta += got - mult
            else:
                note(f"ord at {point!r}: claimed {mult}, computed {got}")
        if mult > 0:
            pos_claimed += mult
        if got > 0:
            pos_computed += got
    if up_to_two_torsion:
        if two_torsion_delta != 0:
            note(f"2-torsion regrouping does not balance "
                 f"(net {two_torsion_delta})")
    bound = f.norm_to_rational_subfield().max_degree()
    pos = pos_computed if up_to_two_torsion else pos_claimed
    if pos != bound:
        note(f"{'computed' if up_to_two_torsion else 'claimed'} zeros sum to "
             f"{pos}, norm pole bound is {bound}")
    return ok


def _is_two_torsion(field, point: CurvePoint) -> bool:
    return point.infinite or not point.v
