"""Valuations, leading coefficients, tame symbols, and divisors.

Places on the elliptic curves v^2 = m(u) carry the standard uniformizers:
u - u0 at finite points with v != 0, v at the finite 2-torsion points, and
t = u/v at infinity where u = t^-2 (1 + O(t)), v = t^-3 (1 + O(t)).

The order and the leading coefficient of f = a + b*v (a, b rational
functions of u) at a place are closed forms (Silverman, AEC II.1-2): each
summand's leading term comes from root multiplicities found by synthetic
division (`_expand`), and the least order wins (`_leading`).  Only at a
finite point with v != 0 can the two summands cancel, and then the order and
the coefficient come from the norm a^2 - b^2 m, because the conjugate
a - b*v does not vanish to higher order there.  `ord_at` and `tame_symbol`
both read this one rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cyclo import CycloNum
from ..ecdiv import CurvePoint
from .ffield import FFElem, FieldError, FunctionField
from .ratfunc import Poly

_ZERO = CycloNum.from_rational(0)


@dataclass(frozen=True)
class Place:
    """A closed point of the elliptic curve with its uniformizer rule."""

    field: FunctionField  # an elliptic field: field.curve is set
    point: CurvePoint

    def __post_init__(self):
        if self.field.curve is None:
            raise FieldError("places are implemented on the elliptic curves")
        if not self.field.curve.contains(self.point):
            raise FieldError("place is not on the curve")

    @property
    def kind(self) -> str:
        if self.point.infinite:
            return "infinity"
        if not self.point.v:
            return "two_torsion"
        return "finite"


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


def _at_u0(num: Poly, den: Poly, u0: CycloNum):
    """(k, c*(u0)) with num / den = (u - u0)^k c* and c*(u0) finite and
    nonzero; the fraction need not be reduced."""
    kn, vn = _root_split(num, u0)
    kd, vd = _root_split(den, u0)
    return kn - kd, vn * vd.inv()


def _expand(f: FFElem, pl: Place) -> list:
    """Leading terms (order, coefficient) of the nonzero summands c_j(u) v^j
    of f in the uniformizer of the place, with c_j = nums[j] / den =
    (u - u0)^k c*:

      * at infinity u = t^-2 (1 + O(t)) and v = t^-3 (1 + O(t)), so the term
        is (2 (deg den - deg nums[j]) - 3j, lc(nums[j]) / lc(den));
      * at a 2-torsion point u - u0 = t^2 / m'(u0) + O(t^4) and v = t, so it
        is (2k + j, c*(u0) m'(u0)^-k);
      * at any other finite point t = u - u0 and v = v0 + O(t), so it is
        (k, c*(u0) v0^j).
    """
    if f.is_zero():
        raise ZeroDivisionError("valuation of the zero function")
    terms = [(j, n) for j, n in enumerate(f.nums) if not n.is_zero()]
    if pl.kind == "infinity":
        # lc(den) = 1: FFElem keeps its denominator monic
        return [(2 * (f.den.degree - n.degree) - 3 * j, n.leading())
                for j, n in terms]
    u0, v0 = pl.point.u, pl.point.v
    out = []
    for j, n in terms:
        k, val = _at_u0(n, f.den, u0)
        if pl.kind == "two_torsion":
            out.append((2 * k + j,
                        val * pl.field.m.derivative().eval(u0) ** -k))
        else:
            out.append((k, val * v0 if j else val))
    return out


def _leading(f: FFElem, pl: Place):
    """(ord f, leading coefficient of f) at the place, exact in Q(zeta_24).

    At infinity and at 2-torsion points the summand orders differ in parity
    and cannot tie.  At a finite point P = (u0, v0), v0 != 0, both summands
    of f = a + b*v may have the least order k and their leading terms may
    cancel.  Then f = (u - u0)^k (a' + b'*v) with a'(u0) + b'(u0) v0 = 0, and
    the conjugate a - b*v has order k at P with leading coefficient
    -2 b'(u0) v0 != 0.  Their product is the norm N(f) = a^2 - b^2 m, so
    ord f = ord_u0 N(f) - k and lead f = lead N(f) / (-2 b'(u0) v0).
    """
    terms = _expand(f, pl)
    k = min(o for o, _ in terms)
    lead = sum((c for o, c in terms if o == k), _ZERO)
    if lead:
        return k, lead
    norm = f.norm_to_rational_subfield()
    kn, lead_n = _at_u0(norm.num, norm.den, pl.point.u)
    return kn - k, lead_n * (CycloNum.from_rational(-2) * terms[1][1]).inv()


def ord_at(f: FFElem, pl: Place) -> int:
    """Order of vanishing of f = a + b*v (a, b in Q(zeta_24)(u)) at the place."""
    if f.field is not pl.field:
        raise FieldError("element and place live on different curves")
    return _leading(f, pl)[0]


def tame_symbol(f: FFElem, g: FFElem, pl: Place) -> tuple:
    """(ord f, ord g, (-1)^(ord f ord g) (f^ord(g) / g^ord(f))(pl)), the
    symbol exact in Q(zeta_24), from one leading term of each function."""
    m, lf = _leading(f, pl)
    n, lg = _leading(g, pl)
    # the ratio has order 0, so its value is the leading-coefficient ratio
    val = (lf ** n) * (lg ** m).inv()
    if (m * n) % 2:
        val = -val
    return m, n, val


def divisor(f: FFElem, claimed: dict, up_to_two_torsion: bool = False) -> dict:
    """{point: ord f} read at the claimed support, in the claimed order, and
    with up_to_two_torsion=True also at every 2-torsion point not claimed."""
    points = list(claimed)
    if up_to_two_torsion:
        points += [p for p in f.field.curve.two_torsion() if p not in claimed]
    return {p: ord_at(f, Place(f.field, p)) for p in points}


def verify_divisor(f: FFElem, claimed: dict,
                   up_to_two_torsion: bool = False) -> list:
    """Notes on where div(f) and the claimed {point: order} disagree, [] when
    they agree: orders match at the claimed support, the claimed degree is 0,
    and the computed zeros sum to the pole bound from the norm.

    With up_to_two_torsion=True, multiplicities are allowed to be regrouped
    among 2-torsion points (where classes vanish in the Bloch group) as long
    as the regrouped total is preserved and every non-2-torsion multiplicity
    is exact.  This accepts published displays that split a 2-torsion
    multiplicity across equivalent points.
    """
    bad = []
    degree = sum(claimed.values())
    if degree != 0:
        bad.append(f"claimed divisor has degree {degree}, expected 0")
    got = divisor(f, claimed, up_to_two_torsion)
    regrouped = 0
    for point, order in got.items():
        want = claimed.get(point, 0)
        if order == want:
            continue
        if up_to_two_torsion and (point.infinite or not point.v):
            regrouped += order - want
        else:
            bad.append(f"ord at {point!r}: claimed {want}, computed {order}")
    if regrouped:
        bad.append(f"2-torsion regrouping does not balance (net {regrouped})")
    zeros = sum(order for order in got.values() if order > 0)
    bound = f.norm_to_rational_subfield().max_degree()
    if zeros != bound:
        bad.append(f"computed zeros sum to {zeros}, norm pole bound is {bound}")
    return bad
