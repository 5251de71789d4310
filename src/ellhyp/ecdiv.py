"""Elliptic-curve group law over Q(zeta_24), torsion sets, divisors and the
Bloch map with reduction in the restricted Bloch group.

The group-law origin is the image of the Fermat-curve base point: the
2-torsion point (-1, 0) for conductor 36, infinity for conductor 64.  With
x (+) y := x + y - base (chord-tangent law), the published divisor
reductions are reproduced literally.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CycloNum, ZETA3, one, zero


class CurveError(Exception):
    pass


class OffCurveError(CurveError):
    pass


class CurvePoint:
    """Projective point on y^2 = x^3 + a x + b with Q(zeta_24) coordinates."""

    __slots__ = ("u", "v", "infinite")

    def __init__(self, u=None, v=None, infinite=False):
        self.infinite = bool(infinite)
        if self.infinite:
            self.u = self.v = None
        else:
            self.u = _cy(u)
            self.v = _cy(v)

    @staticmethod
    def infinity() -> "CurvePoint":
        return CurvePoint(infinite=True)

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.infinite or other.infinite:
            return self.infinite == other.infinite
        return self.u == other.u and self.v == other.v

    def __hash__(self):
        if self.infinite:
            return hash("inf")
        return hash((self.u, self.v))

    def __repr__(self):
        if self.infinite:
            return "CurvePoint(inf)"
        return f"CurvePoint({self.u}, {self.v})"

    def sort_key(self):
        # infinity smallest, then lexicographic on the rational coordinates
        if self.infinite:
            return (0,)
        return (1,) + self.u.sort_key() + self.v.sort_key()


def _cy(x) -> CycloNum:
    if isinstance(x, CycloNum):
        return x
    return CycloNum.from_rational(x)


@dataclass(frozen=True)
class Curve:
    """y^2 = u^3 + a u + b with its group-law origin and f-torsion data.

    E_f contains every 2-torsion point (2 divides f on both curves); with
    the named claims.json points in ``torsion_names`` they generate it."""
    N: int
    a: CycloNum
    b: CycloNum
    roots: tuple          # exact roots of the cubic, largest real first
    base: CurvePoint      # the group-law origin
    torsion_names: tuple  # claims.json points that generate E_f with E[2]
    torsion_order: int    # |E_f| = N(f)

    def rhs(self, u: CycloNum) -> CycloNum:
        return u * u * u + self.a * u + self.b

    def contains(self, p: CurvePoint) -> bool:
        if p.infinite:
            return True
        return p.v * p.v == self.rhs(p.u)

    def point(self, u, v) -> CurvePoint:
        p = CurvePoint(u, v)
        if not self.contains(p):
            raise OffCurveError(f"({p.u}, {p.v}) is not on curve {self.N}")
        return p

    def two_torsion(self) -> list:
        """Infinity and the points (r, 0), r a root of the cubic."""
        return [CurvePoint.infinity()] + [CurvePoint(r, 0) for r in self.roots]

    def std_neg(self, p: CurvePoint) -> CurvePoint:
        if p.infinite:
            return p
        return CurvePoint(p.u, -p.v)

    def std_add(self, p: CurvePoint, q: CurvePoint) -> CurvePoint:
        """Chord-tangent addition with origin at infinity."""
        if p.infinite:
            return q
        if q.infinite:
            return p
        if p.u == q.u:
            if p.v == -q.v:
                return CurvePoint.infinity()
            # doubling
            lam = (3 * p.u * p.u + self.a) / (2 * p.v)
        else:
            lam = (q.v - p.v) / (q.u - p.u)
        x3 = lam * lam - p.u - q.u
        y3 = lam * (p.u - x3) - p.v
        return CurvePoint(x3, y3)


# u^3 + 1 = (u+1)(u+zeta3)(u+zeta3^2) and u^3 - 4u = (u-2) u (u+2)
_R36 = (_cy(-1), -ZETA3, -(ZETA3 * ZETA3))
CURVE36 = Curve(36, zero(), one(), _R36, CurvePoint(_R36[0], 0), ("P",), 12)
CURVE64 = Curve(64, _cy(-4), zero(), (_cy(2), _cy(0), _cy(-2)),
                CurvePoint.infinity(), ("S", "iS"), 16)

CURVES = {36: CURVE36, 64: CURVE64}


def curve(N: int) -> Curve:
    try:
        return CURVES[N]
    except KeyError:
        raise ValueError("conductor must be 36 or 64") from None


@dataclass(frozen=True)
class GroupLaw:
    """x (+) y = x + y - base on a curve, base its 2-torsion origin.

    The law works on points already on the curve: they are checked where
    they enter (``Curve.point``, ``ksym.Place``), and the chord-tangent law
    keeps them there."""
    curve: Curve

    def __post_init__(self):
        if not self.curve.contains(self.base):
            raise OffCurveError("group-law origin is not on the curve")
        if not self.curve.std_add(self.base, self.base).infinite:
            raise CurveError("group-law origin must be 2-torsion")

    @property
    def base(self) -> CurvePoint:
        return self.curve.base

    def add(self, p: CurvePoint, q: CurvePoint) -> CurvePoint:
        """p (+) q = p + q - base under the standard law."""
        c = self.curve
        return c.std_add(c.std_add(p, q), c.std_neg(self.base))

    def neg(self, p: CurvePoint) -> CurvePoint:
        # base is 2-torsion, so (-)p = 2*base - p = -p (standard negation)
        return self.curve.std_neg(p)

    def sub(self, p: CurvePoint, q: CurvePoint) -> CurvePoint:
        return self.add(p, self.neg(q))


@functools.cache
def law(N: int) -> GroupLaw:
    return GroupLaw(curve(N))


def torsion_generators(N: int) -> list:
    """Generators of the f-torsion subgroup, the group-law origin excluded:
    the other 2-torsion points and the curve's named torsion points."""
    from . import claims  # claims imports this module; read its points late
    c = curve(N)
    return ([p for p in c.two_torsion() if p != c.base]
            + [claims.point(N, name) for name in c.torsion_names])


@functools.cache
def _closure(N: int) -> tuple:
    """(members, sums): the f-torsion subgroup, the closure of the origin
    under adding ``torsion_generators(N)``, sorted, and the table
    {(p, g): p (+) g} of every member p and generator g, which the closure
    fills as it pops each member once; computed once per curve."""
    lw = law(N)
    gens = torsion_generators(N)
    group = {lw.base}
    frontier = [lw.base]
    sums = {}
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = sums[cur, g] = lw.add(cur, g)
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    # closure sanity
    members = tuple(sorted(group, key=CurvePoint.sort_key))
    if len(members) != lw.curve.torsion_order:
        raise CurveError(f"f-torsion cardinality {len(members)} != expected "
                         f"{lw.curve.torsion_order}")
    for p in members:
        if lw.neg(p) not in group:
            raise CurveError("f-torsion not closed under negation")
    for p in members[:4]:
        for q in members:
            if lw.add(p, q) not in group:
                raise CurveError("f-torsion not closed under addition")
    return members, sums


def torsion_Ef(N: int) -> tuple:
    """The f-torsion subgroup (12 points for N=36, 16 for N=64), sorted."""
    return _closure(N)[0]


def torsion_sums(N: int) -> dict:
    """The closure's {(p, g): p (+) g}, g in ``torsion_generators(N)``."""
    return _closure(N)[1]


# formal sums and the Bloch map ---------------------------------------------

class FormalSum:
    """Q-linear combination of points, canonical modulo [p] + [(-)p] = 0.

    Classes of 2-torsion points vanish; for the rest the representative is
    the lexicographically smaller of {p, (-)p} and the coefficient carries
    the sign.
    """

    __slots__ = ("law", "coeffs")

    def __init__(self, law: GroupLaw, terms=()):
        self.law = law
        acc = {}
        for p, q in terms:
            q = Fraction(q)
            if q == 0:
                continue
            neg = law.neg(p)
            if neg == p:  # p (+) p = base: a 2-torsion class
                continue
            if neg.sort_key() < p.sort_key():
                p, q = neg, -q
            acc[p] = acc.get(p, Fraction(0)) + q
        self.coeffs = {p: q for p, q in acc.items() if q != 0}

    def items(self):
        return sorted(self.coeffs.items(), key=lambda t: t[0].sort_key())

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, FormalSum) and self.coeffs == other.coeffs)

    def __add__(self, other):
        return FormalSum(self.law, list(self.coeffs.items())
                         + list(other.coeffs.items()))

    def __rmul__(self, q):
        return FormalSum(self.law, [(p, Fraction(q) * c)
                                    for p, c in self.coeffs.items()])

    def __neg__(self):
        return (-1) * self

    def __sub__(self, other):
        return self + (-other)

    def __repr__(self):
        if self.is_zero():
            return "FormalSum(0)"
        return "FormalSum(" + " + ".join(
            f"{q}*[{p!r}]" for p, q in self.items()) + ")"


def beta_map(law: GroupLaw, div_f: dict, div_g: dict) -> FormalSum:
    """Bloch map: (sum m_i [p_i], sum n_j [q_j]) -> sum m_i n_j [p_i - q_j],
    on divisors given as {point: multiplicity}; zero entries add nothing."""
    for d, name in ((div_f, "f"), (div_g, "g")):
        if sum(d.values()) != 0:
            raise CurveError(f"divisor of {name} must have degree 0")
    return FormalSum(law, [(law.sub(p, q), Fraction(m * n))
                           for p, m in div_f.items() if m
                           for q, n in div_g.items() if n])


def _clear(row: dict, pivots: list) -> dict:
    """row, a dict {point: coefficient}, minus the multiple of each pivot row
    in turn that zeroes it at that row's pivot point."""
    for pivot_p, pivot_row in pivots:
        c = row.get(pivot_p)
        if c:
            f = c / pivot_row[pivot_p]
            for p, q in pivot_row.items():
                row[p] = row.get(p, Fraction(0)) - f * q
    return {p: q for p, q in row.items() if q != 0}


def b3_reduce(s: FormalSum, relations=()) -> FormalSum:
    """Canonical form of s modulo [p]+[(-)p], 2-torsion classes and the span
    of the formal sums in `relations`.

    Gaussian elimination over Q on the (tiny) space the relations span: each
    relation, in the given order, is cleared of the earlier pivots, and its
    lexicographically largest point becomes its pivot; then s is cleared of
    every pivot."""
    pivots = []
    for r in relations:
        row = _clear(dict(r.coeffs), pivots)
        if row:
            pivots.append((max(row, key=CurvePoint.sort_key), row))
    return FormalSum(s.law, _clear(dict(s.coeffs), pivots).items())
