"""Elliptic-curve group law over Q(zeta_24), torsion sets, divisors and the
Bloch map with reduction in the restricted Bloch group.

The group-law origin is the image of the Fermat-curve base point: the
2-torsion point (-1, 0) for conductor 36, infinity for conductor 64.  With
x (+) y := x + y - base (chord-tangent law), the published divisor
reductions are reproduced literally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cyclo import CycloNum, ZETA3, SQRT2, I, one, zero


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
    return CycloNum.from_rational(Fraction(x))


@dataclass(frozen=True)
class Curve:
    N: int
    a: CycloNum
    b: CycloNum

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

    def std_mul(self, n: int, p: CurvePoint) -> CurvePoint:
        if n < 0:
            return self.std_mul(-n, self.std_neg(p))
        r = CurvePoint.infinity()
        q = p
        while n:
            if n & 1:
                r = self.std_add(r, q)
            q = self.std_add(q, q)
            n >>= 1
        return r


CURVE36 = Curve(36, zero(), one())
CURVE64 = Curve(64, _cy(-4), zero())


@dataclass(frozen=True)
class GroupLaw:
    curve: Curve
    base: CurvePoint

    def __post_init__(self):
        if not self.curve.contains(self.base):
            raise OffCurveError("group-law origin is not on the curve")
        if not self.curve.std_add(self.base, self.base).infinite:
            raise CurveError("group-law origin must be 2-torsion")

    def _check(self, *pts):
        for p in pts:
            if not self.curve.contains(p):
                raise OffCurveError(f"point {p} not on curve {self.curve.N}")

    def add(self, p: CurvePoint, q: CurvePoint) -> CurvePoint:
        """p (+) q = p + q - base under the standard law."""
        self._check(p, q)
        c = self.curve
        return c.std_add(c.std_add(p, q), c.std_neg(self.base))

    def neg(self, p: CurvePoint) -> CurvePoint:
        # base is 2-torsion, so (-)p = 2*base - p = -p (standard negation)
        self._check(p)
        return self.curve.std_neg(p)

    def sub(self, p: CurvePoint, q: CurvePoint) -> CurvePoint:
        return self.add(p, self.neg(q))

    def mul(self, n: int, p: CurvePoint) -> CurvePoint:
        if n < 0:
            return self.mul(-n, self.neg(p))
        r = self.base
        q = p
        while n:
            if n & 1:
                r = self.add(r, q)
            q = self.add(q, q)
            n >>= 1
        return r

    def order(self, p: CurvePoint, bound: int = 48) -> int:
        """Least n <= bound with n*p = base, or raise."""
        self._check(p)
        q = p
        for n in range(1, bound + 1):
            if q == self.base:
                return n
            q = self.add(q, p)
        raise CurveError(f"order of {p} exceeds bound {bound}")

    def is_two_torsion(self, p: CurvePoint) -> bool:
        return self.add(p, p) == self.base


def law(N: int) -> GroupLaw:
    if N == 36:
        return GroupLaw(CURVE36, CURVE36.point(-1, 0))
    if N == 64:
        return GroupLaw(CURVE64, CurvePoint.infinity())
    raise ValueError("conductor must be 36 or 64")


# named points -------------------------------------------------------------

def named_points(N: int) -> dict:
    """The labelled points used in the conductor-36/64 computations."""
    if N == 36:
        c = CURVE36
        return {
            "O": c.point(-1, 0),
            "P": c.point(0, 1),
            "Q": CurvePoint.infinity(),
            "R": c.point(2, -3),
        }
    if N == 64:
        c = CURVE64
        s_u = 2 + 2 * SQRT2
        s_v = 4 + 4 * SQRT2
        return {
            "O": CurvePoint.infinity(),
            "R": c.point(0, 0),
            "S": c.point(s_u, s_v),
            "T": c.point(2 - 2 * SQRT2, 4 - 4 * SQRT2),
            "P0": c.point(2, 0),
            "P1": c.point(-2, 0),
            "iS": c.point(-s_u, I * s_v),
        }
    raise ValueError("conductor must be 36 or 64")


def torsion_Ef(N: int) -> list:
    """The f-torsion subgroup: 12 points for N=36, 16 points for N=64."""
    lw = law(N)
    pts = named_points(N)
    if N == 36:
        # generated by the three finite 2-torsion points and P = (0, 1)
        gens = [CURVE36.point(-1, 0), CURVE36.point(-ZETA3, 0),
                CURVE36.point(-(ZETA3 * ZETA3), 0), pts["P"]]
        expected = 12
    else:
        gens = [pts["S"], pts["iS"]]
        expected = 16
    group = {lw.base}
    frontier = [lw.base]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = lw.add(cur, g)
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    # closure sanity
    members = sorted(group, key=CurvePoint.sort_key)
    if len(members) != expected:
        raise CurveError(
            f"f-torsion cardinality {len(members)} != expected {expected}")
    for p in members:
        if lw.neg(p) not in group:
            raise CurveError("f-torsion not closed under negation")
    for p in members[:4]:
        for q in members:
            if lw.add(p, q) not in group:
                raise CurveError("f-torsion not closed under addition")
    return members


# divisors and formal sums --------------------------------------------------

class Divisor:
    """Z-linear combination of curve points, canonically merged and sorted."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc = {}
        for p, m in terms:
            if m == 0:
                continue
            acc[p] = acc.get(p, 0) + int(m)
        self.terms = tuple(sorted(
            ((p, m) for p, m in acc.items() if m != 0),
            key=lambda t: t[0].sort_key()))

    def degree(self) -> int:
        return sum(m for _, m in self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __eq__(self, other):
        return isinstance(other, Divisor) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __add__(self, other):
        return Divisor(self.terms + other.terms)

    def __neg__(self):
        return Divisor(tuple((p, -m) for p, m in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __repr__(self):
        return "Divisor(" + " + ".join(f"{m}*{p!r}" for p, m in self.terms) + ")"


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
            if law.is_two_torsion(p):
                continue
            neg = law.neg(p)
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


@dataclass
class RelationContext:
    """Registered Bloch-group relations (formal sums declared zero)."""

    law: GroupLaw
    relations: list = field(default_factory=list)

    def register(self, s: FormalSum):
        if not s.is_zero():
            self.relations.append(s)

    def reduce(self, s: FormalSum) -> FormalSum:
        """Canonical form of s modulo the span of the registered relations.

        Gaussian elimination over Q on the (tiny) space spanned by the
        relation sums, eliminating the lexicographically largest point of
        each pivot relation.
        """
        rows = [dict(r.coeffs) for r in self.relations]
        pivots = []
        for row in rows:
            # eliminate previous pivots from this row
            for pivot_p, pivot_row in pivots:
                c = row.get(pivot_p)
                if c:
                    f = c / pivot_row[pivot_p]
                    for p, q in pivot_row.items():
                        row[p] = row.get(p, Fraction(0)) - f * q
                    row = {p: q for p, q in row.items() if q != 0}
            if row:
                pivot_p = max(row, key=CurvePoint.sort_key)
                pivots.append((pivot_p, row))
        target = dict(s.coeffs)
        for pivot_p, pivot_row in pivots:
            c = target.get(pivot_p)
            if c:
                f = c / pivot_row[pivot_p]
                for p, q in pivot_row.items():
                    target[p] = target.get(p, Fraction(0)) - f * q
        return FormalSum(self.law, list(target.items()))


def beta_map(law: GroupLaw, div_f: Divisor, div_g: Divisor) -> FormalSum:
    """Bloch map: (sum m_i [p_i], sum n_j [q_j]) -> sum m_i n_j [p_i - q_j]."""
    for d, name in ((div_f, "f"), (div_g, "g")):
        if d.degree() != 0:
            raise CurveError(f"divisor of {name} must have degree 0")
    terms = []
    for p, m in div_f:
        for q, n in div_g:
            terms.append((law.sub(p, q), Fraction(m * n)))
    return FormalSum(law, terms)


def steinberg_relation(relctx: RelationContext, div_f: Divisor,
                       div_one_minus_f: Divisor) -> FormalSum:
    """beta(f (x) (1-f)), registered as a zero relation."""
    s = beta_map(relctx.law, div_f, div_one_minus_f)
    relctx.register(s)
    return s


def b3_reduce(s: FormalSum, relctx: RelationContext | None = None) -> FormalSum:
    """Canonical form modulo [p]+[(-)p], 2-torsion classes, and relations."""
    if relctx is None:
        return s  # FormalSum construction already canonicalizes the rest
    return relctx.reduce(s)
