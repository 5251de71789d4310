"""Real numerics on Python ints: `Ball`, an integer midpoint and radius in
units of 2^-W, and the kernels E1, Hurwitz zeta, the real AGM and Gamma at
rationals with denominator 1, 2, 3, 4 or 6 (closed forms in pi and one AGM),
each with a radius derived from its operations, so that mpmath's own special
functions stay independent oracles in the tests.  mpmath supplies pi, the
constants of the E1 series, e^-x, the Bernoulli numbers and the complex AGM
of the period lattice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf, mpc


class MpnumError(Exception):
    pass


class DomainError(MpnumError):
    pass


class PrecisionError(MpnumError):
    """Requested precision not achievable within the series-length cap."""


# guard digits carried beyond ctx.digits, and the cap on any series length
GUARD = 12
MAX_TERMS = 10 ** 6
# the most Euler-Maclaurin corrections a Hurwitz zeta value may take: each
# new one costs a Bernoulli number (mpmath.bernfrac), and on a 2-vCPU VM the
# first 500 / 700 / 1000 take 0.9 / 1.9 / 7.7 s
EM_MAX_CORRECTIONS = 700


@dataclass(frozen=True)
class PrecisionContext:
    digits: int = 30

    @property
    def prec_bits(self) -> int:
        return int((self.digits + GUARD) * 3.3219280948873626) + 8

    @property
    def fixed_bits(self) -> int:
        """W, the fraction bits of every `Ball` and integer kernel."""
        return self.prec_bits + 16

    def workprec(self):
        """Context manager setting mpmath working precision."""
        return mpmath.workprec(self.prec_bits)

    @property
    def eps(self) -> mpf:
        return mpf(10) ** (-(self.digits + GUARD))


class Ball:
    """The real interval (mid +- rad) 2^-W, mid and rad ints, rad >= 0.

    Each operation floors its midpoint once and adds that unit to a radius
    that bounds, from the operands' radii, every value the operands' balls
    allow, so a ball holds the exact value of what it computes.  Balls
    combine only at one W; an int or a Fraction enters as its floor, with a
    unit of radius unless that is exact.  The one assumption is `pi`'s:
    mpmath's pi at W + 8 bits is within 2 ulps (Johansson, "Arb: efficient
    arbitrary-precision midpoint-radius interval arithmetic",
    arXiv:1611.02831), so its nearest int is within one unit."""

    __slots__ = ("mid", "rad", "W")

    def __init__(self, mid: int, rad: int, W: int):
        self.mid, self.rad, self.W = mid, rad, W

    @classmethod
    def exact(cls, q, W: int) -> Ball:
        q = Fraction(q)
        mid, rest = divmod(q.numerator << W, q.denominator)
        return cls(mid, 1 if rest else 0, W)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def pi(cls, W: int) -> Ball:
        with mpmath.workprec(W + 8):
            return cls(int(mpmath.nint(mpmath.ldexp(mpmath.pi, W))), 1, W)

    @property
    def val(self) -> mpf:
        """The midpoint, an exact mpf."""
        return mpf((self.mid, -self.W), prec=0)

    @property
    def err(self) -> mpf:
        """The radius, an exact mpf."""
        return mpf((self.rad, -self.W), prec=0)

    def __repr__(self):
        return f"Ball({self.mid}, {self.rad}, {self.W})"

    def _coerce(self, o) -> Ball:
        if isinstance(o, (int, Fraction)):
            return Ball.exact(o, self.W)
        if not isinstance(o, Ball) or o.W != self.W:
            raise TypeError(f"a ball at W = {self.W} meets {o!r}")
        return o

    def __add__(self, other):
        o = self._coerce(other)
        return Ball(self.mid + o.mid, self.rad + o.rad, self.W)

    __radd__ = __add__

    def __neg__(self):
        return Ball(-self.mid, self.rad, self.W)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __mul__(self, other):
        """|xy - mn| <= |m| s + r |n| + r s, over 2^W, plus the floor."""
        o = self._coerce(other)
        m, r, n, s, W = self.mid, self.rad, o.mid, o.rad, self.W
        return Ball(m * n >> W, -(-(abs(m) * s + r * abs(n) + r * s) >> W)
                    + 1, W)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """|x/y - m/n| <= (r |n| + |m| s) / (|n| (|n| - s)), times 2^W,
        plus the floor; a divisor ball that holds 0 raises."""
        o = self._coerce(other)
        m, r, n, s, W = self.mid, self.rad, o.mid, o.rad, self.W
        if abs(n) <= s:
            raise ZeroDivisionError("the divisor's ball holds 0")
        return Ball((m << W) // n, -(-((r * abs(n) + abs(m) * s) << W)
                                     // (abs(n) * (abs(n) - s))) + 1, W)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def root(self, k: int) -> Ball:
        """x^(1/k) for a ball x > 0: v = floor((m 2^((k-1)W))^(1/k)) by
        math.isqrt or by integer Newton from above, which stops at the
        floor; |(1+r)^(1/k) - 1| <= |r| for r > -1 bounds the rest by
        (v + 1) rad / mid."""
        m, r, W = self.mid, self.rad, self.W
        if m <= r:
            raise DomainError("a root needs a ball above 0")
        n = m << (k - 1) * W
        v = math.isqrt(n) if k == 2 else 1 << -(-n.bit_length() // k)
        while k > 2 and (x := ((k - 1) * v + n // v ** (k - 1)) // k) < v:
            v = x
        return Ball(v, -(-(v + 1) * r // m) + 1, W)


# The E1 series is cheaper than the continued fraction below x = 0.12 W ln 2,
# W the fraction bits of the result: timed on both at W = prec + 16, the
# cost ratio crosses 1 at 0.11-0.125 W ln 2 from 30 to 200 digits (checked
# again with the AFE cut at 1/4, whose E1 points start at 3.1).
E1_SERIES_SHARE = 0.12


def upper_incomplete_gamma(x, ctx: PrecisionContext) -> Ball:
    """Upper incomplete gamma Gamma(0, x) = E1(x) for x > 0, the kernel of
    the approximate functional equation that needs more than exp (its
    Gamma(2, x) = e^-x (1 + x) is written out in ``hecke.l_two``): the ball
    of `e1_fixed` at W = fixed_bits + (x + log(x+1))/ln 2 fraction bits, as
    E1(x) > e^-x/(x+1), plus those of x below 1, so that X = x 2^W is exact.
    """
    with ctx.workprec():
        xv = mpf(x)
        if xv < 0:
            raise DomainError("upper_incomplete_gamma requires x >= 0")
        if xv == 0:
            raise DomainError("Gamma(0, 0) diverges")
        xf = float(xv)
        W = (ctx.fixed_bits + int((xf + math.log1p(xf)) / math.log(2)) + 1
             + max(0, -math.frexp(xf)[1]))
        X = int(mpmath.ldexp(xv, W))
    with mpmath.workprec(W - int(xf / math.log(2)) + 16):   # P's bits + 15
        P = int(mpmath.nint(mpmath.ldexp(mpmath.exp(-xv), W)))
    return Ball(*e1_fixed(X, W, (P, 1)), W)


def e1_fixed(X: int, W: int, enx: tuple) -> tuple:
    """(E, R), an integer ball in units of 2^-W around E1(x), x = X 2^-W > 0,
    given enx = (P, R_P), a ball around e^-x 2^W: below x = E1_SERIES_SHARE
    W ln 2 the power series (DLMF 6.6.2), above it the continued fraction
    (DLMF 6.9.1), each on ints at the precision that a few units of 2^-W
    need.  Only the series reads mpmath (euler and log)."""
    x = X / (1 << W)
    if x < E1_SERIES_SHARE * W * math.log(2):
        return _e1_series(X, W, x)
    return _e1_fraction(X, W, x, enx)


def _e1_series(X: int, W: int, x: float) -> tuple:
    """E1(x) = -euler - log x - sum_{k>=1} (-x)^k / (k k!) at wp = W + e + 16
    fraction bits, 2^e >= e^x, since the partial sums reach e^x.

    Each step t_k = -(t_{k-1} X >> W) // k floors twice, by under 2 units
    of 2^-wp, and later steps scale that by t_k/t_m <= e^x (t_m >= 1 for
    m <= x, and the ratios are below 1 past x), so the k terms are off by
    under k (2 e^x + 1) units with G.  Past k = x they alternate and shrink,
    so the last term bounds the remainder; the sum stops at the first one
    below a unit of 2^-W."""
    e = int(x / math.log(2)) + 1
    wp = W + e + 16
    # G at one precision per W, above wp + 16 for every x below the
    # crossover, so that mpmath computes its euler and log constants once
    with mpmath.workprec(W + int(E1_SERIES_SHARE * W) + 48):
        G = int(mpmath.ldexp(mpmath.euler + mpmath.log(mpmath.ldexp(X, -W)),
                             wp))
    t = 1 << wp                     # (-x)^k / k!
    s = k = 0
    while True:
        k += 1
        t = -(t * X >> W) // k
        term = t // k
        s += term
        if (k << W) > X and abs(term) >> (wp - W) == 0:
            break
        if k > MAX_TERMS:
            raise PrecisionError("max_terms exceeded in E1 series")
    err = abs(term) + (3 * (k + 3) << e)
    return (-G - s) >> (wp - W), (err >> (wp - W)) + 2


def _e1_fraction(X: int, W: int, x: float, enx: tuple) -> tuple:
    """E1(x) = e^-x / f, f = x + 1 - 1/(x + 3 - 4/(x + 5 - 9/(...))), whose
    convergents A_k/B_k follow A_k = (x + 2k + 1) A_{k-1} - k^2 A_{k-2}, and
    B_k likewise, from A_-1 = 1, A_0 = x + 1, B_-1 = 0 and B_0 = 1.

    E1(x) e^x = int_0^inf e^-t/(x+t) dt is a Stieltjes function, so A_k and
    B_k are Laguerre-type polynomials in -x with all zeros at x < 0: for
    x > 0 they stay positive, and one that does not means the rounding has
    broken the recurrence.  As E1(x) < e^-x/x, f needs b = W - x/ln 2 bits
    relative (at least 32): the recurrence runs at Wf = b + 32 fraction bits
    of x, rounded down (|d log f/dx| < 1/x), shifts A and B down together
    once B passes Wf + 64 bits, and stops at the first A/B within 2^-b
    relative of the one four steps before; the error after k steps behaves
    like exp(-4 sqrt(k x)) only for k much larger than x, so no formula
    sets k.  E = P B // A, with 20 2^-b E for the fraction (a rule, not a
    bound), R_P B/A for P and a unit per floor in its radius."""
    P, R_P = enx
    b = max(W - int(x / math.log(2)), 32)
    Wf = b + 32
    Xf = (X << Wf) >> W
    A0, A, B0, B = 1 << Wf, Xf + (1 << Wf), 0, 1 << Wf
    k = 0
    while True:
        A4, B4 = A, B
        for k in range(k + 1, k + 5):
            d = Xf + ((2 * k + 1) << Wf)
            A0, A = A, (d * A >> Wf) - k * k * A0
            B0, B = B, (d * B >> Wf) - k * k * B0
        if A <= 0 or B <= 0:
            raise PrecisionError("E1 continued fraction lost a positive sign")
        if abs(A * B4 - A4 * B) < A * B4 >> b:
            break
        shift = max(B.bit_length() - Wf - 64, 0)
        A0, A, B0, B = A0 >> shift, A >> shift, B0 >> shift, B >> shift
        if k > MAX_TERMS:
            raise PrecisionError("max_terms exceeded in E1 continued fraction")
    E = P * B // A
    return E, (20 * E >> b) + R_P * B // A + 3


@functools.lru_cache(maxsize=None)
def _bernoulli(j: int) -> tuple:
    """B_2j as (numerator, denominator) ints, computed once per process."""
    n, d = mpmath.bernfrac(2 * j)
    return int(n), int(d)


@functools.lru_cache(maxsize=None)
def _em_ratio(bits: int, j: int) -> int:
    """rho_j = B_{2j+2} (2j)! / (B_{2j} (2j+2)!) with `bits` fraction bits.

    The Bernoulli part of the ratio of consecutive Euler-Maclaurin
    corrections; each entry is computed on first use."""
    n1, d1 = _bernoulli(j)
    n2, d2 = _bernoulli(j + 1)
    return (n2 * d1 << bits) // (d2 * n1 * (2 * j + 1) * (2 * j + 2))


def em_start(s_max: float, bits: int) -> float:
    """Least x at which the Euler-Maclaurin corrections for exponents up to
    s_max reach the stop of `hurwitz_zeta`, |t_j| <= S 2^-bits, while they
    still decrease.

    The correction ratio is about ((s+2j)/(2 pi x))^2, so with U = 2 pi x the
    corrections shrink by exp(-(U - s - s log(U/s))) in all before turning;
    U solves f(U) = U - s - s log(U/s) - L = 0, L = bits ln 2 + ln s_max,
    whose second term covers the size of the first correction relative to
    S.  f is convex and increasing past s, so Newton's method from U = s + L
    steps past the root once and then falls to it."""
    s, L = s_max, bits * math.log(2) + math.log(s_max)
    U = s + L
    for _ in range(100):
        step = (U - s - s * math.log(U / s) - L) / (1 - s / U)
        U -= step
        if abs(step) <= 1e-12 * U:
            break
    return U / (2 * math.pi) + 1


def hurwitz_zeta(s, a, ctx: PrecisionContext, count: int,
                 weights: list = None) -> list:
    """[(S_i, R_i) for i < count], integer balls in units of 2^-W,
    W = ctx.fixed_bits, around S(s+i, a) = a^(s+i-1) zeta(s+i, a), where
    zeta(s, x) = sum_{n>=0} (n+x)^{-s}, for rational s > 1 and a > 0.
    Euler-Maclaurin at x = a gives, with no power formed,

        S(s, x) = 1/(s-1) + 1/(2x) + sum_{j>=1} t_j,
        t_j = B_{2j}/(2j)! (s)_{2j-1} x^{-2j}.

    For rational s and x every t_j is rational, and t_{j+1} = t_j rho_j
    (s+2j-1)(s+2j) / x^2, so each S runs in fixed point on ints at W + 48
    bits and stops at the first t_J below 2^-prec S.  Because x^{-s} is
    completely monotone, |t_J| bounds the remainder at any stop (Johansson,
    "Rigorous high-precision computation of the Hurwitz zeta function and
    its derivatives", arXiv:1309.2877).  A caller that reads S_i only as
    w_i S_i a^-i 2^-W, w_i = weights[i] in units of 2^-W (the 3F2 tail, with
    w_i = |C_i| + E_i), needs it only to a quarter unit there: S_i stops
    instead at the first |t_J| <= max(2^-prec S, 2^(W+48) a^i / (4 w_i)).
    Each step rounds by a few dozen units of 2^-(W+48) (|1/rho_j| <= 60 and
    (s+2j)^2/x^2 < 60 while the terms decrease), and earlier errors shrink
    with the terms, so

        R_i = ceil((|t_J| + 128 (J+1)^2) 2^-48) + 1,

    the last unit for the one shift down to W bits.  S(s+i, a) > 1/(s+i-1),
    so without weights R_i is relative to its value; the 3F2 tail applies
    the a^-i itself.  Below `em_start(s + count - 1, prec)` the corrections
    turn before the stop, and a PrecisionError says so.
    """
    s0, x = Fraction(s), Fraction(a)
    if s0 <= 1:
        raise DomainError("hurwitz_zeta requires s > 1")
    if x <= 0:
        raise DomainError("hurwitz_zeta requires a > 0")
    if count < 1:
        raise ValueError("count must be >= 1")
    prec = ctx.prec_bits
    wp = ctx.fixed_bits + 48
    xn, xd = x.numerator, x.denominator
    an, ad = 1 << wp, 4             # 2^(W+48) a^i / 4 = an / ad
    out = []
    for i in range(count):
        si = s0 + i
        p, q = si.numerator, si.denominator
        S = (q << wp) // (p - q) + (xd << wp) // (2 * xn)
        t = (p * xd * xd << wp) // (12 * q * xn * xn)
        den = q * q * xn * xn
        loose = an // (ad * max(weights[i], 1)) if weights else 0
        j = 1
        while abs(t) > max(S >> prec, loose):
            S += t
            r = (p + (2 * j - 1) * q) * (p + 2 * j * q) * xd * xd
            nxt = ((t * _em_ratio(wp, j)) >> wp) * r // den
            if abs(nxt) >= abs(t):
                raise PrecisionError("Euler-Maclaurin corrections stopped "
                                     "decreasing before the target")
            t = nxt
            j += 1
            if j > EM_MAX_CORRECTIONS:
                raise PrecisionError(
                    f"a Hurwitz zeta value needs over {EM_MAX_CORRECTIONS} "
                    f"Euler-Maclaurin corrections")
        out.append((S >> 48, -(-(abs(t) + 128 * (j + 1) ** 2) >> 48) + 1))
        an, ad = an * xn, ad * xd
    return out


def agm(a, b, ctx: PrecisionContext) -> tuple:
    """(value, err) of the arithmetic-geometric mean with the right-choice
    branch rule; the value is an mpc."""
    with ctx.workprec():
        av = mpc(a)
        bv = mpc(b)
        if av == 0 or bv == 0:
            raise DomainError("agm requires nonzero arguments")
        eps = ctx.eps
        max_iter = int(math.log2(ctx.digits + GUARD)) + 64
        for _ in range(max_iter):
            if abs(av - bv) <= eps * abs(av):
                break
            an = (av + bv) / 2
            g = mpmath.sqrt(av * bv)
            if abs(an - g) > abs(an + g):
                g = -g
            av, bv = an, g
        else:
            raise PrecisionError("AGM iteration failed to converge")
        v = (av + bv) / 2
        return v, abs(v) * eps * 10 + mpmath.ldexp(abs(v) + 1,
                                                   4 - ctx.prec_bits)


def _real_agm(b: Ball) -> Ball:
    """AGM(1, b) for a ball b > 0, on ints at b's W.

    Each step floors both means, so a_n >= b_n after it, and as M(a+1, b+1)
    <= (1 + 1/min(a, b)) M(a, b), its floors take under max/min units off M.
    Past the last step b_n <= M(a_n, b_n) <= a_n.  M is homogeneous of
    degree 1 and increasing, so b dM/db <= M, and M/b falls as b grows: b's
    radius moves M by at most M r_b / (b - r_b)."""
    a, g, lost = 1 << b.W, b.mid, 0
    for _ in range(64):
        a, g = (a + g) >> 1, math.isqrt(a * g)
        lost += -(-a // g)
        if a - g <= 1:
            break
    else:
        raise PrecisionError("AGM iteration failed to converge")
    top = a + lost
    return Ball(g, top - g + -(-top * b.rad // (b.mid - b.rad)), b.W)


@functools.lru_cache(maxsize=None)
def _gamma_agm(den: int, digits: int) -> Ball:
    """Gamma(1/4) (den = 4) or Gamma(1/3) (den = 3) from one AGM, once per
    precision (Borwein and Zucker, IMA J. Numer. Anal. 12 (1992) 519-526):

        Gamma(1/4)^2 = (2 pi)^(3/2) / AGM(1, sqrt 2),
        Gamma(1/3)^3 = 2^(7/3) pi K / 3^(1/4),  K = pi / (2 AGM(1, k')),

    with k' = (sqrt 6 + sqrt 2) / 4 = cos(pi/12): K is the complete elliptic
    integral at the singular value sin(pi/12)."""
    W = PrecisionContext(digits).fixed_bits
    pi, sqrt2 = Ball.pi(W), Ball.exact(2, W).root(2)
    if den == 4:
        return (pi * 2 * (pi * 2).root(2) / _real_agm(sqrt2)).root(2)
    K = pi / (_real_agm((Ball.exact(6, W).root(2) + sqrt2) / 4) * 2)
    return (Ball.exact(128, W).root(3) * pi * K
            / Ball.exact(3, W).root(2).root(2)).root(3)


def rational_gamma(q, ctx: PrecisionContext) -> Ball:
    """Gamma(q) for rational q with denominator d = 1, 2, 3, 4 or 6.

    q = r + n with r in (0, 1].  Gamma(1) = 1, Gamma(1/2) = sqrt(pi),
    Gamma(1/3) and Gamma(1/4) from `_gamma_agm`, Gamma(1/6) =
    2^(-1/3) (3/pi)^(1/2) Gamma(1/3)^2, and Gamma(1 - 1/d) by reflection,
    pi / sin(pi/d) = 2 pi / sqrt(12/d - 1); then Gamma(q+1) = q Gamma(q)
    moves r to q by one exact rational factor."""
    q = Fraction(q)
    d = q.denominator
    if d not in (1, 2, 3, 4, 6) or (d == 1 and q <= 0):
        raise DomainError(f"Gamma({q}): a pole, or a denominator other than "
                          f"1, 2, 3, 4 and 6")
    n = math.ceil(q) - 1
    r = q - n
    W = ctx.fixed_bits
    pi = Ball.pi(W)
    if d == 1:
        g = Ball.exact(1, W)
    elif d == 2:
        g = pi.root(2)
    else:
        g = _gamma_agm(4 if d == 4 else 3, ctx.digits)
        if d == 6:
            g = (Ball.exact(Fraction(1, 2), W).root(3) * (3 / pi).root(2)
                 * g * g)
        if r.numerator > 1:
            g = pi * 2 / (Ball.exact(12 // d - 1, W).root(2) * g)
    if n >= 0:
        return g * math.prod(r + j for j in range(n))
    return g / math.prod(r - j for j in range(1, 1 - n))


def beta(a, b, ctx: PrecisionContext) -> Ball:
    """B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b) for rationals a, b whose
    Gamma values `rational_gamma` takes (it raises at a pole)."""
    return (rational_gamma(a, ctx) * rational_gamma(b, ctx)
            / rational_gamma(a + b, ctx))
