"""Arbitrary-precision real/complex kernel with conservative error tracking.

Backed by mpmath's mpf/mpc for raw arithmetic; all special functions here
(gamma, incomplete gamma, Hurwitz zeta, AGM, Beta) are computed by our own
series/iterations so that mpmath's implementations stay available as
independent oracles in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf, mpc


class MpnumError(Exception):
    pass


class GammaPoleError(MpnumError):
    """Gamma evaluated at a nonpositive integer."""


class DomainError(MpnumError):
    pass


class PrecisionError(MpnumError):
    """Requested precision not achievable within the series-length cap."""


@dataclass(frozen=True)
class PrecisionContext:
    digits: int = 30
    guard: int = 12
    max_terms: int = 10 ** 6

    def __post_init__(self):
        if self.guard < 10:
            raise ValueError("guard must be >= 10")
        if self.max_terms < 10 ** 4:
            raise ValueError("max_terms must be >= 10**4")

    @property
    def prec_bits(self) -> int:
        return int((self.digits + self.guard) * 3.3219280948873626) + 8

    def workprec(self):
        """Context manager setting mpmath working precision."""
        return mpmath.workprec(self.prec_bits)

    @property
    def eps(self) -> mpf:
        return mpf(10) ** (-(self.digits + self.guard))

    @property
    def target_eps(self) -> mpf:
        return mpf(10) ** (-self.digits)


def _err_of(x) -> mpf:
    if isinstance(x, (ArbReal, ArbComplex)):
        return x.err
    return mpf(0)


def _val_of(x):
    if isinstance(x, (ArbReal, ArbComplex)):
        return x.val
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return x


def _ulp(v) -> mpf:
    return abs(mpf(2)) ** (-mpmath.mp.prec + 4) * (abs(v) + 1)


class ArbReal:
    """Real number with an absolute error estimate (not a certified bound)."""

    __slots__ = ("val", "err")

    def __init__(self, val, err=0):
        if isinstance(val, Fraction):
            val = mpf(val.numerator) / val.denominator
        self.val = mpf(val)
        self.err = mpf(err)
        if not mpmath.isfinite(self.err) or self.err < 0:
            raise ValueError("error estimate must be finite and nonnegative")

    def __repr__(self):
        return f"ArbReal({self.val!r}, err={self.err!r})"

    def __float__(self):
        return float(self.val)

    def _coerce(self, other):
        if isinstance(other, ArbReal):
            return other
        if isinstance(other, (int, Fraction)) or isinstance(other, mpf):
            return ArbReal(other)
        if isinstance(other, float):
            return ArbReal(mpf(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        v = self.val + o.val
        return ArbReal(v, self.err + o.err + _ulp(v))

    __radd__ = __add__

    def __neg__(self):
        return ArbReal(-self.val, self.err)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        v = self.val * o.val
        err = (abs(self.val) * o.err + abs(o.val) * self.err
               + self.err * o.err + _ulp(v))
        return ArbReal(v, err)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.val == 0:
            raise ZeroDivisionError("ArbReal division by zero")
        v = self.val / o.val
        err = (self.err / abs(o.val)
               + abs(self.val) * o.err / (o.val * o.val)
               + _ulp(v))
        return ArbReal(v, err)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def sqrt(self):
        if self.val < 0:
            raise DomainError("sqrt of negative ArbReal")
        v = mpmath.sqrt(self.val)
        err = self.err / (2 * v) if v > 0 else mpmath.sqrt(self.err)
        return ArbReal(v, err + _ulp(v))

    def __abs__(self):
        return ArbReal(abs(self.val), self.err)


class ArbComplex:
    """Complex analogue of ArbReal; err bounds the modulus of the error."""

    __slots__ = ("val", "err")

    def __init__(self, val, err=0):
        if isinstance(val, ArbReal):
            err = max(mpf(err), val.err)
            val = val.val
        if isinstance(val, Fraction):
            val = mpf(val.numerator) / val.denominator
        self.val = mpc(val)
        self.err = mpf(err)

    def __repr__(self):
        return f"ArbComplex({self.val!r}, err={self.err!r})"

    @property
    def real(self):
        return ArbReal(self.val.real, self.err)

    @property
    def imag(self):
        return ArbReal(self.val.imag, self.err)

    def _coerce(self, other):
        if isinstance(other, ArbComplex):
            return other
        if isinstance(other, (int, float, Fraction, mpf, mpc, ArbReal)):
            return ArbComplex(_val_of(other), _err_of(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        v = self.val + o.val
        return ArbComplex(v, self.err + o.err + _ulp(abs(v)))

    __radd__ = __add__

    def __neg__(self):
        return ArbComplex(-self.val, self.err)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        v = self.val * o.val
        err = (abs(self.val) * o.err + abs(o.val) * self.err
               + self.err * o.err + _ulp(abs(v)))
        return ArbComplex(v, err)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.val == 0:
            raise ZeroDivisionError("ArbComplex division by zero")
        v = self.val / o.val
        m = abs(o.val)
        err = self.err / m + abs(self.val) * o.err / (m * m) + _ulp(abs(v))
        return ArbComplex(v, err)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o / self

    def __abs__(self):
        return ArbReal(abs(self.val), self.err)


def _is_nonpositive_integer(z: mpc) -> bool:
    if z.imag != 0:
        return False
    r = z.real
    return r <= 0 and r == mpmath.floor(r)


def _stirling_loggamma(z: mpc, ctx: PrecisionContext) -> mpc:
    """log Gamma via the Stirling asymptotic series after an upward shift.

    Requires Re(z) > 0.  The shift threshold scales with the working
    precision so the asymptotic series reaches the target accuracy before
    its terms start growing.
    """
    P = ctx.digits + ctx.guard
    threshold = mpf(max(10, int(0.4 * P) + 6))
    shift_prod = mpc(1)
    n_shift = 0
    while abs(z) < threshold:
        shift_prod *= z
        z = z + 1
        n_shift += 1
        if n_shift > 10 * P + 100:
            raise PrecisionError("gamma argument shift failed to terminate")
    # ln Gamma(z) ~ (z-1/2) ln z - z + ln(2*pi)/2 + sum B_2n/(2n(2n-1) z^(2n-1))
    res = (z - mpf(1) / 2) * mpmath.log(z) - z + mpmath.log(2 * mpmath.pi) / 2
    zinv2 = 1 / (z * z)
    term_pow = 1 / z
    eps = ctx.eps
    prev = mpf("inf")
    n = 1
    while True:
        b = mpmath.bernoulli(2 * n)
        term = b / (2 * n * (2 * n - 1)) * term_pow
        t = abs(term)
        if t > prev:
            raise PrecisionError("Stirling series diverging before target accuracy")
        res += term
        if t < eps * max(abs(res), mpf(1)):
            break
        prev = t
        term_pow *= zinv2
        n += 1
        if 2 * n > ctx.max_terms:
            raise PrecisionError("max_terms exceeded in Stirling series")
    return res - mpmath.log(shift_prod)


def gamma(z, ctx: PrecisionContext) -> ArbComplex:
    """Gamma function for complex z (poles at nonpositive integers)."""
    with ctx.workprec():
        zv = mpc(_val_of(z))
        if _is_nonpositive_integer(zv):
            raise GammaPoleError(f"gamma pole at {zv}")
        if zv.real >= mpf(1) / 2:
            val = mpmath.exp(_stirling_loggamma(zv, ctx))
        else:
            # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
            g1 = mpmath.exp(_stirling_loggamma(1 - zv, ctx))
            val = mpmath.pi / (mpmath.sin(mpmath.pi * zv) * g1)
        err = abs(val) * mpf(10) ** (-(ctx.digits + ctx.guard - 3)) + _err_of(z) * (
            abs(val) * 10)
        res = ArbComplex(val, err)
    return res


def gamma_real(x, ctx: PrecisionContext) -> ArbReal:
    g = gamma(x, ctx)
    return ArbReal(g.val.real, g.err)


def upper_incomplete_gamma(s, x, ctx: PrecisionContext) -> ArbReal:
    """Upper incomplete gamma Gamma(s, x) for real s, x >= 0.

    s in {0, 2} is the supported contract (approximate functional equation
    kernel); other real s is best effort.
    """
    with ctx.workprec():
        sv = mpf(_val_of(s))
        xv = mpf(_val_of(x))
        if xv < 0:
            raise DomainError("upper_incomplete_gamma requires x >= 0")
        if sv == 0 and xv == 0:
            raise DomainError("Gamma(0, 0) diverges")
        eps = ctx.eps
        if sv == 2:
            v = mpmath.exp(-xv) * (1 + xv)
            return ArbReal(v, abs(v) * eps * 10 + _ulp(v))
        if sv == 0:
            return _e1(xv, ctx)
        if sv == mpmath.floor(sv) and sv >= 1:
            # Gamma(n, x) = (n-1)! e^{-x} sum_{k<n} x^k/k!
            n = int(sv)
            acc = mpf(0)
            t = mpf(1)
            for k in range(n):
                if k > 0:
                    t = t * xv / k
                acc += t
            v = mpmath.factorial(n - 1) * mpmath.exp(-xv) * acc
            return ArbReal(v, abs(v) * eps * 10 + _ulp(v))
        if xv == 0:
            if sv <= 0:
                raise DomainError("Gamma(s, 0) diverges for s <= 0")
            return gamma_real(sv, ctx)
        # best effort: Gamma(s) - lower incomplete series
        g = gamma_real(sv, ctx)
        acc = mpf(0)
        t = mpf(1) / sv  # k = 0 term of sum (-x)^k / (k! (s+k))
        k = 0
        while True:
            acc += t
            k += 1
            if k > ctx.max_terms:
                raise PrecisionError("max_terms exceeded in incomplete gamma series")
            t = t * (-xv) / k * (sv + k - 1) / (sv + k)
            if abs(t) < eps * max(abs(acc), mpf(1)):
                acc += t
                break
        lower = mpmath.power(xv, sv) * acc
        v = g.val - lower
        return ArbReal(v, g.err + abs(lower) * eps * 20 + _ulp(v))


def _e1(x: mpf, ctx: PrecisionContext) -> ArbReal:
    """E1(x) = Gamma(0, x): power series for x < 1, continued fraction else."""
    eps = ctx.eps
    if x < 1:
        # E1(x) = -euler - log x + sum_{k>=1} (-1)^(k+1) x^k / (k k!)
        acc = -mpmath.euler - mpmath.log(x)
        t = mpf(1)
        k = 0
        while True:
            k += 1
            t = t * (-x) / k
            term = -t / k
            acc += term
            if abs(term) < eps * max(abs(acc), mpf(1)):
                break
            if k > ctx.max_terms:
                raise PrecisionError("max_terms exceeded in E1 series")
        v = acc
    else:
        # modified Lentz for E1(x) = e^{-x} / (x + 1 - 1/(x + 3 - 4/(...)))
        tiny = mpf(10) ** (-2 * (ctx.digits + ctx.guard) - 30)
        f = x + 1
        if f == 0:
            f = tiny
        C = f
        D = mpf(0)
        k = 0
        while True:
            k += 1
            a = -mpf(k) ** 2
            b = x + 2 * k + 1
            D = b + a * D
            if D == 0:
                D = tiny
            C = b + a / C
            if C == 0:
                C = tiny
            D = 1 / D
            delta = C * D
            f *= delta
            if abs(delta - 1) < eps:
                break
            if k > ctx.max_terms:
                raise PrecisionError("max_terms exceeded in E1 continued fraction")
        v = mpmath.exp(-x) / f
    return ArbReal(v, abs(v) * eps * 20 + _ulp(v))


def hurwitz_zeta(s, a, ctx: PrecisionContext) -> ArbReal:
    """Hurwitz zeta sum_{n>=0} (n+a)^{-s} for real s > 1, a > 0.

    Euler-Maclaurin with a precision-scaled cutoff; the summation order is
    fixed (ascending n) for determinism.
    """
    with ctx.workprec():
        sv = mpf(_val_of(s))
        av = mpf(_val_of(a))
        if sv <= 1:
            raise DomainError("hurwitz_zeta requires s > 1")
        if av <= 0:
            raise DomainError("hurwitz_zeta requires a > 0")
        P = ctx.digits + ctx.guard
        M = max(20, int(0.8 * P) + 10)
        acc = mpf(0)
        for n in range(M):
            acc += mpmath.power(n + av, -sv)
        x = M + av
        acc += mpmath.power(x, 1 - sv) / (sv - 1)
        acc += mpmath.power(x, -sv) / 2
        # correction terms: B_2j/(2j)! * (s)_{2j-1} * x^{-s-2j+1}
        poch = sv  # (s)_1
        xpow = mpmath.power(x, -sv - 1)
        eps = ctx.eps
        j = 1
        prev = mpf("inf")
        while True:
            term = (mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j)) * poch * xpow
            t = abs(term)
            if t > prev:
                raise PrecisionError("Euler-Maclaurin tail diverging; increase cutoff")
            acc += term
            if t < eps * max(abs(acc), mpf(1)):
                break
            prev = t
            poch *= (sv + 2 * j - 1) * (sv + 2 * j)
            xpow *= mpmath.power(x, -2)
            j += 1
            if 2 * j > ctx.max_terms:
                raise PrecisionError("max_terms exceeded in hurwitz_zeta")
        return ArbReal(acc, abs(acc) * eps * 20 + _ulp(acc))


def agm(a, b, ctx: PrecisionContext) -> ArbComplex:
    """Arithmetic-geometric mean with the right-choice branch rule."""
    with ctx.workprec():
        av = mpc(_val_of(a))
        bv = mpc(_val_of(b))
        if av == 0 or bv == 0:
            raise DomainError("agm requires nonzero arguments")
        eps = ctx.eps
        max_iter = int(math.log2(ctx.digits + ctx.guard)) + 64
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
        return ArbComplex(v, abs(v) * eps * 10 + _ulp(abs(v)))


def beta_fn(a, b, ctx: PrecisionContext) -> ArbReal:
    """Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a+b)."""
    with ctx.workprec():
        ga = gamma_real(a, ctx)
        gb = gamma_real(b, ctx)
        gab = gamma_real(mpf(_val_of(a)) + mpf(_val_of(b)), ctx)
        return ga * gb / gab
