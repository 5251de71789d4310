"""3F2 at unit argument with Hurwitz-zeta tail acceleration.

The series sum_n t_n with t_n = (a1)_n (a2)_n (a3)_n / ((b1)_n (b2)_n n!)
converges only like n^-(1+s), s = b1+b2-a1-a2-a3, so the head is summed
directly and the tail is expanded as

    t_n = scale * n^-(1+s) * (c_0 + c_1/n + c_2/n^2 + ...)

with the c_i exact rationals obtained from the term-ratio recurrence; each
tail piece sum_{n>M} n^-(1+s+i) is a Hurwitz zeta value, and one
`mpnum.hurwitz_zeta` call returns all of them.  The expansion of
the term ratio in 1/n is built one factor at a time (one O(K) pass per
factor) and the c_i follow from a recurrence with integer binomial weights,
so K coefficients cost O(K^2) exact rational operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import mpmath
from mpmath import mpf

from . import mpnum
from .mpnum import ArbReal, PrecisionContext


class HypergeometricError(Exception):
    pass


class DivergenceError(HypergeometricError):
    pass


def _is_nonpositive_integer(q: Fraction) -> bool:
    return q.denominator == 1 and q <= 0


@dataclass(frozen=True)
class HypParams:
    a1: Fraction
    a2: Fraction
    a3: Fraction
    b1: Fraction
    b2: Fraction

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "b1", "b2"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        for b in (self.b1, self.b2):
            if _is_nonpositive_integer(b):
                raise DivergenceError(f"lower parameter {b} is a nonpositive integer")

    @property
    def margin(self) -> Fraction:
        return self.b1 + self.b2 - self.a1 - self.a2 - self.a3

    @property
    def terminates(self) -> bool:
        return any(_is_nonpositive_integer(a) for a in (self.a1, self.a2, self.a3))

    def term_ratio(self, n: int) -> Fraction:
        """t_{n+1} / t_n, exactly."""
        num = (self.a1 + n) * (self.a2 + n) * (self.a3 + n)
        den = (self.b1 + n) * (self.b2 + n) * (1 + n)
        return Fraction(num) / Fraction(den)


@dataclass(frozen=True)
class FTildeArgs:
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        for q in (self.alpha, self.beta, self.alpha + self.beta):
            if _is_nonpositive_integer(q):
                raise DivergenceError(
                    "alpha, beta, alpha+beta must avoid nonpositive integers")


def tail_coefficients(p: HypParams, count: int) -> list:
    """Exact c_0..c_{count-1} with c_0 = 1, from the term-ratio recurrence.

    Writing u_n = t_n * n^(1+s) / scale, the recurrence u_{n+1} = R(n) u_n
    with R(n) = prod(1+a_j/n) (1+1/n)^(1+s) / prod(1+b/n) determines the
    expansion u_n = sum c_i n^-i up to the overall scale.  With x = 1/n and
    R = sum rho_k x^k, the binomial row of (1+x)^q, q = 1+s, comes from
    b_k = b_{k-1} (q-k+1) / k; each factor (1+a x) is then one
    multiplication pass and each 1/(1+b x) one division pass
    rho_k -= b rho_{k-1}.  Matching x^m in u_{n+1} = R(n) u_n, where
    (1+x)^(-i) = sum_k (-1)^k C(i+k-1, k) x^k, gives for m >= 2

        (m-1) c_{m-1} = sum_{i<m-1} c_i ((-1)^(m-i) C(m-1, m-i) - rho_{m-i}).

    Every step is exact; the cost is O(count^2) rational operations.
    """
    order = count + 2
    q = 1 + p.margin
    rho = [Fraction(1)]
    for k in range(1, order):
        rho.append(rho[-1] * (q - k + 1) / k)
    for a in (p.a1, p.a2, p.a3):
        for k in range(order - 1, 0, -1):
            rho[k] += a * rho[k - 1]
    for b in (p.b1, p.b2, Fraction(1)):
        for k in range(1, order):
            rho[k] -= b * rho[k - 1]
    assert rho[0] == 1 and rho[1] == 0
    c = [Fraction(1)]
    for m in range(2, count + 1):
        acc = Fraction(0)
        for i in range(m - 1):
            k = m - i
            acc += c[i] * ((-1) ** k * comb(m - 1, k) - rho[k])
        c.append(acc / (m - 1))
    return c


def f32_unit(p: HypParams, ctx: PrecisionContext,
             scale: ArbReal | None = None) -> ArbReal:
    """3F2(a1,a2,a3; b1,b2; 1) to ctx.digits, real rational parameters.

    `scale` is `term_scale(p, ctx)` when the caller already has it."""
    if p.terminates:
        return _sum_terminating(p, ctx)
    if p.margin <= 0:
        raise DivergenceError(f"convergence margin {p.margin} is not positive")
    with ctx.workprec():
        P = ctx.digits + ctx.guard
        M = max(60, 2 * P)
        K = P
        if scale is None:
            scale = term_scale(p, ctx)
        head, t_next = _partial_sum(p, M, ctx)
        tail, tail_err = accelerated_tail(p, M, K, ctx, scale)
        val = head + tail
        err = tail_err + abs(val) * ctx.eps * (M + 10)
        res = ArbReal(val, err)
        if res.err > ctx.target_eps * max(abs(res.val), mpf(1)):
            raise mpnum.PrecisionError(
                "tail acceleration did not reach the requested precision")
        return res


def _partial_sum(p: HypParams, M: int, ctx: PrecisionContext):
    """sum_{n=0}^{M} t_n at working precision; also returns t_{M+1}."""
    t = mpf(1)
    acc = mpf(1)
    for n in range(M):
        r = p.term_ratio(n)
        t = t * mpf(r.numerator) / r.denominator
        acc += t
    r = p.term_ratio(M)
    t = t * mpf(r.numerator) / r.denominator
    return acc, t


def _sum_terminating(p: HypParams, ctx: PrecisionContext) -> ArbReal:
    with ctx.workprec():
        t = Fraction(1)
        acc = Fraction(1)
        n = 0
        while True:
            r = p.term_ratio(n)
            if r == 0:
                break
            t *= r
            acc += t
            n += 1
            if n > ctx.max_terms:
                raise mpnum.PrecisionError("terminating series did not terminate")
        v = mpf(acc.numerator) / acc.denominator
        return ArbReal(v, mpnum._ulp(v))


def _gammas(qs, ctx: PrecisionContext) -> dict:
    """{q: Gamma(q)} for the distinct rationals in qs, one evaluation each."""
    return {q: mpnum.gamma_real(q, ctx) for q in set(qs)}


def term_scale(p: HypParams, ctx: PrecisionContext) -> ArbReal:
    """scale = Gamma(b1) Gamma(b2) / (Gamma(a1) Gamma(a2) Gamma(a3))."""
    g = _gammas((p.a1, p.a2, p.a3, p.b1, p.b2), ctx)
    return g[p.b1] * g[p.b2] / (g[p.a1] * g[p.a2] * g[p.a3])


def accelerated_tail(p: HypParams, M: int, K: int, ctx: PrecisionContext,
                     scale: ArbReal):
    """(tail value, error estimate) for sum_{n > M} t_n; scale is
    `term_scale(p, ctx)`.

    One `hurwitz_zeta` call gives zeta(1+s+i, M+1) for i <= K+1.  The error
    adds sum |c_i| err(zeta_i), the rounding of the sum and the truncation
    after c_K (four times the first omitted term) to the error of `scale`.
    """
    cs = tail_coefficients(p, K + 2)
    zetas = mpnum.hurwitz_zeta(1 + p.margin, M + 1, ctx, count=K + 2)
    acc = mpf(0)
    mag = mpf(0)       # sum |c_i| zeta_i, the size the rounding scales with
    zeta_err = mpf(0)  # sum |c_i| err(zeta_i)
    for ci, z in zip(cs[: K + 1], zetas):
        if ci == 0:
            continue
        c = mpf(ci.numerator) / ci.denominator
        acc += c * z.val
        mag += abs(c) * z.val
        zeta_err += abs(c) * z.err
    c_last = cs[K + 1]
    z_last = zetas[K + 1]
    trunc = (abs(mpf(c_last.numerator) / c_last.denominator)
             * (z_last.val + z_last.err))
    val = scale.val * acc
    err = (abs(scale.val) * (trunc * 4 + zeta_err + mag * ctx.eps * (K + 10))
           + scale.err * abs(acc))
    return val, err


def ftilde(args: FTildeArgs, ctx: PrecisionContext) -> ArbReal:
    """(Gamma(a) Gamma(b) / Gamma(a+b))^2 * 3F2(a, b, a+b-1; a+b, a+b; 1).

    Gamma(a+b-1) = Gamma(a+b) / (a+b-1), so the prefactor's Gamma values
    also give the tail's scale."""
    a, b = args.alpha, args.beta
    p = HypParams(a, b, a + b - 1, a + b, a + b)
    with ctx.workprec():
        g = _gammas((a, b, a + b), ctx)
        pre = g[a] * g[b] / g[a + b]
        # term_scale(p) = Gamma(a+b)^2 / (Gamma(a) Gamma(b) Gamma(a+b-1))
        # = (a+b-1) / pre; a+b = 1 makes a3 = 0, a terminating series
        scale = None if p.terminates else (a + b - 1) / pre
        return pre * pre * f32_unit(p, ctx, scale)


def rhs_main(curve_id: int, ctx: PrecisionContext) -> ArbReal:
    """Hypergeometric side of the L-value identity for conductor 36 or 64."""
    with ctx.workprec():
        if curve_id == 36:
            d = (ftilde(FTildeArgs(Fraction(1, 2), Fraction(1, 3)), ctx)
                 - ftilde(FTildeArgs(Fraction(1, 2), Fraction(2, 3)), ctx))
            pref = 1 / (2 * mpmath.sqrt(3) * mpmath.pi)
        elif curve_id == 64:
            d = (ftilde(FTildeArgs(Fraction(1, 4), Fraction(1, 4)), ctx)
                 - ftilde(FTildeArgs(Fraction(3, 4), Fraction(3, 4)), ctx))
            pref = 1 / (8 * mpmath.pi)
        else:
            raise ValueError("curve_id must be 36 or 64")
        return ArbReal(pref, mpnum._ulp(pref) * 8) * d
