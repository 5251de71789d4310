"""3F2 at unit argument with Hurwitz-zeta tail acceleration.

The series sum_n t_n with t_n = (a1)_n (a2)_n (a3)_n / ((b1)_n (b2)_n n!)
converges only like n^-(1+s), s = b1+b2-a1-a2-a3, so the head of M+1
terms is summed directly, each term from the last by one exact integer
ratio, and the tail is expanded as

    t_n = scale * n^-(1+s) * (c_0 + c_1/n + c_2/n^2 + ...)

with the c_i from the term-ratio recurrence; each tail piece
sum_{n>M} n^-(1+s+i) is a Hurwitz zeta value, and one `mpnum.hurwitz_zeta`
call returns each times (M+1)^(s+i).  The scale, Gamma(b1) Gamma(b2) /
(Gamma(a1) Gamma(a2) Gamma(a3)), is never formed from Gamma values: the
head's recurrence runs one step further to t_{M+1}, and scale = t_{M+1}
(M+1)^(1+s) / u_{M+1}, u_n = sum c_i n^-i, whose power cancels the one
left out of the zeta values.  The expansion of the term ratio in 1/n is
exact: its k-th coefficient times k! D^k, D the lcm of the parameter
denominators, is an integer built one factor at a time.

Every number past the parameters is a midpoint-radius ball of Python ints
in units of 2^-W, W = prec + 16 (Johansson, "Arb: efficient
arbitrary-precision midpoint-radius interval arithmetic", arXiv:1611.02831):
the head, t_{M+1}, the c_i, the zeta values and the tail.  A product of
balls adds |x| rad(y) + rad(x) (|y| + rad(y)), and each floor division one
unit; the docstrings below give each recurrence.  `f32_unit` adds head and
tail as ints and rounds once, to mpf.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm, pi
from operator import mul

import mpmath
from mpmath import mpf

from . import mpnum
from .mpnum import ArbReal, PrecisionContext


class DivergenceError(Exception):
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


def _scaled_params(p: HypParams) -> tuple:
    """(D, ups, downs): D the lcm of the parameter denominators, ups the
    integers a_j D and downs the integers b_j D with b_3 = 1, so that
    t_{n+1} / t_n = prod(u + nD) / prod(d + nD)."""
    D = lcm(*(x.denominator for x in (p.a1, p.a2, p.a3, p.b1, p.b2)))
    return (D, [int(a * D) for a in (p.a1, p.a2, p.a3)],
            [int(b * D) for b in (p.b1, p.b2, 1)])


def _ratio_series(p: HypParams, order: int):
    """(R, D) with R_k = rho_k k! D^k for k < order, D the lcm of the
    parameter denominators and R(n) = sum rho_k n^-k the ratio u_{n+1}/u_n.

    Every R_k is an integer, by induction over the passes that build rho:
    the binomial row of (1+x)^q, q = 1+s, has R_k = R_{k-1} (qD - (k-1)D);
    a factor (1+a x) maps R_k to R_k + (aD) k R_{k-1}; a factor 1/(1+b x)
    maps R_k to R_k - (bD) k R'_{k-1}.  The multipliers qD, aD, bD are
    integers and k! D^k / ((k-1)! D^(k-1)) = k D, so each pass keeps every
    R_k integral."""
    D, ups, downs = _scaled_params(p)
    qD = int((1 + p.margin) * D)
    R = [1]
    for k in range(1, order):
        R.append(R[-1] * (qD - (k - 1) * D))
    for aD in ups:
        for k in range(order - 1, 0, -1):
            R[k] += aD * k * R[k - 1]
    for bD in downs:
        for k in range(1, order):
            R[k] -= bD * k * R[k - 1]
    return R, D


def tail_coefficients(p: HypParams, count: int, bits: int) -> tuple:
    """Balls around c_0..c_{count-1}, c_0 = 1, in fixed point with `bits`
    fractional bits: (mids, rads), integers with |mids[i] - c_i 2^bits| <=
    rads[i].

    Writing u_n = t_n * n^(1+s) / scale, the recurrence u_{n+1} = R(n) u_n
    with R(n) = prod(1+a_j/n) (1+1/n)^(1+s) / prod(1+b/n) determines the
    expansion u_n = sum c_i n^-i up to the overall scale.  With x = 1/n and
    R = sum rho_k x^k, matching x^m in u_{n+1} = R(n) u_n, where
    (1+x)^(-i) = sum_k (-1)^k C(i+k-1, k) x^k, gives for m >= 2

        (m-1) c_{m-1} = sum_{i<m-1} c_i w_k,  w_k = (-1)^k C(m-1, k) - rho_k,

    with k = m-i.  The rho_k are exact (`_ratio_series`) and rounded once
    to P_k = round(rho_k 2^bits); the binomials come from Pascal's rule,
    one row per m.  Each midpoint is then one exact integer dot product
    S = sum_i C_i ((-1)^k C(m-1, k) 2^bits - P_k) and one rounded division
    by (m-1) 2^bits.  Its error is at most

        (sum_i E_i (C(m-1, k) + ceil|rho_k|) + sum_i |C_i| 2^-(bits+1))
        / (m-1) + 1/2,

    the propagated radii, the weight roundings (|P_k - rho_k 2^bits| <=
    1/2) and the division; the radius recurrence rounds this up on ints.
    The cost is O(count^2) integer multiplications of about bits + log2|c_i|
    bits each.
    """
    R, D = _ratio_series(p, count + 1)
    rho_fix, rho_ceil = [], []
    den = 1
    for k, r in enumerate(R):
        if k:
            den *= k * D
        rho_fix.append(((r << (bits + 1)) + den) // (2 * den))
        rho_ceil.append(-(-abs(r) // den))
    mids, rads = [1 << bits], [0]
    mid_abs = 1 << bits        # sum |C_i| so far
    row = [1, 0]               # C(m-1, k) for k <= m
    for m in range(2, count + 1):
        row = [1] + [row[k - 1] + row[k] for k in range(1, m)] + [0]
        ks = range(m, 1, -1)   # k = m - i for i = 0 .. m-2
        S = sum(map(mul, mids, [((-row[k] if k & 1 else row[k]) << bits)
                                - rho_fix[k] for k in ks]))
        d = (m - 1) << bits
        mids.append((2 * S + d) // (2 * d))
        prop = (sum(map(mul, rads, [row[k] + rho_ceil[k] for k in ks]))
                + (mid_abs >> (bits + 1)) + 1)
        rads.append(-(-prop // (m - 1)) + 1)
        mid_abs += abs(mids[-1])
    return mids, rads


def head_tail_sizes(p: HypParams, ctx: PrecisionContext) -> tuple:
    """(M, K): `f32_unit` sums the head to n = M and the tail to c_K.  The
    tail's zeta values, exponents up to 1+s+K+1, run Euler-Maclaurin at
    x = M+1, so M reaches their `mpnum.em_start` (below 2P when s = 1)."""
    P = ctx.digits + mpnum.GUARD
    s_max = 2 + p.margin + P
    if s_max > 2 * pi * mpnum.MAX_TERMS:    # em_start exceeds s_max / (2 pi)
        s = mpf(p.margin.numerator) / p.margin.denominator
        raise mpnum.PrecisionError(
            f"the head needs over {mpnum.MAX_TERMS} terms at the convergence "
            f"margin {mpmath.nstr(s, 5)}")
    start = mpnum.em_start(float(s_max), ctx.prec_bits)
    M = max(60, 2 * P, ceil(start))
    if M > mpnum.MAX_TERMS:
        raise mpnum.PrecisionError(
            f"the head needs {M} terms, past {mpnum.MAX_TERMS}")
    return M, P


def f32_unit(p: HypParams, ctx: PrecisionContext) -> ArbReal:
    """3F2(a1,a2,a3; b1,b2; 1) to ctx.digits, real rational parameters."""
    if not p.terminates and p.margin <= 0:
        raise DivergenceError(f"convergence margin {p.margin} is not positive")
    with ctx.workprec():
        if p.terminates:
            num, den = _terminating_sum(p)
            v = mpf(num) / den
            return ArbReal(v, mpnum.ulp(v))
        M, K = head_tail_sizes(p, ctx)
        W = ctx.fixed_bits
        S, S_rad, T, T_rad = _partial_sum(p, M, W)
        tail, tail_rad = accelerated_tail(p, M, K, ctx, (T, T_rad))
        # head and tail as one integer ball, and its one rounding to mpf
        val = mpmath.ldexp(S + tail, -W)
        err = (mpmath.ldexp(S_rad + tail_rad, -W)
               + abs(val) * mpmath.ldexp(1, 1 - ctx.prec_bits))
        if err > ctx.target_eps * max(abs(val), mpf(1)):
            raise mpnum.PrecisionError(
                f"the tail expansion after M = {M} head terms reaches an "
                f"error of {mpmath.nstr(err, 3)}, not 10^-{ctx.digits}")
        return ArbReal(val, err)


def _partial_sum(p: HypParams, M: int, bits: int) -> tuple:
    """(S, S_rad, T, T_rad): S = sum_{n=0}^{M} t_n and T = t_{M+1} in fixed
    point with `bits` fraction bits, each within its radius (in units of
    2^-bits) of the exact value.

    t_{n+1} = t_n r_n, r_n = prod(a_j D + n D) / prod(b_j D + n D)
    (`_scaled_params`), runs on ints with g = bit_length(M) guard bits.
    Each floor division errs by under one unit of 2^-(bits+g) and r_n
    scales the error carried so far, so t_{n+1} is off by under
    |r_n| e_n + 1 <= e_{n+1} = ceil(e_n |r_n|) + 1, whether the terms shrink
    or grow.  S is off by sum e_n and T by e_{M+1}, plus a unit each for the
    final shift; while every |r_n| <= 1, e_n <= n."""
    D, ups, downs = _scaled_params(p)
    g = M.bit_length()
    t = acc = 1 << (bits + g)
    e = acc_rad = 0
    for n in range(M + 1):
        nD = n * D
        num = (ups[0] + nD) * (ups[1] + nD) * (ups[2] + nD)
        den = (downs[0] + nD) * (downs[1] + nD) * (downs[2] + nD)
        t = t * num // den
        e = -(-e * abs(num) // abs(den)) + 1
        if n < M:
            acc += t
            acc_rad += e
    return acc >> g, (acc_rad >> g) + 2, t >> g, (e >> g) + 2


# the most terms a terminating sum may have: 10^4 of -A,1/3,1/7,2/5,3/11
# take about 1 s on a 2-vCPU VM, and the cost grows faster than L^2
TERMINATING_MAX_TERMS = 10 ** 4


def _terminating_sum(p: HypParams) -> tuple:
    """(num, den), integers whose quotient is the exact sum of a terminating
    series, t_0 .. t_L with -L the largest nonpositive integer a_j: one
    backward Horner pass on ints over r_n = A_n / B_n, the factors of
    `_partial_sum`, num/den -> (den B_n + A_n num) / (den B_n), no gcd."""
    L = int(min(-a for a in (p.a1, p.a2, p.a3) if _is_nonpositive_integer(a)))
    if L + 1 > TERMINATING_MAX_TERMS:
        raise mpnum.PrecisionError(
            f"the terminating series has {L + 1} terms, past the cap of "
            f"{TERMINATING_MAX_TERMS}")
    D, ups, downs = _scaled_params(p)
    num = den = 1
    for n in range(L - 1, -1, -1):
        nD = n * D
        den *= (downs[0] + nD) * (downs[1] + nD) * (downs[2] + nD)
        num = den + (ups[0] + nD) * (ups[1] + nD) * (ups[2] + nD) * num
    return num, den


def accelerated_tail(p: HypParams, M: int, K: int, ctx: PrecisionContext,
                     t_next: tuple) -> tuple:
    """(tail, radius): sum_{n > M} t_n as an integer ball in units of 2^-W,
    W = ctx.fixed_bits, from t_next = (T, T_rad), t_{M+1} as such a ball.

    With N = M+1 and S_i = S(1+s+i, N) = N^(s+i) zeta(1+s+i, N), the tail
    t_N N^(1+s) / u_N sum_i c_i zeta(1+s+i, N) is T N A / U, in which the
    power and the 2^-W of T and U cancel:

        A = sum_{i<=K} c_i S_i N^-i,   U = u_N = sum_{i<=K} c_i N^-i.

    `hurwitz_zeta` gives the balls (S_i, R_i), `tail_coefficients` the
    (C_i, E_i).  One reversed Horner pass on ints, i = K .. 0, runs
    A <- floor(C_i S_i 2^-W) + floor(A/N), U <- C_i + floor(U/N) and their
    radii, propagated plus one unit per floor division,

        A_rad <- floor((|C_i| R_i + E_i (S_i + R_i)) 2^-W) + 3 + ceil(A_rad/N),
        U_rad <- E_i + 1 + ceil(U_rad/N),

    from the truncation after c_K, four times the first omitted term: with
    cut = |C_{K+1}| + E_{K+1}, U_rad = 4 cut and A_rad = ceil(4 cut
    (S_{K+1} + R_{K+1}) 2^-W).  tail = floor(T N A / U) has the first-order
    radius (N (T_rad |A| + |T| A_rad) + (|tail| + 1) U_rad) / |U| + 2.
    """
    W = ctx.fixed_bits
    N = M + 1
    mids, rads = tail_coefficients(p, K + 2, W)
    zetas = mpnum.hurwitz_zeta(1 + p.margin, N, ctx, K + 2)
    cut = abs(mids[K + 1]) + rads[K + 1]
    A, A_rad = 0, -(-4 * cut * sum(zetas[K + 1]) >> W)
    U, U_rad = 0, 4 * cut
    for C, E, (S, R) in zip(mids[K::-1], rads[K::-1], zetas[K::-1]):
        A = (C * S >> W) + A // N
        A_rad = ((abs(C) * R + E * (S + R)) >> W) + 3 - (-A_rad // N)
        U = C + U // N
        U_rad = E + 1 - (-U_rad // N)
    T, T_rad = t_next
    tail = T * N * A // U
    return tail, ((N * (T_rad * abs(A) + abs(T) * A_rad)
                   + (abs(tail) + 1) * U_rad) // abs(U) + 2)


def ftilde(a: Fraction, b: Fraction, ctx: PrecisionContext) -> ArbReal:
    """B(a, b)^2 * 3F2(a, b, a+b-1; a+b, a+b; 1) for rationals a, b, with
    the Beta value in closed form (`mpnum.beta`)."""
    with ctx.workprec():
        pre = mpnum.beta(a, b, ctx)
        return pre * pre * f32_unit(HypParams(a, b, a + b - 1, a + b, a + b),
                                    ctx)


def rhs_main(curve_id: int, ctx: PrecisionContext, identity) -> ArbReal:
    """Hypergeometric side of curve `curve_id`'s L-value identity, from its
    data (k, d, terms): sum sign F~(a, b) / (k sqrt(d) pi) over the terms
    (sign, a, b).  The prefactor is a product of balls, so its radius
    follows from its form, and a sign of -1 negates its term exactly."""
    k, d, terms = identity
    with ctx.workprec():
        pref = 1 / (k * mpnum.rounded(mpmath.sqrt(d)) * mpnum.rounded(mpmath.pi))
        first, *rest = [ftilde(a, b, ctx) if sign > 0 else -ftilde(a, b, ctx)
                        for sign, a, b in terms]
        return pref * sum(rest, first)
