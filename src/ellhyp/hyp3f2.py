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
unit; the docstrings below give each recurrence.  `f32_unit` returns head
plus tail as one `mpnum.Ball`.

The split moves the work into the cheap integer head: M = 8P head terms
(`head_tail_sizes`, a measured cost rule), and a tail that stops at the
first K >= 20 whose next two terms are below one unit of 2^-W, a test made
inside the coefficients' own loop.  A tail that does not stop by K = P
doubles the head, or raises PrecisionError.  `rhs_main` computes one zeta
batch for all the terms of its identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm, pi
from operator import mul
from typing import NamedTuple

import mpmath

from . import mpnum
from .mpnum import Ball, PrecisionContext


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


def tail_coefficients(p: HypParams, count: int, bits: int,
                      stop: tuple = None) -> tuple:
    """Balls around c_0..c_{count-1}, c_0 = 1, in fixed point with `bits`
    fractional bits: (mids, rads), integers with |mids[i] - c_i 2^bits| <=
    rads[i].

    With stop = (N, lead), count is a cap and the loop ends at the first
    k > K_MIN + 1 at which the tail terms of c_{k-1} and c_k are both below
    one unit of 2^-bits: lead (|c_j| + rad) N^-j < 1, lead the size of the
    tail's leading term in units of 2^-bits (`head_tail_sizes`).  It
    returns c_0..c_k, so that K = k - 2 is the last coefficient the tail
    keeps and the two after it bound its truncation.  If the terms do not
    fall that far by c_{count-1}, because they grow first or shrink too
    slowly at this N, it raises PrecisionError.

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
    N, lead = stop or (1, 0)
    unit = 1 << bits           # one unit of 2^-bits times N^(m-1)
    below = False              # whether the last term was below it
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
        if stop:
            unit *= N
            was_below, below = below, lead * (abs(mids[-1]) + rads[-1]) < unit
            if was_below and below and m > K_MIN + 2:
                return mids, rads
    if stop:
        raise mpnum.PrecisionError(
            f"the tail terms at N = {N} stay above 2^-{bits} through "
            f"c_{count - 1}")
    return mids, rads


class Split(NamedTuple):
    """The head/tail split of one sum: the head to n = M, the tail to c_K,
    the head's balls (S, S_rad, T, T_rad) from `_partial_sums` and the
    coefficient balls (mids, rads) through c_{K+2}."""
    M: int
    K: int
    head: tuple
    coeffs: tuple


# The cost rule: the head runs to M = 8P terms, P = digits + GUARD.  The
# integer head costs M steps, the tail about K^2 coefficient steps and K
# Euler-Maclaurin sums, and the stop test makes K fall like W / log2(M).
# Both rhs_main calls, in process on a 2-vCPU VM, take the same time within
# noise from M = 6P to 16P at 100, 152 and 200 digits (0.05-0.065 s at 200),
# up to 1.5x that at 4P and 32P, and 0.24-0.33 s at M = 2P, K = P.
HEAD_PER_DIGIT = 8
# the fewest tail coefficients: below it the truncation bound rests on too
# few terms of an asymptotic series
K_MIN = 20
# how often a tail whose terms do not reach the stop may double the head
HEAD_DOUBLINGS = 4


def head_tail_sizes(p: HypParams, ctx: PrecisionContext) -> Split:
    """The split `f32_unit` sums: the head to n = M, M = HEAD_PER_DIGIT P,
    and the tail to c_K, K from the stop test of `tail_coefficients`, capped
    at P, with the tail's leading term |T| N, N = M+1, as its lead.  If the
    tail terms do not fall below one unit by c_P (a large margin, or terms
    that grow first), the head doubles, resuming where it stopped, at most
    HEAD_DOUBLINGS times; then
    PrecisionError names M and K.  The tail's zeta values, exponents up to
    1+s+K+2, run Euler-Maclaurin at x = M+1, so M also reaches their
    `mpnum.em_start`."""
    P = ctx.digits + mpnum.GUARD
    W = ctx.fixed_bits
    s_max = 3 + p.margin + P
    if s_max > 2 * pi * mpnum.MAX_TERMS:    # em_start exceeds s_max / (2 pi)
        s = mpmath.mpf(p.margin.numerator) / p.margin.denominator
        raise mpnum.PrecisionError(
            f"the head needs over {mpnum.MAX_TERMS} terms at the convergence "
            f"margin {mpmath.nstr(s, 5)}")
    start = mpnum.em_start(float(s_max), ctx.prec_bits)
    M = max(HEAD_PER_DIGIT * P, ceil(start))
    longest = M << HEAD_DOUBLINGS
    heads = _partial_sums(p, M, W)
    while True:
        if M > mpnum.MAX_TERMS:
            raise mpnum.PrecisionError(
                f"the head needs {M} terms, past {mpnum.MAX_TERMS}")
        head = next(heads)
        try:
            mids, rads = tail_coefficients(p, P + 3, W,
                                           (M + 1, abs(head[2]) * (M + 1)))
            return Split(M, len(mids) - 3, head, (mids, rads))
        except mpnum.PrecisionError:
            if M >= longest:
                raise mpnum.PrecisionError(
                    f"the tail expansion after M = {M} head terms does not "
                    f"reach 2^-{W} by K = {P} coefficients") from None
        M *= 2


def f32_unit(p: HypParams, ctx: PrecisionContext, split: Split = None,
             zetas: list = None) -> Ball:
    """3F2(a1,a2,a3; b1,b2; 1) to ctx.digits, real rational parameters.

    `rhs_main` hands in each term's split and one zeta batch for all its
    terms; otherwise the split comes from `head_tail_sizes` and the batch,
    S(1+s+i, M+1) for i <= K+2, from one `mpnum.hurwitz_zeta` call weighted
    by its own coefficients."""
    if not p.terminates and p.margin <= 0:
        raise DivergenceError(f"convergence margin {p.margin} is not positive")
    W = ctx.fixed_bits
    if p.terminates:
        num, den = _terminating_sum(p)
        return Ball.exact(num, W) / den
    M, K, (S, S_rad, T, T_rad), coeffs = split or head_tail_sizes(p, ctx)
    if zetas is None:
        zetas = mpnum.hurwitz_zeta(1 + p.margin, M + 1, ctx, K + 3,
                                   _zeta_weights([coeffs]))
    tail, tail_rad = accelerated_tail(M, K, ctx, (T, T_rad), coeffs, zetas)
    res = Ball(S + tail, S_rad + tail_rad, W)
    if res.rad * 10 ** ctx.digits > max(abs(res.mid), 1 << W):
        raise mpnum.PrecisionError(
            f"the tail expansion after M = {M} head terms and K = {K} "
            f"coefficients reaches an error of {mpmath.nstr(res.err, 3)}, "
            f"not 10^-{ctx.digits}")
    return res


def _partial_sums(p: HypParams, M: int, bits: int):
    """(S, S_rad, T, T_rad) for the head to M, then to 2M, 4M, ...: S =
    sum_{n=0}^{M} t_n and T = t_{M+1} in fixed point with `bits` fraction
    bits, each within its radius (in units of 2^-bits) of the exact value.

    t_{n+1} = t_n r_n, r_n = prod(a_j D + n D) / prod(b_j D + n D)
    (`_scaled_params`), runs on ints with g = bit_length(M) guard bits.
    Each floor division errs by under one unit of 2^-(bits+g) and r_n
    scales the error carried so far, so t_{n+1} is off by under
    |r_n| e_n + 1 <= e_{n+1} = ceil(e_n |r_n|) + 1, whether the terms shrink
    or grow.  S is off by sum e_n and T by e_{M+1}, plus a unit each for the
    final shift; while every |r_n| <= 1, e_n <= n.  When M doubles, g grows
    by one: the state, t_{M+1} added to S, shifts up one bit, errors with
    it, and the recurrence resumes at n = M+1."""
    D, ups, downs = _scaled_params(p)
    g = M.bit_length()
    t = acc = 1 << (bits + g)
    e = acc_rad = 0
    lo = 0
    while True:
        for n in range(lo, M + 1):
            nD = n * D
            num = (ups[0] + nD) * (ups[1] + nD) * (ups[2] + nD)
            den = (downs[0] + nD) * (downs[1] + nD) * (downs[2] + nD)
            t = t * num // den
            e = -(-e * abs(num) // abs(den)) + 1
            if n < M:
                acc += t
                acc_rad += e
        yield acc >> g, (acc_rad >> g) + 2, t >> g, (e >> g) + 2
        t, e, acc, acc_rad = t << 1, e << 1, acc + t << 1, acc_rad + e << 1
        lo, M, g = M + 1, 2 * M, g + 1


# the most terms a terminating sum may have: 10^4 of -A,1/3,1/7,2/5,3/11
# take about 1 s on a 2-vCPU VM, and the cost grows faster than L^2
TERMINATING_MAX_TERMS = 10 ** 4


def _terminating_sum(p: HypParams) -> tuple:
    """(num, den), integers whose quotient is the exact sum of a terminating
    series, t_0 .. t_L with -L the largest nonpositive integer a_j: one
    backward Horner pass on ints over r_n = A_n / B_n, the factors of
    `_partial_sums`, num/den -> (den B_n + A_n num) / (den B_n), no gcd."""
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


def accelerated_tail(M: int, K: int, ctx: PrecisionContext, t_next: tuple,
                     coeffs: tuple, zetas: list) -> tuple:
    """(tail, radius): sum_{n > M} t_n as an integer ball in units of 2^-W,
    W = ctx.fixed_bits, from t_next = (T, T_rad), t_{M+1} as such a ball,
    the coefficient balls coeffs = (C_i, E_i) through c_{K+2} and the zeta
    balls zetas = (S_i, R_i), i <= K+2 or more, of the caller.

    With N = M+1 and S_i = S(1+s+i, N) = N^(s+i) zeta(1+s+i, N), the tail
    t_N N^(1+s) / u_N sum_i c_i zeta(1+s+i, N) is T N A / U, in which the
    power and the 2^-W of T and U cancel:

        A = sum_{i<=K} c_i S_i N^-i,   U = u_N = sum_{i<=K} c_i N^-i.

    One reversed Horner pass on ints, i = K .. 0, runs
    A <- floor(C_i S_i 2^-W) + floor(A/N), U <- C_i + floor(U/N) and their
    radii, propagated plus one unit per floor division,

        A_rad <- floor((|C_i| R_i + E_i (S_i + R_i)) 2^-W) + 3 + ceil(A_rad/N),
        U_rad <- E_i + 1 + ceil(U_rad/N),

    from the truncation after c_K, four times the larger of the first two
    omitted terms (one of them may vanish: F~(1/2, 1/3) has c_1 = c_2 = 0):
    with cut_j = |C_j| + E_j and Z_j = S_j + R_j,
    U_rad = 4 max(cut_{K+1}, ceil(cut_{K+2} / N)) and
    A_rad = ceil(4 max(cut_{K+1} Z_{K+1}, ceil(cut_{K+2} Z_{K+2} / N)) 2^-W).
    tail = floor(T N A / U) has the first-order radius
    (N (T_rad |A| + |T| A_rad) + (|tail| + 1) U_rad) / |U| + 2.
    """
    W = ctx.fixed_bits
    N = M + 1
    mids, rads = coeffs
    cut, cut2 = (abs(mids[j]) + rads[j] for j in (K + 1, K + 2))
    A, A_rad = 0, -(-4 * max(cut * sum(zetas[K + 1]),
                             -(-cut2 * sum(zetas[K + 2]) // N)) >> W)
    U, U_rad = 0, 4 * max(cut, -(-cut2 // N))
    for C, E, (S, R) in zip(mids[K::-1], rads[K::-1], zetas[K::-1]):
        A = (C * S >> W) + A // N
        A_rad = ((abs(C) * R + E * (S + R)) >> W) + 3 - (-A_rad // N)
        U = C + U // N
        U_rad = E + 1 - (-U_rad // N)
    T, T_rad = t_next
    tail = T * N * A // U
    return tail, ((N * (T_rad * abs(A) + abs(T) * A_rad)
                   + (abs(tail) + 1) * U_rad) // abs(U) + 2)


def _zeta_weights(coeffs: list) -> list:
    """w_i = max(|C_i| + E_i) over the coefficient balls (mids, rads) of the
    tails that read S_i, as `accelerated_tail` does, for i below the
    longest: the weights of `mpnum.hurwitz_zeta`."""
    return [max(abs(mids[i]) + rads[i] for mids, rads in coeffs
                if i < len(mids))
            for i in range(max(len(mids) for mids, _ in coeffs))]


def _ftilde_params(a: Fraction, b: Fraction) -> HypParams:
    """The parameters (a, b, a+b-1; a+b, a+b) of F~(a, b); margin 1."""
    return HypParams(a, b, a + b - 1, a + b, a + b)


def ftilde(a: Fraction, b: Fraction, ctx: PrecisionContext,
           split: Split = None, zetas: list = None) -> Ball:
    """B(a, b)^2 * 3F2(a, b, a+b-1; a+b, a+b; 1) for rationals a, b, with
    the Beta value in closed form (`mpnum.beta`); split and zetas go to
    `f32_unit`."""
    pre = mpnum.beta(a, b, ctx)
    return pre * pre * f32_unit(_ftilde_params(a, b), ctx, split, zetas)


def rhs_main(curve_id: int, ctx: PrecisionContext, identity) -> Ball:
    """Hypergeometric side of curve `curve_id`'s L-value identity, from its
    data (k, d, terms): sum sign F~(a, b) / (k sqrt(d) pi) over the terms
    (sign, a, b).  The prefactor is a product of balls, so its radius
    follows from its form, and a sign of -1 negates its term exactly.

    Every F~ has margin 1, so each term's tail reads S(2+i, M+1) for its
    own K: one `mpnum.hurwitz_zeta` batch per head length M, the largest K
    of its terms + 3 long and weighted by all their coefficients, serves
    them all (one batch when, as for the published identities, every term
    keeps the cost rule's M)."""
    k, d, terms = identity
    W = ctx.fixed_bits
    pref = 1 / (k * Ball.exact(d, W).root(2) * Ball.pi(W))
    splits = [head_tail_sizes(_ftilde_params(a, b), ctx) for _, a, b in terms]
    zetas = {}
    for M in {sp.M for sp in splits}:
        weights = _zeta_weights([sp.coeffs for sp in splits if sp.M == M])
        zetas[M] = mpnum.hurwitz_zeta(2, M + 1, ctx, len(weights), weights)
    values = [ftilde(a, b, ctx, split, zetas[split.M])
              for (_, a, b), split in zip(terms, splits)]
    first, *rest = [v if sign > 0 else -v
                    for (sign, _, _), v in zip(terms, values)]
    return pref * sum(rest, first)
