"""Dirichlet coefficients and special values of L(E_N, s) for N in {36, 64}.

Coefficients come from two independent routes: the theta series of the
Hecke character psi, and naive point counting over F_p extended by the Hecke
recursion and multiplicativity.  L(E, 2) and L*(E, 0) come from the
incomplete-gamma approximate functional equation with root number +1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import mpmath

from . import mpnum
from .mpnum import Ball, PrecisionContext


class HeckeError(Exception):
    pass


class BadPrimeError(HeckeError):
    pass


class CoefficientFileError(HeckeError):
    pass


@dataclass(frozen=True)
class CurveId:
    """One curve and its CM order O_K = Z[t], t^2 = -s t - 1.

    s = 1 gives t = zeta_3 (conductor 36) and s = 0 gives t = i (conductor
    64).  Elements of O_K are integer pairs (a, b) = a + b t, and the units
    mu_K are the pairs of norm 1 (``_units``).  The bad primes are those
    dividing N, and the root number is +1 on both curves.  The Hecke
    character is pinned by the conductor f = (nu): chi((alpha)) =
    conj(alpha) chi_f(alpha mod f) for the coset representatives of
    (O_K/f)*/mu_K in ``cosets``, given with their chi_f values."""
    N: int
    weierstrass: tuple  # (a, b) with y^2 = x^3 + a x + b
    s: int
    nu: tuple           # generator of the conductor f
    cosets: tuple       # ((representative, chi_f(representative)), ...)


# For E36, nu = 2(1 - t^2) = 4 + 2t and (O_K/f)*/mu_6 is trivial.  For E64
# the quotient (O_K/4)*/mu_4 is {1, 1-2i}, and chi_f(1-2i) = 1 is
# calibrated once against ap_pointcount(E64, 5) = 2 (see chi_f_check).
E36 = CurveId(36, (0, 1), 1, (4, 2), (((1, 0), (1, 0)),))
E64 = CurveId(64, (-4, 0), 0, (4, 0),
              (((1, 0), (1, 0)), ((1, -2), (1, 0))))

CURVES = {36: E36, 64: E64}


def curve(N: int) -> CurveId:
    try:
        return CURVES[N]
    except KeyError:
        raise ValueError(f"unsupported conductor {N}; expected 36 or 64")


def ap_pointcount(c: CurveId, p: int) -> int:
    """a_p = p + 1 - #E(F_p) by exhaustive enumeration over F_p."""
    if c.N % p == 0:
        raise BadPrimeError(f"{p} is a bad prime for conductor {c.N}")
    a, b = c.weierstrass
    # chi(t) = t^((p-1)/2) mod p in {0, 1, p-1}
    npts = 1  # point at infinity
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        if rhs == 0:
            npts += 1
        elif pow(rhs, (p - 1) // 2, p) == 1:
            npts += 2
    return p + 1 - npts


# ---------------------------------------------------------------------------
# CM route: arithmetic in O_K = Z[t], t^2 = -s t - 1, on integer pairs.


def _mul(c: CurveId, x, y):
    # (a + b t)(d + e t) = ad - be + (ae + bd - s be) t
    a, b = x
    d, e = y
    return (a * d - b * e, a * e + b * d - c.s * b * e)


def _conj(c: CurveId, x):
    # conj(t) = -s - t
    a, b = x
    return (a - c.s * b, -b)


def _norm(c: CurveId, x):
    a, b = x
    return a * a - c.s * a * b + b * b


def _units(c: CurveId) -> tuple:
    """mu_K: the pairs of norm 1, all with |a|, |b| <= 1."""
    return tuple((a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)
                 if _norm(c, (a, b)) == 1)


@functools.lru_cache(maxsize=None)
def _hnf(c: CurveId) -> tuple:
    """(A, s, B) with nu O_K = Z (A, 0) + Z (s, B) in the basis (1, t).

    The Hermite normal form (Cohen, GTM 138, 2.4.2) of the lattice spanned
    by nu and nu t, by Euclid on their t-coordinates."""
    u, v = c.nu, _mul(c, c.nu, (0, 1))
    while v[1]:
        q = u[1] // v[1]
        u, v = v, (u[0] - q * v[0], u[1] - q * v[1])
    if u[1] < 0:
        u = (-u[0], -u[1])
    return abs(v[0]), u[0] % abs(v[0]), u[1]


def residue(c: CurveId, x) -> tuple:
    """The representative of the pair x mod nu in the box [0, A) x [0, B)
    of the Hermite normal form of nu O_K: two pairs are equal in O_K/(nu)
    exactly when their residues are."""
    big_a, s, big_b = _hnf(c)
    k, b = divmod(x[1], big_b)
    return (x[0] - k * s) % big_a, b


def _theta(c: CurveId, n_max: int) -> list:
    """[2 a_n for n = 0..n_max], the theta series of psi: a_n is the sum of
    psi over the ideals of norm n prime to f, a real number, so 2 a_n is
    the sum of the traces.

    Each such ideal has exactly one generator alpha in the class r + nu O_K
    of a coset representative r, and psi((alpha)) = conj(alpha) chi_f(r).
    The points of r + nu O_K are residue(r) plus the Hermite basis (A, 0),
    (s', B), inside the ellipse 4 N(a + b t) = (2a - s b)^2 + (4 - s^2) b^2."""
    big_a, s1, big_b = _hnf(c)
    k = 4 - c.s * c.s
    b_max = math.isqrt(4 * n_max // k)
    tr = [0] * (n_max + 1)
    for rep, chi in c.cosets:
        r0, r1 = residue(c, rep)
        for b in range(r1 - (r1 + b_max) // big_b * big_b, b_max + 1, big_b):
            w = math.isqrt(4 * n_max - k * b * b)
            lo = -((w - c.s * b) // 2)
            a0 = r0 + (b - r1) // big_b * s1
            for a in range(lo + (a0 - lo) % big_a, (w + c.s * b) // 2 + 1,
                           big_a):
                x, y = _mul(c, _conj(c, (a, b)), chi)
                tr[_norm(c, (a, b))] += 2 * x - c.s * y
    return tr


def _mod4_orbit(x) -> frozenset:
    """The mu_4-orbit of x in (Z[i]/4)*, as residue pairs."""
    return frozenset(residue(E64, _mul(E64, x, u)) for u in _units(E64))


def chi_f_check() -> bool:
    """Consistency of chi_f(1-2i) = 1 with a_5(E64) = 2, plus the
    representative set (O_K/4)*/mu_4 = {1, 1-2i}."""
    c = E64
    # the units of Z[i]/4 fall into exactly two mu_4-orbits, and the two
    # coset representatives lie in different ones
    units = [(a, b) for a in range(4) for b in range(4) if (a + b) % 2 == 1]
    (one, _), (rep, chi) = c.cosets
    if len({_mod4_orbit(u) for u in units}) != 2 \
            or _mod4_orbit(one) == _mod4_orbit(rep):
        return False
    # a_5: 5 = (2+i)(2-i); with chi_f(1-2i) = +1 the trace is 2, with -1 it
    # would be -2, and point counting decides
    flipped = replace(c, cosets=((one, (1, 0)), (rep, (-chi[0], -chi[1]))))
    a5 = ap_pointcount(c, 5)
    return (build_coeffs(c, 5, "cm")[5] == a5
            and build_coeffs(flipped, 5, "cm")[5] != a5)


def build_coeffs(c: CurveId, n_max: int, source: str = "cm") -> dict:
    """Coefficient table {n: a_n} for n = 1..n_max from the given source:
    the theta series of psi ("cm"), or point counts at the primes extended
    multiplicatively ("pointcount"); `read_coeff_file` reads a file."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if source == "cm":
        tr = _theta(c, n_max)
        return {n: tr[n] // 2 for n in range(1, n_max + 1)}
    if source != "pointcount":
        raise ValueError(f"unknown coefficient source {source!r}")
    # smallest-prime-factor sieve: the primes are its fixed points
    spf = list(range(n_max + 1))
    for p in range(2, math.isqrt(n_max) + 1):
        if spf[p] == p:
            for m in range(p * p, n_max + 1, p):
                if spf[m] == m:
                    spf[m] = p
    a = {1: 1}
    for n in range(2, n_max + 1):
        p, m = spf[n], n
        while m % p == 0:
            m //= p
        if m > 1:       # n = p^k m with p^k and m coprime
            a[n] = a[n // m] * a[m]
        elif c.N % p == 0:
            a[n] = 0
        elif n == p:
            a[p] = ap_pointcount(c, p)
            if a[p] * a[p] > 4 * p:
                raise HeckeError(f"Hasse bound violated at p={p}")
        else:           # a_{p^{k+1}} = a_p a_{p^k} - p a_{p^{k-1}}
            a[n] = a[p] * a[n // p] - p * a[n // p // p]
    return a


def read_coeff_file(path: str, n_max: int) -> dict:
    """The table {n: a_n}, n = 1..n_max, from the file's `n,a_n` lines."""
    a = {}
    expected = 1
    # a byte that is not UTF-8 reads as U+FFFD, which int() rejects, so the
    # line is reported as malformed
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                n_str, an_str = line.split(",")
                n, an = int(n_str), int(an_str)
            except ValueError:
                raise CoefficientFileError(
                    f"{path}:{lineno}: expected 'n,a_n' integers")
            if n != expected:
                raise CoefficientFileError(
                    f"{path}:{lineno}: n must ascend from 1 without gaps")
            a[n] = an
            expected += 1
            if n >= n_max:
                break
    if len(a) < n_max:
        raise CoefficientFileError(
            f"{path}: only {len(a)} coefficients, need {n_max}")
    _check_file_consistency(a)
    return a


def _check_file_consistency(a: dict):
    """Hecke multiplicativity on (at least) a 1% sample of coprime pairs of
    the table {n: a_n}, n = 1..len(a)."""
    if a.get(1) != 1:
        raise CoefficientFileError("a_1 must be 1")
    n_max = len(a)
    checked = 0
    target = max(10, n_max // 100)
    m = 2
    while checked < target and m * m <= n_max:
        for n in range(m + 1, n_max // m + 1):
            if math.gcd(m, n) == 1:
                if a[m * n] != a[m] * a[n]:
                    raise CoefficientFileError(
                        f"multiplicativity violated at ({m},{n})")
                checked += 1
                if checked >= target:
                    break
        m += 1


# Dokchitser's free cut-off (math/0207280, section 3): l_two splits the AFE
# at t = 1/AFE_CUT, which moves its terms from E1 to Gamma(2, y) = e^-y (1+y)
# for AFE_CUT times as many coefficients.  Timed in process at 152 digits on
# a 2-vCPU VM (both curves, the table and the sum, min of 15), T = 1/2/3/4/
# 5/6/8 took 35/21/17/15/15/15/17 ms, with 133/72/52/41/34/29/23 E1 calls:
# the cost is flat from 4 to 6, and 4 needs the fewest coefficients there.
AFE_CUT = 4


def _afe_count(c: CurveId, ctx: PrecisionContext, scale) -> int:
    """The terms of an AFE half whose points are n kappa scale, kappa =
    2 pi / sqrt(N): through the point past (digits + GUARD) ln 10 + 10, plus
    ten."""
    return math.ceil(math.sqrt(c.N) / (2 * math.pi * scale)
                     * ((ctx.digits + mpnum.GUARD) * math.log(10) + 10)) + 10


def afe_n_max(c: CurveId, ctx: PrecisionContext) -> int:
    """Coefficient count needed by the approximate functional equation: the
    terms of its Gamma(2) half, at the points n kappa / AFE_CUT."""
    return _afe_count(c, ctx, 1 / AFE_CUT)


def l_two(c: CurveId, tbl: dict, ctx: PrecisionContext) -> Ball:
    """L(E, 2) by the incomplete-gamma approximate functional equation, from
    the coefficient table tbl = {n: a_n}, n = 1..len(tbl), with root number
    w = +1.  Lambda(2) = N int_0^inf f(iy) y dy, split at y = 1/(T sqrt N),
    T = AFE_CUT, with f(i/(N y)) = w N y^2 f(iy) on the part below, is

        L(2) = sum_{n <= n_G} a_n e^-y_n (1 + y_n) / n^2
               + kappa^2 sum_{n <= n_E} a_n E1(x_n),

        y_n = n kappa / T,  x_n = n kappa T,  kappa = 2 pi / sqrt(N),

    n_G = afe_n_max and n_E its count at x_n (`_afe_count`).  One integer
    ball in units of 2^-W, W = ctx.fixed_bits, its radius with the
    truncation bound rounded up to a unit: kappa/T, kappa T, kappa^2,
    e^-kappa/T and e^-kappa T are rounded once each, and
    e^-y_n = G_n and e^-x_n = P_n are running powers of the last two.
    E1(x_n) is `mpnum.e1_fixed` at X = n K, K = kappa T 2^W rounded: X is
    off by n units or less, which moves e^-x by under n e^-x_n < 1 unit and
    E1 by under e^-x_n / (kappa T) < 1, as kappa T > 3/4.  The sum is
    A1 + (kappa/T) A2 + kappa^2 A3 with A1 = sum a_n G_n // n^2,
    A2 = sum a_n G_n // n and A3 = sum a_n E_n.
    """
    n_gamma = afe_n_max(c, ctx)
    n_e1 = _afe_count(c, ctx, AFE_CUT)
    if len(tbl) < n_gamma:
        raise HeckeError(
            f"need at least {n_gamma} coefficients for digits={ctx.digits}, "
            f"got {len(tbl)}")
    W = ctx.fixed_bits
    with mpmath.workprec(W + 16):
        kappa = 2 * mpmath.pi / mpmath.sqrt(c.N)
        # each within one unit of 2^-W; e^-kappa/T, e^-kappa T < 1, so Q_G,
        # Q_E < 2^W
        KG, KE, K2, QG, QE = (int(mpmath.nint(mpmath.ldexp(v, W))) for v in (
            kappa / AFE_CUT, kappa * AFE_CUT, kappa ** 2,
            mpmath.exp(-kappa / AFE_CUT), mpmath.exp(-kappa * AFE_CUT)))
        # truncation: |a_n| <= d(n) sqrt(n) <= 2n (Dokchitser, math/0207280).
        # As n/y_n = T/kappa, a Gamma(2) summand is below 2 e^-y (1+y)/n
        # = 2 (kappa/T) e^-y (1+y)/y <= 4 (kappa/T) e^-y for y >= 1, and as
        # n/x_n = 1/(kappa T), an E1 one below |a_n| kappa^2 e^-x/x <=
        # 2 (kappa/T) e^-x: two geometric series, past n_G and past n_E,
        # in units of 2^-W rounded up
        step_g, step_e = kappa / AFE_CUT, kappa * AFE_CUT
        trunc = int(mpmath.ldexp(
            4 * step_g * mpmath.exp(-step_g * (n_gamma + 1))
            / (1 - mpmath.exp(-step_g))
            + 2 * step_g * mpmath.exp(-step_e * (n_e1 + 1))
            / (1 - mpmath.exp(-step_e)), W)) + 1
    # G_n and P_n are off by under 2n units: each step adds G_{n-1} 2^-W < 1
    # for Q's rounding, one for the floor, and Q 2^-W < 1 times the last
    G = 1 << W
    A1 = A2 = A_rad = 0
    for n in range(1, n_gamma + 1):
        G = G * QG >> W
        an = tbl[n]
        if an == 0:
            continue
        A1 += an * G // (n * n)
        A2 += an * G // n
        A_rad += 2 * abs(an) + 1    # each off by |a_n| 2n/n + 1 at most
    P = 1 << W
    A3 = A3_rad = 0
    for n in range(1, n_e1 + 1):
        P = P * QE >> W
        an = tbl[n]
        if an == 0:
            continue
        E, R = mpnum.e1_fixed(n * KE, W, (P, 2 * n + 1))
        A3 += an * E
        A3_rad += abs(an) * (R + 1)
    # KG and K2 are off by a unit each
    val = A1 + (KG * A2 + K2 * A3 >> W)
    rad = (A_rad + ((abs(A2) + (KG + 1) * A_rad + abs(A3) + (K2 + 1) * A3_rad)
                    >> W) + 2 + trunc)
    if rad * 10 ** ctx.digits > max(abs(val), 1 << W):
        raise mpnum.PrecisionError(
            "the approximate functional equation did not reach the "
            "requested precision")
    return Ball(val, rad, W)


def lstar_zero(c: CurveId, ctx: PrecisionContext,
               tbl: dict | None = None) -> Ball:
    """L*(E, 0) = N / (2 pi)^2 * L(E, 2), positive for both curves, with the
    constant a product of balls."""
    if tbl is None:
        tbl = build_coeffs(c, afe_n_max(c, ctx), "cm")
    two_pi = Ball.pi(ctx.fixed_bits) * 2
    res = l_two(c, tbl, ctx) * c.N / (two_pi * two_pi)
    if res.mid <= res.rad:
        raise HeckeError("L*(E, 0) must be positive")
    return res
