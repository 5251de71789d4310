"""Dirichlet coefficients and special values of L(E_N, s) for N in {36, 64}.

Coefficients come from two independent routes: naive point counting over
F_p and the CM (Hecke character) formula; L(E, 2) and L*(E, 0) via the
incomplete-gamma approximate functional equation with root number +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import mpmath
from mpmath import mpf

from . import mpnum
from .mpnum import ArbReal, PrecisionContext


class HeckeError(Exception):
    pass


class BadPrimeError(HeckeError):
    pass


class CoefficientFileError(HeckeError):
    pass


@dataclass(frozen=True)
class CurveId:
    N: int
    weierstrass: tuple  # (a, b) with y^2 = x^3 + a x + b
    bad_primes: frozenset
    root_number: int = 1


E36 = CurveId(36, (0, 1), frozenset({2, 3}))
E64 = CurveId(64, (-4, 0), frozenset({2}))

CURVES = {36: E36, 64: E64}


def curve(N: int) -> CurveId:
    try:
        return CURVES[N]
    except KeyError:
        raise ValueError(f"unsupported conductor {N}; expected 36 or 64")


def ap_pointcount(c: CurveId, p: int) -> int:
    """a_p = p + 1 - #E(F_p) by exhaustive enumeration over F_p."""
    if p in c.bad_primes:
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
# CM route.  E36 has CM by Z[w], w = zeta_3 (w^2 = -1 - w); E64 by Z[i].
# Elements are integer pairs; the Hecke character normalization is pinned by
# the conductor ideal: chi((alpha)) = conj(alpha) for alpha = 1 mod f.


def _eis_mul(x, y):
    # (a + b w)(c + d w), w^2 = -1 - w
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c - b * d)


def _eis_conj(x):
    # conj(a + b w) = a + b w^2 = (a - b) - b w
    a, b = x
    return (a - b, -b)


def _eis_norm(x):
    a, b = x
    return a * a - a * b + b * b


def _eis_trace(x):
    # x + conj(x) = 2a - b
    a, b = x
    return 2 * x[0] - x[1]


# the six units of Z[w]: +-1, +-w, +-w^2 with w^2 = -1 - w
_EIS_UNITS = [(1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1), (1, 1)]

_EIS_NU = (4, 2)  # nu = 2(1 - w^2) = 4 + 2w, the conductor generator for E36


def _eis_divides(d, x) -> bool:
    # d | x in Z[w]  <=>  x * conj(d) = 0 mod N(d) componentwise
    prod = _eis_mul(x, _eis_conj(d))
    n = _eis_norm(d)
    return prod[0] % n == 0 and prod[1] % n == 0


def _eis_generator(p: int):
    """Some generator of a prime above a split p in Z[w] (norm p)."""
    amax = math.isqrt(4 * p // 3) + 2
    for a in range(amax + 1):
        d = 4 * p - 3 * a * a
        if d < 0:
            continue
        r = math.isqrt(d)
        if r * r != d:
            continue
        if (a + r) % 2 == 0:
            return ((a + r) // 2, a)
    raise HeckeError(f"no Eisenstein element of norm {p}")


def _gauss_mul(x, y):
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c)


def _gauss_conj(x):
    return (x[0], -x[1])


_GAUSS_UNITS = [(1, 0), (0, 1), (-1, 0), (0, -1)]

_GAUSS_NU = (4, 0)  # conductor generator for E64


def _gauss_generator(p: int):
    for a in range(1, math.isqrt(p) + 1):
        d = p - a * a
        r = math.isqrt(d)
        if r * r == d:
            return (a, r)
    raise HeckeError(f"no Gaussian element of norm {p}")


# chi_f on the nontrivial coset representative of (O_K/f)*/mu_K.
# For E36 the quotient is trivial; for E64 it is {1, 1-2i} and the value
# chi_f(1-2i) = 1 is calibrated once against ap_pointcount(E64, 5) = 2
# (see ellper.chi_f_check for the consistency argument).
_GAUSS_COSET_REP = (1, -2)
_GAUSS_CHI_REP = (1, 0)


def ap_cm(c: CurveId, p: int) -> int:
    """a_p via the Hecke character: 0 at inert p, trace of chi(p) at split p."""
    if p in c.bad_primes:
        raise BadPrimeError(f"{p} is a bad prime for conductor {c.N}")
    if c.N == 36:
        if p % 3 != 1:
            return 0  # inert in Q(zeta_3)
        pi = _eis_generator(p)
        # chi((pi)) = conj(pi') where pi' = unit * pi is the generator
        # congruent to a unit u mod nu; then chi((pi)) = conj(pi) * u... the
        # class group (O/f)*/mu_K is trivial, so pi = u * pi1 with pi1 = 1
        # mod f and chi((pi)) = conj(pi1).
        for u in _EIS_UNITS:
            cand = _eis_mul(pi, u)
            delta = (cand[0] - 1, cand[1])
            if _eis_divides(_EIS_NU, delta):
                return _eis_trace(cand)
        raise HeckeError(f"no unit-normalized generator found for p={p}")
    if c.N == 64:
        if p % 4 != 1:
            return 0  # inert in Q(i)
        pi = _gauss_generator(p)
        for u in _GAUSS_UNITS:
            cand = _gauss_mul(pi, u)
            # cand = r mod 4 for r in {1, 1-2i} (up to nothing else)?
            for rep, chi in (((1, 0), (1, 0)), (_GAUSS_COSET_REP, _GAUSS_CHI_REP)):
                if (cand[0] - rep[0]) % 4 == 0 and (cand[1] - rep[1]) % 4 == 0:
                    # a_p = chi(p) + conj(chi(p)), chi((cand)) = conj(cand) chi_f(rep)
                    val = _gauss_mul(_gauss_conj(cand), chi)
                    return 2 * val[0]
        raise HeckeError(f"no normalized generator found for p={p}")
    raise ValueError(f"unsupported conductor {c.N}")


@dataclass
class CoeffTable:
    n_max: int
    a: dict = field(default_factory=dict)
    source: str = "cm"

    def __getitem__(self, n: int) -> int:
        return self.a[n]

    def check_invariants(self, sample_stride: int = 1):
        if self.a.get(1) != 1:
            raise HeckeError("a_1 must be 1")
        for n in range(1, self.n_max + 1, sample_stride):
            for m in range(2, self.n_max // n + 1):
                if math.gcd(m, n) == 1 and m * n <= self.n_max:
                    if self.a[m * n] != self.a[m] * self.a[n]:
                        raise HeckeError(
                            f"multiplicativity fails at ({m},{n})")
            if sample_stride > 1 and n > 100:
                break


def _primes_up_to(n: int):
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p:: p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i in range(2, n + 1) if sieve[i]]


def build_coeffs(c: CurveId, n_max: int, source: str = "cm",
                 an_file: str | None = None) -> CoeffTable:
    """Multiplicative coefficient table a_1..a_{n_max} from the given source."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if source == "file":
        return _read_coeff_file(an_file, n_max)
    if source == "cm":
        ap = ap_cm
    elif source == "pointcount":
        ap = ap_pointcount
    else:
        raise ValueError(f"unknown coefficient source {source!r}")
    a = {1: 1}
    for p in _primes_up_to(n_max):
        apv = 0 if p in c.bad_primes else ap(c, p)
        if p not in c.bad_primes and apv * apv > 4 * p:
            raise HeckeError(f"Hasse bound violated at p={p}")
        # prime powers via the Hecke recursion a_{p^{k+1}} = a_p a_{p^k} - p a_{p^{k-1}}
        pk = p
        prev2, prev1 = 1, apv
        while pk <= n_max:
            a[pk] = 0 if p in c.bad_primes else prev1
            pk *= p
            prev2, prev1 = prev1, apv * prev1 - p * prev2
    # smallest-prime-factor sieve, then fill multiplicatively
    spf = list(range(n_max + 1))
    for p in range(2, math.isqrt(n_max) + 1):
        if spf[p] == p:
            for m in range(p * p, n_max + 1, p):
                if spf[m] == m:
                    spf[m] = p
    for n in range(2, n_max + 1):
        if n in a:
            continue
        p = spf[n]
        m = n
        pk = 1
        while m % p == 0:
            pk *= p
            m //= p
        a[n] = a[pk] * a[m]
    return CoeffTable(n_max=n_max, a=a, source=source)


def _read_coeff_file(path: str | None, n_max: int) -> CoeffTable:
    if path is None:
        raise CoefficientFileError("source=file requires a coefficient file path")
    a = {}
    expected = 1
    with open(path) as fh:
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
    tbl = CoeffTable(n_max=n_max, a=a, source="file")
    _check_file_consistency(tbl)
    return tbl


def _check_file_consistency(tbl: CoeffTable):
    """Hecke multiplicativity on (at least) a 1% sample of coprime pairs."""
    if tbl.a.get(1) != 1:
        raise CoefficientFileError("a_1 must be 1")
    checked = 0
    target = max(10, tbl.n_max // 100)
    m = 2
    while checked < target and m * m <= tbl.n_max:
        for n in range(m + 1, tbl.n_max // m + 1):
            if math.gcd(m, n) == 1:
                if tbl.a[m * n] != tbl.a[m] * tbl.a[n]:
                    raise CoefficientFileError(
                        f"multiplicativity violated at ({m},{n})")
                checked += 1
                if checked >= target:
                    break
        m += 1


def afe_n_max(c: CurveId, ctx: PrecisionContext) -> int:
    """Coefficient count needed by the approximate functional equation."""
    sqrtN = math.sqrt(c.N)
    return math.ceil(sqrtN / (2 * math.pi) * ((ctx.digits + ctx.guard) * math.log(10) + 10)) + 10


def l_two(c: CurveId, tbl: CoeffTable, ctx: PrecisionContext) -> ArbReal:
    """L(E, 2) by the incomplete-gamma approximate functional equation.

    L(2) = (2 pi / sqrt(N))^2 sum_n a_n [ (sqrt(N)/(2 pi n))^2 Gamma(2, x_n)
           + w Gamma(0, x_n) ],   x_n = 2 pi n / sqrt(N),  w = +1.
    """
    needed = afe_n_max(c, ctx)
    if tbl.n_max < needed:
        raise HeckeError(
            f"need at least {needed} coefficients for digits={ctx.digits}, "
            f"got {tbl.n_max}")
    with ctx.workprec():
        sqrtN = mpmath.sqrt(c.N)
        two_pi = 2 * mpmath.pi
        acc = mpf(0)
        g0_err = mpf(0)   # sum |a_n| err(E1(x_n))
        ln10 = math.log(10)
        w = c.root_number
        for n in range(1, needed + 1):
            an = tbl[n]
            if an == 0:
                continue
            x = two_pi * n / sqrtN
            g2 = mpmath.exp(-x) * (1 + x)
            # E1(x) < e^{-x}/x, so x/ln 10 fewer digits give it the same
            # absolute error.  Rounding x to them moves E1 by under (x+1)
            # ulps relative, since |E1'(x)/E1(x)| < 1 + 1/x.
            ctx_n = replace(ctx, digits=max(ctx.digits - int(x / ln10), 10))
            g0 = mpnum.upper_incomplete_gamma(0, x, ctx_n)
            acc += an * ((sqrtN / (two_pi * n)) ** 2 * g2 + w * g0.val)
            x_ulps = (x + 1) * mpmath.ldexp(1, 1 - ctx_n.prec_bits)
            g0_err += abs(an) * (g0.err + g0.val * x_ulps)
        scale = (two_pi / sqrtN) ** 2
        val = scale * acc
        # truncation: |a_n| <= d(n) sqrt(n) <= 2n (Dokchitser, math/0207280),
        # and for x >= 1 the summand is below 3|a_n| e^{-x}/x with
        # n/x_n = sqrt(N)/(2 pi), so the tail is at most
        # 6 sqrt(N)/(2 pi) sum_{n>needed} e^{-x_n}, a geometric series
        kappa = two_pi / sqrtN
        x_tail = kappa * (needed + 1)
        trunc = 6 / kappa * mpmath.exp(-x_tail) / (1 - mpmath.exp(-kappa))
        err = abs(val) * ctx.eps * 8 * needed + scale * (trunc + g0_err)
        if err > ctx.target_eps * max(abs(val), 1):
            raise mpnum.PrecisionError(
                "the approximate functional equation did not reach the "
                "requested precision")
        return ArbReal(val, err)


def lstar_zero(c: CurveId, ctx: PrecisionContext,
               tbl: CoeffTable | None = None) -> ArbReal:
    """L*(E, 0) = N / (2 pi)^2 * L(E, 2), positive for both curves."""
    with ctx.workprec():
        if tbl is None:
            tbl = build_coeffs(c, afe_n_max(c, ctx), "cm")
        l2 = l_two(c, tbl, ctx)
        res = l2 * ArbReal(mpf(c.N) / (2 * mpmath.pi) ** 2, 0)
        if res.val <= 0:
            raise HeckeError("L*(E, 0) must be positive")
        return res


def eta_product_coeffs(n_max: int) -> CoeffTable:
    """Coefficients of q prod_{n>=1} (1 - q^{6n})^4, a cross-check for E36."""
    # expand prod (1 - q^{6n})^4 up to q^{n_max - 1}
    coeffs = [0] * n_max
    if n_max > 0:
        coeffs[0] = 1
    for k in range(6, n_max, 6):
        for _ in range(4):
            # multiply by (1 - q^k)
            for i in range(n_max - 1, k - 1, -1):
                coeffs[i] -= coeffs[i - k]
    a = {n: coeffs[n - 1] for n in range(1, n_max + 1)}
    return CoeffTable(n_max=n_max, a=a, source="cm")
