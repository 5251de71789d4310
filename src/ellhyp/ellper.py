"""Periods, elliptic logarithms, and the torsion labeling E_f = O_K / f.

The curve differential du/(2v) is rescaled to omega_E = o c du/(2v), with o
the orientation sign, so that int omega ^ conj(omega) / (2 pi i) = -1, i.e.
the period lattice Gamma = O_K Omega has covolume pi.  With omega1 the real
period of du/(2v), Omega_R = c omega1 is that of omega_E, and Omega_R =
h Omega, with h the least multiplier in O_K that takes Omega to the positive
real axis, gives Omega = c omega1 / h.  A point whose du/(2v) logarithm is z
is labelled by w = z_E conj(nu) / Omega = o (h conj(nu)) z / omega1, so c
cancels: omega1, one AGM, is the only transcendental input, and h conj(nu)
is exact.  By Chowla-Selberg omega1 is also a Beta value, the form
verify-periods checks it against.

Elliptic logs and the embedding of Q(zeta_24) run on Gaussian fixed-point
ints; lattice and torsion_label work on the mpc values _embed rounds them to.
"""

from __future__ import annotations

import functools
import math

import mpmath
from mpmath import mpc, mpf

from . import hecke, mpnum
from .cyclo import DEGREE, CycloNum
from .ecdiv import CurvePoint, law
from .mpnum import Ball, PrecisionContext


class PeriodError(Exception):
    pass


class LabelError(PeriodError):
    pass


# The two facts of each curve that neither hecke.CurveId nor ecdiv.Curve
# holds: the least multiplier h with Omega_R = h Omega, as hecke's pair
# (2 + zeta_3 = 1 - zeta_3^2, of norm 3, on conductor 36; the unit 1 on
# conductor 64), and the orientation, the sign of omega_E relative to
# +du/(2v).  The constraints (covolume pi, Omega/conj(nu) real, Omega_R > 0)
# are invariant under omega_E -> -omega_E, which negates every torsion
# label.  The sign is a convention anchored at one published label per curve
# (P = (0,1) -> 1 on conductor 36, S -> 1 on conductor 64); all other labels
# are then forced and independently checkable.
_H_AND_ORIENTATION = {36: ((2, 1), -1), 64: ((1, 0), +1)}


@functools.lru_cache(maxsize=None)
def _tau(N: int) -> CycloNum:
    """t = exp(2 pi i / (4 - s)) of hecke's O_K = Z[t]: zeta_3 or i."""
    return CycloNum.zeta_pow(24 // (4 - hecke.curve(N).s))


def _ok(N: int, pair) -> CycloNum:
    """The element a + b t of O_K for hecke's integer pair (a, b)."""
    return pair[0] + pair[1] * _tau(N)


def ok_pair(N: int, x: CycloNum):
    """Hecke's integer pair (a, b) with x = a + b t, or None if x is not in
    O_K; it reads the label literals of claims.json."""
    # exact linear algebra in the zeta_24 basis: x = a + b t means the
    # coefficient vector is a*e0 + b*t.num.  The power basis is integral,
    # so a + b t with integers a, b has denominator 1.
    tc = _tau(N).num
    if x.den != 1:
        return None
    k = next(i for i in range(1, 8) if tc[i] != 0)
    b, r = divmod(x.num[k], tc[k])
    a = x.num[0] - b * tc[0]
    if r or x != _ok(N, (a, b)):
        return None
    return a, b


# Fixed point: a complex number is a pair (re, im) of ints in units of 2^-W,
# W = ctx.prec_bits + _GUARD; each product, quotient or root floors once.
_GUARD = 32


def _add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _half(x):
    return x[0] >> 1, x[1] >> 1


def _mul(x, y, W: int):
    return (x[0] * y[0] - x[1] * y[1]) >> W, (x[0] * y[1] + x[1] * y[0]) >> W


def _div(x, y, W: int):
    n = y[0] * y[0] + y[1] * y[1]
    return (((x[0] * y[0] + x[1] * y[1]) << W) // n,
            ((x[1] * y[0] - x[0] * y[1]) << W) // n)


def _sqrt(x, W: int):
    """The principal root, as mpmath.sqrt: the larger of |Re| and |Im| is
    isqrt((|x| +- Re x) / 2) and the other Im x / 2 over it."""
    re, im = x
    rho = math.isqrt(re * re + im * im)
    if re >= 0:
        p = math.isqrt((rho + re) << (W - 1))
        return (p, (im << W) // (2 * p)) if p else (0, 0)
    q = math.isqrt((rho - re) << (W - 1))
    return (abs(im) << W) // (2 * q), (q if im >= 0 else -q)


def _near_root(x, near, W: int):
    """The root of x nearer `near`: |r - n|^2 - |r + n|^2 = -4 Re(r conj n)."""
    r = _sqrt(x, W)
    return r if r[0] * near[0] + r[1] * near[1] >= 0 else (-r[0], -r[1])


def _to_mpc(x, W: int) -> mpc:
    """x at the current mpmath precision, rounded once per component."""
    return mpc(mpf((x[0], -W)), mpf((x[1], -W)))


@functools.lru_cache(maxsize=None)
def _zeta_powers(W: int) -> tuple:
    """zeta_24^j for j < 8 within 2 units each, from zeta_24 = ((sqrt 6 +
    sqrt 2) + i (sqrt 6 - sqrt 2)) / 4, the powers formed 8 bits finer."""
    s6, s2 = math.isqrt(6 << 2 * W + 16), math.isqrt(2 << 2 * W + 16)
    z, p, out = ((s6 + s2) >> 2, (s6 - s2) >> 2), (1 << W + 8, 0), []
    for _ in range(DEGREE):
        out.append((p[0] >> 8, p[1] >> 8))
        p = _mul(p, z, W + 8)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _fixed(x: CycloNum, W: int):
    """x at zeta_24, sum num_j Z_j // den, within 2 sum |num_j| / den + 1."""
    zs = _zeta_powers(W)
    return tuple(sum(n * z[k] for n, z in zip(x.num, zs)) // x.den
                 for k in (0, 1))


@functools.lru_cache(maxsize=None)
def _embed(x: CycloNum, ctx: PrecisionContext) -> mpc:
    """The value of x at zeta_24 = exp(2 pi i / 24) at working precision."""
    W = ctx.prec_bits + _GUARD
    with ctx.workprec():
        return _to_mpc(_fixed(x, W), W)


@functools.lru_cache(maxsize=None)
def lattice(N: int, ctx: PrecisionContext) -> Ball:
    """omega1 = pi / agm of the root gaps, the period of du/(2v) over the real
    component, built once per curve and precision, as a ball at
    ctx.fixed_bits.  The du/(2v)-period lattice is O_K * (omega1 / h)."""
    with ctx.workprec():
        e1, e2, e3 = (_embed(r, ctx) for r in law(N).curve.roots)
        g, g_err = mpnum.agm(mpmath.sqrt(e1 - e2), mpmath.sqrt(e1 - e3), ctx)
        v = mpmath.pi / g
        if abs(mpmath.im(v)) > ctx.eps * abs(v) * 100:
            raise PeriodError("real period came out non-real")
        omega1 = mpmath.re(v)
        if omega1 <= 0:
            raise PeriodError("real period must be positive")
        W = ctx.fixed_bits      # int() drops under a unit from each part
        return Ball(int(mpmath.ldexp(omega1, W)), int(mpmath.ldexp(
            omega1 * (ctx.eps * 100 + g_err / abs(g)), W)) + 2, W)


def h_nu_bar(N: int) -> CycloNum:
    """h conj(nu), exact: w = o h conj(nu) z / omega1.  Omega / conj(nu) =
    Omega_R / (h conj(nu)) is real iff this is."""
    return _ok(N, _H_AND_ORIENTATION[N][0]) * _ok(N, hecke.curve(N).nu).conj()


# elliptic logarithms ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _agm_log(roots: tuple, u: CycloNum, ctx: PrecisionContext):
    """(z, w) with z = int_P^inf du/(2v) for the point P = (u, w).

    Landen descent (Cremona and Thongjunthug, J. Number Theory 133 (2013)):
    with u - e3 = t^2 the integral is int_c^inf dt / sqrt((t^2 - a^2)
    (t^2 - a^2 + b^2)), from c = sqrt(u - e3), a = sqrt(e1 - e3),
    b = sqrt(e1 - e2).  The step a, b -> AGM step, t -> (t + s(t)) / 2 with
    s(t) = sqrt(t^2 - a^2 + b^2) leaves it unchanged, and at a = b = m it is
    asin(m / c) / m.  D = c^2 - a^2 and s^2 = D + b^2 start from the exact
    u - e1 and u - e2, and v = c s sqrt(D) is tracked along the way, so
    the chain also says which of the two points with this u it integrated
    from.  It depends only on u, so P and -P share one chain.

    The chain runs on fixed-point ints, W = ctx.prec_bits + 32: each
    product, quotient and root floors once, under a unit per component, a
    few units per step against 32 guard bits; each choice of root or
    formula is a sign test.  mpmath only takes the closing log."""
    W = ctx.prec_bits + _GUARD
    a = _sqrt(_fixed(roots[0] - roots[2], W), W)
    b = _near_root(_fixed(roots[0] - roots[1], W), a, W)
    c = c0 = _sqrt(_fixed(u - roots[2], W), W)
    d = _fixed(u - roots[0], W)
    s2 = _fixed(u - roots[1], W)
    dv = (1 << W, 0)
    for _ in range(64):  # quadratic convergence needs about 10
        q = (a[0] - b[0], a[1] - b[1])  # stop at |a - b| <= 2^-prec_bits |a|
        if (q[0] * q[0] + q[1] * q[1]) << 2 * ctx.prec_bits \
                <= a[0] * a[0] + a[1] * a[1]:
            break
        s = _near_root(s2, c, W)
        cs, ab = _mul(c, s, W), _mul(a, b, W)
        if cs[0] * ab[0] + cs[1] * ab[1] >= 0:  # |cs + ab| >= |cs - ab|
            # cs - ab = (c^2 s^2 - a^2 b^2) / (cs + ab) without the
            # cancellation; at u = e1 it keeps D exactly 0
            t = _add(_add(_mul(a, a, W), _mul(b, b, W)), d)
            d = _half(_add(d, _div(_mul(d, t, W), _add(cs, ab), W)))
        else:
            d = _half((d[0] + cs[0] - ab[0], d[1] + cs[1] - ab[1]))
        c = _half(_add(c, s))
        dv = _div(_mul(dv, s, W), c, W)
        a = _half(_add(a, b))
        b = _near_root(ab, a, W)
        s2 = _add(d, _mul(b, b, W))
    else:
        raise PeriodError("Landen chain failed to converge")
    m = _half(_add(a, b))
    r, im = _sqrt(d, W), (-m[1], m[0])
    with ctx.workprec():
        # asin(m/c)/m = log((r + i m) / c) / (i m); asin itself takes the
        # wrong sheet where m/c is real and above 1 (conductor 36 at (0, +-1))
        z = mpmath.log(_to_mpc(_div(_add(r, im), c, W), W)) / _to_mpc(im, W)
        return z, _to_mpc(_mul(_mul(_mul(c0, dv, W), c, W), r, W), W)


def _std_log(roots: tuple, p: CurvePoint, ctx: PrecisionContext) -> mpc:
    """int_P^inf du/(2v) modulo the du/(2v)-period lattice.

    The Landen chain integrates from the point (u0, w) with w = +-v0; the
    integral from (u0, -w) is its negative."""
    if p.infinite:
        return mpc(0)
    z, w = _agm_log(roots, p.u, ctx)
    if not p.v:
        return z  # half-period: sign immaterial mod the lattice
    with ctx.workprec():
        q = _embed(p.v, ctx) / w
        sign = 1 if mpmath.re(q) >= 0 else -1
        if abs(q - sign) > mpf(10) ** (5 - ctx.digits):
            raise PeriodError(f"v0 is neither sign of the chain's v "
                              f"(v0 / v = {mpmath.nstr(q, 8)})")
        return sign * z


def elliptic_log(N: int, p: CurvePoint, ctx: PrecisionContext) -> mpc:
    """z = the integral of du/(2v) from the group-law origin to P, defined
    modulo the du/(2v)-period lattice and returned unreduced."""
    lw = law(N)
    roots = lw.curve.roots
    with ctx.workprec():
        return _std_log(roots, p, ctx) - _std_log(roots, lw.base, ctx)


def torsion_label(N: int, p: CurvePoint, ctx: PrecisionContext) -> tuple:
    """The class of P under E_f ~ O_K/f via z_E -> z_E conj(nu) / Omega, as
    its hecke.residue pair.  A period added to z moves w by an element of
    conj(nu) O_K, which is nu O_K on both curves, so the class is the same."""
    with ctx.workprec():
        w = (_H_AND_ORIENTATION[N][1] * _embed(h_nu_bar(N), ctx)
             * elliptic_log(N, p, ctx) / lattice(N, ctx).val)
        tau = _embed(_tau(N), ctx)
        b = mpmath.im(w) / mpmath.im(tau)
        a = mpmath.re(w) - b * mpmath.re(tau)
        ai, bi = int(mpmath.nint(a)), int(mpmath.nint(b))
        dist = abs(w - (ai + bi * tau))
        if dist > mpf("1e-5"):
            raise LabelError(
                f"no O_K point within 1e-5 of {w} (distance {dist}); wrong "
                "normalization or insufficient precision")
        return hecke.residue(hecke.curve(N), (ai, bi))
