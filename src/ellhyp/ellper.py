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
"""

from __future__ import annotations

import functools

import mpmath
from mpmath import mpc, mpf

from . import hecke, mpnum
from .cyclo import ORDER, CycloNum
from .ecdiv import CurvePoint, law
from .mpnum import ArbReal, PrecisionContext


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


@functools.lru_cache(maxsize=None)
def _embed(x: CycloNum, ctx: PrecisionContext) -> mpc:
    """The value of x at zeta_24 = exp(2 pi i / 24) at working precision,
    built once per (x, ctx)."""
    with ctx.workprec():
        z = mpmath.expjpi(mpf(2) / ORDER)
        acc = mpc(0)
        # Horner, fixed order
        for c in reversed(x.coeffs):
            acc = acc * z + mpf(c.numerator) / c.denominator
        return acc


@functools.lru_cache(maxsize=None)
def lattice(N: int, ctx: PrecisionContext) -> ArbReal:
    """omega1 = pi / agm of the root gaps, the period of du/(2v) over the real
    component, built once per curve and precision.  The du/(2v)-period
    lattice is O_K * (omega1 / h)."""
    with ctx.workprec():
        e1, e2, e3 = (_embed(r, ctx) for r in law(N).curve.roots)
        g, g_err = mpnum.agm(mpmath.sqrt(e1 - e2), mpmath.sqrt(e1 - e3), ctx)
        v = mpmath.pi / g
        if abs(mpmath.im(v)) > ctx.eps * abs(v) * 100:
            raise PeriodError("real period came out non-real")
        omega1 = mpmath.re(v)
        if omega1 <= 0:
            raise PeriodError("real period must be positive")
        return ArbReal(omega1, omega1 * (ctx.eps * 100 + g_err / abs(g)))


def h_nu_bar(N: int) -> CycloNum:
    """h conj(nu), exact: w = o h conj(nu) z / omega1.  Omega / conj(nu) =
    Omega_R / (h conj(nu)) is real iff this is."""
    return _ok(N, _H_AND_ORIENTATION[N][0]) * _ok(N, hecke.curve(N).nu).conj()


# elliptic logarithms ---------------------------------------------------------

def _near_root(x: mpc, near: mpc) -> mpc:
    """The square root of x nearer `near`."""
    r = mpmath.sqrt(x)
    return r if abs(r - near) <= abs(r + near) else -r


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
    from.  It depends only on u, so P and -P share one chain."""
    with ctx.workprec():
        e1, e2, e3 = (_embed(r, ctx) for r in roots)
        a = mpmath.sqrt(e1 - e3)
        b = _near_root(e1 - e2, a)
        c = c0 = mpmath.sqrt(_embed(u - roots[2], ctx))
        d = _embed(u - roots[0], ctx)
        s2 = _embed(u - roots[1], ctx)
        dv = mpf(1)
        for _ in range(64):  # quadratic convergence needs about 10
            if abs(a - b) <= ctx.eps * abs(a):
                break
            s = _near_root(s2, c)
            cs, ab = c * s, a * b
            if abs(cs + ab) >= abs(cs - ab):
                # cs - ab = (c^2 s^2 - a^2 b^2) / (cs + ab) without the
                # cancellation; at u = e1 it keeps D exactly 0
                d = (d + d * (a * a + b * b + d) / (cs + ab)) / 2
            else:
                d = (d + cs - ab) / 2
            c_next = (c + s) / 2
            dv *= s / c_next
            c = c_next
            a, b = (a + b) / 2, _near_root(a * b, (a + b) / 2)
            s2 = d + b * b
        else:
            raise PeriodError("Landen chain failed to converge")
        m = (a + b) / 2
        r = mpmath.sqrt(d)
        # asin(m/c)/m; asin itself takes the wrong sheet where m/c is real
        # and above 1 (conductor 36 at (0, +-1))
        z = -1j * mpmath.log((r + 1j * m) / c) / m
        return z, c0 * dv * c * r


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
