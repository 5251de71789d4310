"""Periods, elliptic logarithms, and the torsion labeling E_f = O_K / f.

The curve differential du/(2v) is rescaled to omega_E = c du/(2v) with
int omega ^ conj(omega) / (2 pi i) = -1, i.e. the period lattice has
covolume pi.  With Gamma = O_K Omega this forces |Omega| = sqrt(pi /
covol(O_K)), and the real period is Omega_R = |h| |Omega| for the unit
factor h with Omega_R = h Omega.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import mpmath
from mpmath import mpc, mpf

from . import hecke, mpnum
from .cyclo import ORDER, CycloNum
from .ecdiv import CurvePoint, law
from .mpnum import ArbComplex, ArbReal, PrecisionContext


class PeriodError(Exception):
    pass


class LabelError(PeriodError):
    pass


# The two facts of each curve that neither hecke.CurveId nor ecdiv.Curve
# holds: the unit h with Omega_R = h Omega, as hecke's pair (2 + zeta_3 =
# 1 - zeta_3^2 on conductor 36, 1 on conductor 64), and the orientation, the
# sign of omega_E relative to +du/(2v).  The constraints (covolume pi,
# Omega/conj(nu) real, Omega_R > 0) are invariant under omega_E -> -omega_E,
# which negates every torsion label.  The sign is a convention anchored at
# one published label per curve (P = (0,1) -> 1 on conductor 36, S -> 1 on
# conductor 64); all other labels are then forced and independently
# checkable.
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


@dataclass(frozen=True)
class PeriodData:
    N: int
    Omega: ArbComplex     # generator with Gamma = O_K * Omega
    OmegaR: ArbReal       # real period of omega_E
    h_unit: CycloNum
    scale_c: ArbReal      # omega_E = scale_c * du/(2v)
    nu_bar: mpc           # conj(nu) at working precision

    def check(self, ctx: PrecisionContext) -> None:
        with ctx.workprec():
            tol = mpf(10) ** (-(ctx.digits - 5))
            h = _embed(self.h_unit, ctx)
            if abs(h * self.Omega.val - self.OmegaR.val) > tol:
                raise PeriodError("h * Omega does not reproduce Omega_R")
            ratio = self.Omega.val / self.nu_bar
            if abs(mpmath.im(ratio)) > tol:
                raise PeriodError("Omega / conj(nu) is not real")
            if self.OmegaR.val <= 0:
                raise PeriodError("Omega_R must be positive")


@functools.lru_cache(maxsize=None)
def lattice(N: int, ctx: PrecisionContext) -> PeriodData:
    """The checked period data of curve N, built once per curve and precision.

    One AGM of root gaps gives omega1 = pi / agm, the period of du/(2v) over
    the real component; c = sqrt(pi / A0) for the covolume A0 of the
    unnormalized lattice O_K * (omega1 / h), and Omega_R = c * omega1."""
    cm = hecke.curve(N)
    h_unit = _ok(N, _H_AND_ORIENTATION[N][0])
    with ctx.workprec():
        e1, e2, e3 = (_embed(r, ctx) for r in law(N).curve.roots)
        g = mpnum.agm(mpmath.sqrt(e1 - e2), mpmath.sqrt(e1 - e3), ctx)
        v = mpmath.pi / g.val
        if abs(mpmath.im(v)) > ctx.eps * abs(v) * 100:
            raise PeriodError("real period came out non-real")
        omega1 = mpmath.re(v)
        rel1 = ctx.eps * 100 + g.err / abs(g.val)  # relative error of omega1
        h = _embed(h_unit, ctx)
        covol = mpmath.sqrt(4 - cm.s * cm.s) / 2  # of O_K = Z + Z t
        c = mpmath.sqrt(mpmath.pi / (covol * (omega1 / abs(h)) ** 2))
        omega_r = ArbReal(c * omega1, abs(c * omega1) * ctx.eps * 200)
        data = PeriodData(N, ArbComplex(omega_r.val / h, omega_r.err * 4), omega_r,
                          h_unit, ArbReal(c, abs(c) * (ctx.eps * 100 + rel1)),
                          mpmath.conj(_embed(_ok(N, cm.nu), ctx)))
        data.check(ctx)
        return data


# elliptic logarithms ---------------------------------------------------------

def _tau_coords(w: mpc, tau: mpc):
    """Real coordinates (a, b) of w = a + b tau in the basis (1, tau)."""
    b = mpmath.im(w) / mpmath.im(tau)
    return mpmath.re(w) - b * mpmath.re(tau), b


def _reduce_mod_lattice(z: mpc, omega: mpc, tau: mpc) -> mpc:
    a, b = _tau_coords(z / omega, tau)
    return ((a - mpmath.nint(a)) + (b - mpmath.nint(b)) * tau) * omega


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


def elliptic_log(N: int, p: CurvePoint, ctx: PrecisionContext) -> ArbComplex:
    """z with P = (integral of omega_E from the group-law origin), mod Gamma."""
    lw = law(N)
    roots = lw.curve.roots
    with ctx.workprec():
        z_raw = _std_log(roots, p, ctx) - _std_log(roots, lw.base, ctx)
        data = lattice(N, ctx)
        z = _H_AND_ORIENTATION[N][1] * data.scale_c.val * z_raw
        tau = _embed(_tau(N), ctx)
        z = _reduce_mod_lattice(z, data.Omega.val, tau)
        return ArbComplex(z, abs(data.Omega.val) * ctx.eps * 10 ** 6)


def torsion_label(N: int, p: CurvePoint, ctx: PrecisionContext) -> tuple:
    """The class of P under E_f ~ O_K/f via x -> x conj(nu) / Omega, as
    its hecke.residue pair."""
    with ctx.workprec():
        z = elliptic_log(N, p, ctx)
        data = lattice(N, ctx)
        w = z.val * data.nu_bar / data.Omega.val
        tau = _embed(_tau(N), ctx)
        a, b = _tau_coords(w, tau)
        ai, bi = int(mpmath.nint(a)), int(mpmath.nint(b))
        dist = abs(w - (ai + bi * tau))
        if dist > mpf("1e-5"):
            raise LabelError(
                f"no O_K point within 1e-5 of {w} (distance {dist}); wrong "
                "normalization or insufficient precision")
        return hecke.residue(hecke.curve(N), (ai, bi))
