"""Periods, elliptic logarithms, torsion labels, character consistency."""

import dataclasses

import mpmath
import pytest

from ellhyp import claims, ellper
from ellhyp.cyclo import CycloNum, I, ZETA3, parse_cyclo
from ellhyp.ecdiv import CurvePoint, law, torsion_Ef
from ellhyp.ellper import (LabelError, PeriodError, chi_f_check, elliptic_log,
                           lattice, raw_real_period, real_period,
                           torsion_label)
from ellhyp.mpnum import PrecisionContext

CTX = PrecisionContext(digits=30)


def test_raw_real_period_against_carlson_oracle():
    # Omega_1 = pi / agm(...) must match the Carlson-form complete integral
    with CTX.workprec():
        for N, roots in ((36, None), (64, (2, 0, -2))):
            got = raw_real_period(N, CTX)
            info = ellper._info(N)
            e1, e2, e3 = (ellper._embed(r, CTX) for r in info.roots)
            want = 2 * mpmath.elliprf(0, e1 - e3, e1 - e2)
            assert abs(got.val - want) < mpmath.mpf(10) ** -25, N


def test_real_period_closed_forms():
    with CTX.workprec():
        tol = mpmath.mpf(10) ** -25
        got36 = real_period(36, CTX)
        assert abs(got36.val -
                   mpmath.sqrt(6 * mpmath.pi / mpmath.sqrt(3))) < tol
        got64 = real_period(64, CTX)
        assert abs(got64.val - mpmath.sqrt(mpmath.pi)) < tol


def test_lattice_consistency():
    for N in (36, 64):
        data = lattice(N, CTX)
        data.check(CTX)  # h*Omega = Omega_R, Omega/conj(nu) real, Omega_R > 0
        with CTX.workprec():
            assert data.OmegaR.val > 0


def test_lattice_is_cached_and_frozen():
    for N in (36, 64):
        data = lattice(N, CTX)
        assert lattice(N, CTX) is data
        assert lattice(N, PrecisionContext(digits=CTX.digits)) is data
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.N = 0


def test_elliptic_log_of_origin_is_zero():
    for N in (36, 64):
        lw = law(N)
        with CTX.workprec():
            z = elliptic_log(N, lw.base, CTX)
            assert abs(z.val) < mpmath.mpf(10) ** -20


def test_elliptic_log_additive_mod_lattice():
    # z(P (+) Q) = z(P) + z(Q) mod the lattice, spot-checked
    for N in (36, 64):
        lw = law(N)
        tor = torsion_Ef(N)
        data = lattice(N, CTX)
        with CTX.workprec():
            tau = ellper._embed(ellper._info(N).tau, CTX)
            for p, q in [(tor[1], tor[2]), (tor[3], tor[5])]:
                zp = elliptic_log(N, p, CTX).val
                zq = elliptic_log(N, q, CTX).val
                zs = elliptic_log(N, lw.add(p, q), CTX).val
                w = (zp + zq - zs) / data.Omega.val
                b = mpmath.im(w) / mpmath.im(tau)
                a = mpmath.re(w) - b * mpmath.re(tau)
                assert abs(a - mpmath.nint(a)) < 1e-15
                assert abs(b - mpmath.nint(b)) < 1e-15


def _tracked_log(info, u0, v0, steps=100):
    """Reference: int_{u0}^{inf} du/(2v) at 16 digits with the square-root
    branch continued step by step from v0 along a path that rises off the
    real axis, runs out to a large real abscissa and descends; the tail is a
    Carlson integral with the tracked sign."""
    with mpmath.workdps(16):
        roots = [mpmath.mpc(ellper._embed(r, CTX)) for r in info.roots]

        def m_at(u):
            return (u - roots[0]) * (u - roots[1]) * (u - roots[2])

        def clearance(nodes):
            best = mpmath.inf
            for a, b in zip(nodes, nodes[1:]):
                d = b - a
                for r in roots:
                    t = mpmath.re(mpmath.conj(d) * (r - a)) / abs(d) ** 2
                    t = min(max(t, 0), 1)
                    best = min(best, abs(a + t * d - r))
            return best

        def continue_sqrt(target, previous):
            r = mpmath.sqrt(target)
            return r if abs(r - previous) <= abs(r + previous) else -r

        big = mpmath.mpf(64)
        for shift in (mpmath.mpf(1) / 3, mpmath.mpf(-1) / 2, 1, -1, 2):
            nodes = [u0, u0 + shift + 4j, big + 4j, big]
            if clearance(nodes) > 0.25:
                break
        else:
            raise AssertionError("could not route an integration path")
        total = mpmath.mpc(0)
        v_prev = mpmath.mpc(v0)
        for a, b in zip(nodes, nodes[1:]):
            h = (b - a) / steps
            for k in range(1, steps + 1):
                v_mid = continue_sqrt(m_at(a + (k - 0.5) * h), v_prev)
                v_prev = continue_sqrt(m_at(a + k * h), v_mid)
                total += h / (2 * v_mid)
        tail = mpmath.elliprf(big - roots[0], big - roots[1], big - roots[2])
        v_big = mpmath.sqrt(m_at(big))
        sign = 1 if abs(v_prev - v_big) < abs(v_prev + v_big) else -1
        return total + sign * tail


def test_wp_prime_sign_matches_tracked_path():
    # the sign chosen from p'(z) = 2v agrees with the branch-tracked path
    # integral at every point of E_f off the 2-torsion
    seen = 0
    for N in (36, 64):
        info = ellper._info(N)
        with CTX.workprec():
            omega_u = raw_real_period(N, CTX).val / ellper._embed(info.h_unit,
                                                                  CTX)
            tau = ellper._embed(info.tau, CTX)
        for p in torsion_Ef(N):
            if not p.v:  # 2-torsion, including the point at infinity
                continue
            seen += 1
            with CTX.workprec():
                z = ellper._std_log(info, p, CTX)
                want = _tracked_log(info, ellper._embed(p.u, CTX),
                                    ellper._embed(p.v, CTX))
                near = abs(ellper._reduce_mod_lattice(z - want, omega_u, tau))
                far = abs(ellper._reduce_mod_lattice(-z - want, omega_u, tau))
            assert near < 0.1 < far, (N, p, near, far)
    assert seen == 20


def _wp_prime_mpc(z, omega, tau):
    """Reference: the same 289-term lattice sum in mpmath at 15 digits."""
    box = range(-ellper._BOX, ellper._BOX + 1)
    with mpmath.workdps(15):
        z, omega, tau = mpmath.mpc(z), mpmath.mpc(omega), mpmath.mpc(tau)
        return -2 * mpmath.fsum((z - (a + b * tau) * omega) ** -3
                                for a in box for b in box)


def test_wp_prime_doubles_match_mpc_oracle():
    # at every point of E_f off the 2-torsion: the same value to 1e-12 and
    # the same sign choice for p'(-s m) = 2 v0
    seen = 0
    for N in (36, 64):
        info = ellper._info(N)
        with CTX.workprec():
            omega_u = raw_real_period(N, CTX).val / ellper._embed(info.h_unit,
                                                                  CTX)
            tau = ellper._embed(info.tau, CTX)
        for p in torsion_Ef(N):
            if not p.v:
                continue
            seen += 1
            with CTX.workprec():
                m = ellper._magnitude(info, p.u, CTX)
                z = complex(ellper._reduce_mod_lattice(m, omega_u, tau))
                v0 = complex(ellper._embed(p.v, CTX))
            got = ellper._wp_prime(z, complex(omega_u), complex(tau))
            want = complex(_wp_prime_mpc(z, omega_u, tau))
            assert abs(got - want) <= 1e-12 * abs(want), (N, p)
            signs = [min((abs(-s * wp - 2 * v0), s) for s in (1, -1))[1]
                     for wp in (got, want)]
            assert signs[0] == signs[1], (N, p)
    assert seen == 20


@pytest.mark.parametrize("N, rf_calls", [(36, 7), (64, 9)])
def test_one_carlson_magnitude_per_u(N, rf_calls):
    # P and -P share R_F, and so do all E36 labels at the origin (-1, 0)
    ellper._magnitude.cache_clear()
    for p in torsion_Ef(N):
        torsion_label(N, p, CTX)
    assert ellper._magnitude.cache_info().misses == rf_calls


def test_wp_prime_rejects_a_wrong_v():
    # (u, 3v) is off the curve: neither sign gives p'(z) = 2 * (3v)
    info = ellper._info(36)
    p = claims.point(36, "P")
    with pytest.raises(PeriodError):
        ellper._std_log(info, CurvePoint(p.u, 3 * p.v), CTX)


def test_published_torsion_labels():
    for N in (36, 64):
        pts = claims.points(N)
        for name, expected in claims.torsion_label_claims(N).items():
            lab = torsion_label(N, pts[name], CTX)
            assert lab.equiv(expected), (N, name, lab.a, lab.b)


def test_labels_bijective_and_additive():
    for N in (36, 64):
        lw = law(N)
        tor = torsion_Ef(N)
        labels = {p: torsion_label(N, p, CTX) for p in tor}
        for i, p in enumerate(tor):
            for q in tor[i + 1:]:
                assert not labels[p].equiv(labels[q]), (N, p, q)
        for p in tor:
            for q in tor:
                want = labels[p].as_cyclo() + labels[q].as_cyclo()
                assert labels[lw.add(p, q)].equiv(want), (N, p, q)


def test_label_equivalence_mod_nu():
    # 1 - 2i = 1 + 2i mod (4) is false, but 3+2i = -1-2i mod 4... exercises
    # the exact O_K/(nu) arithmetic
    lab = torsion_label(64, claims.point(64, "T"), CTX)
    assert lab.equiv(parse_cyclo("1-2*i"))
    assert lab.equiv(parse_cyclo("1+2*i")) == \
        (parse_cyclo("4*i") == parse_cyclo("4*i"))  # 1-2i-(1+2i) = -4i in (4)
    assert not lab.equiv(parse_cyclo("1"))
    assert not lab.equiv(parse_cyclo("2"))


def test_chi_f_check():
    assert chi_f_check() is True


def test_nonexistent_curve_rejected():
    with pytest.raises(Exception):
        real_period(37, CTX)
