"""Periods, elliptic logarithms, torsion labels, character consistency."""

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from ellhyp import claims, ellper, hecke
from ellhyp.cyclo import I, ZETA3, parse_cyclo
from ellhyp.ecdiv import CurvePoint, law, torsion_Ef
from ellhyp.ellper import PeriodError, elliptic_log, lattice, torsion_label
from ellhyp.mpnum import PrecisionContext

CTX = PrecisionContext(digits=30)


def _h(N):
    return ellper._ok(N, ellper._H_AND_ORIENTATION[N][0])


def _omega_u(N, ctx):
    """omega1 / h: the lattice of du/(2v) is O_K times this."""
    return lattice(N, ctx).val / ellper._embed(_h(N), ctx)


def _reduce(z, N, ctx):
    """z minus the du/(2v)-period nearest it in the coordinates (1, tau)."""
    omega = _omega_u(N, ctx)
    tau = ellper._embed(ellper._tau(N), ctx)
    w = z / omega
    b = mpmath.im(w) / mpmath.im(tau)
    a = mpmath.re(w) - b * mpmath.re(tau)
    return ((a - mpmath.nint(a)) + (b - mpmath.nint(b)) * tau) * omega


def _off_lattice(z, N, ctx):
    """Distance from z to the nearest point of the du/(2v)-period lattice."""
    return abs(_reduce(z, N, ctx))


def test_raw_real_period_against_carlson_oracle():
    # the period of du/(2v), omega1 = pi / agm(...), must match the
    # Carlson-form complete integral
    with CTX.workprec():
        for N in (36, 64):
            got = lattice(N, CTX).val
            e1, e2, e3 = (ellper._embed(r, CTX) for r in law(N).curve.roots)
            want = 2 * mpmath.elliprf(0, e1 - e3, e1 - e2)
            assert abs(got - want) < mpmath.mpf(10) ** -25, N


def test_real_period_closed_forms():
    # Chowla-Selberg: omega1 = B(1/2, 1/3) on E36 and B(1/4, 1/4) / 4 on E64,
    # here with mpmath's beta as the oracle
    with CTX.workprec():
        tol = mpmath.mpf(10) ** -25
        got36 = lattice(36, CTX).val
        assert abs(got36 - mpmath.beta(mpmath.mpf(1) / 2,
                                       mpmath.mpf(1) / 3)) < tol
        got64 = lattice(64, CTX).val
        assert abs(got64 - mpmath.beta(0.25, 0.25) / 4) < tol


def test_derived_curve_facts_match_the_published_ones():
    # t, nu and the HNF come from hecke's record; these are the values the
    # two conductors were first written down with
    assert ellper._tau(36) == ZETA3 and ellper._tau(64) == I
    assert ellper._ok(36, hecke.E36.nu) == 2 * (1 - ZETA3 * ZETA3)
    assert ellper._ok(64, hecke.E64.nu) == 4
    assert hecke._hnf(hecke.E36) == (6, 4, 2)
    assert hecke._hnf(hecke.E64) == (4, 0, 4)
    assert _h(36) == 1 - ZETA3 * ZETA3
    assert _h(64) == 1


def test_h_nu_bar_is_real():
    # Omega / conj(nu) = Omega_R / (h conj(nu)) is real because h conj(nu) is
    assert ellper.h_nu_bar(36) == 6 and ellper.h_nu_bar(64) == 4
    for N in (36, 64):
        assert ellper.h_nu_bar(N).conj() == ellper.h_nu_bar(N)
    # h is a unit on E64 only: 2 + zeta_3 has norm 3
    for N, norm in ((36, 3), (64, 1)):
        h = ellper._H_AND_ORIENTATION[N][0]
        assert hecke._norm(hecke.curve(N), h) == norm


def test_ok_pair_reads_o_k_literals():
    assert ellper.ok_pair(64, parse_cyclo("1-2*i")) == (1, -2)
    assert ellper.ok_pair(36, parse_cyclo("2+z^8")) == (2, 1)
    assert ellper.ok_pair(36, ZETA3 * ZETA3) == (-1, -1)
    assert ellper.ok_pair(64, ZETA3) is None       # not in Z[i]
    assert ellper.ok_pair(36, parse_cyclo("1/2")) is None


def test_lattice_is_cached():
    for N in (36, 64):
        omega1 = lattice(N, CTX)
        assert lattice(N, CTX) is omega1
        assert lattice(N, PrecisionContext(digits=CTX.digits)) is omega1


def test_elliptic_log_of_origin_is_zero():
    for N in (36, 64):
        lw = law(N)
        with CTX.workprec():
            z = elliptic_log(N, lw.base, CTX)
            assert abs(z) < mpmath.mpf(10) ** -20


def test_elliptic_log_additive_mod_lattice():
    # z(P (+) Q) = z(P) + z(Q) mod the lattice, spot-checked
    for N in (36, 64):
        lw = law(N)
        tor = torsion_Ef(N)
        with CTX.workprec():
            tau = ellper._embed(ellper._tau(N), CTX)
            for p, q in [(tor[1], tor[2]), (tor[3], tor[5])]:
                zp = elliptic_log(N, p, CTX)
                zq = elliptic_log(N, q, CTX)
                zs = elliptic_log(N, lw.add(p, q), CTX)
                w = (zp + zq - zs) / _omega_u(N, CTX)
                b = mpmath.im(w) / mpmath.im(tau)
                a = mpmath.re(w) - b * mpmath.re(tau)
                assert abs(a - mpmath.nint(a)) < 1e-15
                assert abs(b - mpmath.nint(b)) < 1e-15


def _tracked_log(N, u0, v0, steps=100):
    """Reference: int_{u0}^{inf} du/(2v) at 16 digits with the square-root
    branch continued step by step from v0 along a path that rises off the
    real axis, runs out to a large real abscissa and descends; the tail is a
    Carlson integral with the tracked sign."""
    with mpmath.workdps(16):
        roots = [mpmath.mpc(ellper._embed(r, CTX)) for r in law(N).curve.roots]

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


def test_log_sign_matches_tracked_path():
    # the sign taken from v agrees with the branch-tracked path integral at
    # every point of E_f off the 2-torsion
    seen = 0
    for N in (36, 64):
        roots = law(N).curve.roots
        for p in torsion_Ef(N):
            if not p.v:  # 2-torsion, including the point at infinity
                continue
            seen += 1
            with CTX.workprec():
                z = ellper._std_log(roots, p, CTX)
                want = _tracked_log(N, ellper._embed(p.u, CTX),
                                    ellper._embed(p.v, CTX))
                near = _off_lattice(z - want, N, CTX)
                far = _off_lattice(-z - want, N, CTX)
            assert near < 0.1 < far, (N, p, near, far)
    assert seen == 20


def _wp_prime(z, omega, tau, box=8):
    """Weierstrass p'(z) = -2 sum_w (z - w)^-3 in hardware doubles, over the
    lattice points w = (a + b tau) omega with |a|, |b| <= box.  The box is
    symmetric, so the truncated sum is odd in z, like p' itself."""
    acc = 0j
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            acc += (z - (a + b * tau) * omega) ** -3
    return -2 * acc


def _carlson_log(N, p, ctx):
    """Reference: int_P^inf du/(2v) as Carlson's R_F(u0 - e1, u0 - e2,
    u0 - e3), which is the integral up to sign, with the sign s for which
    p'(-s m) = 2 v0 (under u = p(z), v = p'(z)/2 and the integral from P to
    infinity is -z; Silverman, AEC VI.3)."""
    with ctx.workprec():
        u0 = ellper._embed(p.u, ctx)
        e1, e2, e3 = (ellper._embed(r, ctx) for r in law(N).curve.roots)
        m = mpmath.elliprf(u0 - e1, u0 - e2, u0 - e3)
        if not p.v:
            return m
        v0 = complex(ellper._embed(p.v, ctx))
        omega_u = _omega_u(N, ctx)
        tau = ellper._embed(ellper._tau(N), ctx)
        z = complex(_reduce(m, N, ctx))
        wp = _wp_prime(z, complex(omega_u), complex(tau))
        # p' is odd, so p'(-s m) = -s p'(m)
        residual, sign = min((abs(-s * wp - 2 * v0), s) for s in (1, -1))
        assert residual < abs(v0), (p, residual)
        return sign * m


@pytest.mark.parametrize("digits", [30, 45, 60, 100, 200])
def test_agm_log_matches_carlson_oracle(digits):
    ctx = PrecisionContext(digits=digits)
    for N in (36, 64):
        roots = law(N).curve.roots
        for p in torsion_Ef(N):
            if p.infinite:
                continue
            with ctx.workprec():
                diff = ellper._std_log(roots, p, ctx) - _carlson_log(N, p, ctx)
                assert _off_lattice(diff, N, ctx) < \
                    mpmath.mpf(10) ** -(digits - 5), (N, p)


@pytest.mark.parametrize("digits", [30, 45, 60, 100, 200])
def test_two_torsion_log_is_a_half_period(digits):
    # u - e1 and u - e2 enter the chain exactly, so at u = e2 the chain is
    # exact from its first step and 2z lands on the lattice
    ctx = PrecisionContext(digits=digits)
    for N in (36, 64):
        curve = law(N).curve
        for p in curve.two_torsion():
            if p.infinite:
                continue
            with ctx.workprec():
                z = ellper._std_log(curve.roots, p, ctx)
                assert _off_lattice(2 * z, N, ctx) < \
                    mpmath.mpf(10) ** -(digits - 5), (N, p)


def _oracle_root(x, W):
    """mpmath's principal root of the fixed-point pair x, at 3W bits."""
    with mpmath.workprec(3 * W):
        return mpmath.sqrt(mpmath.mpc(mpmath.mpf((x[0], -W)),
                                      mpmath.mpf((x[1], -W))))


fixed_parts = st.one_of(st.integers(-2 ** 140, 2 ** 140), st.integers(-3, 3))


@given(st.sampled_from([40, 100, 200]), fixed_parts, fixed_parts,
       fixed_parts, fixed_parts)
@example(100, -(5 << 100), 0, 1 << 100, 0)       # the negative real axis
@example(100, -(5 << 100), 1, 0, 1 << 100)       # just above it
@example(100, -(5 << 100), -1, 0, -(1 << 100))   # just below it
@example(100, 7 << 100, 0, 0, 1 << 100)          # Y = 0, a tie
@example(40, 0, 0, 1, 1)
@settings(max_examples=300, deadline=None)
def test_fixed_sqrt_matches_mpmath(W, x, y, nx, ny):
    # the principal root within a few units of 2^-W, and the root nearer
    # `near` the one the abs-based choice takes wherever the two are apart
    # by more than the rounding
    got = ellper._sqrt((x, y), W)
    want = _oracle_root((x, y), W)
    unit = mpmath.mpf(2) ** -W
    with mpmath.workprec(3 * W):
        tol = unit * (4 + 1 / abs(want)) if want else unit
        assert abs(ellper._to_mpc(got, W) - want) <= tol, (x, y, got)
        near = ellper._to_mpc((nx, ny), W)
        pick = want if abs(want - near) <= abs(want + near) else -want
        gap = abs(abs(want - near) - abs(want + near))
        got_near = ellper._to_mpc(ellper._near_root((x, y), (nx, ny), W), W)
        if gap > 2 * tol:
            assert abs(got_near - pick) <= tol, (x, y, nx, ny)
        else:
            assert min(abs(got_near - want), abs(got_near + want)) <= tol


@pytest.mark.parametrize("digits", [30, 45, 60, 100, 200])
def test_fixed_embedding_matches_mpmath_horner(digits):
    # every coordinate of every point of E_f, within 2^-prec_bits relative of
    # a Horner evaluation at zeta_24 with 64 more bits; _embed then rounds
    # each component once more
    ctx = PrecisionContext(digits=digits)
    P = ctx.prec_bits
    W = P + ellper._GUARD
    coords = {x for N in (36, 64) for p in torsion_Ef(N) if not p.infinite
              for x in (p.u, p.v)}
    for x in coords:
        with mpmath.workprec(W + 64):
            z = mpmath.expjpi(mpmath.mpf(2) / 24)
            want = mpmath.mpc(0)
            for c in reversed(x.coeffs):
                want = want * z + mpmath.mpf(c.numerator) / c.denominator
            got = ellper._to_mpc(ellper._fixed(x, W), W)
            assert abs(got - want) <= abs(want) * mpmath.mpf(2) ** -P, x
            assert abs(ellper._embed(x, ctx) - want) \
                <= abs(want) * mpmath.mpf(2) ** (1 - P), x


@pytest.mark.parametrize("N, chains", [(36, 7), (64, 9)])
def test_one_landen_chain_per_u(N, chains):
    # P and -P share one chain, and so do all E36 labels at the origin (-1, 0)
    ellper._agm_log.cache_clear()
    for p in torsion_Ef(N):
        torsion_label(N, p, CTX)
    assert ellper._agm_log.cache_info().misses == chains


def test_log_rejects_a_wrong_v():
    # (u, 3v) is off the curve: v0 / v is 3 or -3, neither sign
    p = claims.point(36, "P")
    with pytest.raises(PeriodError):
        ellper._std_log(law(36).curve.roots, CurvePoint(p.u, 3 * p.v), CTX)


def _divides(c, d, x) -> bool:
    """The oracle for d | x in O_K: x conj(d) = 0 mod N(d) componentwise."""
    prod = hecke._mul(c, x, hecke._conj(c, d))
    n = hecke._norm(c, d)
    return prod[0] % n == 0 and prod[1] % n == 0


def _equiv(c, x, y) -> bool:
    """x = y in O_K/(nu), by the oracle."""
    return _divides(c, c.nu, (x[0] - y[0], x[1] - y[1]))


pairs = st.tuples(st.integers(-60, 60), st.integers(-60, 60))


@given(st.sampled_from([36, 64]), pairs, pairs, pairs)
@settings(max_examples=200, deadline=None)
def test_residue_is_the_class_mod_nu(N, x, y, w):
    # residue(x) == residue(y) iff nu | x - y, checked on a random y and on
    # y = x + nu w, and every residue is a fixed point in the HNF box
    c = hecke.curve(N)
    big_a, _, big_b = hecke._hnf(c)
    nu_w = hecke._mul(c, c.nu, w)
    for z in (y, (x[0] + nu_w[0], x[1] + nu_w[1])):
        r = hecke.residue(c, z)
        assert 0 <= r[0] < big_a and 0 <= r[1] < big_b, (N, z, r)
        assert hecke.residue(c, r) == r
        assert (hecke.residue(c, x) == r) == _equiv(c, x, z), (N, x, z)


def test_labels_bijective_and_additive():
    for N in (36, 64):
        c = hecke.curve(N)
        lw = law(N)
        tor = torsion_Ef(N)
        labels = {p: torsion_label(N, p, CTX) for p in tor}
        for i, p in enumerate(tor):
            for q in tor[i + 1:]:
                assert not _equiv(c, labels[p], labels[q]), (N, p, q)
        for p in tor:
            for q in tor:
                want = (labels[p][0] + labels[q][0],
                        labels[p][1] + labels[q][1])
                assert _equiv(c, labels[lw.add(p, q)], want), (N, p, q)


def test_label_equivalence_mod_nu():
    # exact O_K/(nu) arithmetic: 1 - 2i = 1 + 2i mod (4), since their
    # difference -4i lies in (4), while 1 and 2 are other classes
    lab = torsion_label(64, claims.point(64, "T"), CTX)
    assert lab == hecke.residue(hecke.E64, (1, -2))
    assert lab == hecke.residue(hecke.E64, (1, 2))
    assert lab != hecke.residue(hecke.E64, (1, 0))
    assert lab != hecke.residue(hecke.E64, (2, 0))


def test_hnf_box_is_a_transversal():
    # (A, 0) and (s, B) lie in nu O_K, and the A * B points of the box are
    # pairwise distinct mod nu, as many as E_f has points: so the box holds
    # exactly one representative of each class
    for N in (36, 64):
        c = hecke.curve(N)
        big_a, s, big_b = hecke._hnf(c)
        assert _divides(c, c.nu, (big_a, 0))
        assert _divides(c, c.nu, (s, big_b))
        box = [(a, b) for a in range(big_a) for b in range(big_b)]
        assert len(box) == len(torsion_Ef(N))
        for i, x in enumerate(box):
            assert not any(_equiv(c, x, y) for y in box[i + 1:])


def test_label_residues_are_canonical():
    # the printed residue lies in the box and does not depend on precision,
    # although at 30 and 45 digits rounding lands on other representatives
    for N in (36, 64):
        big_a, _, big_b = hecke._hnf(hecke.curve(N))
        pts = claims.points(N)
        for name in claims.torsion_label_claims(N):
            got = {torsion_label(N, pts[name], PrecisionContext(digits=d))
                   for d in (30, 45, 60, 100)}
            assert len(got) == 1, (N, name, got)
            a, b = got.pop()
            assert 0 <= a < big_a and 0 <= b < big_b, (N, name, a, b)


def test_chi_f_check():
    assert hecke.chi_f_check() is True


def test_nonexistent_curve_rejected():
    with pytest.raises(Exception):
        lattice(37, CTX)
