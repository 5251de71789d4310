"""Numerics kernel against independent mpmath oracles."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from ellhyp import claims, hecke, hyp3f2, mpnum
from ellhyp.mpnum import Ball, DomainError, PrecisionContext

CTX = PrecisionContext(digits=30)


def _close(got, want, ctx=CTX, slack=4):
    tol = mpmath.mpf(10) ** (-(ctx.digits - slack)) * max(1, abs(want))
    assert abs(got - want) <= tol, f"{got} vs {want}"


# every Gamma argument with denominator 1, 2, 3, 4 or 6 in (0, 3), which
# holds those of the four F~ prefactors, and three below 0
GAMMA_ARGS = sorted({Fraction(n, d) for d in (1, 2, 3, 4, 6)
                     for n in range(1, 3 * d)}) + [Fraction(-1, 2),
                                                   Fraction(-5, 3),
                                                   Fraction(-7, 4)]


@pytest.mark.parametrize("digits", [30, 100, 200])
def test_rational_gamma_balls_contain_oracle(digits):
    ctx = PrecisionContext(digits=digits)
    for q in GAMMA_ARGS:
        got = mpnum.rational_gamma(q, ctx)
        with mpmath.workdps(digits + 60):
            want = mpmath.gamma(mpmath.mpf(q.numerator) / q.denominator)
            assert abs(got.val - want) <= got.err, q
        assert got.err <= abs(want) * mpmath.mpf(10) ** -(digits + 5), q


@pytest.mark.parametrize("q", ["1/5", "2/7", "0", "-2"])
def test_rational_gamma_rejects_unsupported_arguments(q):
    with pytest.raises(DomainError):
        mpnum.rational_gamma(Fraction(q), CTX)


def test_upper_incomplete_gamma_oracle():
    with CTX.workprec():
        for x in (mpmath.mpf(3), mpmath.mpf(25)):
            got = mpnum.upper_incomplete_gamma(x, CTX)
            want = mpmath.gammainc(0, x, mpmath.inf)
            _close(got.val, want)


@pytest.mark.parametrize("x", [0, -1])
def test_upper_incomplete_gamma_domain(x):
    # Gamma(0, x) diverges at 0 and is not real below it
    with pytest.raises(DomainError):
        mpnum.upper_incomplete_gamma(x, CTX)


@pytest.mark.parametrize("s, a, digits, count", [
    (2, Fraction(1, 3), 30, 4), (3, Fraction(5, 6), 30, 1),
    (5, Fraction(7, 12), 30, 1), (2, 1, 30, 1),
    (Fraction(11, 5), Fraction(1, 7), 60, 40),
])
def test_hurwitz_zeta_below_the_start_raises(s, a, digits, count):
    # with no head of its own, Euler-Maclaurin at a small x turns before
    # its stop; the 3F2 tail starts at or past em_start
    with pytest.raises(mpnum.PrecisionError):
        mpnum.hurwitz_zeta(s, a, PrecisionContext(digits=digits), count)


def _mp(q):
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


def _check_hurwitz(s, a, digits, count, stride=1):
    """Integer balls (S_i, R_i) in units of 2^-W around S(s+i, a) =
    a^(s+i-1) zeta(s+i, a): the midpoint within 10^-digits relative, and
    R_i >= the error and <= 10^-digits relative, for every stride-th i
    (mpmath.zeta is slow at a rational s of about 100).

    mpmath.zeta also stops on an absolute test, so the reference runs with
    s log10(a) more digits for the values far below 1, and with 30 more
    than that, because a radius can be as small as one unit of 2^-W."""
    ctx = PrecisionContext(digits=digits)
    got = mpnum.hurwitz_zeta(s, a, ctx, count)
    assert len(got) == count
    for i in range(0, count, stride):
        S, R = got[i]
        assert isinstance(S, int) and isinstance(R, int)
        si = Fraction(s) + i
        extra = max(0, math.ceil(float(si) * math.log10(float(a))))
        with mpmath.workdps(digits + extra + 30):
            want = mpmath.ldexp(mpmath.power(_mp(a), _mp(si) - 1)
                                * mpmath.zeta(_mp(si), _mp(a)),
                                ctx.fixed_bits)
            actual = abs(S - want)
            assert actual <= want * mpmath.mpf(10) ** -digits, (si, a)
            assert R >= actual, (si, a)
            assert R <= want * mpmath.mpf(10) ** -digits, (si, a)


def test_hurwitz_zeta_tail_batch_200_digits():
    # a 3F2 tail at 200 digits with the head at 2P: zeta(2+i, M+1) for
    # i <= 212, M = 2P = 424
    _check_hurwitz(2, 425, 200, 213)


def test_hurwitz_zeta_identity_batch_200_digits():
    # the batch rhs_main asks for at 200 digits: M = 8P = 1696 and K = 84,
    # zeta(2+i, M+1) for i <= K+2
    _check_hurwitz(2, 1697, 200, 87)


@pytest.mark.parametrize("s, a, digits, count, stride", [
    (2, Fraction(100, 3), 30, 4, 1),       # a rational shift past the start
    (Fraction(11, 5), Fraction(400, 7), 60, 40, 1),
    (Fraction(7, 3), 329, 152, 170, 13),   # a ~152-digit tail, margin 4/3
    (Fraction(13, 12), 61, 30, 3, 1),      # exponent just above 1
])
def test_hurwitz_zeta_batch_oracle(s, a, digits, count, stride):
    _check_hurwitz(s, a, digits, count, stride)


@pytest.mark.parametrize("digits", [30, 100, 152, 200])
def test_weighted_hurwitz_batch_of_the_identities(digits):
    # the batch rhs_main asks for, weighted by the coefficients of the
    # identities' four F~ tails: each S_i +- R_i holds
    # zeta(2+i, N) N^(1+i) at 60 more digits, N = M+1 (and (2+i) log10(N)
    # more, as mpmath.zeta stops on an absolute test), and each value is
    # either as tight as without weights (the relative stop) or stops where
    # its error in the tail, w_i R_i N^-i, is a quarter unit of 2^-W, less
    # the radius's own three units of rounding
    ctx = PrecisionContext(digits=digits)
    W, prec = ctx.fixed_bits, ctx.prec_bits
    splits = [hyp3f2.head_tail_sizes(hyp3f2._ftilde_params(a, b), ctx)
              for N in (36, 64) for _, a, b in claims.identity(N)[2]]
    (M,) = {sp.M for sp in splits}
    weights = hyp3f2._zeta_weights([sp.coeffs for sp in splits])
    got = mpnum.hurwitz_zeta(2, M + 1, ctx, len(weights), weights)
    N, loose = M + 1, 0
    for i, ((S, R), w) in enumerate(zip(got, weights)):
        with mpmath.workdps(digits + 60 + math.ceil((2 + i) * math.log10(N))):
            want = mpmath.ldexp(mpmath.zeta(2 + i, N) * mpmath.mpf(N) ** (1 + i),
                                W)
            assert abs(S - want) <= R, i
        assert R <= (S >> prec) + 4 or 4 * w * (R - 3) < N ** i << W, i
        loose += R > (S >> prec) + 4
    # the weights loosen the stop of most values
    assert loose > len(got) // 2


def test_em_start_solves_its_equation():
    # Newton's method meets U - s - s log(U/s) = bits ln 2 + ln s, U =
    # 2 pi (x - 1), where 16 fixed-point steps fell short by up to 27 at
    # s = 8000 and 147 bits (1470.9 for 1498.1)
    for s_max, want in ((2400, 510.4), (4000, 799.0), (8000, 1498.1),
                        (2 * 10 ** 7, None)):
        x = mpnum.em_start(s_max, 147)
        U = 2 * math.pi * (x - 1)
        residual = U - s_max - s_max * math.log(U / s_max) \
            - 147 * math.log(2) - math.log(s_max)
        assert abs(residual) <= 1e-9 * U, s_max
        if want is not None:
            assert round(x, 1) == want, s_max


def test_hurwitz_zeta_rejects_bad_arguments():
    with pytest.raises(DomainError):
        mpnum.hurwitz_zeta(1, 2, CTX, 1)
    with pytest.raises(DomainError):
        mpnum.hurwitz_zeta(2, 0, CTX, 1)
    with pytest.raises(ValueError):
        mpnum.hurwitz_zeta(2, 1, CTX, 0)


# a point of the series and one of the continued fraction next to the
# crossover of upper_incomplete_gamma, whose W grows with x: x < 0.12 W ln 2
# ends at 15.8 for 30 digits and at 54.3 for 152
E1_CROSSOVER = {30: ("15.7", "15.9"), 152: ("54.2", "54.4")}


@pytest.mark.parametrize("digits", [30, 152])
def test_e1_both_sides_of_the_crossover(digits, monkeypatch):
    ctx = PrecisionContext(digits=digits)
    below, above = E1_CROSSOVER[digits]
    ran = []
    for name in ("_e1_series", "_e1_fraction"):
        real = getattr(mpnum, name)
        monkeypatch.setattr(mpnum, name, lambda *a, real=real, name=name: (
            ran.append(name), real(*a))[1])
    for x in ("0.001", "0.5", "1", "1.0471975511965976", "5", "8.8", "9",
              below, above, "20", "34.6", "34.8", "60", "200", "400"):
        with ctx.workprec():
            xv = mpmath.mpf(x)
            got = mpnum.upper_incomplete_gamma(xv, ctx)
        with mpmath.workdps(digits + 40):
            want = mpmath.e1(xv)
            actual = abs(got.val - want)
            assert actual <= want * mpmath.mpf(10) ** -digits, x
            assert got.err >= actual, x
        if x in (below, above):
            assert ran[-1] == ("_e1_series" if x == below
                               else "_e1_fraction"), x


@pytest.mark.parametrize("digits", [30, 64, 100, 152, 200])
def test_e1_balls_contain_oracle_at_every_afe_point(digits):
    # every x_n = n kappa T with a_n != 0 of both AFEs' E1 halves, T the
    # cut hecke.AFE_CUT, as hecke.l_two hands it to the kernel: X = n K at
    # W = fixed_bits, K = kappa T 2^W rounded, and the kernel picks the
    # precision per point.  The oracle takes x = X 2^-W, as the kernel does
    # (l_two's own unit per term covers the rounding of kappa T), and e^-x
    # rounded to a unit.  Each ball holds the oracle and is a few units wide
    ctx = PrecisionContext(digits=digits)
    W = ctx.fixed_bits
    for N in (36, 64):
        c = hecke.curve(N)
        tbl = hecke.build_coeffs(c, hecke.afe_n_max(c, ctx), "cm")
        with mpmath.workprec(W + 16):
            K = int(mpmath.nint(mpmath.ldexp(
                2 * mpmath.pi / mpmath.sqrt(N) * hecke.AFE_CUT, W)))
        for n in range(1, hecke._afe_count(c, ctx, hecke.AFE_CUT) + 1):
            if tbl[n] == 0:
                continue
            with mpmath.workdps(digits + 60):
                x = mpmath.ldexp(n * K, -W)
                P = int(mpmath.nint(mpmath.ldexp(mpmath.exp(-x), W)))
                E, R = mpnum.e1_fixed(n * K, W, (P, 1))
                actual = abs(E - mpmath.ldexp(mpmath.e1(x), W))
            assert actual <= R, (N, n)
            assert R < 16, (N, n, R)


def test_agm_real_oracle():
    with CTX.workprec():
        got, _ = mpnum.agm(mpmath.mpf(1), mpmath.mpf(2), CTX)
        _close(got, mpmath.agm(1, 2))


def test_agm_complex_oracle():
    with CTX.workprec():
        a, b = mpmath.mpc(2, 1), mpmath.mpc(1, "0.25")
        got, _ = mpnum.agm(a, b, CTX)
        _close(got, mpmath.agm(a, b))


def test_agm_scaling_homogeneity():
    with CTX.workprec():
        a, b = mpmath.mpf(3), mpmath.mpf("0.5")
        lhs, _ = mpnum.agm(7 * a, 7 * b, CTX)
        rhs = 7 * mpnum.agm(a, b, CTX)[0]
        _close(lhs, rhs)


BALL_W = 40


def _ends(b):
    """The two ends of a ball's interval, as Fractions."""
    return [Fraction(b.mid + e * b.rad, 1 << b.W) for e in (-1, 1)]


def _holds(b, q):
    return Fraction(b.mid - b.rad, 1 << b.W) <= q <= Fraction(b.mid + b.rad,
                                                              1 << b.W)


_RATIONAL = st.fractions(min_value=-1000, max_value=1000,
                         max_denominator=10 ** 6)
_BALL = st.builds(lambda q, r: Ball(Ball.exact(q, BALL_W).mid,
                                    Ball.exact(q, BALL_W).rad + r, BALL_W),
                  _RATIONAL | st.integers(-1000, 1000),
                  st.integers(0, 3) | st.integers(0, 1 << (BALL_W + 4)))


@given(_BALL, _BALL)
@settings(max_examples=300, deadline=None)
def test_ball_operations_hold_every_value_of_their_operands(x, y):
    # each operation's ball holds the exact result at both ends of every
    # operand's interval: the extremes of +, -, x and / on a box lie at its
    # corners, and those of a root at the ends of its interval
    assert _holds(Ball.exact(_ends(x)[1], BALL_W), _ends(x)[1])
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        if op == "__truediv__" and abs(y.mid) <= y.rad:
            with pytest.raises(ZeroDivisionError):
                x / y
            continue
        got = getattr(x, op)(y)
        for a in _ends(x):
            for b in _ends(y):
                assert _holds(got, getattr(a, op)(b)), (op, a, b)
    for k in (2, 3):
        if x.mid <= x.rad:
            with pytest.raises(DomainError):
                x.root(k)
            continue
        got = x.root(k)
        lo = Fraction(max(got.mid - got.rad, 0), 1 << BALL_W)
        hi = Fraction(got.mid + got.rad, 1 << BALL_W)
        for a in _ends(x):
            assert lo ** k <= max(a, 0) <= hi ** k, (k, a)


@pytest.mark.parametrize("W", [8, 13, 21, 34, 55])
def test_real_agm_ball_holds_the_agm_at_both_ends_of_b(W):
    # AGM(1, b) at few bits, where the floors of each step and the radius
    # of b weigh most, against mpmath's AGM at both ends of b's interval
    for q in (Fraction(1, 3), Fraction(3, 4), Fraction(1), Fraction(7, 5),
              Fraction(5)):
        for rad in (0, 1, 5, 1 << (W // 2)):
            b = Ball(Ball.exact(q, W).mid, rad, W)
            got = mpnum._real_agm(b)
            with mpmath.workprec(W + 60):
                for end in (b.mid - b.rad, b.mid + b.rad):
                    want = mpmath.agm(1, mpmath.ldexp(end, -W))
                    assert abs(got.val - want) <= got.err, (q, rad, end)


def test_ball_division_by_a_ball_around_0_raises():
    for divisor in (Ball(0, 0, 8), Ball(5, 5, 8), Ball(-3, 7, 8)):
        with pytest.raises(ZeroDivisionError):
            Ball.exact(1, 8) / divisor


def test_ball_values_are_exact():
    b = Ball((1 << 300) + 1, 3, 300)
    assert b.val - 1 == mpmath.ldexp(1, -300)
    assert b.err == mpmath.ldexp(3, -300)


def test_each_bernoulli_number_is_computed_once(monkeypatch):
    # two Hurwitz zeta batches at two precisions read B_2j through one
    # cache keyed on j: mpmath.bernfrac is asked for each index once
    mpnum._bernoulli.cache_clear()
    mpnum._em_ratio.cache_clear()
    calls = []
    real = mpmath.bernfrac
    monkeypatch.setattr(mpmath, "bernfrac", lambda n: (calls.append(n),
                                                       real(n))[1])
    for digits in (30, 60):
        mpnum.hurwitz_zeta(2, 400, PrecisionContext(digits=digits), 20)
    assert calls and len(calls) == len(set(calls))


def test_precision_context_eps():
    c = PrecisionContext(digits=40)
    assert c.eps == mpmath.mpf(10) ** -(40 + mpnum.GUARD)


def test_agm_domain_error_on_zero():
    with pytest.raises(DomainError):
        mpnum.agm(mpmath.mpf(0), mpmath.mpf(1), CTX)
