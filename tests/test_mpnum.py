"""Numerics kernel against independent mpmath oracles."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from ellhyp import mpnum
from ellhyp.mpnum import (ArbComplex, ArbReal, DomainError, GammaPoleError,
                          PrecisionContext)

CTX = PrecisionContext(digits=30)


def _close(got, want, ctx=CTX, slack=4):
    tol = mpmath.mpf(10) ** (-(ctx.digits - slack)) * max(1, abs(want))
    assert abs(got - want) <= tol, f"{got} vs {want}"


def test_gamma_real_values():
    with CTX.workprec():
        for x in (Fraction(1, 2), Fraction(1, 3), Fraction(7, 4), 3):
            fx = Fraction(x)
            got = mpnum.gamma_real(x, CTX)
            want = mpmath.gamma(mpmath.mpf(fx.numerator) / fx.denominator)
            _close(got.val, want)
            assert abs(got.val - want) <= got.err + mpmath.mpf(10) ** (-CTX.digits)


def test_gamma_complex_oracle():
    with CTX.workprec():
        for z in (mpmath.mpc(2, 3), mpmath.mpc("0.5", "-1.25"),
                  mpmath.mpc(-1.5, 0.5)):
            got = mpnum.gamma(z, CTX)
            _close(got.val, mpmath.gamma(z))


def test_gamma_pole():
    with pytest.raises(GammaPoleError):
        mpnum.gamma(-2, CTX)


def test_gamma_reflection_identity():
    # Gamma(z) Gamma(1-z) = pi / sin(pi z)
    with CTX.workprec():
        z = mpmath.mpf(1) / 7
        lhs = mpnum.gamma(z, CTX).val * mpnum.gamma(1 - z, CTX).val
        _close(lhs, mpmath.pi / mpmath.sin(mpmath.pi * z))


def test_upper_incomplete_gamma_oracle():
    with CTX.workprec():
        for s, x in ((2, mpmath.mpf(3)), (1, mpmath.mpf("0.7")),
                     (2, mpmath.mpf(25))):
            got = mpnum.upper_incomplete_gamma(s, x, CTX)
            want = mpmath.gammainc(s, x, mpmath.inf)
            _close(got.val, want)


def test_hurwitz_zeta_oracle():
    with CTX.workprec():
        for s, a in ((2, Fraction(1, 3)), (3, Fraction(5, 6)),
                     (5, Fraction(7, 12)), (2, 1)):
            fa = Fraction(a)
            (got,) = mpnum.hurwitz_zeta(s, a, CTX)
            want = mpmath.zeta(s, mpmath.mpf(fa.numerator) / fa.denominator)
            _close(got.val, want)


def _mp(q):
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


def _check_hurwitz(s, a, digits, count, stride=1):
    """zeta(s+i, a) within 10^-digits relative, and err >= the error, for
    every stride-th i (mpmath.zeta is slow at a rational s of about 100).

    mpmath.zeta also stops on an absolute test, so the reference runs with
    s log10(a) more digits for the values far below 1."""
    ctx = PrecisionContext(digits=digits)
    got = mpnum.hurwitz_zeta(s, a, ctx, count=count)
    assert len(got) == count
    for i in range(0, count, stride):
        z = got[i]
        si = Fraction(s) + i
        extra = max(0, math.ceil(float(si) * math.log10(float(a))))
        with mpmath.workdps(digits + extra + 20):
            want = mpmath.zeta(_mp(si), _mp(a))
            actual = abs(z.val - want)
            assert actual <= want * mpmath.mpf(10) ** -digits, (si, a)
            assert z.err >= actual, (si, a)
            assert z.err <= want * mpmath.mpf(10) ** -digits, (si, a)


def test_hurwitz_zeta_tail_batch_200_digits():
    # the 3F2 tail at 200 digits: zeta(2+i, M+1) for i <= 212, M = 2P = 424
    _check_hurwitz(2, 425, 200, 213)


@pytest.mark.parametrize("s, a, digits, count, stride", [
    (2, Fraction(1, 3), 30, 4, 1),         # direct head before Euler-Maclaurin
    (Fraction(11, 5), Fraction(1, 7), 60, 40, 1),
    (Fraction(7, 3), 329, 152, 170, 13),   # a ~152-digit tail, margin 4/3
    (Fraction(13, 12), 61, 30, 3, 1),      # exponent just above 1
])
def test_hurwitz_zeta_batch_oracle(s, a, digits, count, stride):
    _check_hurwitz(s, a, digits, count, stride)


def test_hurwitz_zeta_rejects_bad_arguments():
    with pytest.raises(DomainError):
        mpnum.hurwitz_zeta(1, 2, CTX)
    with pytest.raises(DomainError):
        mpnum.hurwitz_zeta(2, 0, CTX)
    with pytest.raises(ValueError):
        mpnum.hurwitz_zeta(2, 1, CTX, count=0)


@pytest.mark.parametrize("digits", [30, 152])
def test_e1_both_sides_of_the_crossover(digits):
    # the series serves x below (digits+guard) ln 10 / (4e): 8.9 at 30
    # digits and 34.7 at 152; the continued fraction serves the rest
    ctx = PrecisionContext(digits=digits)
    for x in ("0.001", "0.5", "1", "1.0471975511965976", "5", "8.8", "9",
              "20", "34.6", "34.8", "60", "200", "400"):
        with ctx.workprec():
            xv = mpmath.mpf(x)
            got = mpnum.upper_incomplete_gamma(0, xv, ctx)
        with mpmath.workdps(digits + 40):
            want = mpmath.e1(xv)
            actual = abs(got.val - want)
            assert actual <= want * mpmath.mpf(10) ** -digits, x
            assert got.err >= actual, x


def test_agm_real_oracle():
    with CTX.workprec():
        got = mpnum.agm(mpmath.mpf(1), mpmath.mpf(2), CTX)
        _close(got.val, mpmath.agm(1, 2))


def test_agm_complex_oracle():
    with CTX.workprec():
        a, b = mpmath.mpc(2, 1), mpmath.mpc(1, "0.25")
        got = mpnum.agm(a, b, CTX)
        _close(got.val, mpmath.agm(a, b))


def test_agm_scaling_homogeneity():
    with CTX.workprec():
        a, b = mpmath.mpf(3), mpmath.mpf("0.5")
        lhs = mpnum.agm(7 * a, 7 * b, CTX).val
        rhs = 7 * mpnum.agm(a, b, CTX).val
        _close(lhs, rhs)


def test_beta_fn_oracle():
    with CTX.workprec():
        got = mpnum.beta_fn(Fraction(1, 2), Fraction(1, 3), CTX)
        want = mpmath.beta(mpmath.mpf(1) / 2, mpmath.mpf(1) / 3)
        _close(got.val, want)


@given(st.integers(-1000, 1000), st.integers(-1000, 1000),
       st.integers(1, 1000), st.integers(1, 1000))
@settings(max_examples=100, deadline=None)
def test_arbreal_error_propagation(an, bn, ad, bd):
    with CTX.workprec():
        a = ArbReal(mpmath.mpf(an) / ad, mpmath.mpf(10) ** -35)
        b = ArbReal(mpmath.mpf(bn) / bd, mpmath.mpf(10) ** -35)
        s = a + b
        assert s.err >= a.err  # intervals only widen
        p = a * b
        assert p.err >= 0
        # true value stays inside the interval when inputs are exact points
        assert abs(s.val - (a.val + b.val)) <= s.err + mpmath.mpf(10) ** -40


def test_arbcomplex_abs_and_mul():
    with CTX.workprec():
        a = ArbComplex(mpmath.mpc(3, 4), mpmath.mpf(0))
        b = ArbComplex(mpmath.mpc(1, -2), mpmath.mpf(0))
        _close((a * b).val, mpmath.mpc(3, 4) * mpmath.mpc(1, -2))


def test_precision_context_eps():
    c = PrecisionContext(digits=40)
    assert c.eps == mpmath.mpf(10) ** -(40 + c.guard)
    with pytest.raises(ValueError):
        PrecisionContext(digits=30, guard=2)


def test_agm_domain_error_on_zero():
    with pytest.raises(DomainError):
        mpnum.agm(mpmath.mpf(0), mpmath.mpf(1), CTX)
