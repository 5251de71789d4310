"""Every ball the numeric layers return holds its mpmath oracle at 60 more
digits, at 30, 100 and 200 digits: the Beta values of the four F~
prefactors, the real periods, the four F~ 3F2 values and L*(E, 0).  Gamma
at rationals has its own sweep in test_mpnum."""

import mpmath
import pytest

from ellhyp import claims, ellper, hecke, hyp3f2, mpnum
from ellhyp.mpnum import PrecisionContext
from test_hecke import _afe_oracle

DIGITS = [30, 100, 200]
FTILDE_ARGS = [(a, b) for N in (36, 64) for _, a, b in claims.identity(N)[2]]


def _mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def _holds(ball, want):
    assert abs(ball.val - want) <= ball.err, (ball, want)


@pytest.mark.parametrize("digits", DIGITS)
def test_beta_balls_hold_the_oracle(digits):
    ctx = PrecisionContext(digits=digits)
    for a, b in FTILDE_ARGS:
        got = mpnum.beta(a, b, ctx)
        with mpmath.workdps(digits + 60):
            _holds(got, mpmath.beta(_mp(a), _mp(b)))


@pytest.mark.parametrize("digits", DIGITS)
def test_lattice_balls_hold_the_oracle(digits):
    # omega1 against its Chowla-Selberg form, from mpmath's Beta function
    ctx = PrecisionContext(digits=digits)
    for N in (36, 64):
        a, b, q = claims.period_form(N)
        got = ellper.lattice(N, ctx)
        with mpmath.workdps(digits + 60):
            _holds(got, _mp(q) * mpmath.beta(_mp(a), _mp(b)))


@pytest.mark.parametrize("digits", DIGITS)
def test_f32_unit_balls_hold_a_run_at_60_more_digits(digits):
    ctx, ref = PrecisionContext(digits=digits), PrecisionContext(digits + 60)
    for a, b in FTILDE_ARGS:
        p = hyp3f2._ftilde_params(a, b)
        got, want = hyp3f2.f32_unit(p, ctx), hyp3f2.f32_unit(p, ref)
        with mpmath.workdps(digits + 60):
            assert abs(got.val - want.val) + want.err <= got.err, (a, b)


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("N", [36, 64])
def test_lstar_zero_balls_hold_the_oracle(N, digits):
    got = hecke.lstar_zero(hecke.curve(N), PrecisionContext(digits=digits))
    want = _afe_oracle(hecke.curve(N), digits)
    with mpmath.workdps(digits + 60):
        _holds(got, N * want / (2 * mpmath.pi) ** 2)
