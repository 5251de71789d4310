"""Hypergeometric engine against the mpmath.hyp3f2 oracle and closed forms."""

import functools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from ellhyp import claims, hyp3f2, mpnum
from ellhyp.cli import main
from ellhyp.hyp3f2 import DivergenceError, HypParams
from ellhyp.mpnum import GUARD, PrecisionContext, PrecisionError

CTX = PrecisionContext(digits=30)


def _mp(f: Fraction):
    return mpmath.mpf(f.numerator) / f.denominator


def test_terminating_series():
    p = HypParams(Fraction(0), Fraction(1, 3), Fraction(1, 4),
                  Fraction(5, 6), Fraction(7, 8))
    with CTX.workprec():
        assert hyp3f2.f32_unit(p, CTX).val == 1


def _term_ratio(p, n):
    """t_{n+1} / t_n of the 3F2(1) series, exactly."""
    return ((p.a1 + n) * (p.a2 + n) * (p.a3 + n)
            / ((p.b1 + n) * (p.b2 + n) * (1 + n)))


def _fraction_sum(p):
    """A terminating sum term by term in Fractions, through _term_ratio."""
    t = acc = Fraction(1)
    n = 0
    while (r := _term_ratio(p, n)) != 0:
        t *= r
        acc += t
        n += 1
    return acc


# a zero first parameter, terms that shrink, a negative lower parameter
# with two zero factors (-7 ends the sum first), and terms that grow
@pytest.mark.parametrize("params", [
    "0,1/3,1/4,5/6,7/8", "-3,1/2,1/3,2,5/2", "-50,1/3,1/7,2/5,3/11",
    "1/2,-7,-12,-5/2,3/4", "-20,5,9/2,1/2,1/3"])
def test_terminating_sum_is_the_fraction_sum(params):
    p = HypParams(*map(Fraction, params.split(",")))
    num, den = hyp3f2._terminating_sum(p)
    assert Fraction(num, den) == _fraction_sum(p)


def _hyp_subprocess(params, digits=30):
    """(exit code, wall seconds, stderr) of `hyp --params=...` in a fresh
    interpreter."""
    probe = ("import sys; from ellhyp.cli import main; "
             f"sys.exit(main(['hyp', '--params={params}', "
             f"'--digits', '{digits}']))")
    src = str(Path(hyp3f2.__file__).resolve().parents[1])
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, time.monotonic() - t0, proc.stderr


def test_a_long_terminating_sum_exits_at_the_cap():
    # 2000001 terms: past the cap, refused before any is summed
    code, seconds, err = _hyp_subprocess("-2000000,1/3,1/7,2/5,3/11")
    assert code == 2, err
    assert f"cap of {hyp3f2.TERMINATING_MAX_TERMS}" in err
    assert seconds < 5


def test_against_mpmath_oracle_identity_params():
    sets = [
        (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 6), Fraction(5, 6),
         Fraction(5, 6)),
        (Fraction(1, 2), Fraction(2, 3), Fraction(1, 6), Fraction(7, 6),
         Fraction(7, 6)),
        (Fraction(1, 4), Fraction(1, 4), Fraction(-1, 2), Fraction(1, 2),
         Fraction(1, 2)),
        (Fraction(3, 4), Fraction(3, 4), Fraction(1, 2), Fraction(3, 2),
         Fraction(3, 2)),
    ]
    # each ball holds the oracle at 20 more digits (at 60 digits the
    # oracle alone takes over 30 s on a 2-vCPU VM)
    for params in sets:
        with CTX.workprec():
            got = hyp3f2.f32_unit(HypParams(*params), CTX)
        with mpmath.workdps(CTX.digits + 20):
            want = mpmath.hyp3f2(*map(_mp, params), 1)
            assert abs(got.val - want) <= got.err, params


def test_gauss_reduction_random():
    # 3F2(a, b, c; c, d; 1) = 2F1(a, b; d; 1) = G(d)G(d-a-b)/(G(d-a)G(d-b))
    rng = random.Random(2024)
    checked = 0
    with CTX.workprec():
        while checked < 20:
            a = Fraction(rng.randint(1, 11), rng.randint(2, 12))
            b = Fraction(rng.randint(1, 11), rng.randint(2, 12))
            c = Fraction(rng.randint(1, 11), rng.randint(2, 12))
            d = a + b + Fraction(rng.randint(1, 8), rng.randint(1, 4))
            if d.denominator == 1 and d <= 0:
                continue
            got = hyp3f2.f32_unit(HypParams(a, b, c, c, d), CTX)
            want = (mpmath.gamma(_mp(d)) * mpmath.gamma(_mp(d - a - b))
                    / (mpmath.gamma(_mp(d - a)) * mpmath.gamma(_mp(d - b))))
            assert abs(got.val - want) < mpmath.mpf(10) ** -25, (a, b, c, d)
            checked += 1
    assert checked == 20


def test_divergent_parameters_raise():
    with pytest.raises(DivergenceError):
        hyp3f2.f32_unit(HypParams(Fraction(1), Fraction(1), Fraction(1),
                                  Fraction(1, 2), Fraction(1, 2)), CTX)


def test_term_recurrence_exact():
    p = HypParams(Fraction(1, 2), Fraction(1, 3), Fraction(-1, 6),
                  Fraction(5, 6), Fraction(5, 6))
    t = Fraction(1)
    terms = [t]
    for n in range(100):
        t *= ((p.a1 + n) * (p.a2 + n) * (p.a3 + n)
              / ((p.b1 + n) * (p.b2 + n) * (1 + n)))
        terms.append(t)
    # the engine's exact head terms must satisfy the same recurrence
    with CTX.workprec():
        got = hyp3f2.f32_unit(p, CTX)
        partial = mpmath.fsum(_mp(x) for x in terms)
        # 101 exact terms approximate the full sum from below the tail bound
        assert abs(got.val - partial) < mpmath.mpf("1e-3")


def test_tail_split_invariance():
    # head-to-M plus accelerated tail must not depend on M
    p = HypParams(Fraction(1, 2), Fraction(1, 3), Fraction(-1, 6),
                  Fraction(5, 6), Fraction(5, 6))
    big = PrecisionContext(digits=40)
    small = PrecisionContext(digits=30)
    with big.workprec():
        v_big = hyp3f2.f32_unit(p, big).val
    with small.workprec():
        v_small = hyp3f2.f32_unit(p, small).val
    assert abs(v_big - v_small) < mpmath.mpf(10) ** -29


def test_ftilde_oracle():
    with CTX.workprec():
        got = hyp3f2.ftilde(Fraction(1, 2), Fraction(1, 3), CTX)
        a, b = mpmath.mpf(1) / 2, mpmath.mpf(1) / 3
        g = mpmath.gamma(a) * mpmath.gamma(b) / mpmath.gamma(a + b)
        want = g ** 2 * mpmath.hyp3f2(a, b, a + b - 1, a + b, a + b, 1)
        assert abs(got.val - want) < mpmath.mpf(10) ** -27


def test_monotonicity_spot_checks():
    with CTX.workprec():
        f12_13 = hyp3f2.ftilde(Fraction(1, 2), Fraction(1, 3), CTX)
        f12_23 = hyp3f2.ftilde(Fraction(1, 2), Fraction(2, 3), CTX)
        f14_14 = hyp3f2.ftilde(Fraction(1, 4), Fraction(1, 4), CTX)
        f34_34 = hyp3f2.ftilde(Fraction(3, 4), Fraction(3, 4), CTX)
        assert f12_13.val - f12_23.val > 2 * (f12_13.err + f12_23.err)
        assert f14_14.val - f34_34.val > 2 * (f14_14.err + f34_34.err)


def test_rhs_main_precision_consistency():
    c30 = PrecisionContext(digits=30)
    c50 = PrecisionContext(digits=50)
    with c50.workprec():
        v50 = hyp3f2.rhs_main(36, c50, claims.identity(36)).val
    with c30.workprec():
        v30 = hyp3f2.rhs_main(36, c30, claims.identity(36)).val
    assert abs(v50 - v30) < mpmath.mpf(10) ** -29


def test_rhs_main_rejects_unknown_curve():
    # rhs_main sums the identity it is handed; no curve 37 has one
    with pytest.raises(KeyError):
        hyp3f2.rhs_main(37, CTX, claims.identity(37))


@pytest.mark.parametrize("N", [36, 64])
def test_rhs_main_sums_the_published_terms(N):
    # the prefactor 1/(k sqrt(d) pi) times the signed F~ values, each ball
    # containing the mpmath value at +30 digits
    k, d, terms = claims.identity(N)
    with CTX.workprec():
        got = hyp3f2.rhs_main(N, CTX, (k, d, terms))
    with mpmath.workdps(60):
        want = sum(sign * hyp3f2.ftilde(a, b, PrecisionContext(60)).val
                   for sign, a, b in terms)
        want /= k * mpmath.sqrt(d) * mpmath.pi
        assert abs(got.val - want) <= got.err


def test_small_lower_parameter_matches_oracle():
    # b1 = 1/1000003 makes 1 + s a fraction with a 7-digit numerator;
    # (M+1)^(1+s) no longer costs an integer power of that size
    p = HypParams(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
                  Fraction(1, 1000003), Fraction(2))
    with CTX.workprec():
        got = hyp3f2.f32_unit(p, CTX)
    with mpmath.workdps(20):    # mpmath takes 4 s here, 12 s at 30 digits
        want = mpmath.hyp3f2(0.5, 0.5, 0.5, _mp(p.b1), 2, 1)
    assert abs(got.val - want) < abs(want) * mpmath.mpf(10) ** -18


def test_tiny_lower_parameter_ends_under_a_memory_cap():
    # b1 = 10^-30: 1 + s has a 31-digit numerator, whose integer power
    # would never fit; the hyp command must end at once with exit 0 or 2
    probe = ("import resource, sys; "
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
             "from ellhyp.cli import main; "
             "sys.exit(main(['hyp', '--params', '1/2,1/2,1/2,1e-30,2']))")
    src = str(Path(hyp3f2.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr


def _term_sum(p, dps):
    """sum t_n by mpmath.nsum at dps digits.  mpmath.hyp3f2 is no oracle at
    large lower parameters: at (1/2, 1/2, 1/2; 100, 301/3) it returns
    1.43e-50 for a sum of 1.0000124605..."""
    with mpmath.workdps(dps):
        a1, a2, a3, b1, b2 = map(_mp, (p.a1, p.a2, p.a3, p.b1, p.b2))
        return mpmath.nsum(
            lambda n: (mpmath.rf(a1, n) * mpmath.rf(a2, n) * mpmath.rf(a3, n)
                       / (mpmath.rf(b1, n) * mpmath.rf(b2, n)
                          * mpmath.factorial(n))), [0, mpmath.inf])


@pytest.mark.parametrize("digits", [30, 60])
def test_large_margin_within_err_of_the_term_sum(digits):
    # 3F2(1/2, 1/2, 1/2; b, b+1/3; 1) has margin 2b - 7/6; the head is 8P
    # long, and from b = 720 at 30 digits the tail's zeta values need a
    # longer one (their em_start).  mpmath.nsum of the terms holds only
    # where mpmath.hyp3f2 confirms it: on 50,50,50,75,76 (margin 1, terms
    # near 1e24) it gives 1.9120e25 where hyp3f2 and f32_unit agree on
    # 1.9531e25.  On this family hyp3f2 is wrong from b = 20 on (0.875 for
    # 1.0003), so these sums, fast ones (margin >= 38, terms <= 1), rest on
    # nsum alone
    ctx = PrecisionContext(digits=digits)
    for b in range(20, 1181, 20):
        p = HypParams(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
                      Fraction(b), b + Fraction(1, 3))
        with ctx.workprec():
            got = hyp3f2.f32_unit(p, ctx)
        want = _term_sum(p, digits + 20)
        with mpmath.workdps(digits + 20):
            assert abs(got.val - want) <= got.err, b


def test_a_margin_past_the_fixed_point_start_sums():
    # margin 5998.8: 16 fixed-point steps put em_start at 1142 for the true
    # 1159, so the Euler-Maclaurin corrections turned before their stop and
    # hyp exited 2; from Newton's start they reach it
    p = HypParams(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
                  Fraction(3000), 3000 + Fraction(1, 3))
    with CTX.workprec():
        got = hyp3f2.f32_unit(p, CTX)
    want = _term_sum(p, 50)
    with mpmath.workdps(50):
        assert abs(got.val - want) <= got.err


def test_a_large_margin_exits_within_the_corrections_cap():
    # margin 2 10^6: the head (3 10^5 terms) fits under MAX_TERMS, but the
    # zeta values would need thousands of Bernoulli numbers; the cap stops
    # them after EM_MAX_CORRECTIONS
    code, seconds, err = _hyp_subprocess("1/2,1/2,1/2,1000000,3000001/3")
    assert code == 2, err
    assert f"over {mpnum.EM_MAX_CORRECTIONS} Euler-Maclaurin" in err
    assert seconds < 10


def test_a_huge_margin_exits_before_its_head():
    # margin 2 10^7: the tail would start past 3 10^6 terms, over MAX_TERMS
    code, seconds, err = _hyp_subprocess("1/2,1/2,1/2,10000000,30000001/3")
    assert code == 2, err
    assert "the head needs" in err
    assert seconds < 5


# The original construction of the tail coefficients, kept as an independent
# exact reference: dense series products and a generalised binomial product
# for every term of the c_m recurrence (memoised on k, so that count 214 stays
# affordable).

@functools.lru_cache(maxsize=None)
def _ref_binom(q, k):
    if k == 0:
        return Fraction(1)
    return _ref_binom(q, k - 1) * (Fraction(q) - (k - 1)) / k


def _ref_series_mul(a, b, order):
    out = [Fraction(0)] * order
    for i, x in enumerate(a[:order]):
        if x == 0:
            continue
        for j, y in enumerate(b[: order - i]):
            out[i + j] += x * y
    return out


def _ref_rho(p, order):
    num = [Fraction(1)]
    for a in (p.a1, p.a2, p.a3):
        num = _ref_series_mul(num, [Fraction(1), Fraction(a)], order)
    num = _ref_series_mul(
        num, [_ref_binom(1 + p.margin, k) for k in range(order)], order)
    den = [Fraction(1)]
    for b in (p.b1, p.b2, Fraction(1)):
        geom = [(-Fraction(b)) ** k for k in range(order)]
        den = _ref_series_mul(den, geom, order)
    return _ref_series_mul(num, den, order)


def _ref_tail_coefficients(p, count):
    rho = _ref_rho(p, count + 2)
    c = [Fraction(1)]
    for m in range(2, count + 1):
        acc = Fraction(0)
        for i in range(m - 1):
            acc += c[i] * (_ref_binom(-i, m - i) - rho[m - i])
        c.append(acc / (m - 1))
    return c


def _ball_misses(mids, rads, ref, bits):
    """Indices i with |mids[i] - ref[i] 2^bits| > rads[i], exactly."""
    return [i for i, (C, E, c) in enumerate(zip(mids, rads, ref))
            if abs(C * c.denominator - (c.numerator << bits))
            > E * c.denominator]


def _check_balls(p, count, ctx):
    """Every exact c_i lies in its ball, and the radius weighted by the
    tail's (M+1)^-i stays within 2 units of 2^-bits."""
    bits = ctx.fixed_bits
    M = hyp3f2.head_tail_sizes(p, ctx).M
    mids, rads = hyp3f2.tail_coefficients(p, count, bits)
    assert len(mids) == len(rads) == count
    assert _ball_misses(mids, rads, _ref_tail_coefficients(p, count),
                        bits) == []
    assert all(E <= 2 * (M + 1) ** i for i, E in enumerate(rads))


def _ftilde_params(a, b):
    return HypParams(a, b, a + b - 1, a + b, a + b)


TAIL_PARAMS = [
    _ftilde_params(Fraction(1, 2), Fraction(1, 3)),
    _ftilde_params(Fraction(1, 2), Fraction(2, 3)),
    _ftilde_params(Fraction(1, 4), Fraction(1, 4)),
    _ftilde_params(Fraction(3, 4), Fraction(3, 4)),
    # Dixon form 3F2(a, b, c; 1+a-b, 1+a-c; 1), margin 2 + a - 2b - 2c = 67/30
    HypParams(Fraction(1, 2), Fraction(1, 3), Fraction(-1, 5),
              Fraction(7, 6), Fraction(17, 10)),
]
TAIL_IDS = ["F(1/2,1/3)", "F(1/2,2/3)", "F(1/4,1/4)", "F(3/4,3/4)", "dixon"]


@pytest.mark.parametrize("count", [2, 3, 20, 60])
@pytest.mark.parametrize("p", TAIL_PARAMS, ids=TAIL_IDS)
def test_tail_coefficients_match_reference(p, count):
    _check_balls(p, count, CTX)


def test_tail_coefficients_match_reference_200_digits():
    # count P+3 = 215 is the cap of the stop test at 200 digits
    _check_balls(TAIL_PARAMS[0], 215, PrecisionContext(digits=200))


@pytest.mark.parametrize("p", TAIL_PARAMS, ids=TAIL_IDS)
def test_ratio_series_is_integral(p):
    # R_k = rho_k k! D^k, exactly the reference's rho times k! D^k
    R, D = hyp3f2._ratio_series(p, 40)
    assert all(isinstance(r, int) for r in R)
    assert [Fraction(r, math.factorial(k) * D ** k)
            for k, r in enumerate(R)] == _ref_rho(p, 40)


def _check_head(p, ctx):
    """The fixed-point head and its next term t_{M+1}, the source of the
    tail's scale, lie within their radii of the exact Fraction values;
    returns the two radii."""
    bits = ctx.fixed_bits
    M = hyp3f2.head_tail_sizes(p, ctx).M
    t = exact = Fraction(1)
    for n in range(M):
        t *= _term_ratio(p, n)
        exact += t
    t_next = t * _term_ratio(p, M)
    head, head_rad, T, T_rad = next(hyp3f2._partial_sums(p, M, bits))
    assert abs(head - exact * 2 ** bits) <= head_rad
    assert abs(T - t_next * 2 ** bits) <= T_rad
    return head_rad, T_rad


@pytest.mark.parametrize("digits", [30, 200])
@pytest.mark.parametrize("p", TAIL_PARAMS, ids=TAIL_IDS)
def test_partial_sum_within_m_plus_one_units(p, digits):
    ctx = PrecisionContext(digits=digits)
    head_rad, T_rad = _check_head(p, ctx)
    assert head_rad <= hyp3f2.head_tail_sizes(p, ctx).M + 1
    assert T_rad <= 2


@pytest.mark.parametrize("p", [TAIL_PARAMS[0], TAIL_PARAMS[4],
                               HypParams(50, 50, 50, 75, 76)],
                         ids=["F(1/2,1/3)", "dixon", "grows-first"])
def test_a_resumed_head_matches_a_fresh_one(p):
    # a doubled head resumes the last one's state one guard bit up: at 2M
    # and 4M its balls overlap those of a fresh sum to the same M, and hold
    # the exact Fraction sum and next term
    bits, M = CTX.fixed_bits, 8 * hyp3f2.HEAD_PER_DIGIT
    heads = hyp3f2._partial_sums(p, M, bits)
    next(heads)
    t = exact = Fraction(1)
    for n in range(M << 2):
        t *= _term_ratio(p, n)
        exact += t
        if n + 1 in (M << 1, M << 2):
            S, S_rad, T, T_rad = next(heads)
            fresh = next(hyp3f2._partial_sums(p, n + 1, bits))
            assert abs(S - fresh[0]) <= S_rad + fresh[1], n + 1
            assert abs(T - fresh[2]) <= T_rad + fresh[3], n + 1
            assert abs(S - exact * 2 ** bits) <= S_rad, n + 1
            assert abs(T - t * _term_ratio(p, n + 1) * 2 ** bits) <= T_rad


@pytest.mark.parametrize("delta", [1, -1])
def test_ball_check_catches_planted_midpoint(delta):
    p, count = TAIL_PARAMS[0], 20
    bits = CTX.fixed_bits
    mids, rads = hyp3f2.tail_coefficients(p, count, bits)
    ref = _ref_tail_coefficients(p, count)
    assert _ball_misses(mids, rads, ref, bits) == []
    # c_0 = 1 is exact, so its radius is 0 and any change leaves the ball
    planted = list(mids)
    planted[0] += delta
    assert _ball_misses(planted, rads, ref, bits) == [0]


def _dixon(a, b, c, dps):
    """Dixon's sum 3F2(a, b, c; 1+a-b, 1+a-c; 1) in closed form, by mpmath."""
    with mpmath.workdps(dps):
        g = lambda q: mpmath.gamma(_mp(q))
        h = a / 2
        return (g(1 + h) * g(1 + a - b) * g(1 + a - c) * g(1 + h - b - c)
                / (g(1 + a) * g(1 + h - b) * g(1 + h - c) * g(1 + a - b - c)))


# (a, b, c, digits) in Dixon's form with margin 2 + a - 2b - 2c in [1/6, 2].
# The first two are the cases the absolute stop in Hurwitz zeta made
# understated by four to six orders of magnitude; the fixed-seed list after
# them had 22 of its 32 understated by that stop.
DIXON_CASES = [
    ("11/3", "5/6", "13/12", 53), ("10/3", "5/4", "1/2", 41),
    ("13/4", "9/5", "1/4", 73), ("11/3", "3/2", "5/6", 33),
    ("23/6", "3/4", "7/5", 41), ("3/4", "1/6", "9/8", 43),
    ("15/4", "5/6", "7/6", 69), ("7/2", "4/3", "13/12", 85),
    ("5/3", "3/4", "1/2", 49), ("17/5", "4/3", "7/6", 34),
    ("11/4", "7/4", "1/2", 30), ("5/2", "6/5", "5/8", 87),
    ("10/3", "2/3", "6/5", 88), ("1/3", "4/5", "1/5", 46),
    ("8/3", "2/5", "3/2", 65), ("7/12", "7/12", "1/3", 41),
    ("11/3", "3/2", "1/3", 65), ("3/2", "9/8", "1/3", 63),
    ("11/6", "5/4", "1/4", 67), ("3/4", "3/4", "1/2", 82),
    ("7/2", "1/4", "3/2", 85), ("29/8", "13/12", "3/4", 59),
    ("18/5", "11/6", "3/8", 95), ("3/2", "4/3", "1/3", 91),
    ("27/8", "6/5", "1/2", 41), ("13/5", "1/2", "4/3", 58),
    ("19/5", "4/5", "4/3", 46), ("7/2", "5/4", "1/2", 99),
    ("18/5", "2/3", "6/5", 72), ("1/4", "1/2", "1/4", 64),
    ("17/5", "5/4", "1/2", 43), ("9/4", "13/12", "1/2", 36),
    ("9/4", "1/4", "3/2", 95), ("9/4", "5/6", "2/5", 95),
]


@pytest.mark.parametrize("a, b, c, digits", DIXON_CASES,
                         ids=[f"{a},{b},{c}@{d}" for a, b, c, d in DIXON_CASES])
def test_f32_unit_err_bounds_dixon(a, b, c, digits):
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    ctx = PrecisionContext(digits=digits)
    with ctx.workprec():
        got = hyp3f2.f32_unit(HypParams(a, b, c, 1 + a - b, 1 + a - c), ctx)
    with mpmath.workdps(digits + 20):
        actual = abs(got.val - _dixon(a, b, c, digits + 20))
    assert actual <= got.err
    assert got.err <= mpmath.mpf(10) ** -digits * max(1, abs(got.val))


# Terms that grow before they shrink: at n = 0 the term ratios are 125/48
# and 27/16.  Both reduce to Gauss sums, 3F2(a, b, c+1; d, c; 1) =
# 2F1(a, b; d; 1) + ab/(cd) 2F1(a+1, b+1; d+1; 1), with the exact values
# 2233/4 and 385/8.
GROWING = ["5,5,5,4,12", "3,3,3,2,8"]


@pytest.mark.parametrize("digits", [30, 100, 200])
@pytest.mark.parametrize("params", GROWING)
def test_f32_unit_ball_holds_when_terms_grow(params, digits):
    p = HypParams(*map(Fraction, params.split(",")))
    assert _term_ratio(p, 0) > 1
    ctx = PrecisionContext(digits=digits)
    _check_head(p, ctx)
    with ctx.workprec():
        got = hyp3f2.f32_unit(p, ctx)
    with mpmath.workdps(digits + 40):
        want = mpmath.hyp3f2(*map(_mp, (p.a1, p.a2, p.a3, p.b1, p.b2)), 1)
        assert abs(got.val - want) <= got.err
    assert got.err <= mpmath.mpf(10) ** -digits * abs(got.val)


def test_truncation_bound_covers_a_vanishing_coefficient():
    # F~(1/2, 1/3) has c_1 = c_2 = 0 exactly, so a tail cut after c_1 has a
    # first omitted term of 0; its radius must come from c_3, and cover the
    # true tail, F minus the head, by the oracle
    p = TAIL_PARAMS[0]
    assert _ref_tail_coefficients(p, 3)[1:] == [0, 0]
    W, M, K = CTX.fixed_bits, 704, 1
    coeffs = hyp3f2.tail_coefficients(p, K + 3, W)
    S, S_rad, T, T_rad = next(hyp3f2._partial_sums(p, M, W))
    zetas = mpnum.hurwitz_zeta(2, M + 1, CTX, K + 3)
    tail, rad = hyp3f2.accelerated_tail(M, K, CTX, (T, T_rad), coeffs, zetas)
    with mpmath.workdps(30):
        want = mpmath.hyp3f2(*map(_mp, (p.a1, p.a2, p.a3, p.b1, p.b2)), 1)
        assert abs(tail - (mpmath.ldexp(want, W) - S)) <= rad + S_rad


@pytest.mark.parametrize("digits", [30, 100, 152, 200])
@pytest.mark.parametrize("p", TAIL_PARAMS[:4], ids=TAIL_IDS[:4])
def test_stop_test_keeps_k_at_most_p_and_drops_terms_below_one_unit(p, digits):
    # the F~ sets keep the cost rule's head; their tails stop by K = P, and
    # both omitted terms, scaled by the tail's leading term |T| N, are
    # below one unit of 2^-W
    ctx = PrecisionContext(digits=digits)
    P, W = digits + GUARD, ctx.fixed_bits
    M, K, head, (mids, rads) = hyp3f2.head_tail_sizes(p, ctx)
    assert M == hyp3f2.HEAD_PER_DIGIT * P
    assert hyp3f2.K_MIN <= K <= P and len(mids) == len(rads) == K + 3
    N = M + 1
    for j in (K + 1, K + 2):
        assert abs(head[2]) * N * (abs(mids[j]) + rads[j]) < N ** j << W


def test_a_tail_that_never_stops_raises():
    # 50,50,50,75,76 at 30 digits and M = 8P: the terms stay above one unit
    # through the cap (test_cli checks the exit 2 after the head doubles)
    W = CTX.fixed_bits
    with pytest.raises(PrecisionError, match="stay above"):
        hyp3f2.tail_coefficients(HypParams(50, 50, 50, 75, 76), 45, W,
                                 (337, 1 << W))


def test_a_doubled_head_matches_the_oracle():
    # at 60 digits the same set stops after the head doubles three times;
    # mpmath.nsum is no oracle here (its sum is 4e23 off, about 2%), but
    # mpmath.hyp3f2 is
    p = HypParams(50, 50, 50, 75, 76)
    ctx = PrecisionContext(digits=60)
    assert hyp3f2.head_tail_sizes(p, ctx).M == 8 * hyp3f2.HEAD_PER_DIGIT * 72
    with ctx.workprec():
        got = hyp3f2.f32_unit(p, ctx)
    with mpmath.workdps(80):
        assert abs(got.val - mpmath.hyp3f2(50, 50, 50, 75, 76, 1)) <= got.err


def _zeta_calls(monkeypatch, capsys, *argv):
    """The exit code of `argv` and its calls of mpnum.hurwitz_zeta."""
    calls = []
    real = mpnum.hurwitz_zeta

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mpnum, "hurwitz_zeta", counted)
    code = main(list(argv))
    capsys.readouterr()
    return code, calls


def test_one_zeta_batch_per_identity(monkeypatch, capsys):
    # the four F~ terms of a run share one batch per rhs_main call, not one
    # each; hyp asks for its own
    code, calls = _zeta_calls(monkeypatch, capsys, "verify-identity")
    assert code == 0 and len(calls) == 2
    code, calls = _zeta_calls(monkeypatch, capsys, "verify-identity",
                              "--curve", "64")
    assert code == 0 and len(calls) == 1
    code, calls = _zeta_calls(monkeypatch, capsys, "hyp", "--params",
                              "1/2,1/3,-1/6,5/6,5/6")
    assert code == 0 and len(calls) == 1
