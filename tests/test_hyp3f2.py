"""Hypergeometric engine against the mpmath.hyp3f2 oracle and closed forms."""

import random
from fractions import Fraction

import mpmath
import pytest

from ellhyp import hyp3f2, mpnum
from ellhyp.hyp3f2 import DivergenceError, FTildeArgs, HypParams
from ellhyp.mpnum import PrecisionContext

CTX = PrecisionContext(digits=30)


def _mp(f: Fraction):
    return mpmath.mpf(f.numerator) / f.denominator


def test_terminating_series():
    p = HypParams(Fraction(0), Fraction(1, 3), Fraction(1, 4),
                  Fraction(5, 6), Fraction(7, 8))
    with CTX.workprec():
        assert hyp3f2.f32_unit(p, CTX).val == 1


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
    with CTX.workprec():
        for a1, a2, a3, b1, b2 in sets:
            got = hyp3f2.f32_unit(HypParams(a1, a2, a3, b1, b2), CTX)
            want = mpmath.hyp3f2(_mp(a1), _mp(a2), _mp(a3), _mp(b1), _mp(b2),
                                 1)
            assert abs(got.val - want) < mpmath.mpf(10) ** -27


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
        args = FTildeArgs(Fraction(1, 2), Fraction(1, 3))
        got = hyp3f2.ftilde(args, CTX)
        a, b = mpmath.mpf(1) / 2, mpmath.mpf(1) / 3
        g = mpmath.gamma(a) * mpmath.gamma(b) / mpmath.gamma(a + b)
        want = g ** 2 * mpmath.hyp3f2(a, b, a + b - 1, a + b, a + b, 1)
        assert abs(got.val - want) < mpmath.mpf(10) ** -27


def test_monotonicity_spot_checks():
    with CTX.workprec():
        f12_13 = hyp3f2.ftilde(FTildeArgs(Fraction(1, 2), Fraction(1, 3)), CTX)
        f12_23 = hyp3f2.ftilde(FTildeArgs(Fraction(1, 2), Fraction(2, 3)), CTX)
        f14_14 = hyp3f2.ftilde(FTildeArgs(Fraction(1, 4), Fraction(1, 4)), CTX)
        f34_34 = hyp3f2.ftilde(FTildeArgs(Fraction(3, 4), Fraction(3, 4)), CTX)
        assert f12_13.val - f12_23.val > 2 * (f12_13.err + f12_23.err)
        assert f14_14.val - f34_34.val > 2 * (f14_14.err + f34_34.err)


def test_rhs_main_precision_consistency():
    c30 = PrecisionContext(digits=30)
    c50 = PrecisionContext(digits=50)
    with c50.workprec():
        v50 = hyp3f2.rhs_main(36, c50).val
    with c30.workprec():
        v30 = hyp3f2.rhs_main(36, c30).val
    assert abs(v50 - v30) < mpmath.mpf(10) ** -29


def test_rhs_main_rejects_unknown_curve():
    with pytest.raises(Exception):
        hyp3f2.rhs_main(37, CTX)


# The original O(K^3) construction of the tail coefficients, kept as an
# independent reference: dense series products and a fresh Fraction binomial
# for every term of the c_m recurrence.

def _ref_binom(q, k):
    out = Fraction(1)
    for j in range(k):
        out *= (Fraction(q) - j) / (j + 1)
    return out


def _ref_series_mul(a, b, order):
    out = [Fraction(0)] * order
    for i, x in enumerate(a[:order]):
        if x == 0:
            continue
        for j, y in enumerate(b[: order - i]):
            out[i + j] += x * y
    return out


def _ref_tail_coefficients(p, count):
    order = count + 2
    s = p.margin
    num = [Fraction(1)]
    for a in (p.a1, p.a2, p.a3):
        num = _ref_series_mul(num, [Fraction(1), Fraction(a)], order)
    num = _ref_series_mul(num, [_ref_binom(1 + s, k) for k in range(order)],
                          order)
    den = [Fraction(1)]
    for b in (p.b1, p.b2, Fraction(1)):
        geom = [(-Fraction(b)) ** k for k in range(order)]
        den = _ref_series_mul(den, geom, order)
    rho = _ref_series_mul(num, den, order)
    c = [Fraction(1)]
    for m in range(2, count + 1):
        acc = Fraction(0)
        for i in range(m - 1):
            acc += c[i] * (_ref_binom(-i, m - i) - rho[m - i])
        c.append(acc / (m - 1))
    return c


def _ftilde_params(a, b):
    return HypParams(a, b, a + b - 1, a + b, a + b)


@pytest.mark.parametrize("count", [2, 3, 20, 60])
@pytest.mark.parametrize("p", [
    _ftilde_params(Fraction(1, 2), Fraction(1, 3)),
    _ftilde_params(Fraction(1, 2), Fraction(2, 3)),
    _ftilde_params(Fraction(1, 4), Fraction(1, 4)),
    _ftilde_params(Fraction(3, 4), Fraction(3, 4)),
    # Dixon form 3F2(a, b, c; 1+a-b, 1+a-c; 1), margin 2 + a - 2b - 2c = 67/30
    HypParams(Fraction(1, 2), Fraction(1, 3), Fraction(-1, 5),
              Fraction(7, 6), Fraction(17, 10)),
], ids=["F(1/2,1/3)", "F(1/2,2/3)", "F(1/4,1/4)", "F(3/4,3/4)", "dixon"])
def test_tail_coefficients_match_reference(p, count):
    got = hyp3f2.tail_coefficients(p, count)
    assert len(got) == count
    assert got == _ref_tail_coefficients(p, count)


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
