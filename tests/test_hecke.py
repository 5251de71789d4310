"""Dirichlet coefficients and L-values, cross-checked between pipelines."""

import math

import mpmath
import pytest

from ellhyp import hecke
from ellhyp.hecke import (BadPrimeError, CoefficientFileError, CurveId,
                          afe_n_max, ap_cm, ap_pointcount, build_coeffs,
                          curve, eta_product_coeffs, l_two, lstar_zero)
from ellhyp.mpnum import PrecisionContext

CTX = PrecisionContext(digits=30)


def _primes(n):
    sieve = [True] * (n + 1)
    sieve[0] = sieve[1] = False
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(sieve[p * p::p])
    return [p for p, ok in enumerate(sieve) if ok]


def test_curve_registry():
    assert curve(36).weierstrass == (0, 1)
    assert curve(64).weierstrass == (-4, 0)
    with pytest.raises(Exception):
        curve(37)


def test_cross_oracle_ap_under_500():
    for N in (36, 64):
        c = curve(N)
        for p in _primes(499):
            if p in c.bad_primes:
                continue
            assert ap_cm(c, p) == ap_pointcount(c, p), (N, p)


def test_bad_primes_raise():
    with pytest.raises(BadPrimeError):
        ap_cm(curve(36), 3)
    with pytest.raises(BadPrimeError):
        ap_cm(curve(64), 2)


def test_hasse_bound():
    for N in (36, 64):
        c = curve(N)
        for p in _primes(200):
            if p in c.bad_primes:
                continue
            assert abs(ap_cm(c, p)) <= 2 * math.isqrt(p) + 1


def test_supersingular_pattern():
    # a_p = 0 whenever p is inert: p = 2 mod 3 for E36, p = 3 mod 4 for E64
    for p in _primes(300):
        if p > 3 and p % 3 == 2:
            assert ap_cm(curve(36), p) == 0
        if p > 2 and p % 4 == 3:
            assert ap_cm(curve(64), p) == 0


def test_multiplicativity_of_table():
    for N in (36, 64):
        tbl = build_coeffs(curve(N), 600, "cm")
        tbl.check_invariants(sample_stride=1)
        for m in range(2, 24):
            for n in range(2, 24):
                if math.gcd(m, n) == 1:
                    assert tbl[m * n] == tbl[m] * tbl[n]


def test_prime_power_recursion():
    # a_{p^{k+1}} = a_p a_{p^k} - p a_{p^{k-1}} for good p
    tbl = build_coeffs(curve(64), 700, "cm")
    for p in (5, 13, 17):
        for k in (1, 2):
            if p ** (k + 1) <= 700:
                assert tbl[p ** (k + 1)] == \
                    tbl[p] * tbl[p ** k] - p * tbl[p ** (k - 1)]


def test_eta_product_oracle_e36():
    # q prod (1-q^6n)^4 matches the conductor-36 CM coefficients
    n_max = 400
    eta = eta_product_coeffs(n_max)
    cm = build_coeffs(curve(36), n_max, "cm")
    for n in range(1, n_max + 1):
        assert eta[n] == cm[n], n


def test_pointcount_source_agrees_with_cm():
    for N in (36, 64):
        a = build_coeffs(curve(N), 120, "cm")
        b = build_coeffs(curve(N), 120, "pointcount")
        for n in range(1, 121):
            assert a[n] == b[n]


def test_file_source_round_trip(tmp_path):
    tbl = build_coeffs(curve(64), 150, "cm")
    path = tmp_path / "a.csv"
    path.write_text("".join(f"{n},{tbl[n]}\n" for n in range(1, 151)))
    loaded = build_coeffs(curve(64), 150, "file", an_file=str(path))
    assert all(loaded[n] == tbl[n] for n in range(1, 151))


def test_file_source_rejects_corruption(tmp_path):
    tbl = build_coeffs(curve(64), 150, "cm")
    lines = [f"{n},{tbl[n]}" for n in range(1, 151)]
    lines[5] = "6,999"  # breaks multiplicativity (a_6 = a_2 a_3)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CoefficientFileError):
        build_coeffs(curve(64), 150, "file", an_file=str(path))


def test_afe_vs_naive_sum():
    # naive sum_{n<=1e5} a_n / n^2 as a low-accuracy oracle for L(E,2)
    for N in (36, 64):
        c = curve(N)
        tbl = build_coeffs(c, 10 ** 5, "cm")
        with CTX.workprec():
            naive = mpmath.fsum(
                mpmath.mpf(tbl[n]) / n ** 2 for n in range(1, 10 ** 5 + 1))
            afe = l_two(c, build_coeffs(c, afe_n_max(c, CTX), "cm"), CTX)
            rel = abs(afe.val - naive) / abs(naive)
            assert rel < mpmath.mpf("5e-3"), (N, rel)


def test_lstar_zero_values():
    with CTX.workprec():
        v36 = lstar_zero(curve(36), CTX)
        v64 = lstar_zero(curve(64), CTX)
        assert abs(v36.val - mpmath.mpf("0.857189074929917730716851")) < 1e-20
        assert abs(v64.val - mpmath.mpf("1.658664498381914089049496")) < 1e-20


@pytest.mark.parametrize("N", [36, 64])
def test_l_two_err_bounds_the_error(N):
    # the same sum at 120 digits is the reference for the 40- and 80-digit
    # sums; their err must cover the difference and meet the target
    c = curve(N)
    ref_ctx = PrecisionContext(digits=120)
    with ref_ctx.workprec():
        ref = l_two(c, build_coeffs(c, afe_n_max(c, ref_ctx), "cm"), ref_ctx)
    for digits in (40, 80):
        ctx = PrecisionContext(digits=digits)
        with ctx.workprec():
            got = l_two(c, build_coeffs(c, afe_n_max(c, ctx), "cm"), ctx)
        with ref_ctx.workprec():
            actual = abs(got.val - ref.val)
            assert actual <= got.err
            assert got.err <= mpmath.mpf(10) ** -digits * abs(got.val)
