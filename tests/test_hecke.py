"""Dirichlet coefficients and L-values, cross-checked between pipelines."""

import ast
import math
from pathlib import Path

import mpmath
import pytest

from ellhyp import hecke, mpnum
from ellhyp.hecke import (BadPrimeError, CoefficientFileError, _mul, _units,
                          afe_n_max, ap_pointcount, build_coeffs, curve,
                          l_two, lstar_zero, read_coeff_file, residue)
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


def test_derived_units_and_bad_primes():
    # the units are the pairs of norm 1 and the bad primes divide N; these
    # are the sets the two curves were first written down with
    assert set(_units(curve(36))) == {(1, 0), (-1, 0), (0, 1), (0, -1),
                                      (-1, -1), (1, 1)}
    assert set(_units(curve(64))) == {(1, 0), (0, 1), (-1, 0), (0, -1)}
    for N, bad in ((36, {2, 3}), (64, {2})):
        c = curve(N)
        raised = set()
        for p in _primes(50):
            try:
                ap_pointcount(c, p)
            except BadPrimeError:
                raised.add(p)
        assert raised == bad, (N, raised)
        # no ideal of norm p^k is prime to f at a bad p
        tbl = build_coeffs(c, 50, "cm")
        assert [p ** k for p in bad for k in range(1, 6)
                if p ** k <= 50 and tbl[p ** k]] == [], N


def test_coset_representatives_meet_each_class_once():
    # the theta series rests on this: each class of (O_K/nu)* has exactly
    # one unit multiple among the coset representatives
    for N, size in ((36, 6), (64, 8)):
        c = curve(N)
        box = {residue(c, (a, b)) for a in range(-12, 13)
               for b in range(-12, 13)}
        classes = [x for x in box if any(
            residue(c, _mul(c, x, y)) == (1, 0) for y in box)]
        reps = [residue(c, r) for r, _ in c.cosets]
        assert len(classes) == size, N
        for x in classes:
            hits = [u for u in _units(c)
                    if residue(c, _mul(c, x, u)) in reps]
            assert len(hits) == 1, (N, x, hits)


def test_cross_oracle_ap_under_500():
    # the two sources share no code: the tables agree at every n <= 1000,
    # so at every prime below 500 and not only there
    for N in (36, 64):
        c = curve(N)
        assert build_coeffs(c, 1000, "cm") == \
            build_coeffs(c, 1000, "pointcount"), N


def test_bad_primes_raise():
    with pytest.raises(BadPrimeError):
        ap_pointcount(curve(36), 3)
    with pytest.raises(BadPrimeError):
        ap_pointcount(curve(64), 2)
    assert build_coeffs(curve(36), 3, "cm")[3] == 0
    assert build_coeffs(curve(64), 2, "cm")[2] == 0


def test_hasse_bound():
    for N in (36, 64):
        c = curve(N)
        tbl = build_coeffs(c, 200, "cm")
        for p in _primes(200):
            if c.N % p == 0:
                continue
            assert tbl[p] * tbl[p] <= 4 * p, (N, p)


def test_supersingular_pattern():
    # a_p = 0 exactly when p is inert: p = 2 mod 3 for E36, p = 3 mod 4 for
    # E64; a split p has a_p = Tr pi, which is never 0
    e36 = build_coeffs(curve(36), 300, "cm")
    e64 = build_coeffs(curve(64), 300, "cm")
    for p in _primes(300):
        if p > 3:
            assert (e36[p] == 0) == (p % 3 == 2), p
        if p > 2:
            assert (e64[p] == 0) == (p % 4 == 3), p


def test_multiplicativity_of_table():
    for N in (36, 64):
        tbl = build_coeffs(curve(N), 600, "cm")
        assert tbl[1] == 1
        for n in range(1, 601):
            for m in range(2, 600 // n + 1):
                if math.gcd(m, n) == 1:
                    assert tbl[m * n] == tbl[m] * tbl[n], (N, m, n)


def test_prime_power_recursion():
    # a_{p^{k+1}} = a_p a_{p^k} - p a_{p^{k-1}} for good p
    tbl = build_coeffs(curve(64), 700, "cm")
    for p in (5, 13, 17):
        for k in (1, 2):
            if p ** (k + 1) <= 700:
                assert tbl[p ** (k + 1)] == \
                    tbl[p] * tbl[p ** k] - p * tbl[p ** (k - 1)]


def _eta_quotient_coeffs(n_max: int, exponents: dict) -> dict:
    """Coefficients of q prod_{n>=1} prod_k (1 - q^{kn})^{e_k}, for the
    exponents {k: e_k}, up to q^{n_max}."""
    coeffs = [0] * n_max
    coeffs[0] = 1
    for k, e in exponents.items():
        for m in range(k, n_max, k):
            for _ in range(abs(e)):
                if e > 0:   # multiply by (1 - q^m)
                    for i in range(n_max - 1, m - 1, -1):
                        coeffs[i] -= coeffs[i - m]
                else:       # divide by (1 - q^m)
                    for i in range(m, n_max):
                        coeffs[i] += coeffs[i - m]
    return {n: coeffs[n - 1] for n in range(1, n_max + 1)}


def test_eta_product_oracle_e36():
    # q prod (1-q^6n)^4 matches the conductor-36 CM coefficients
    n_max = 400
    eta = _eta_quotient_coeffs(n_max, {6: 4})
    assert eta == build_coeffs(curve(36), n_max, "cm")


def test_eta_quotient_oracle_e64():
    # eta(8z)^8 / (eta(4z)^2 eta(16z)^2) matches the conductor-64 CM
    # coefficients
    n_max = 400
    eta = _eta_quotient_coeffs(n_max, {8: 8, 4: -2, 16: -2})
    assert eta == build_coeffs(curve(64), n_max, "cm")


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
    loaded = read_coeff_file(str(path), 150)
    assert sorted(tbl) == list(range(1, 151))
    assert loaded == tbl


def test_file_source_rejects_corruption(tmp_path):
    tbl = build_coeffs(curve(64), 150, "cm")
    lines = [f"{n},{tbl[n]}" for n in range(1, 151)]
    lines[5] = "6,999"  # breaks multiplicativity (a_6 = a_2 a_3)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CoefficientFileError):
        read_coeff_file(str(path), 150)


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


def _afe_oracle(c, digits):
    """L(E, 2) from the AFE split at t = 1, whatever l_two's cut, at
    digits + 60 with mpmath.expint, the terms to the truncation point of
    digits + 60 (so it also checks the truncation bounds of the digits-sum)."""
    ref_ctx = PrecisionContext(digits=digits + 60)
    tbl = build_coeffs(c, hecke._afe_count(c, ref_ctx, 1), "cm")
    with ref_ctx.workprec():
        kappa = 2 * mpmath.pi / mpmath.sqrt(c.N)
        return mpmath.fsum(
            an * (mpmath.exp(-n * kappa) * (1 + n * kappa) / n ** 2
                  + kappa ** 2 * mpmath.expint(1, n * kappa))
            for n, an in tbl.items() if an)


@pytest.mark.parametrize("N", [36, 64])
def test_l_two_err_bounds_the_error(N):
    # every ball holds an oracle that shares no code with l_two (no running
    # power, no fixed point, mpmath's E1, and the cut at t = 1), and err
    # meets the target
    c = curve(N)
    for digits in (30, 60, 100, 152, 200):
        ctx = PrecisionContext(digits=digits)
        with ctx.workprec():
            got = l_two(c, build_coeffs(c, afe_n_max(c, ctx), "cm"), ctx)
        ref = _afe_oracle(c, digits)
        with mpmath.workdps(digits + 60):
            assert abs(got.val - ref) <= got.err, digits
        assert got.err <= mpmath.mpf(10) ** -digits * abs(got.val), digits


CUTS = (1, 2, 4, 6)


def _balls_at_every_cut(c, tbl, ctx, monkeypatch):
    """l_two's (lo, hi) at each cut-off t = 1/T, T in CUTS."""
    balls = []
    for T in CUTS:
        monkeypatch.setattr(hecke, "AFE_CUT", T)
        with ctx.workprec():
            got = l_two(c, tbl, ctx)
            balls.append((got.val - got.err, got.val + got.err))
    return balls


def _flip_first_ap(tbl):
    """tbl with the sign of a_p flipped at the least prime p >= 5 with
    a_p != 0 (a_5 on E64; on E36 a_5 = 0, so a_7)."""
    p = next(p for p in (5, 7, 11, 13) if tbl[p])
    return {**tbl, p: -tbl[p]}


@pytest.mark.parametrize("digits", [30, 100, 200])
@pytest.mark.parametrize("N", [36, 64])
def test_l_two_is_the_same_ball_at_every_cut(N, digits, monkeypatch):
    # Dokchitser's check: for the L-function of a weight-2 newform with
    # root number w the AFE does not depend on its cut-off, so the balls at
    # t = 1, 1/2, 1/4 and 1/6 share a point; a coefficient with the wrong
    # sign, or w = -1 (the E1 half negated), breaks the functional equation
    # and pulls every pair of balls apart
    c = curve(N)
    ctx = PrecisionContext(digits=digits)
    monkeypatch.setattr(hecke, "AFE_CUT", max(CUTS))
    tbl = build_coeffs(c, afe_n_max(c, ctx), "cm")
    balls = _balls_at_every_cut(c, tbl, ctx, monkeypatch)
    assert max(lo for lo, _ in balls) <= min(hi for _, hi in balls)

    def disjoint(balls):
        return all(hi < lo2 or hi2 < lo for i, (lo, hi) in enumerate(balls)
                   for lo2, hi2 in balls[i + 1:])

    assert disjoint(_balls_at_every_cut(c, _flip_first_ap(tbl), ctx,
                                        monkeypatch))
    real = mpnum.e1_fixed
    monkeypatch.setattr(mpnum, "e1_fixed",
                        lambda *args: (lambda E, R: (-E, R))(*real(*args)))
    assert disjoint(_balls_at_every_cut(c, tbl, ctx, monkeypatch))


def test_l_two_loop_reads_no_mpmath():
    # both sums over n, the Gamma(2) half's and the E1 half's, are integer
    # arithmetic: no mpmath name, mpf or ball is read inside them, and E1
    # comes from the integer kernel
    tree = ast.parse(Path(hecke.__file__).read_text())
    (fn,) = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == "l_two"]
    gamma_loop, e1_loop = [
        node for node in ast.walk(fn) if isinstance(node, ast.For)
        and isinstance(node.target, ast.Name) and node.target.id == "n"]
    for loop, want in ((gamma_loop, set()), (e1_loop, {"e1_fixed"})):
        names = {node.id for node in ast.walk(loop)
                 if isinstance(node, ast.Name)}
        attrs = {node.attr for node in ast.walk(loop)
                 if isinstance(node, ast.Attribute)}
        assert not {"mpmath", "mpf", "Ball", "replace"} & names
        assert attrs == want
