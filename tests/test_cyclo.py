"""Exact arithmetic in Q(zeta_24)."""

import math
import operator
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from ellhyp.cyclo import (DEGREE, CycloNum, I, SQRT2, SQRT3, SQRT_MINUS3,
                          ZETA3, ZETA6, ZETA8, ZETA24, one, parse_cyclo, zero)

zeta_pow = CycloNum.zeta_pow
from ellhyp.ellper import _embed
from ellhyp.mpnum import PrecisionContext

CTX = PrecisionContext(digits=30)

small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
cyclos = st.builds(lambda cs: CycloNum(cs), st.lists(small, min_size=8,
                                                     max_size=8))


def test_minimal_polynomial():
    # zeta^8 = zeta^4 - 1 encodes Phi_24(x) = x^8 - x^4 + 1
    z = ZETA24
    assert z ** 8 == z ** 4 - 1
    assert z ** 24 == one()
    assert z ** 12 == -one()


def test_named_constants():
    assert I * I == -one()
    assert ZETA3 ** 3 == one() and ZETA3 != one()
    assert ZETA6 ** 6 == one()
    assert ZETA8 ** 2 == I
    assert SQRT2 * SQRT2 == CycloNum.from_rational(2)
    assert SQRT3 * SQRT3 == CycloNum.from_rational(3)
    assert SQRT_MINUS3 * SQRT_MINUS3 == CycloNum.from_rational(-3)
    assert I == zeta_pow(6) and ZETA3 == zeta_pow(8)


@given(cyclos, cyclos, cyclos)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero() == a and a * one() == a


@given(cyclos)
@settings(max_examples=60, deadline=None)
def test_field_inverse(a):
    if a == zero():
        with pytest.raises(ZeroDivisionError):
            a.inv()
    else:
        assert a * a.inv() == one()


@given(cyclos)
@settings(max_examples=40, deadline=None)
def test_conj_is_involution_and_multiplicative(a):
    assert a.conj().conj() == a
    b = ZETA24 + one()
    assert (a * b).conj() == a.conj() * b.conj()


def test_galois_automorphisms():
    # sigma_k: zeta -> zeta^k for gcd(k, 24) = 1 fixes the rationals
    x = parse_cyclo("3/2 + z^5 - 2*z^7")
    for k in (1, 5, 7, 11, 13, 17, 19, 23):
        y = x.galois(k)
        assert y.galois(pow(k, -1, 24)) == x
    assert CycloNum.from_rational(Fraction(7, 3)).galois(5) == \
        CycloNum.from_rational(Fraction(7, 3))


def test_embed_against_numeric_root():
    with CTX.workprec():
        z = mpmath.expjpi(mpmath.mpf(2) / 24)
        x = parse_cyclo("1/2 - 3*z^2 + z^7")
        want = mpmath.mpf(1) / 2 - 3 * z ** 2 + z ** 7
        assert abs(_embed(x, CTX) - want) < mpmath.mpf(10) ** -25
        # conjugation commutes with embedding
        assert abs(_embed(x.conj(), CTX) - mpmath.conj(want)) \
            < mpmath.mpf(10) ** -25


def test_parse_round_trip_and_errors():
    for text in ("0", "-1", "z", "i", "zeta3", "sqrt2*(1+z^4)/2",
                 "(1-zeta3)^2", "2+3*i"):
        parse_cyclo(text)
    assert parse_cyclo("i") == I
    assert parse_cyclo("sqrt2^2") == CycloNum.from_rational(2)
    assert parse_cyclo("(1+i)*(1-i)") == CycloNum.from_rational(2)
    with pytest.raises(Exception):
        parse_cyclo("1 +")
    with pytest.raises(Exception):
        parse_cyclo("unknown_name")


def test_sort_key_total_order():
    vals = [one(), zero(), I, -I, ZETA3, SQRT2]
    keys = [v.sort_key() for v in vals]
    assert len(set(keys)) == len(vals)


# --- the representation: integer vectors over one denominator -------------

# Phi_24(x) = x^8 - x^4 + 1, little-endian
_PHI = [Fraction(c) for c in (1, 0, 0, 0, -1, 0, 0, 0, 1)]


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _polymul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _polysub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _polydivmod(a, b):
    a, b = _trim(a), _trim(b)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(_trim(r)) >= len(b):
        r = _trim(r)
        d = len(r) - len(b)
        c = r[-1] / b[-1]
        q[d] = c
        for i, bc in enumerate(b):
            r[d + i] -= c * bc
    return q, _trim(r)


def _euclid_inverse(coeffs):
    """1/x by the extended Euclidean algorithm in Q[x] against Phi_24, on
    Fraction lists: the textbook inverse, kept as the oracle."""
    r0, r1 = list(_PHI), list(coeffs)
    t0, t1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        q, r = _polydivmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, _polysub(t0, _polymul(q, t1))
    (c,) = _trim(r0)  # Phi_24 is irreducible, so the gcd is a constant
    poly = [t / c for t in t0]
    # reduce modulo x^8 = x^4 - 1
    for i in range(len(poly) - 1, 7, -1):
        poly[i - 4] += poly[i]
        poly[i - 8] -= poly[i]
    return (poly + [Fraction(0)] * 8)[:8]


wide = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                    max_denominator=10 ** 4)
wide_cyclos = st.builds(CycloNum, st.lists(wide, min_size=0, max_size=8))
# the integer path of a sum or product wants rational operands, which dense
# draws almost never give: mix in rationals and c * z^k, 0 <= k < 8 (one
# nonzero coefficient, rational only for k = 0)
rationals = st.builds(CycloNum.from_rational, wide)
monomials = st.builds(lambda c, k: CycloNum([0] * k + [c]), wide,
                      st.integers(0, DEGREE - 1))
mixed = st.one_of(rationals, monomials, wide_cyclos, cyclos)


def _assert_canonical(x):
    assert len(x.num) == 8 and x.den > 0
    assert math.gcd(*x.num, x.den) == 1


@given(st.one_of(cyclos, wide_cyclos))
@settings(max_examples=60, deadline=None)
def test_inverse_matches_euclid_oracle(a):
    if a:
        assert list(a.inv().coeffs) == _euclid_inverse(a.coeffs)


@given(mixed, mixed)
@settings(max_examples=60, deadline=None)
def test_canonical_form(a, b):
    for x in (a, b, a + b, a - b, a * b, -a, a.conj(), a.galois(5)):
        _assert_canonical(x)
    assert (zero().num, zero().den) == ((0,) * 8, 1)
    assert ((a - a).num, (a - a).den) == ((0,) * 8, 1)
    if b:
        q = (a * b) / b
        assert (q.num, q.den) == (a.num, a.den)
        assert hash(q) == hash(a)
    # the same value built term by term
    c = sum((CycloNum.from_rational(f) * zeta_pow(i)
             for i, f in enumerate(a.coeffs)), zero())
    assert (c.num, c.den) == (a.num, a.den)


def _fraction_str(cs):
    parts = []
    for i, c in enumerate(cs):
        if c != 0:
            parts.append(str(c) if i == 0 else
                         f"{c}*z" if i == 1 else f"{c}*z^{i}")
    return " + ".join(parts) if parts else "0"


@given(st.lists(wide, min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
def test_views_agree_with_fractions(cs):
    x = CycloNum(cs)
    assert x.coeffs == tuple(cs)
    assert str(x) == _fraction_str(cs)
    assert x.sort_key() == tuple((c.numerator, c.denominator) for c in cs)
    assert repr(x) == f"CycloNum({cs})"


def test_galois_table_matches_powers():
    x = parse_cyclo("1/3 - z + 5*z^6 - 1/7*z^7")
    for k in (1, 5, 7, 11, 13, 17, 19, 23, -1, 29):
        want = sum((CycloNum.from_rational(c) * zeta_pow(i * k)
                    for i, c in enumerate(x.coeffs)), zero())
        assert x.galois(k) == want
    with pytest.raises(ValueError):
        x.galois(3)


# --- rational operands: the integer path ----------------------------------

@given(wide, wide)
@settings(max_examples=80, deadline=None)
def test_rational_results_equal_fractions(p, q):
    a, b = CycloNum.from_rational(p), CycloNum.from_rational(q)
    results = [(a + b, p + q), (a - b, p - q), (a * b, p * q)]
    if q:
        results.append((a / b, p / q))
    for x, f in results:
        assert (x.num, x.den) == ((f.numerator,) + (0,) * 7, f.denominator)


def _reduced(poly):
    """A Fraction list reduced modulo Phi_24, as 8 coefficients."""
    r = _polydivmod(poly, _PHI)[1]
    return tuple(r + [Fraction(0)] * (8 - len(r)))


@given(mixed, mixed)
@settings(max_examples=80, deadline=None)
def test_mixed_results_equal_fraction_polynomials(a, b):
    ca, cb = a.coeffs, b.coeffs
    assert (a * b).coeffs == _reduced(_polymul(ca, cb))
    assert (a + b).coeffs == tuple(x + y for x, y in zip(ca, cb))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(ca, cb))
    for x in (a + b, a - b, a * b, b - a):
        _assert_canonical(x)


@given(mixed, wide)
@settings(max_examples=40, deadline=None)
def test_int_and_fraction_operands_coerce(a, q):
    r = CycloNum.from_rational(q)
    assert a + q == q + a == a + r
    assert a - q == a - r and q - a == r - a
    assert a * q == q * a == a * r
    if a:
        assert q / a == r / a
    n = q.numerator
    assert n - a == CycloNum.from_rational(n) - a


@pytest.mark.parametrize("op, symbol", [(operator.sub, "-"),
                                        (operator.truediv, "/"),
                                        (operator.add, "+"),
                                        (operator.mul, "*")])
@pytest.mark.parametrize("x", [zero(), one(), ZETA24 + 2])
def test_foreign_left_operand_raises_type_error(op, symbol, x):
    for left in (1.5, 1j, None):
        with pytest.raises(TypeError, match=f"for {re.escape(symbol)}:"):
            op(left, x)
        with pytest.raises(TypeError, match=f"for {re.escape(symbol)}:"):
            op(x, left)
