"""Valuations, leading coefficients, tame symbols, divisor verification.

The product reads orders and leading coefficients from closed forms on
v^2 = m(u).  The truncated Laurent series below, with local coordinates found
by Newton iteration, is the former product path; it stays here as the oracle
for those closed forms."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellhyp
from ellhyp import claims
from ellhyp.cyclo import CycloNum, one, zero
from ellhyp.ecdiv import CURVE36, CURVE64, CurvePoint, torsion_Ef
from ellhyp.ksym import (E36FF, E64FF, Place, divisor, ff_parse, ord_at,
                         tame_symbol, verify_divisor)
from ellhyp.ksym.ratfunc import Poly
from ellhyp.ksym.series import _leading

_ZERO = zero()
_ONE = one()


class ExpansionDepthError(Exception):
    pass


class LaurentSeries:
    """Truncated Laurent series sum_i coeffs[i] t^(offset+i), known below
    t^(offset+len(coeffs)).  Leading coefficients may be zero (cancellation);
    precision bookkeeping is explicit."""

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset: int, coeffs):
        self.offset = int(offset)
        self.coeffs = [c if isinstance(c, CycloNum) else
                       CycloNum.from_rational(c) for c in coeffs]

    @staticmethod
    def const(c, prec: int) -> "LaurentSeries":
        return LaurentSeries(0, [c] + [_ZERO] * (prec - 1))

    @property
    def end(self) -> int:
        return self.offset + len(self.coeffs)

    def first_nonzero(self):
        """Index into coeffs of the first nonzero term, or None."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def order(self) -> int:
        i = self.first_nonzero()
        if i is None:
            raise ExpansionDepthError(
                "series is zero to the working precision; deepen the expansion")
        return self.offset + i

    def leading_coeff(self) -> CycloNum:
        return self.coeffs[self.first_nonzero()]

    def __add__(self, other):
        o = min(self.offset, other.offset)
        e = min(self.end, other.end)
        if e <= o:
            raise ExpansionDepthError("no overlapping precision in addition")
        out = [_ZERO] * (e - o)
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                k = src.offset + i - o
                if 0 <= k < len(out):
                    out[k] = out[k] + c
        return LaurentSeries(o, out)

    def __neg__(self):
        return LaurentSeries(self.offset, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a0 = self.first_nonzero()
        b0 = other.first_nonzero()
        la, lb = len(self.coeffs), len(other.coeffs)
        # absolute precision of the product
        end = min(self.end + other.offset + (b0 if b0 is not None else lb),
                  other.end + self.offset + (a0 if a0 is not None else la))
        o = self.offset + other.offset
        n = end - o
        if n <= 0:
            raise ExpansionDepthError("no precision left in multiplication")
        out = [_ZERO] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            if i >= n:
                break
            for j, b in enumerate(other.coeffs):
                if i + j >= n:
                    break
                if b:
                    out[i + j] = out[i + j] + a * b
        return LaurentSeries(o, out)

    def inv(self) -> "LaurentSeries":
        i = self.first_nonzero()
        if i is None:
            raise ExpansionDepthError("cannot invert a series that is zero "
                                      "to the working precision")
        unit = self.coeffs[i:]
        n = len(unit)
        lead_inv = unit[0].inv()
        out = [lead_inv] + [_ZERO] * (n - 1)
        for k in range(1, n):
            acc = _ZERO
            for j in range(1, k + 1):
                if unit[j]:
                    acc = acc + unit[j] * out[k - j]
            out[k] = -lead_inv * acc
        return LaurentSeries(-(self.offset + i), out)


def _poly_at_series(p: Poly, s: LaurentSeries, prec: int) -> LaurentSeries:
    acc = LaurentSeries.const(_ZERO, prec)
    for c in reversed(p.coeffs):
        acc = acc * s + LaurentSeries.const(c, prec)
    return acc


def _local_coords(pl: Place, depth: int):
    """(u(t), v(t)) at the place to `depth` relative terms."""
    m = pl.field.m
    half = LaurentSeries.const(CycloNum.from_rational(1) / 2, depth)
    if pl.kind == "finite":
        u0, v0 = pl.point.u, pl.point.v
        # t = u - u0, v = sqrt(m(u0 + t)) by Newton from v0
        u = LaurentSeries(0, [u0, _ONE] + [_ZERO] * (depth - 2))
        target = _poly_at_series(m, u, depth)
        v = LaurentSeries.const(v0, depth)
        for _ in range(depth.bit_length() + 2):
            v = (v + target * v.inv()) * half
        return u, v
    if pl.kind == "two_torsion":
        u0 = pl.point.u
        # t = v, solve m(u) = t^2 by Newton from u0 (m'(u0) != 0)
        mp = m.derivative()
        t2 = LaurentSeries(2, [_ONE] + [_ZERO] * (depth - 1))
        u = LaurentSeries.const(u0, depth)
        for _ in range(depth.bit_length() + 2):
            f_val = _poly_at_series(m, u, depth) - t2
            u = u - f_val * _poly_at_series(mp, u, depth).inv()
        v = LaurentSeries(1, [_ONE] + [_ZERO] * (depth - 1))
        return u, v
    # infinity: t = u/v, u = t^-2 s, v = t^-3 s with
    # s^3 - s^2 + a t^4 s + b t^6 = 0, s(0) = 1   (m = u^3 + a u + b)
    a = m.coeffs[1] if len(m.coeffs) > 1 else _ZERO
    b = m.coeffs[0] if len(m.coeffs) > 0 else _ZERO
    at4 = LaurentSeries(4, [a] + [_ZERO] * (depth - 1))
    bt6 = LaurentSeries(6, [b] + [_ZERO] * (depth - 1))
    s = LaurentSeries.const(_ONE, depth)
    three = LaurentSeries.const(CycloNum.from_rational(3), depth)
    two = LaurentSeries.const(CycloNum.from_rational(2), depth)
    for _ in range(depth.bit_length() + 2):
        f_val = s * s * s - s * s + at4 * s + bt6
        fp = three * s * s - two * s + at4
        s = s - f_val * fp.inv()
    tm2 = LaurentSeries(-2, [_ONE] + [_ZERO] * (depth - 1))
    tm3 = LaurentSeries(-3, [_ONE] + [_ZERO] * (depth - 1))
    return tm2 * s, tm3 * s


def _expand_series(f, pl: Place, depth: int) -> LaurentSeries:
    """f = sum_k nums[k] v^k / den as a series in the uniformizer."""
    u, v = _local_coords(pl, depth)
    acc = None
    vk = LaurentSeries.const(_ONE, depth)
    for k, n in enumerate(f.nums):
        if k:
            vk = vk * v
        if n.is_zero():
            continue
        term = _poly_at_series(n, u, depth) * vk
        acc = term if acc is None else acc + term
    return acc * _poly_at_series(f.den, u, depth).inv()


def _series_leading(f, pl):
    """Reference (order, leading coefficient): expand at doubling depth until
    a term survives."""
    depth = 12
    while True:
        try:
            s = _expand_series(f, pl, depth)
            return s.order(), s.leading_coeff()
        except ExpansionDepthError:
            depth *= 2


def _pt(name, N=36):
    return claims.point(N, name)


def test_laurent_series_arithmetic():
    # (t^-1 + 1) * t = 1 + t with precision bookkeeping
    a = LaurentSeries(-1, (one(), one()))
    t = LaurentSeries(1, (one(),))
    p = a * t
    assert p.order() == 0
    assert p.leading_coeff() == one()
    inv = LaurentSeries(0, (one(), one(), zero())).inv()
    assert inv.order() == 0
    # (1 + t)^-1 = 1 - t + ...
    assert inv.coeffs[1] == -one()


def test_ord_at_known_values_e36():
    f = ff_parse(E36FF, "1-v")
    assert ord_at(f, Place(E36FF, _pt("P"))) == 3
    assert ord_at(f, Place(E36FF, CurvePoint.infinity())) == -3
    g = ff_parse(E36FF, "1+u")
    assert ord_at(g, Place(E36FF, _pt("O"))) == 2
    assert ord_at(g, Place(E36FF, CurvePoint.infinity())) == -2
    assert ord_at(g, Place(E36FF, _pt("P"))) == 0


def test_ord_at_two_torsion_and_infinity_e64():
    f2 = ff_parse(E64FF, "(u-2)^2/(u^2+4)")
    # the zero at the 2-torsion point (2,0) has order 4, not 2: u-2 is a
    # square of the uniformizer v there
    assert ord_at(f2, Place(E64FF, _pt("P0", 64))) == 4
    assert ord_at(f2, Place(E64FF, CurvePoint.infinity())) == 0
    assert ord_at(f2, Place(E64FF, _pt("Q0", 64))) == -1


# functions with poles in both a and b of f = a + b*v; "(1-v)/u^3" and the
# E64 function vanish in their unit part at P and S, where ord_at uses the norm
_POLES_IN_BOTH = {
    36: ["(1+v)/(u*(u-2))", "(1-v)/u^3", "(u+v)/(u+1)^2 + v/(u-2)"],
    64: ["(u+v)/(u^2+4)", "(v-2*u)/(u*(u-2-2*sqrt2))", "v/(u-2)^3 + 1/u"],
}


def _oracle_cases():
    """Every claims.json divisor function, the test functions and
    _POLES_IN_BOTH, at every named point and every point of E_f."""
    for N, field in ((36, E36FF), (64, E64FF)):
        texts = [e["function"] for e in claims.raw()["divisors"][str(N)]]
        texts += [t for t in ("v-2*u", "1-v", "1+u") if t not in texts]
        texts += _POLES_IN_BOTH[N]
        points = list(claims.points(N).values())
        points += [p for p in torsion_Ef(N) if p not in points]
        for text in texts:
            f = ff_parse(field, text)
            for point in points:
                yield N, text, point, f, Place(field, point)


def test_ord_at_matches_series_oracle():
    cases = list(_oracle_cases())
    # functions x points: the named points all lie in E_f
    assert len(cases) == 8 * 12 + 10 * 16
    for N, text, point, f, pl in cases:
        assert _leading(f, pl) == _series_leading(f, pl), (N, text, point)


@pytest.mark.parametrize("N,text,name,order", [
    (36, "1-v", "P", 3),               # unit part 1-v vanishes at P
    (64, "v-2*u", "S", 1),             # v = 2u at S and T
    (64, "v-2*u", "T", 1),
    (36, "(1-v)/u^3", "P", 0),         # poles in a and b, unit part zero
    (64, "(v-2*u)/(u*(u-2-2*sqrt2))", "S", 0),
])
def test_ord_at_through_the_norm(N, text, name, order):
    field = E36FF if N == 36 else E64FF
    f = ff_parse(field, text)
    pl = Place(field, claims.point(N, name))
    assert pl.kind == "finite"
    assert ord_at(f, pl) == order == _series_leading(f, pl)[0]


def test_ord_additivity():
    f = ff_parse(E36FF, "1-v")
    g = ff_parse(E36FF, "1+u")
    for pt in ("P", "O"):
        pl = Place(E36FF, _pt(pt))
        assert ord_at(f * g, pl) == ord_at(f, pl) + ord_at(g, pl)


def test_tame_symbol_trivial_on_steinberg_pair():
    # the tame symbol of {1-v, 1+u} is 1 at every point of the supports
    f = ff_parse(E36FF, "1-v")
    g = ff_parse(E36FF, "1+u")
    for pt in (_pt("P"), _pt("O"), CurvePoint.infinity()):
        assert tame_symbol(f, g, Place(E36FF, pt))[2] == one()


def test_tame_symbol_formula():
    # T(f,g) = (-1)^{mn} f^n / g^m evaluated at the point
    f = ff_parse(E36FF, "v-1")    # ord 3 at P
    g = ff_parse(E36FF, "u")      # ord 1 at P (u is a uniformizer there)
    pl = Place(E36FF, _pt("P"))
    m, n, val = tame_symbol(f, g, pl)
    assert (m, n) == (3, 1)
    assert val ** 2 != val or val == one()  # a nonzero exact constant
    # swapping slots inverts the symbol
    assert tame_symbol(g, f, pl) == (1, 3, val.inv())


@pytest.mark.parametrize("N", [36, 64])
def test_weil_reciprocity_on_claim_pairs(N):
    # prod_P T_P(f, g) = 1 over the curve; T_P is 1 off both supports, and
    # the 2-torsion points cover the regrouped f2 display
    fns = claims.divisor_claims(N)
    pairs = [(a, b) for i, a in enumerate(fns) for b in fns[i + 1:]]
    assert len(pairs) == 6
    field, curve = (E36FF, CURVE36) if N == 36 else (E64FF, CURVE64)
    for a, b in pairs:
        support = set(a.divisor) | set(b.divisor)
        support.update(curve.two_torsion())
        prod = one()
        for point in support:
            prod = prod * tame_symbol(a.function, b.function,
                                      Place(field, point))[2]
        assert prod == one(), (N, a.name, b.name)


def test_verify_divisor_literal_f2_display_fails_strict():
    # the published display for f2 regroups a 2-torsion zero; read literally
    # it is not div(f2), and strict verification must say so
    claim = next(c for c in claims.divisor_claims(64) if c.name == "f2")
    assert claim.up_to_two_torsion
    assert verify_divisor(claim.function, claim.divisor) != []
    assert verify_divisor(claim.function, claim.divisor, True) == []
    # the true divisor passes strictly, and is what divisor() reads
    p = claims.points(64)
    true_div = {p["P0"]: 4, p["Q0"]: -1, p["mQ0"]: -1, p["Q3"]: -1,
                p["mQ3"]: -1}
    assert verify_divisor(claim.function, true_div) == []
    literal = divisor(claim.function, claim.divisor, True)
    assert {x: m for x, m in literal.items() if m} == true_div


def test_verify_divisor_rejects_wrong_claims():
    f = ff_parse(E36FF, "1-v")
    p = claims.points(36)
    wrong_mult = {p["P"]: 2, p["Q"]: -2}
    assert verify_divisor(f, wrong_mult) != []
    wrong_support = {p["O"]: 3, p["Q"]: -3}
    assert verify_divisor(f, wrong_support) != []
    # the 2-torsion escape hatch must not bless genuinely wrong divisors
    assert verify_divisor(f, wrong_mult, True) != []
    nonzero_degree = {p["P"]: 3}
    assert verify_divisor(f, nonzero_degree) != []


def test_verify_divisor_reports():
    claim = next(c for c in claims.divisor_claims(36) if c.name == "1-v")
    assert verify_divisor(claim.function, claim.divisor) == []
    p = claims.points(36)
    # failures come with a human-readable trail, in the claim's order
    assert verify_divisor(claim.function, {p["P"]: 2, p["Q"]: -2}) == [
        "ord at CurvePoint(0, 1): claimed 2, computed 3",
        "ord at CurvePoint(inf): claimed -2, computed -3"]


_NOTES_SCRIPT = """
from ellhyp import claims
from ellhyp.ksym import ff_parse, ELLIPTIC, verify_divisor
p = claims.points(36)
print(verify_divisor(ff_parse(ELLIPTIC[36], "1-v"), {p["P"]: 2, p["Q"]: -2}))
f2 = next(c for c in claims.divisor_claims(64) if c.name == "f2")
wrong = dict(f2.divisor)
wrong[claims.point(64, "O")] += 1
print(verify_divisor(f2.function, wrong, True))
"""


def test_verify_divisor_notes_independent_of_hash_seed():
    # CurvePoint.infinity() hashes as hash("inf"), which the seed moves; the
    # notes must follow the claim's order, not a set's
    src = str(Path(ellhyp.__file__).resolve().parent.parent)
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.append(subprocess.run(
            [sys.executable, "-c", _NOTES_SCRIPT], env=env,
            capture_output=True, check=True, text=True, timeout=300).stdout)
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    assert len(lines) == 2 and "[]" not in lines
