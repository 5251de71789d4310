"""Local expansions, valuations, tame symbols, divisor verification."""

import pytest

from ellhyp import claims
from ellhyp.cyclo import CycloNum, ZETA3, one, parse_cyclo, zero
from ellhyp.ecdiv import CurvePoint
from ellhyp.ksym import (E36FF, E64FF, ExpansionDepthError, LaurentSeries,
                         Place, ff_parse, ord_at, tame_symbol, verify_divisor)
from ellhyp.ksym.series import _expand
from ellhyp.ecdiv import Divisor


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


def _series_order(f, pl):
    """Reference valuation: expand at doubling depth until a term survives."""
    depth = 12
    while True:
        try:
            return _expand(f, pl, depth).order()
        except ExpansionDepthError:
            depth *= 2


# functions with poles in both a and b of f = a + b*v; "(1-v)/u^3" and the
# E64 function vanish in their unit part at P and S, where ord_at uses the norm
_POLES_IN_BOTH = {
    36: ["(1+v)/(u*(u-2))", "(1-v)/u^3", "(u+v)/(u+1)^2 + v/(u-2)"],
    64: ["(u+v)/(u^2+4)", "(v-2*u)/(u*(u-2-2*sqrt2))", "v/(u-2)^3 + 1/u"],
}


def _oracle_cases():
    for N, field in ((36, E36FF), (64, E64FF)):
        texts = [e["function"] for e in claims.raw()["divisors"][str(N)]
                 if e["name"] != "f_alpha"]
        texts += [t for t in ("v-2*u", "1-v", "1+u") if t not in texts]
        texts += _POLES_IN_BOTH[N]
        for text in texts:
            f = ff_parse(field, text)
            for name, point in claims.points(N).items():
                yield N, text, name, f, Place(field, point)


def test_ord_at_matches_series_oracle():
    cases = list(_oracle_cases())
    assert len(cases) == 7 * 5 + 10 * 11  # functions x named points
    for N, text, name, f, pl in cases:
        assert ord_at(f, pl) == _series_order(f, pl), (N, text, name)


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
    assert ord_at(f, pl) == order == _series_order(f, pl)


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
        assert tame_symbol(f, g, Place(E36FF, pt)) == one()


def test_tame_symbol_formula():
    # T(f,g) = (-1)^{mn} f^n / g^m evaluated at the point
    f = ff_parse(E36FF, "v-1")    # ord 3 at P
    g = ff_parse(E36FF, "u")      # ord 1 at P (u is a uniformizer there)
    pl = Place(E36FF, _pt("P"))
    val = tame_symbol(f, g, pl)
    assert val ** 2 != val or val == one()  # a nonzero exact constant
    # swapping slots inverts the symbol
    assert tame_symbol(g, f, pl) == val.inv()


def test_verify_divisor_all_claims():
    for N in (36, 64):
        for claim in claims.divisor_claims(N):
            rep = []
            assert verify_divisor(claim.function, claim.divisor, rep,
                                  up_to_two_torsion=claim.up_to_two_torsion), \
                (N, claim.name, rep)


def test_verify_divisor_literal_f2_display_fails_strict():
    # the published display for f2 regroups a 2-torsion zero; read literally
    # it is not div(f2), and strict verification must say so
    claim = next(c for c in claims.divisor_claims(64) if c.name == "f2")
    assert claim.up_to_two_torsion
    assert not verify_divisor(claim.function, claim.divisor, [],
                              up_to_two_torsion=False)
    # the true divisor passes strictly
    p = claims.points(64)
    true_div = Divisor([(p["P0"], 4), (p["Q0"], -1), (p["mQ0"], -1),
                        (p["Q3"], -1), (p["mQ3"], -1)])
    assert verify_divisor(claim.function, true_div, [])


def test_verify_divisor_rejects_wrong_claims():
    f = ff_parse(E36FF, "1-v")
    p = claims.points(36)
    wrong_mult = Divisor([(p["P"], 2), (p["Q"], -2)])
    assert not verify_divisor(f, wrong_mult, [])
    wrong_support = Divisor([(p["O"], 3), (p["Q"], -3)])
    assert not verify_divisor(f, wrong_support, [])
    # the 2-torsion escape hatch must not bless genuinely wrong divisors
    assert not verify_divisor(f, wrong_mult, [], up_to_two_torsion=True)
    nonzero_degree = Divisor([(p["P"], 3)])
    assert not verify_divisor(f, nonzero_degree, [])


def test_verify_divisor_reports():
    claim = next(c for c in claims.divisor_claims(36) if c.name == "1-v")
    rep = []
    assert verify_divisor(claim.function, claim.divisor, rep)
    assert rep == []  # no failure notes on success
    p = claims.points(36)
    rep = []
    assert not verify_divisor(claim.function,
                              Divisor([(p["P"], 2), (p["Q"], -2)]), rep)
    assert rep  # failures come with a human-readable trail
