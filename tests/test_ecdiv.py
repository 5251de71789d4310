"""Group law, torsion sets, formal sums, and the Bloch map (all exact)."""

import copy
import random

import pytest
from grouplaw import mul, order
from hypothesis import given, settings, strategies as st

from ellhyp import claims
from ellhyp.ecdiv import (CURVE36, CURVE64, CurveError, FormalSum,
                          OffCurveError, b3_reduce, beta_map, law, torsion_Ef,
                          torsion_generators, torsion_sums)


def test_point_validation():
    assert CURVE36.contains(CURVE36.point(0, 1))
    with pytest.raises(OffCurveError):
        CURVE36.point(0, 2)
    with pytest.raises(OffCurveError):
        CURVE64.point(1, 1)


def test_off_curve_claims_point_raises(monkeypatch):
    data = copy.deepcopy(claims.raw())
    data["points"]["36"]["P"] = ["0", "2"]
    monkeypatch.setattr(claims, "raw", lambda: data)
    with pytest.raises(OffCurveError):
        claims.points(36)


def test_two_torsion_roots():
    for curve in (CURVE36, CURVE64):
        assert len(set(curve.roots)) == 3
        assert all(not curve.rhs(r) for r in curve.roots)


def test_group_law_identity_and_inverse():
    for N in (36, 64):
        lw = law(N)
        for p in torsion_Ef(N):
            assert lw.add(p, lw.base) == p
            assert lw.add(p, lw.neg(p)) == lw.base


def test_group_law_matches_standard_chord_tangent():
    # x (+) y = x + y - base in the standard group: the translated law is
    # associative and commutative because the standard one is
    rng = random.Random(7)
    for N in (36, 64):
        lw = law(N)
        tor = torsion_Ef(N)
        for _ in range(50):
            p, q, r = (rng.choice(tor) for _ in range(3))
            assert lw.add(p, q) == lw.add(q, p)
            assert lw.add(lw.add(p, q), r) == lw.add(p, lw.add(q, r))
            std = lw.curve.std_add(lw.curve.std_add(p, q),
                                   lw.curve.std_neg(lw.base))
            assert lw.add(p, q) == std


def test_torsion_cardinalities_and_closure():
    for N, size in ((36, 12), (64, 16)):
        lw = law(N)
        tor = torsion_Ef(N)
        assert len(tor) == size
        assert len(set(tor)) == size
        pts = set(tor)
        for p in tor:
            assert lw.neg(p) in pts
            for q in tor:
                assert lw.add(p, q) in pts


def test_torsion_sums_are_the_group_law():
    # the table the closure fills holds p (+) g once for every member p and
    # generator g: 48 sums on E36 and 80 on E64
    for N, count in ((36, 48), (64, 80)):
        lw = law(N)
        tor, gens = torsion_Ef(N), torsion_generators(N)
        sums = torsion_sums(N)
        assert len(sums) == len(tor) * len(gens) == count
        assert set(sums) == {(p, g) for p in tor for g in gens}
        for (p, g), s in sums.items():
            assert s == lw.add(p, g)
            assert s in tor


def test_point_orders():
    lw = law(36)
    pts = claims.points(36)
    assert order(lw, pts["P"]) == 6
    assert order(lw, lw.base) == 1
    assert order(lw, pts["Q"]) == 2


def test_two_torsion_classes_vanish_exactly():
    # FormalSum drops [p] iff (-)p = p; compare with the roots of the cubic
    for N in (36, 64):
        lw = law(N)
        two = set(lw.curve.two_torsion())
        for p in torsion_Ef(N):
            assert FormalSum(lw, [(p, 1)]).is_zero() == (p in two), (N, p)


def test_e64_point_identities():
    # 2S = 2T = P0 and the difference identities used by the key proposition
    lw = law(64)
    p = claims.points(64)
    S, T, P0, P1, R, O = p["S"], p["T"], p["P0"], p["P1"], p["R"], p["O"]
    assert mul(lw, 2, S) == P0
    assert mul(lw, 2, T) == P0
    sub = lambda a, b: lw.add(a, lw.neg(b))
    assert sub(S, P0) == lw.neg(S)
    assert sub(S, P1) == lw.add(S, lw.neg(P1))
    assert sub(T, P0) == lw.neg(T)
    assert sub(P0, P1) == R  # (2,0) - (-2,0) = (0,0) in the translated law
    assert sub(S, T) == sub(lw.neg(T), lw.neg(S))
    assert lw.add(S, T) == lw.neg(lw.add(lw.neg(S), lw.neg(T)))


def test_divisor_canonicalization():
    # claims merge repeated points: f_alpha on E36 is 6 sum(E_f) - 72[O]
    # with O in E_f, so O carries -66 and the 11 other points 6 each
    f_alpha = next(c for c in claims.divisor_claims(36) if c.name == "f_alpha")
    O = claims.point(36, "O")
    assert f_alpha.divisor[O] == -66
    assert len(f_alpha.divisor) == 12
    assert sum(f_alpha.divisor.values()) == 0


def test_formal_sum_canonical_classes():
    lw = law(36)
    p = claims.points(36)
    # 2-torsion classes vanish
    assert FormalSum(lw, [(p["Q"], 5)]).is_zero()
    assert FormalSum(lw, [(lw.base, 1)]).is_zero()
    # [x] + [-x] = 0
    neg_p = lw.neg(p["P"])
    assert FormalSum(lw, [(p["P"], 1), (neg_p, 1)]).is_zero()
    s = FormalSum(lw, [(p["P"], 2)])
    assert 3 * s == FormalSum(lw, [(p["P"], 6)])
    assert (s - s).is_zero()


def test_beta_map_requires_degree_zero():
    lw = law(36)
    p = claims.points(36)
    with pytest.raises(CurveError):
        beta_map(lw, {p["P"]: 1}, {p["Q"]: 1, p["O"]: -1})


def test_beta_map_bilinearity():
    lw = law(64)
    p = claims.points(64)
    d1 = {p["S"]: 1, p["O"]: -1}
    d2 = {p["T"]: 2, p["P0"]: -2}
    g = {p["R"]: 1, p["P1"]: -1}
    lhs = beta_map(lw, d1 | d2, g)  # disjoint supports: the union is d1 + d2
    rhs = beta_map(lw, d1, g) + beta_map(lw, d2, g)
    assert lhs == rhs


def test_bloch_reductions_exact():
    # beta(e0) reduces as published without any relation
    for N in (36, 64):
        lw = law(N)
        claim = claims.bloch_claim(N)
        got = b3_reduce(beta_map(lw, claim.f_alpha, claim.f_beta))
        assert got == FormalSum(lw, claim.beta_e0), N


def _relations(N):
    """The E36 Steinberg sum beta(f (x) (1-f)), and [S] + [T] on E64."""
    lw = law(N)
    if N == 36:
        stein = claims.bloch_claim(36).steinberg
        return (beta_map(lw, stein.f.divisor, stein.one_minus_f),)
    p = claims.points(64)
    return (FormalSum(lw, [(p["S"], 1), (p["T"], 1)]),)


def test_steinberg_relation_kills_R():
    lw = law(36)
    p = claims.points(36)
    stein = claims.bloch_claim(36).steinberg
    rels = _relations(36)
    assert rels[0] == FormalSum(lw, stein.beta)
    reduced = b3_reduce(FormalSum(lw, [(p[stein.kills], 5), (p["P"], 1)]),
                        rels)
    assert reduced == FormalSum(lw, [(p["P"], 1)])


def test_b3_reduce_linear_algebra():
    lw = law(64)
    p = claims.points(64)
    got = b3_reduce(FormalSum(lw, [(p["S"], 2), (p["T"], 2), (p["R"], 1)]),
                    _relations(64))
    # R is 2-torsion so vanishes; the relation kills the rest
    assert got.is_zero()


def test_b3_reduce_skips_zero_and_dependent_relations():
    lw = law(64)
    p = claims.points(64)
    (r,) = _relations(64)
    s = FormalSum(lw, [(p["S"], 3), (p["P1"], 1)])
    want = b3_reduce(s, (r,))
    assert b3_reduce(s, (FormalSum(lw), r, 2 * r)) == want
    assert b3_reduce(s) == s


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@pytest.mark.parametrize("N", [36, 64])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_b3_reduce_is_a_projection_mod_relations(N, data):
    # s + q r has the canonical form of s, and the canonical form is fixed;
    # a drawn second relation (possibly zero or dependent) exercises the
    # elimination between relations
    lw = law(N)
    pts = st.sampled_from(torsion_Ef(N))
    sums = st.lists(st.tuples(pts, _RATIONALS), max_size=6)
    rels = _relations(N) + (FormalSum(lw, data.draw(sums)),)
    s = FormalSum(lw, data.draw(sums))
    q = data.draw(_RATIONALS)
    red = b3_reduce(s, rels)
    assert b3_reduce(red, rels) == red
    for r in rels:
        assert b3_reduce(s + q * r, rels) == red
