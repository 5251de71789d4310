"""Function-field arithmetic, norms, quotient maps, symbols, Rosset-Tate."""

import contextlib
import json
import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ellhyp import claims, cyclo
from ellhyp.cyclo import CycloNum, cyclo_atom, one, parse_cyclo
from ellhyp.ksym import (E36FF, E64FF, FERMAT4, FERMAT6, INTERC, MAPS, FFElem,
                         FieldError, Poly, QuotientMap, RatFunc, SubfieldError,
                         Symbol, evaluate_pullback, ff_parse, kummer_norm,
                         project_fermat6_to_interC, project_interC_to_e36,
                         pushforward_e36, rosset_tate, rosset_tate_chain,
                         substitute_quotient, verify_annihilation)
from ellhyp.ksym import ffield
from ellhyp.ksym.symbols import content_sign, star, trailing

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
polys = st.builds(
    lambda cs: Poly([CycloNum.from_rational(c) for c in cs]),
    st.lists(small, min_size=0, max_size=4))


@given(polys, polys, polys)
@settings(max_examples=50, deadline=None)
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
@settings(max_examples=50, deadline=None)
def test_poly_divmod(a, b):
    if b.degree < 0:
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


# the Rosset-Tate ring: polynomials over the function field of E64
ff_polys = st.lists(st.sampled_from(
    ["0", "1", "-2", "u", "v", "1-v", "1/u", "v/(u+1)"]).map(
        lambda t: ff_parse(E64FF, t)), max_size=3).map(Poly)


@given(ff_polys, ff_polys)
@settings(max_examples=30, deadline=None)
def test_poly_divmod_over_function_field(a, b):
    if b.is_zero():
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(polys, polys)
@settings(max_examples=50, deadline=None)
def test_poly_gcd_divides(a, b):
    if a.degree < 0 and b.degree < 0:
        return
    g = a.gcd(b)
    for x in (a, b):
        if x.degree >= 0:
            _, r = x.divmod(g)
            assert r.degree < 0


def _euclid_gcd(a, b):
    """Plain Euclid, made monic at the end: the reference for Poly.gcd."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


@given(polys, polys)
@settings(max_examples=50, deadline=None)
def test_poly_gcd_matches_plain_euclid(a, b):
    assert a.gcd(b) == _euclid_gcd(a, b)


def test_poly_gcd_planted_constant_and_zero():
    x = Poly.var()
    c = lambda q: Poly.const(parse_cyclo(q))
    xk = lambda k: Poly([0] * k + [1])
    common = (x - c("z")) * (x * x + c("1/2")) * (x - c("sqrt2"))
    coprime = [(xk(3) + c("2") * x + c("i"), xk(2) - c("3")),
               (c("5") * xk(4) - x, c("-2/3") * xk(5) + c("zeta3"))]
    for p, q in coprime:
        for a, b in ((p, q), (q, p)):
            assert a.gcd(b) == _euclid_gcd(a, b) == Poly.const(1)
            g = (common * a).gcd(common * b)
            assert g == _euclid_gcd(common * a, common * b) == common.monic()
    three, zero = c("3"), Poly()
    for p in (common, c("1/7") * common):
        assert p.gcd(three) == three.gcd(p) == _euclid_gcd(p, three) \
            == Poly.const(1)
        assert p.gcd(zero) == zero.gcd(p) == _euclid_gcd(p, zero) \
            == common.monic()
    assert three.gcd(zero) == zero.gcd(three) == Poly.const(1)
    assert zero.gcd(zero) == zero


class RF:
    """Reduced fraction of Polys with full field arithmetic: each
    coefficient of an FFElem on its own, the oracle for the product's
    common-denominator arithmetic.  Reduction is one gcd of num and den,
    independent of ratfunc.reduce_fraction."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = num if isinstance(num, Poly) else Poly.const(num)
        den = den if isinstance(den, Poly) else Poly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        g = num.gcd(den)
        if g.degree > 0:
            num, den = num.divmod(g)[0], den.divmod(g)[0]
        lead = den.leading().inv()
        self.num, self.den = num * lead, den * lead

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        o = _rf(other)
        return self.num == o.num and self.den == o.den

    def __repr__(self):
        return f"RF({self.num!r} / {self.den!r})"

    def __add__(self, other):
        o = _rf(other)
        return RF(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self):
        return RF(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_rf(other))

    def __mul__(self, other):
        o = _rf(other)
        return RF(self.num * o.num, self.den * o.den)

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RF(self.den, self.num)

    def scale_var(self, z):
        return RF(self.num.scale_var(z), self.den.scale_var(z))


def _rf(x):
    return x if isinstance(x, RF) else RF(x)


def _parts(f):
    """The coefficients nums[k] / den of f, each reduced on its own."""
    return [RF(n, f.den) for n in f.nums]


def _oracle_mul(field, a, b):
    d = field.degree
    prod = [RF(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = prod[i + j] + x * y
    out = prod[:d]
    for i in range(d, 2 * d - 1):
        out[i - d] = out[i - d] + prod[i] * field.m
    return out


def _oracle_norm(field, a):
    a0, a1 = a
    return a0 * a0 - a1 * a1 * field.m


def _assert_canonical(f):
    assert f.den.leading() == one()
    g = f.den
    for n in f.nums:
        g = g.gcd(n)
    assert g == Poly.const(1)


def test_norm_is_product_with_the_conjugate():
    for N in (36, 64):
        for claim in claims.divisor_claims(N):
            f = claim.function
            a, b = f.nums
            prod = f * FFElem(f.field, [a, -b], f.den)
            assert prod.nums[1].is_zero()
            norm = f.norm_to_rational_subfield()
            assert (norm.num, norm.den) == (prod.nums[0], prod.den), claim.name
            assert RF(norm.num, norm.den) == _oracle_norm(f.field, _parts(f))


def test_norm_needs_a_quadratic_field():
    norm = ff_parse(INTERC, "1-v").norm_to_rational_subfield()
    # (1-v)(1+v) = y^6
    assert (norm.num, norm.den) == (Poly([0, 0, 0, 0, 0, 0, 1]), Poly.const(1))
    for field, text in ((FERMAT4, "1-y"), (FERMAT6, "x+y")):
        with pytest.raises(FieldError):
            ff_parse(field, text).norm_to_rational_subfield()


def test_ratfunc_reduction_and_inverse():
    x = Poly.var()
    f = RatFunc(x * x - Poly.const(one()), x - Poly.const(one()))
    # (x^2-1)/(x-1) reduces to x+1
    assert (f.num, f.den) == (x + Poly.const(one()), Poly.const(1))
    g = RF(x, x * x + Poly.const(one()))
    assert g * g.inv() == RF(1)


def test_ffelem_field_inverse():
    for field, text in ((E36FF, "v + u^2"), (E64FF, "v - 2*u"),
                        (FERMAT6, "1 - y"), (INTERC, "v + y")):
        f = ff_parse(field, text)
        assert (f * f.inv()) == field.one()


def _trim(p):
    p = list(p)
    while p and p[-1].is_zero():
        p.pop()
    return p


def _polydivmod(a, b):
    a, b = _trim(a), _trim(b)
    q = [RF(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    inv_lead = b[-1].inv()
    while len(_trim(r)) >= len(b):
        r = _trim(r)
        d = len(r) - len(b)
        c = r[-1] * inv_lead
        q[d] = c
        for i, bc in enumerate(b):
            r[d + i] = r[d + i] - c * bc
    return q, _trim(r)


def _polymulsub(t0, q, t1):
    """t0 - q t1 for RF lists."""
    out = list(t0) + [RF(0)] * max(0, len(q) + len(t1) - 1 - len(t0))
    for i, x in enumerate(q):
        for j, y in enumerate(t1):
            out[i + j] = out[i + j] - x * y
    return out


def _euclid_inverse(field, a):
    """The coefficients of 1/a, a given by its RF coefficients, by extended
    Euclid in K(base)[T] against T^d - m(base): the textbook inverse, kept
    as the oracle for FFElem.inv."""
    d = field.degree
    r0 = [-RF(field.m)] + [RF(0)] * (d - 1) + [RF(1)]
    r1 = list(a)
    t0, t1 = [RF(0)], [RF(1)]
    while _trim(r1):
        q, r = _polydivmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, _polymulsub(t0, q, t1)
    (c,) = _trim(r0)  # T^d - m is irreducible, so the gcd is a constant
    out = [t * c.inv() for t in _trim(t0)]
    return out + [RF(0)] * (d - len(out))


INVERSE_CASES = {
    FERMAT4: ["1 - y", "x + y^3", "(1+i)*x^2 - 1/3*y^2 + 2", "y/x"],
    FERMAT6: ["1 - y", "x - zeta3*y^5", "(x+1)/(x-1) + y^2 - 1/2*y^4"],
    INTERC: ["v + y", "1 - v", "y^3 + sqrt3*v/(y+1)"],
    E36FF: ["v + u^2", "1 - v", "(u+1)/(u-2) + v/u"],
    E64FF: ["v - 2*u", "u", "v", "(1+i)*v + u^2 - 4"],
}


@pytest.mark.parametrize("field", list(INVERSE_CASES), ids=lambda f: f.name)
def test_ffelem_inverse_matches_euclid_oracle(field):
    for text in INVERSE_CASES[field]:
        f = ff_parse(field, text)
        assert _parts(f.inv()) == _euclid_inverse(field, _parts(f)), text
    with pytest.raises(ZeroDivisionError):
        field.zero().inv()


_COEFFS = [parse_cyclo(t) for t in ("0", "1", "-1", "2", "-1/3", "i",
                                       "zeta3", "1+z")]
_small_polys = st.lists(st.sampled_from(_COEFFS), max_size=3).map(Poly)
_nonzero_polys = st.tuples(
    st.lists(st.sampled_from(_COEFFS), max_size=2),
    st.sampled_from(_COEFFS[1:])).map(lambda t: Poly(t[0] + [t[1]]))


@st.composite
def _ffelems(draw, field):
    """nums / den with a planted common factor, so the constructor must
    cancel it."""
    common = draw(_nonzero_polys)
    nums = [draw(_small_polys) * common for _ in range(field.degree)]
    return FFElem(field, nums, draw(_nonzero_polys) * common)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_ffelem_arithmetic_matches_per_coefficient_oracle(data):
    field = data.draw(st.sampled_from([E36FF, E64FF, INTERC, FERMAT4]),
                      label="field")
    f = data.draw(_ffelems(field), label="f")
    g = data.draw(_ffelems(field), label="g")
    zeta = CycloNum.zeta_pow(data.draw(st.integers(0, 23), label="k"))
    a, b = _parts(f), _parts(g)
    cases = [(f, a), (f + g, [x + y for x, y in zip(a, b)]),
             (f - g, [x - y for x, y in zip(a, b)]),
             (f * g, _oracle_mul(field, a, b)),
             (f.base_twist(zeta), [x.scale_var(zeta) for x in a])]
    for got, want in cases:
        _assert_canonical(got)
        assert _parts(got) == want
    if g:
        # f / g is the unique q with q g = f.  On fermat4 the oracle product
        # of q and g takes seconds, so there q g = f is checked with the
        # product multiplication, which the cases above hold to the oracle.
        q = f / g
        _assert_canonical(q)
        if field.degree == 2:
            assert _oracle_mul(field, _parts(q), b) == a
        else:
            assert q * g == f
    if field.degree == 2:
        norm = f.norm_to_rational_subfield()
        want = _oracle_norm(field, a)
        # RF is canonical, so this also checks that the norm is reduced
        assert (norm.num, norm.den) == (want.num, want.den)


MALFORMED = ["1 +", "(1", "1)", "2^x", "2^-", "@"]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_literals_raise_in_both_parsers(text):
    with pytest.raises(ValueError):
        parse_cyclo(text)
    for field in (FERMAT4, FERMAT6, INTERC, E36FF, E64FF):
        with pytest.raises(ValueError):
            ff_parse(field, text)


def test_both_parsers_agree_on_a_constant():
    text = "(1+i)*(1-i)/2"
    c = parse_cyclo(text)
    assert c == one()
    for field in (FERMAT4, FERMAT6, INTERC, E36FF, E64FF):
        assert ff_parse(field, text) == field.scalar(c)


def test_slash_after_a_power_divides():
    # "/" is always the division operator, never part of a number token
    assert parse_cyclo("z^2/3") == parse_cyclo("z^2*1/3")
    assert parse_cyclo("3/4^2") == CycloNum.from_rational(Fraction(3, 16))
    for field in (FERMAT4, FERMAT6, INTERC, E36FF, E64FF):
        x = field.base_var
        assert ff_parse(field, f"{x}^2/3") == ff_parse(field, f"{x}^2*1/3")


def test_a_sign_binds_looser_than_a_power_after_an_operator():
    assert parse_cyclo("-i^2") == one()
    assert parse_cyclo("2*-i^2") == 2 * parse_cyclo("-i^2")
    two = ff_parse(E36FF, "2")
    assert ff_parse(E36FF, "2*-u^2") == two * ff_parse(E36FF, "-u^2")


def test_python_grammar_beyond_the_hand_written_one():
    assert parse_cyclo("2*+i") == 2 * parse_cyclo("i")
    assert parse_cyclo("2^(3)") == 1 / parse_cyclo("2^-(3)") == 8
    for text in ("012", "2^+1", "1 # comment"):
        with pytest.raises(ValueError):
            parse_cyclo(text)


# The hand-written parser the ast walk replaced, kept as the oracle: a
# tokenizer and a recursive descent over
#
# expr  := [+-] term {(+|-) term}      power   := primary [(^|**) [-] digits]
# term  := power {(*|/) power}         primary := ( expr ) | - primary | atom
_TOKEN = re.compile(r"\s*(\d+|[a-zA-Z_]\w*|\*\*|[-+*/^()])")
# the tokenizer before "/" became an operator everywhere: "a/b" was one number
_LEGACY_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[a-zA-Z_]\w*|\*\*|[-+*/^()])")


def _oracle_parse(text, kind, atom, token=_TOKEN):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = token.match(text, pos)
        if not m:
            raise ValueError(f"bad {kind} literal near {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    parser = _Descent(tokens, kind, atom)
    val = parser.expr()
    if parser.pos != len(tokens):
        raise ValueError(f"trailing input in {kind} literal: {text!r}")
    return val


class _Descent:
    """The grammar above over a token list, one method per rule."""

    def __init__(self, tokens, kind, atom):
        self.tokens, self.kind, self.atom = tokens, kind, atom
        self.pos = 0

    def _take(self, *options):
        if self.pos < len(self.tokens) and self.tokens[self.pos] in options:
            self.pos += 1
            return self.tokens[self.pos - 1]
        return None

    def expr(self):
        sign = self._take("+", "-")
        val = self.term()
        if sign == "-":
            val = -val
        while op := self._take("+", "-"):
            rhs = self.term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term(self):
        val = self.power()
        while op := self._take("*", "/"):
            rhs = self.power()
            val = val * rhs if op == "*" else val / rhs
        return val

    def power(self):
        base = self.primary()
        if not self._take("^", "**"):
            return base
        neg = self._take("-") is not None
        if self.pos >= len(self.tokens) or not self.tokens[self.pos].isdigit():
            raise ValueError("exponent must be an integer literal")
        e = int(self.tokens[self.pos])
        self.pos += 1
        return base ** (-e if neg else e)

    def primary(self):
        if self.pos >= len(self.tokens):
            raise ValueError(f"unexpected end of {self.kind} literal")
        t = self.tokens[self.pos]
        self.pos += 1
        if t == "(":
            val = self.expr()
            if not self._take(")"):
                raise ValueError(f"unbalanced parenthesis in {self.kind} literal")
            return val
        if t == "-":
            return -self.primary()
        val = self.atom(t)
        if val is None:
            raise ValueError(f"unknown token {t!r} in {self.kind} literal")
        return val


def _legacy_atom(token):
    if "/" in token:
        return CycloNum.from_rational(Fraction(token))
    return cyclo_atom(token)


@contextlib.contextmanager
def _oracle(token=_TOKEN, atom=cyclo_atom):
    """parse_cyclo and ff_parse with the oracle in place of the ast walk."""
    def parse(text, kind, atom):
        return _oracle_parse(text, kind, atom, token)
    with mock.patch.object(cyclo, "parse_expression", parse), \
            mock.patch.object(ffield, "parse_expression", parse), \
            mock.patch.object(cyclo, "cyclo_atom", atom), \
            mock.patch.object(ffield, "cyclo_atom", atom):
        yield


def _outcome(parse, text):
    """The value, or the type of the error a malformed literal raises."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def _claims_strings(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for v in node.values():
            yield from _claims_strings(v)
    elif isinstance(node, list):
        for v in node:
            yield from _claims_strings(v)


def _parse_outcomes(texts):
    """Each text through parse_cyclo and ff_parse on both curves."""
    parsers = (cyclo.parse_cyclo, lambda t: ff_parse(E36FF, t),
               lambda t: ff_parse(E64FF, t))
    return [[_outcome(parse, t) for parse in parsers] for t in texts]


def test_claims_literals_parse_as_with_fraction_tokens():
    data = json.loads(Path(claims.__file__).with_name("claims.json").read_text())
    texts = sorted(set(_claims_strings(data)))
    new = _parse_outcomes(texts)
    with _oracle():
        assert _parse_outcomes(texts) == new
    with _oracle(_LEGACY_TOKEN, _legacy_atom):
        assert _parse_outcomes(texts) == new
    # not vacuous: every divisor function parses on its curve
    for column, curve in ((1, "36"), (2, "64")):
        for entry in data["divisors"][curve]:
            assert new[texts.index(entry["function"])][column] is not ValueError


def _joined(parts, ops):
    """A part, then up to two more, each after an operator from ``ops``."""
    return st.builds(lambda first, rest: first + "".join(o + p for o, p in rest),
                     parts, st.lists(st.tuples(st.sampled_from(ops), parts),
                                     max_size=2))


def _literals(atoms):
    """The grammar both parsers read alike: a sign only where an expression
    starts, an integer exponent without parentheses, no leading zeros."""
    def expr(inner):
        primary = st.one_of(atoms, inner.map("({})".format))
        power = st.builds(str.__add__, primary,
                          st.sampled_from(["", "^2", "**3", "^-1", " ^ 0"]))
        term = _joined(power, ["*", "/", " * "])
        return st.builds(str.__add__, st.sampled_from(["", "-", "+", " - "]),
                         _joined(term, ["+", "-", " + "]))
    return st.recursive(atoms, expr, max_leaves=6)


_ATOMS = ["0", "1", "2", "10", "i", "z", "sqrt2", "zeta3"]


@pytest.mark.parametrize("parse, atoms", [
    (lambda t: parse_cyclo(t), _ATOMS),
    (lambda t: ff_parse(E36FF, t), _ATOMS + ["u", "v"])],
    ids=["cyclo", "e36"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_ast_walk_agrees_with_the_oracle(parse, atoms, data):
    text = data.draw(_literals(st.sampled_from(atoms)))
    want = _outcome(parse, text)
    with _oracle():
        assert _outcome(parse, text) == want


def test_relation_is_respected():
    # v^2 = u^3 + 1 on the conductor-36 model
    v = ff_parse(E36FF, "v")
    u = ff_parse(E36FF, "u")
    assert v * v == u * u * u + E36FF.one()
    y = ff_parse(FERMAT6, "y")
    x = ff_parse(FERMAT6, "x")
    assert y ** 6 == FERMAT6.one() - x ** 6


def _p36():
    """E36 as a quotient of the Fermat sextic: (x, y) -> (-y^2, x^3)."""
    return QuotientMap("p36", E36FF, FERMAT6,
                       base_image=ff_parse(FERMAT6, "-y^2"),
                       ext_image=ff_parse(FERMAT6, "x^3"))


def test_quotient_maps_relations():
    # every covering validates the target curve's equation on construction
    assert sorted(MAPS) == ["p64", "q", "r"]
    _p36()
    with pytest.raises(FieldError, match="curve relation"):
        QuotientMap("bad", E36FF, FERMAT6,
                    base_image=ff_parse(FERMAT6, "y^2"),
                    ext_image=ff_parse(FERMAT6, "x^3"))


def test_pullbacks_are_exact():
    p36 = _p36()
    u_pull = substitute_quotient(p36, ff_parse(E36FF, "u"))
    v_pull = substitute_quotient(p36, ff_parse(E36FF, "v"))
    assert u_pull == ff_parse(FERMAT6, "-y^2")
    assert v_pull == ff_parse(FERMAT6, "x^3")
    p64 = MAPS["p64"]
    u_pull = substitute_quotient(p64, ff_parse(E64FF, "u"))
    assert u_pull == ff_parse(FERMAT4, "2*(y^2+1)/x^2")


def test_kummer_norm_multiplicative():
    f = ff_parse(FERMAT6, "1 - x")
    g = ff_parse(FERMAT6, "1 + x + y")
    nf = kummer_norm(f, 6, "x")
    ng = kummer_norm(g, 6, "x")
    nfg = kummer_norm(f * g, 6, "x")
    assert nfg == nf * ng


def test_norm_chain_to_e36():
    # N(1-x) along x -> zeta_6 x is 1 - x^6 = y^6; projected down it becomes
    # the familiar chain ending at 1 - v and 1 + u
    f = ff_parse(FERMAT6, "1-x")
    n = kummer_norm(f, 6, "x")
    assert n == ff_parse(FERMAT6, "1-x^6")
    # q_* (1 - x) = 1 - x^3 = 1 - v in the intermediate curve's coordinates
    step = project_fermat6_to_interC(kummer_norm(f, 3, "x"))
    assert step == ff_parse(INTERC, "1-v")
    g = ff_parse(INTERC, "1-y")
    step2 = project_interC_to_e36(kummer_norm(g, 2, "y"))
    assert step2 == ff_parse(E36FF, "1+u")


def test_kummer_norm_requires_base_twist():
    with pytest.raises(FieldError):
        kummer_norm(ff_parse(FERMAT6, "x"), 6, "y")


def test_projection_requires_invariance():
    # x itself is not invariant under x -> zeta_3 x, so it does not live on
    # the intermediate curve
    with pytest.raises(SubfieldError):
        project_fermat6_to_interC(ff_parse(FERMAT6, "x"))
    with pytest.raises(SubfieldError):
        project_interC_to_e36(ff_parse(INTERC, "y"))


def test_pushforward_chain():
    sym = pushforward_e36()
    f_want, g_want = claims.pushforward_slots()
    assert sym.f == f_want
    assert sym.g == g_want


def test_symbol_rewriting_moves():
    f = ff_parse(E64FF, "u")
    g = ff_parse(E64FF, "v")
    s = Symbol(f, g)
    # {f, g} = -{f^-1, g}
    assert s.inv_first() == Symbol(f.inv(), g)


def test_rosset_tate_reproduces_published_data():
    g0, g1, g2_expected, expected = claims.rosset_tate_input()
    chain, trace = rosset_tate(g0, g1)
    assert chain == rosset_tate_chain(g0, g1)
    assert [g.degree for g in chain] == [2, 1, 0]
    assert chain[2].coeffs[0] == g2_expected
    rewritten = []
    for coef, sym in trace:
        assert coef in (1, -1)
        rewritten.append(sym.inv_first() if coef == -1 else sym)
    assert [(s.f, s.g) for s in rewritten] == expected


def test_verify_annihilation_and_evaluation():
    g0, g1, _, _ = claims.rosset_tate_input()
    gen = ff_parse(MAPS["p64"].cover, "1-x")
    assert verify_annihilation(g0, MAPS["p64"], gen)
    assert evaluate_pullback(g1, MAPS["p64"], gen) == \
        ff_parse(MAPS["p64"].cover, "1-y")
    # a polynomial that does not kill the generator must be rejected
    t_minus_1 = Poly([ff_parse(E64FF, "-1"), ff_parse(E64FF, "1")])
    assert not verify_annihilation(t_minus_1, MAPS["p64"], gen)


def test_star_and_content_sign():
    g0, g1, _, _ = claims.rosset_tate_input()
    # reciprocal polynomial: f*(T) = (a_m T^m)^{-1} f(T)
    g1_star = star(g1)
    a_m, m = trailing(g1)
    assert g1_star.degree == g1.degree - m
    inv = a_m.inv()
    assert list(g1_star.coeffs) == [c * inv for c in g1.coeffs[m:]]
    # a zero low coefficient is skipped: T^2 (T - u) has trailing term T^2
    t2_shift = Poly([ff_parse(E64FF, "0"), ff_parse(E64FF, "0"),
                     ff_parse(E64FF, "-u"), ff_parse(E64FF, "1")])
    assert trailing(t2_shift) == (ff_parse(E64FF, "-u"), 2)
    assert star(t2_shift) == Poly([ff_parse(E64FF, "1"),
                                   ff_parse(E64FF, "-1/u")])
    # c(f) = (-1)^n a_n
    assert content_sign(g0) == g0.leading()  # even degree
    assert content_sign(g1) == -g1.leading()  # odd degree


def test_single_step_rosset_tate():
    # when g1 is constant the trace is -{c(g0*), c(g1)} directly
    g0 = Poly([ff_parse(E64FF, "-u"), ff_parse(E64FF, "0"),
               ff_parse(E64FF, "1")])
    g1 = Poly([ff_parse(E64FF, "v")])
    chain, out = rosset_tate(g0, g1)
    assert chain == [g0, g1]
    assert len(out) == 1
    coef, sym = out[0]
    assert coef == -1
    # g0* = -(T^2 - u)/u has leading coefficient -1/u and even degree
    assert sym == Symbol(ff_parse(E64FF, "-1/u"), ff_parse(E64FF, "v"))


def test_degenerate_rosset_tate_step_is_rejected_by_both_callers():
    from ellhyp.ksym import NonterminationError
    # g1 = T - u divides g0* = -(T^2 - u^2)/u^2, so the first remainder is
    # zero while g1 still has degree 1
    g0 = Poly([ff_parse(E64FF, "-u^2"), ff_parse(E64FF, "0"),
               ff_parse(E64FF, "1")])
    g1 = Poly([ff_parse(E64FF, "-u"), ff_parse(E64FF, "1")])
    for build in (rosset_tate_chain, rosset_tate):
        with pytest.raises(NonterminationError, match="degenerate"):
            build(g0, g1)
