"""Loader for the versioned constants file claims.json.

Every published value the package verifies (point coordinates, divisor
displays, the Rosset-Tate data, expected symbols, torsion labels, the real
periods as Beta values, the L-value identities of E36 and E64 as signed F~
terms, the divisors and results of the Bloch-map checks) is read from that
single file, so tests and the CLI cite one source of truth.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .cyclo import CycloNum, parse_cyclo
from .ecdiv import CurvePoint, law, torsion_Ef
from .ksym.ffield import ELLIPTIC, FFElem, ff_parse
from .ksym.ratfunc import Poly


@functools.cache
def raw() -> dict:
    """claims.json, read once per process."""
    path = resources.files("ellhyp").joinpath("claims.json")
    return json.loads(path.read_text())


@functools.lru_cache(maxsize=None)
def _function(N: int, text: str) -> FFElem:
    """A function literal on curve N, parsed once per process."""
    return ff_parse(ELLIPTIC[N], text)


@functools.lru_cache(maxsize=None)
def _cyclo(text: str) -> CycloNum:
    """A Q(zeta_24) literal, parsed once per process."""
    return parse_cyclo(text)


@functools.lru_cache(maxsize=None)
def _point(N: int, u: str, v: str) -> CurvePoint:
    """The point (u, v) of curve N, parsed and checked once per literal."""
    return law(N).curve.point(_cyclo(u), _cyclo(v))


def point(N: int, name: str) -> CurvePoint:
    """The named point; OffCurveError if its coordinates miss the curve."""
    entry = raw()["points"][str(N)][name]
    if entry == "inf":
        return CurvePoint.infinity()
    return _point(N, *entry)


def points(N: int) -> dict:
    return {name: point(N, name) for name in raw()["points"][str(N)]}


@dataclass(frozen=True)
class DivisorClaim:
    N: int
    name: str
    text: str                 # the function literal
    divisor: dict             # {point: multiplicity}
    up_to_two_torsion: bool
    note: str

    @property
    def function(self) -> FFElem:
        """The function, parsed on first use."""
        return _function(self.N, self.text)


def _formal(terms: list, pts: dict) -> list:
    """[(point, mult)] from [[mult, point name], ...]."""
    return [(pts[name], mult) for mult, name in terms]


def _divisor(N: int, entry: dict, pts: dict) -> dict:
    """{point: mult} from the terms [mult, point name] of entry["divisor"],
    plus entry["torsion_mult"] times every point of E_f when that key is set;
    repeated points merge and zero multiplicities drop."""
    terms = _formal(entry["divisor"], pts)
    if "torsion_mult" in entry:
        terms += [(x, entry["torsion_mult"]) for x in torsion_Ef(N)]
    div = {}
    for x, mult in terms:
        div[x] = div.get(x, 0) + mult
    return {x: mult for x, mult in div.items() if mult}


def _divisor_claim(N: int, entry: dict, pts: dict) -> DivisorClaim:
    return DivisorClaim(
        N=N, name=entry["name"], text=entry["function"],
        divisor=_divisor(N, entry, pts),
        up_to_two_torsion=bool(entry.get("up_to_two_torsion", False)),
        note=entry.get("note", ""))


def divisor_claims(N: int) -> list:
    pts = points(N)
    return [_divisor_claim(N, entry, pts)
            for entry in raw()["divisors"][str(N)]]


def rosset_tate_input():
    data = raw()["rosset_tate"]
    g0 = Poly([_function(64, c) for c in data["g0"]])
    g1 = Poly([_function(64, c) for c in data["g1"]])
    g2 = _function(64, data["g2"])
    expected = [(_function(64, f), _function(64, g))
                for f, g in data["expected_symbols"]]
    return g0, g1, g2, expected


def pushforward_slots():
    f, g = raw()["pushforward_e36"]
    return _function(36, f), _function(36, g)


def torsion_label_claims(N: int) -> dict:
    return {name: _cyclo(text)
            for name, text in raw()["torsion_labels"][str(N)].items()}


def anchor_label_point(N: int) -> str:
    return raw()["anchor_labels"][str(N)]


def period_form(N: int) -> tuple:
    """(a, b, q) with omega1 = q B(a, b), the Chowla-Selberg form of the
    real period of du/(2v)."""
    entry = raw()["periods"][str(N)]
    a, b = (Fraction(x) for x in entry["beta"])
    return a, b, Fraction(entry["factor"])


def identity(N: int) -> tuple:
    """(k, d, terms) with L*(E_N, 0) = sum sign F~(a, b) / (k sqrt(d) pi)
    over the terms (sign, a, b), each sign 1 or -1; KeyError for another N."""
    entry = raw()["identities"][str(N)]
    return entry["k"], entry["sqrt"], tuple(
        (sign, Fraction(a), Fraction(b)) for sign, a, b in entry["terms"])


@dataclass(frozen=True)
class SteinbergClaim:
    f: DivisorClaim
    one_minus_f: dict
    beta: list                # [(point, coefficient)]
    kills: str                # name of the point whose class becomes 0
    note: str


@dataclass(frozen=True)
class BlochClaim:
    """Inputs and published results of the Bloch-map checks on one curve."""
    f_alpha: dict             # {point: multiplicity}
    f_beta: dict
    pushforward: tuple        # two DivisorClaims
    beta_e0: list             # [(point, coefficient)]
    beta_pushforward: list
    steinberg: SteinbergClaim | None
    beta_vanishes: tuple | None   # two DivisorClaims with beta = 0


def bloch_claim(N: int) -> BlochClaim:
    pts = points(N)
    data = raw()["bloch"][str(N)]
    dc = {c.name: c for c in divisor_claims(N)}
    steinberg = None
    if "steinberg" in data:
        st = data["steinberg"]
        steinberg = SteinbergClaim(
            f=dc[st["f"]], one_minus_f=_divisor(N, st["one_minus_f"], pts),
            beta=_formal(st["beta"], pts), kills=st["kills"], note=st["note"])
    vanishes = data.get("beta_vanishes")
    return BlochClaim(
        f_alpha=_divisor(N, data["f_alpha"], pts),
        f_beta=_divisor(N, data["f_beta"], pts),
        pushforward=tuple(dc[name] for name in data["pushforward"]),
        beta_e0=_formal(data["beta_e0"], pts),
        beta_pushforward=_formal(data["beta_pushforward"], pts),
        steinberg=steinberg,
        beta_vanishes=tuple(dc[name] for name in vanishes) if vanishes else None)
