"""Seeded generation of the three workloads.

Each workload is a list of ops; an op is one `ellhyp` command line plus the
role it plays in the metrics.  The program sees only the argv lists.  The same
(workload, seed) always gives the same ops, and no op repeats an input.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("numeric-ladder", "exact-proofs", "queries")

# The op role whose time is heavy_op_s on each workload.  Every op role's
# median time is also reported, as <role>_s, with the per-layer metrics.
HEAVY = {"numeric-ladder": "identity_hi", "exact-proofs": "divisors",
         "queries": "torsion_labels"}
ROLES = ("identity_lo", "identity_mid", "identity_hi", "bloch", "rosset_tate",
         "divisors", "tame", "hyp", "torsion_labels")

JSON_FLAGS = ["--report", "json", "--deterministic"]

# Divisors of the query functions that claims.json does not display, at the
# named points (every other named point has order 0).  On E64, v - 2u vanishes
# where v^2 = u^3 - 4u meets v = 2u: u = 0 (R) and u = 2 +- 2 sqrt2 (S, T).
EXTRA_DIVISORS = {
    "36": {"v-2*u": {"Q": -3}},
    "64": {"1-v": {"O": -3}, "1+u": {"O": -2},
           "v-2*u": {"R": 1, "S": 1, "T": 1, "O": -3}},
}
# f2's display regroups 2-torsion multiplicities; its literal divisor.
LITERAL_F2 = {"P0": 4, "Q0": -1, "mQ0": -1, "Q3": -1, "mQ3": -1}

# Tame-query places by stratum, and how many queries each stratum gets.
PLACES = {
    "36": {"finite": ["P", "R"], "two_torsion": ["O"], "infinity": ["Q"]},
    "64": {"finite": ["S", "T", "Q0", "mQ0", "Q3", "mQ3"],
           "two_torsion": ["R", "P0", "P1"], "infinity": ["O"]},
}
TAME_STRATA = {"finite": 3, "two_torsion": 3, "infinity": 2}   # per curve
# The first E64 finite query of every run is at iS, whose claims.json literal
# "(-2-2*sqrt2,i*(4+4*sqrt2))" ends in two parentheses: `ellhyp tame` strips
# both and rejects the place (exit 1).  The query stays in, in every run, so
# the defect shows as one failed op with a steady failed share.
FIXED_PLACE = ("64", "finite", "iS")


def load_claims(root: Path) -> dict:
    return json.loads((root / "src" / "ellhyp" / "claims.json").read_text())


def query_divisors(claims: dict) -> dict:
    """{curve: {function text: {point name: order}}} for the tame queries:
    every published claim function except f_alpha, plus 1-v, 1+u, v-2*u."""
    out = {}
    for curve, entries in claims["divisors"].items():
        table = {}
        for e in entries:
            if e["name"] == "f_alpha":
                continue
            div = {}
            for mult, name in e["divisor"]:
                div[name] = div.get(name, 0) + mult
            table[e["function"]] = LITERAL_F2 if e["name"] == "f2" else div
        table.update(EXTRA_DIVISORS[curve])
        out[curve] = table
    return out


def place_literal(claims: dict, curve: str, name: str) -> str:
    entry = claims["points"][curve][name]
    return "inf" if entry == "inf" else f"({entry[0]},{entry[1]})"


def tame_argv(curve: str, f: str, g: str, place: str) -> list:
    # "--f=..." because a function text may start with "-"
    return ["tame", "--curve", curve, f"--f={f}", f"--g={g}", f"--place={place}"]


def _op(role: str, argv: list, **meta) -> dict:
    return {"role": role, "argv": argv, **meta}


def _identity(role, digits):
    return _op(role, ["verify-identity", "--digits", str(digits)] + JSON_FLAGS,
               digits=digits)


def numeric_ladder(rng: random.Random, claims: dict) -> list:
    # The jitter keeps a change from special-casing the published 30/100/200.
    # The hi rung sits at 150-154 digits rather than 200 so that a run stays
    # near 40 s; the 3F2 side's known error defect makes every op there fail.
    ops = [_identity("identity_lo", rng.randint(30, 35)),
           _identity("identity_mid", rng.randint(98, 102)),
           _identity("identity_hi", rng.randint(150, 154))]
    rng.shuffle(ops)
    return ops


def exact_proofs(rng: random.Random, claims: dict) -> list:
    ops = [_op("bloch", ["verify-bloch"] + JSON_FLAGS),
           _op("rosset_tate", ["rosset-tate"] + JSON_FLAGS),
           _op("divisors", ["verify-divisors"] + JSON_FLAGS)]
    rng.shuffle(ops)
    return ops


def dixon_params(rng: random.Random) -> tuple:
    """(a, b, c) non-integral with margin 2 + a - 2b - 2c in [1/6, 2]; the
    series is 3F2(a, b, c; 1+a-b, 1+a-c; 1), which Dixon sums in closed form."""
    def rational(top):
        d = rng.choice((2, 3, 4, 6, 12))
        return Fraction(rng.randint(1, top * d - 1), d)

    while True:
        a, b, c = rational(4), rational(2), rational(2)
        if any(x.denominator == 1 for x in (a, b, c)):
            continue
        margin = 2 + a - 2 * b - 2 * c
        if not Fraction(1, 6) <= margin <= 2:
            continue
        # denominators of the closed form must stay off the gamma poles
        dens_args = (1 + a, 1 + a / 2 - b, 1 + a / 2 - c, 1 + a - b - c)
        if any(x <= 0 and x.denominator == 1 for x in dens_args):
            continue
        return a, b, c


def hyp_argv(a, b, c, digits) -> list:
    params = ",".join(str(x) for x in (a, b, c, 1 + a - b, 1 + a - c))
    return ["hyp", "--params", params, "--digits", str(digits)]


def queries(rng: random.Random, claims: dict) -> list:
    divs = query_divisors(claims)
    ops = []
    # three torsion-label ops, one from each third of 30-60 digits, so that
    # heavy_op_s is a median over ~15 s rather than one 5 s sample
    for lo, hi in ((30, 40), (41, 50), (51, 60)):
        d = rng.randint(lo, hi)
        ops.append(_op("torsion_labels",
                       ["verify-torsion-labels", "--digits", str(d)] + JSON_FLAGS,
                       digits=d))
    seen = set()
    for curve in ("36", "64"):
        funcs = sorted(divs[curve])
        for stratum, count in TAME_STRATA.items():
            made = 0
            while made < count:
                if made == 0 and (curve, stratum) == FIXED_PLACE[:2]:
                    name = FIXED_PLACE[2]
                else:
                    name = rng.choice(PLACES[curve][stratum])
                f, g = rng.sample(funcs, 2)
                if (curve, f, g, name) in seen:
                    continue
                seen.add((curve, f, g, name))
                made += 1
                place = place_literal(claims, curve, name)
                ops.append(_op("tame", tame_argv(curve, f, g, place), curve=curve,
                               f=f, g=g, point=name, place=place, stratum=stratum))
    # six Dixon-family hyp queries, one in each sixth of 30-60 digits
    for k in range(6):
        d = rng.randint(30 + 5 * k, 34 + 5 * k + (k == 5))
        a, b, c = dixon_params(rng)
        ops.append(_op("hyp", hyp_argv(a, b, c, d), digits=d,
                       dixon=[str(a), str(b), str(c)]))
    rng.shuffle(ops)
    return ops


def generate(workload: str, seed: int, claims: dict) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return {"numeric-ladder": numeric_ladder, "exact-proofs": exact_proofs,
            "queries": queries}[workload](rng, claims)
