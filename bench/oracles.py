"""Checks of each op's output against oracles outside the timed code path.

Nothing here imports `ellhyp`.  Expected claim ids, divisors and points come
from `claims.json` and the command definitions; numbers come from `mpmath`.

Each check returns an outcome: "pass", "fail" (the program itself reported a
failed verification) or "wrong" (the output is malformed or disagrees with
the oracle although the program reported success).
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction

import mpmath

# L*(E, 0) from the published hypergeometric formula, evaluated with
# mpmath.hyp3f2 and mpmath.gamma at 45 digits.
L_STAR = {"36": mpmath.mpf("0.85718907492991773071685111290403103"),
          "64": mpmath.mpf("1.6586644983819140890494961931594832")}

BLOCH_IDS = ["steinberg_E36_R", "beta_e0_E36", "beta_pushforward_E36",
             "bloch_factor2_E36", "beta_e0_E64", "beta_pushforward_E64",
             "bloch_factor2_E64", "beta_f2_g2_E64"]
ROSSET_TATE_IDS = ["rosset_tate_degrees", "rosset_tate_g2",
                   "rosset_tate_symbols", "annihilation_g0", "evaluation_g1",
                   "pushforward_e36"]

TAME_LINE = re.compile(
    r"^ord\(f\) = (-?\d+), ord\(g\) = (-?\d+), tame symbol = (.+)$")


def expected_ids(role: str, claims: dict) -> list:
    if role.startswith("identity"):
        return ["identity_L36", "identity_L64"]
    if role == "bloch":
        return BLOCH_IDS
    if role == "rosset_tate":
        return ROSSET_TATE_IDS
    if role == "divisors":
        return [f"divisor_{e['name']}_E{curve}"
                for curve, entries in claims["divisors"].items()
                for e in entries]
    if role == "torsion_labels":
        ids = []
        for curve, labels in claims["torsion_labels"].items():
            ids += [f"label_{name}_E{curve}" for name in labels]
            ids += [f"labels_bijective_E{curve}", f"labels_additive_E{curve}",
                    "chi_f_check"]
        return ids
    raise ValueError(f"no report ids for role {role}")


def _agreed(diff, scale, ceiling: int) -> int:
    """Decimal digits to which two values agree, relative to max(1, scale)."""
    rel = diff / max(mpmath.mpf(1), abs(scale))
    return ceiling if rel == 0 else min(ceiling, int(mpmath.floor(-mpmath.log10(rel))))


def check_reports(op: dict, res: dict, claims: dict) -> dict:
    """A --report json verification command."""
    rc = res["rc"]
    if rc not in (0, 1):
        return {"outcome": "wrong", "why": f"exit code {rc}"}
    try:
        reports = json.loads(res["stdout"])["reports"]
    except (ValueError, KeyError):
        why = res["stderr"].strip()[-200:] or "no JSON report"
        return {"outcome": "fail" if rc == 1 else "wrong", "why": why}
    got = Counter(r["claim_id"] for r in reports)
    want = Counter(expected_ids(op["role"], claims))
    if got != want:
        return {"outcome": "wrong", "why": f"claim ids {sorted(got)} != {sorted(want)}"}
    failed = sorted(r["claim_id"] for r in reports if r["status"] != "pass")
    if bool(failed) != (rc == 1):
        return {"outcome": "wrong", "why": f"exit {rc} with failed claims {failed}"}
    out = {"outcome": "fail" if failed else "pass",
           "why": f"failed claims {failed}" if failed else ""}
    if op["role"].startswith("identity"):
        digits = op["digits"]
        # The L side must always match L*; the 3F2 side must match whenever
        # the program says the claim passed.
        for r in reports:
            want_l = L_STAR[r["claim_id"][-2:]]
            for side in ("lhs", "rhs"):
                if _agreed(abs(mpmath.mpf(r[side]) - want_l), want_l, 30) < 23:
                    if r["status"] == "pass" or side == "lhs":
                        return {"outcome": "wrong",
                                "why": f"{r['claim_id']} {side} {r[side]} != L* {want_l}"}
        # agreement between the independent L side and the 3F2 side
        agreed = min(r["digits_agreed"] for r in reports)
        out["shortfall_digits"] = digits - agreed
    return out


def cyclo_value(text: str):
    """Numeric value of a printed Q(zeta_24) element 'c0 + c1*z + c3*z^3'."""
    z = mpmath.expjpi(mpmath.mpf(1) / 12)
    total = mpmath.mpc(0)
    for term in text.split(" + "):
        coef, sep, power = term.partition("*z")
        k = 0 if not sep else (int(power[1:]) if power else 1)
        c = Fraction(coef)
        total += mpmath.mpf(c.numerator) / c.denominator * z ** k
    return total


def parse_tame(stdout: str):
    m = TAME_LINE.match(stdout.strip())
    return None if m is None else (int(m.group(1)), int(m.group(2)), m.group(3))


def check_tame(op: dict, res: dict, divisors: dict) -> dict:
    """Orders against the published (or literal) divisors.  The symbol
    itself is checked with the swapped query, in check_tame_pair."""
    if res["rc"] == 1:
        return {"outcome": "fail", "why": res["stderr"].strip()[-200:]}
    parsed = parse_tame(res["stdout"]) if res["rc"] == 0 else None
    if parsed is None:
        return {"outcome": "wrong",
                "why": f"exit {res['rc']}: {(res['stdout'] + res['stderr'])[-200:]}"}
    table = divisors[op["curve"]]
    want = (table[op["f"]].get(op["point"], 0), table[op["g"]].get(op["point"], 0))
    if parsed[:2] != want:
        return {"outcome": "wrong", "why": f"orders {parsed[:2]} != {want}"}
    return {"outcome": "pass", "why": ""}


def check_tame_pair(res: dict, swapped: dict) -> str:
    """'' if T(g, f) has the swapped orders and T(f, g) T(g, f) = 1."""
    a, b = parse_tame(res["stdout"]), parse_tame(swapped["stdout"])
    if b is None or swapped["rc"] != 0:
        return f"swapped query failed: {swapped['stderr'][-200:]}"
    if (b[0], b[1]) != (a[1], a[0]):
        return f"swapped orders {b[:2]} != {(a[1], a[0])}"
    with mpmath.workdps(30):
        prod = cyclo_value(a[2]) * cyclo_value(b[2])
        if abs(prod - 1) > mpmath.mpf(10) ** -20:
            return f"T(f,g) T(g,f) = {mpmath.nstr(prod, 10)}"
    return ""


def dixon_value(a: Fraction, b: Fraction, c: Fraction, dps: int):
    """Dixon's sum 3F2(a, b, c; 1+a-b, 1+a-c; 1) by mpmath.gamma."""
    with mpmath.workdps(dps):
        g = lambda q: mpmath.gamma(mpmath.mpf(q.numerator) / q.denominator)
        h = a / 2
        return (g(1 + h) * g(1 + a - b) * g(1 + a - c) * g(1 + h - b - c)
                / (g(1 + a) * g(1 + h - b) * g(1 + h - c) * g(1 + a - b - c)))


def check_hyp(op: dict, res: dict) -> dict:
    digits = op["digits"]
    if res["rc"] != 0:
        return {"outcome": "wrong", "why": f"exit {res['rc']}: {res['stderr'][-200:]}"}
    a, b, c = (Fraction(x) for x in op["dixon"])
    with mpmath.workdps(digits + 20):
        try:
            got = mpmath.mpf(res["stdout"].strip())
        except ValueError:
            return {"outcome": "wrong", "why": f"unparsable value {res['stdout'][:80]!r}"}
        want = dixon_value(a, b, c, digits + 20)
        agreed = _agreed(abs(got - want), want, digits + 20)
    out = {"outcome": "pass", "why": "", "shortfall_digits": digits - agreed}
    if agreed < digits - 10:
        out.update(outcome="wrong", why=f"agrees with Dixon's sum to {agreed} digits")
    return out


def check(op: dict, res: dict, claims: dict, divisors: dict) -> dict:
    if op["role"] == "tame":
        return check_tame(op, res, divisors)
    if op["role"] == "hyp":
        return check_hyp(op, res)
    return check_reports(op, res, claims)


def dixon_form(params):
    """(a, b, c) if 3F2(params; 1) is in Dixon's form, else None."""
    a1, a2, a3, b1, b2 = params
    for a, b, c in ((a1, a2, a3), (a2, a1, a3), (a3, a1, a2)):
        if sorted((b1, b2)) == sorted((1 + a - b, 1 + a - c)):
            return a, b, c
    return None
