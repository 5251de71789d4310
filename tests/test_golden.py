"""CLI outputs pinned byte-for-byte against files under tests/golden/.

Exact outputs are pinned: JSON reports of the exact checks, coefficient
tables and tame symbols.  So are `hyp` values: `hyp` prints its value
rounded to --digits and no error estimate, so a change to how an estimate
is formed leaves them as they are.  The numeric `verify-identity` reports
at 30, 100, 152 and 200 digits are pinned too, every field included:
`lhs`, `rhs`, `abs_err`, `digits_agreed`, `status` and `tolerance`.  A
change that moves an error estimate or a last digit fails them; such a
change regenerates the files and names each moved field in CHANGES.md.

Regenerate the files (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden.py --regen
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ellhyp import claims
from ellhyp.cli import main
from test_hyp3f2 import DIXON_CASES, GROWING

GOLDEN = Path(__file__).resolve().parent / "golden"
JSON_FLAGS = ["--report", "json", "--deterministic"]

REPORTS = {
    "verify-bloch": ["verify-bloch"] + JSON_FLAGS,
    "rosset-tate": ["rosset-tate"] + JSON_FLAGS,
    "verify-divisors": ["verify-divisors"] + JSON_FLAGS,
    "verify-torsion-labels-30": ["verify-torsion-labels", "--digits", "30"]
                                + JSON_FLAGS,
    "verify-torsion-labels-100": ["verify-torsion-labels", "--digits", "100"]
                                 + JSON_FLAGS,
}

NUMERIC = {f"verify-identity-{digits}": ["verify-identity", "--digits",
                                          str(digits)] + JSON_FLAGS
           for digits in (30, 100, 152, 200)}

COEFFS = {f"coeffs-{N}": ["coeffs", "--curve", str(N), "--n-max", "1000"]
          for N in (36, 64)}

# every ordered pair of distinct published divisor functions (but f_alpha,
# whose degree-36 powers make a slow query), at finite, 2-torsion and
# infinite places of each curve
_TAME_FUNCTIONS = {
    36: ["1-v", "1+u", "(1-v)^2/(1+u)^3"],
    64: ["(v-2*u)/v", "32*u^2/((u-2)^2*v^2)", "(u-2)^2/(u^2+4)", "-v/(2*u)"],
}
_TAME_PLACES = {
    36: ["(0,1)", "(2,-3)", "(-1,0)", "inf"],
    64: ["(2+2*sqrt2,4+4*sqrt2)", "(2*i,4*z^9)", "(2,0)", "(0,0)", "inf"],
}
TAME = {
    f"tame-{N}": [["tame", "--curve", str(N), f"--f={f}", f"--g={g}",
                   f"--place={pl}"]
                  for pl in _TAME_PLACES[N]
                  for f in _TAME_FUNCTIONS[N] for g in _TAME_FUNCTIONS[N]
                  if f != g]
    for N in (36, 64)
}

# the four F~ sets 3F2(a, b, a+b-1; a+b, a+b; 1) of the published
# identities, the two whose terms grow first, and five Dixon sets
_HYP_PARAMS = (
    [f"{a},{b},{a + b - 1},{a + b},{a + b}"
     for N in (36, 64) for _, a, b in claims.identity(N)[2]]
    + GROWING
    + [f"{a},{b},{c},{1 + Fraction(a) - Fraction(b)},"
       f"{1 + Fraction(a) - Fraction(c)}" for a, b, c, _ in DIXON_CASES[:5]])
HYP = {f"hyp-{digits}": [["hyp", f"--params={params}", "--digits",
                          str(digits)] for params in _HYP_PARAMS]
       for digits in (30, 100)}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return out.getvalue()


def produce(name: str) -> str:
    if name in TAME:
        return "".join(_run(argv) for argv in TAME[name])
    if name in HYP:
        return "".join(f"{argv[1]} {_run(argv)}" for argv in HYP[name])
    return _run({**REPORTS, **NUMERIC, **COEFFS}[name])


NAMES = [*REPORTS, *NUMERIC, *COEFFS, *TAME, *HYP]


@pytest.mark.parametrize("name", NAMES)
def test_output_matches_golden(name):
    assert produce(name) == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name", list(REPORTS))
def test_pinned_reports_are_exact(name):
    reports = json.loads((GOLDEN / f"{name}.out").read_text())["reports"]
    assert reports and all(r["kind"] == "exact" for r in reports)


if __name__ == "__main__" and sys.argv[1:] == ["--regen"]:
    GOLDEN.mkdir(exist_ok=True)
    for name in NAMES:
        (GOLDEN / f"{name}.out").write_text(produce(name))
