"""CLI outputs pinned byte-for-byte against files under tests/golden/.

Exact outputs are pinned: JSON reports of the exact checks, coefficient
tables and tame symbols.  So are `hyp` values: `hyp` prints its value
rounded to --digits and no error estimate, so a change to how an estimate
is formed leaves them as they are.  The numeric `verify-identity` reports
at 30, 100, 152 and 200 digits are pinned too, every field included:
`lhs`, `rhs`, `abs_err`, `digits_agreed`, `status` and `tolerance`.  A
change that moves an error estimate or a last digit fails them; such a
change regenerates the files and names each moved field in CHANGES.md.
The 30-digit `verify-identity` report is also produced by two
subprocesses under PYTHONHASHSEED=0 and 1, which must both print the file.
The `verify-all` reports at 30 and 60 digits pin every claim of the
package in one run each.  They pin today's `verify-torsion-labels` rows as
well, so they hold the `chi_f_check` row twice (the torsion check appends
it once per curve); emitting it once, with the benchmark oracle changed to
match, will regenerate them.

Regenerate the files (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden.py --regen

which rewrites only the files whose output moved and prints each moved
field as `file: claim_id.field old → new` (`file: line n old → new` for
an output that is not a JSON report), the list CHANGES.md takes.
"""

import contextlib
import io
import json
import os
import subprocess
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

VERIFY_ALL = {f"verify-all-{digits}": ["verify-all", "--digits", str(digits)]
              + JSON_FLAGS for digits in (30, 60)}

COEFFS = {f"coeffs-{N}": ["coeffs", "--curve", str(N), "--n-max", "1000"]
          for N in (36, 64)}

# every ordered pair of distinct published divisor functions, at finite,
# 2-torsion and infinite places of each curve
_TAME_FUNCTIONS = {
    36: ["1-v", "1+u", "(1-v)^2/(1+u)^3",
         "(1+u^3)^3*(1-v^2)^2*(8-u^3)^6/(1+u)^36"],
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
    return _run({**REPORTS, **NUMERIC, **VERIFY_ALL, **COEFFS}[name])


NAMES = [*REPORTS, *NUMERIC, *VERIFY_ALL, *COEFFS, *TAME, *HYP]


@pytest.mark.parametrize("name", NAMES)
def test_output_matches_golden(name):
    assert produce(name) == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name", list(REPORTS))
def test_pinned_reports_are_exact(name):
    reports = json.loads((GOLDEN / f"{name}.out").read_text())["reports"]
    assert reports and all(r["kind"] == "exact" for r in reports)


@pytest.mark.parametrize("seed", ["0", "1"])
def test_identity_report_under_two_hash_seeds(seed):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "ellhyp.cli",
                          *NUMERIC["verify-identity-30"]], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300).stdout
    assert out == (GOLDEN / "verify-identity-30.out").read_text()


def _fields(text: str) -> dict:
    """{"claim_id.field": value} of a JSON report, {"line n": line} of any
    other output."""
    try:
        reports = json.loads(text)["reports"]
    except ValueError:
        return {f"line {i}": line
                for i, line in enumerate(text.splitlines(), 1)}
    return {f"{r['claim_id']}.{key}": value
            for r in reports for key, value in r.items() if key != "claim_id"}


def regen():
    """Rewrite each golden file whose output moved; print the moved fields."""
    GOLDEN.mkdir(exist_ok=True)
    for name in NAMES:
        path = GOLDEN / f"{name}.out"
        new = produce(name)
        old = path.read_text() if path.exists() else ""
        if new == old:
            continue
        before, after = _fields(old), _fields(new)
        for key in dict.fromkeys([*before, *after]):
            if before.get(key) != after.get(key):
                print(f"{path.name}: {key} {before.get(key)} → "
                      f"{after.get(key)}")
        path.write_text(new)


if __name__ == "__main__" and sys.argv[1:] == ["--regen"]:
    regen()
