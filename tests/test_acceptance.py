"""Acceptance gate: the twelve headline criteria, one pass/fail line each.

Each criterion prints ``ACCEPTANCE <n>: PASS|FAIL - <summary>`` (visible with
``pytest -s`` or in captured output on failure) and asserts the stated
tolerance or exactness.  Criteria that restate a verification command run that
command's checker through the CLI parser and read its reports.
"""

import functools
import importlib.util
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
from grouplaw import mul

from ellhyp import claims, hecke, hyp3f2
from ellhyp.cli import build_parser
from ellhyp.ecdiv import law, torsion_Ef
from ellhyp.hyp3f2 import HypParams
from ellhyp.mpnum import PrecisionContext

CTX = PrecisionContext(digits=30)


def _bench_oracles():
    path = Path(__file__).resolve().parent.parent / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLES = _bench_oracles()


def _report(n, ok, summary):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, f"acceptance criterion {n} failed: {summary}"


@functools.lru_cache(maxsize=None)
def _run(*argv):
    """(reports, seconds) of one verification command's checker."""
    args = build_parser().parse_args(list(argv))
    t0 = time.monotonic()
    reports = args.fn(args)
    return reports, time.monotonic() - t0


def _all_pass(reports):
    return bool(reports) and all(r.status == "pass" for r in reports)


def _claims(reports, *ids):
    by_id = {r.claim_id: r for r in reports}
    return [by_id[i] for i in ids]


def _ids_as_published(role, reports):
    """The claim-id multiset is the one the benchmark's oracle expects."""
    want = Counter(ORACLES.expected_ids(role, claims.raw()))
    return Counter(r.claim_id for r in reports) == want


def _identity(n, N, limit_s):
    (rep,), elapsed = _run("verify-identity", "--curve", str(N),
                           "--digits", str(CTX.digits))
    diff = mpmath.mpf(rep.abs_err)
    ok = (rep.status == "pass" and diff <= mpmath.mpf(10) ** -20
          and elapsed <= limit_s)
    _report(n, ok, f"main identity E{N}: |L*-hyp| = {mpmath.nstr(diff, 3)} "
                   f"<= 1e-20 in {elapsed:.1f}s")


def test_acceptance_01_main_identity_e36(capsys):
    _identity(1, 36, 60)


def test_acceptance_02_main_identity_e64(capsys):
    _identity(2, 64, 60)


def test_acceptance_03_cross_oracle_coefficients():
    t0 = time.monotonic()
    bad = []
    for N in (36, 64):
        c = hecke.curve(N)
        cm = hecke.build_coeffs(c, 1000, "cm")
        pc = hecke.build_coeffs(c, 1000, "pointcount")
        bad += [(N, n) for n in range(1, 1001) if cm[n] != pc[n]]
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed <= 10
    _report(3, ok, f"cm table == point-count table for every n <= 1000, "
                   f"both curves, in {elapsed:.1f}s" + (
                       f"; mismatches {bad}" if bad else ""))


def test_acceptance_04_afe_vs_naive_sum():
    worst = mpmath.mpf(0)
    for N in (36, 64):
        c = hecke.curve(N)
        tbl = hecke.build_coeffs(c, 10 ** 5, "cm")
        with CTX.workprec():
            naive = mpmath.fsum(
                mpmath.mpf(tbl[n]) / n ** 2 for n in range(1, 10 ** 5 + 1))
            afe = hecke.l_two(c, hecke.build_coeffs(
                c, hecke.afe_n_max(c, CTX), "cm"), CTX)
            worst = max(worst, abs(afe.val - naive) / abs(naive))
    ok = worst < mpmath.mpf("5e-3")
    _report(4, ok, f"AFE vs naive sum to 1e5: worst relative deviation "
                   f"{mpmath.nstr(worst, 3)} < 5e-3")


def test_acceptance_05_bloch_map_suite():
    # steinberg_E36_R passes only if registering the relation kills [R];
    # beta_f2_g2_E64 reads f2's literal divisor off its orders
    reports, elapsed = _run("verify-bloch")
    ok = (_all_pass(reports) and _ids_as_published("bloch", reports)
          and elapsed <= 5)
    _report(5, ok, f"exact Bloch-map suite (12[P], 16([S]+[T]), factor 2, "
                   f"beta(f2,g2)=0, -27[R]) in {elapsed:.1f}s")


def test_acceptance_06_e64_point_identities():
    lw = law(64)
    p = claims.points(64)
    S, T, P0, P1, R = p["S"], p["T"], p["P0"], p["P1"], p["R"]
    sub = lambda a, b: lw.add(a, lw.neg(b))
    ok = mul(lw, 2, S) == P0 and mul(lw, 2, T) == P0
    # the six difference identities: S-T, S-P0, S-P1, T-P0, T-P1, P0-P1 are
    # all f-torsion and consistent with the 2S = 2T = P0 relations
    tor = set(torsion_Ef(64))
    diffs = [sub(a, b) for a in (S, T, P0, P1) for b in (S, T, P0, P1)
             if a != b]
    ok &= all(d in tor for d in diffs)
    ok &= sub(S, P0) == lw.neg(S) and sub(T, P0) == lw.neg(T)
    ok &= sub(P0, P1) == R
    ok &= len(torsion_Ef(64)) == 16 and len(torsion_Ef(36)) == 12
    for N in (36, 64):
        lw_n = law(N)
        pts = torsion_Ef(N)
        grp = set(pts)
        ok &= all(lw_n.add(a, b) in grp for a in pts for b in pts)
    _report(6, ok, "E64 point identities (2S=2T=P0, differences) and "
                   "|E_f| = 12 / 16 with subgroup closure, exact")


def test_acceptance_07_rosset_tate():
    reports, _ = _run("rosset-tate")
    ok = _ids_as_published("rosset_tate", reports) and _all_pass(_claims(
        reports, "rosset_tate_degrees", "rosset_tate_g2",
        "rosset_tate_symbols", "annihilation_g0"))
    _report(7, ok, "Rosset-Tate reproduces g2 = 32u^2/(v^2(u-2)^2) and the "
                   "published two-symbol trace; annihilation verified")


def test_acceptance_08_pushforward_chain():
    reports, _ = _run("rosset-tate")
    ok = _all_pass(_claims(reports, "pushforward_e36"))
    _report(8, ok, "pushforward chain equals {1-v, 1+u}, exact")


def test_acceptance_09_divisor_suite():
    reports, _ = _run("verify-divisors")
    failures = [(r.claim_id, r.notes) for r in reports if r.status != "pass"]
    ok = _all_pass(reports) and _ids_as_published("divisors", reports)
    _report(9, ok, "every published divisor display verifies exactly (the "
                   "f2 display is read up to 2-torsion regrouping, as "
                   "documented in its claim note)"
                   + (f"; failures: {failures}" if failures else ""))


def test_acceptance_10_periods():
    reports, _ = _run("verify-periods", "--digits", str(CTX.digits))
    tol = mpmath.mpf(10) ** -25
    periods = _claims(reports, "real_period_E36", "real_period_E64")
    d36, d64 = (mpmath.mpf(r.abs_err) for r in periods)
    ok = (len(reports) == 2 and _all_pass(periods) and d36 < tol
          and d64 < tol and all(r.kind == "numeric" for r in periods))
    _report(10, ok, f"real periods omega1 match B(1/2, 1/3) and "
                    f"B(1/4, 1/4)/4 to 25 digits (errors "
                    f"{mpmath.nstr(d36, 2)}, {mpmath.nstr(d64, 2)})")


def test_acceptance_11_torsion_labels():
    # per curve: each published label, bijectivity and additivity on the
    # full torsion set, and the chi_f check
    reports, _ = _run("verify-torsion-labels", "--digits", str(CTX.digits))
    ok = _all_pass(reports) and _ids_as_published("torsion_labels", reports)
    _report(11, ok, "torsion labels S->1, T->1-2i, P0->2, P->1; bijective "
                    "and additive on the full 12- and 16-point torsion sets")


def test_acceptance_12_hypergeometric_machinery():
    rng = random.Random(20240823)
    worst = mpmath.mpf(0)
    checked = 0
    with CTX.workprec():
        while checked < 20:
            a = Fraction(rng.randint(1, 11), rng.randint(2, 12))
            b = Fraction(rng.randint(1, 11), rng.randint(2, 12))
            c = Fraction(rng.randint(1, 11), rng.randint(2, 12))
            d = a + b + Fraction(rng.randint(1, 8), rng.randint(1, 4))
            got = hyp3f2.f32_unit(HypParams(a, b, c, c, d), CTX)

            def g(f):
                return mpmath.gamma(mpmath.mpf(f.numerator) / f.denominator)

            want = g(d) * g(d - a - b) / (g(d - a) * g(d - b))
            worst = max(worst, abs(got.val - want))
            checked += 1
        f1 = hyp3f2.ftilde(Fraction(1, 2), Fraction(1, 3), CTX)
        f2 = hyp3f2.ftilde(Fraction(1, 2), Fraction(2, 3), CTX)
        f3 = hyp3f2.ftilde(Fraction(1, 4), Fraction(1, 4), CTX)
        f4 = hyp3f2.ftilde(Fraction(3, 4), Fraction(3, 4), CTX)
        mono = (f1.val - f2.val > 2 * (f1.err + f2.err)
                and f3.val - f4.val > 2 * (f3.err + f4.err))
    ok = worst < mpmath.mpf(10) ** -25 and mono
    _report(12, ok, f"20 Gauss-reduction cross-checks, worst error "
                    f"{mpmath.nstr(worst, 3)} < 1e-25; monotonicity spot "
                    f"inequalities strict beyond 2x err")
