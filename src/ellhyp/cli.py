"""Command-line verification harness.

Subcommands run the individual verifications (L-value identities, Bloch-map
reductions, the Rosset-Tate trace, periods, torsion labels) or everything at
once, and emit per-claim reports as text or JSON.  Exit code 0 means every
claim passed, 1 means a verification failed, 2 means a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

import mpmath

from . import claims, ecdiv, ellper, hecke, hyp3f2, mpnum
from .cyclo import parse_cyclo_pair
from .ecdiv import FormalSum, beta_map, b3_reduce, law, torsion_Ef, \
    torsion_sums
from .ksym import (ELLIPTIC, MAPS, FieldError, Place, divisor,
                   evaluate_pullback, ff_parse, pushforward_e36, rosset_tate,
                   tame_symbol, verify_annihilation, verify_divisor)
from .mpnum import PrecisionContext, PrecisionError

MIN_DIGITS = 30


class UsageError(Exception):
    pass


@dataclass
class VerificationReport:
    claim_id: str
    kind: str                     # "exact" | "numeric"
    lhs: str
    rhs: str
    status: str                   # "pass" | "fail" | "skip"
    abs_err: str | None = None
    digits_agreed: int | None = None
    tolerance: str | None = None
    notes: str = ""
    timing: float | None = None

    def line(self) -> str:
        mark = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[self.status]
        extra = ""
        if self.kind == "numeric" and self.abs_err is not None:
            extra = f"  |lhs-rhs|={self.abs_err} tol={self.tolerance}"
        note = f"  ({self.notes})" if self.notes else ""
        return f"[{mark}] {self.claim_id}: {self.lhs} vs {self.rhs}{extra}{note}"


def _exact(claim_id, lhs, rhs, ok, notes="", t=None):
    return VerificationReport(claim_id, "exact", str(lhs), str(rhs),
                              "pass" if ok else "fail", notes=notes, timing=t)


def _numeric(claim_id, lhs, rhs, notes="", t=None):
    """A numeric report on two balls at one W.  Each side's radius bounds
    its own error, so the sides must agree within the sum of the two, the
    radius of lhs - rhs.  digits_agreed is floor(-log10 |lhs - rhs|), with a
    unit of 2^-W as its resolution: with d = max(|mid|, 1) units, the digits
    of 2^W // d less one, or -ceil(log10(d 2^-W)) for d past 2^W."""
    gap = lhs - rhs
    d = max(abs(gap.mid), 1)
    digits = (len(str((1 << gap.W) // d)) - 1 if d <= 1 << gap.W
              else -len(str(-(-d >> gap.W) - 1)))
    return VerificationReport(
        claim_id, "numeric", mpmath.nstr(lhs.val, 25),
        mpmath.nstr(rhs.val, 25),
        "pass" if abs(gap.mid) <= gap.rad else "fail",
        abs_err=mpmath.nstr(abs(gap.val), 5), digits_agreed=digits,
        tolerance=mpmath.nstr(gap.err, 5), notes=notes, timing=t)


def _ctx(args) -> PrecisionContext:
    digits = getattr(args, "digits", MIN_DIGITS)
    if digits < MIN_DIGITS:
        raise UsageError(f"--digits must be >= {MIN_DIGITS}")
    return PrecisionContext(digits=digits)


def _curves(args):
    cur = getattr(args, "curve", None)
    return [cur] if cur else [36, 64]


# ---------------------------------------------------------------------------

def cmd_verify_identity(args) -> list:
    ctx = _ctx(args)
    an_file = getattr(args, "an_file", None)
    if an_file and not args.curve:
        raise UsageError("--an-file holds one curve's coefficients: name "
                         "that curve with --curve")
    out = []
    for N in _curves(args):
        t0 = time.monotonic()
        c = hecke.curve(N)
        tbl = None
        if an_file:
            tbl = _file_coeffs(hecke.afe_n_max(c, ctx), an_file)
        lhs = hecke.lstar_zero(c, ctx, tbl)
        rhs = hyp3f2.rhs_main(N, ctx, claims.identity(N))
        out.append(_numeric(
            f"identity_L{N}", lhs, rhs,
            notes="L*(E,0) from the Hecke L-series vs the "
                  "hypergeometric combination", t=time.monotonic() - t0))
    return out


def cmd_verify_bloch(args) -> list:
    out = []
    for N in _curves(args):
        t0 = time.monotonic()
        lw = law(N)
        claim = claims.bloch_claim(N)
        st = claim.steinberg
        rels = ()
        if st is not None:
            steinberg = beta_map(lw, st.f.divisor, st.one_minus_f)
            rels = (steinberg,)
            expected_st = FormalSum(lw, st.beta)
            killed = b3_reduce(FormalSum(lw, [(claims.point(N, st.kills), 1)]),
                               rels).is_zero()
            out.append(_exact(
                f"steinberg_E{N}_{st.kills}", repr(steinberg),
                repr(expected_st), steinberg == expected_st and killed,
                notes=st.note))
        beta0 = b3_reduce(beta_map(lw, claim.f_alpha, claim.f_beta), rels)
        want0 = FormalSum(lw, claim.beta_e0)
        out.append(_exact(f"beta_e0_E{N}", repr(beta0), repr(want0),
                          beta0 == want0))
        push_f, push_g = claim.pushforward
        beta_push = b3_reduce(beta_map(lw, push_f.divisor, push_g.divisor),
                              rels)
        want1 = FormalSum(lw, claim.beta_pushforward)
        out.append(_exact(f"beta_pushforward_E{N}", repr(beta_push),
                          repr(want1), beta_push == want1))
        factor2 = beta0 == 2 * beta_push
        out.append(_exact(f"bloch_factor2_E{N}", repr(beta0),
                          f"2 * {beta_push!r}", factor2,
                          notes="the Bloch element is twice the pushforward"))
        if claim.beta_vanishes is not None:
            # the literal divisor of f, whose display may regroup 2-torsion
            f, g = claim.beta_vanishes
            div_f = divisor(f.function, f.divisor, f.up_to_two_torsion)
            bfg = b3_reduce(beta_map(lw, div_f, g.divisor), rels)
            out.append(_exact(f"beta_{f.name}_{g.name}_E{N}", repr(bfg),
                              "FormalSum(0)", bfg.is_zero()))
        if out:
            out[-1].timing = time.monotonic() - t0
    return out


def cmd_rosset_tate(args) -> list:
    t0 = time.monotonic()
    g0, g1, g2_expected, expected_symbols = claims.rosset_tate_input()
    out = []
    chain, trace = rosset_tate(g0, g1)
    degs = [g.degree for g in chain]
    degs_ok = degs == [2, 1, 0]
    out.append(_exact("rosset_tate_degrees", degs, [2, 1, 0], degs_ok))
    out.append(_exact("rosset_tate_g2", "computed g2", "32u^2/(v^2(u-2)^2)",
                      degs_ok and chain[2].coeffs[0] == g2_expected))
    # rewrite each -{a, b} as {a^-1, b} and compare with the published pair
    rewritten = [sym.inv_first() if coef == -1 else sym
                 for coef, sym in trace]
    ok = (len(rewritten) == len(expected_symbols)
          and all(s.f == f and s.g == g
                  for s, (f, g) in zip(rewritten, expected_symbols)))
    out.append(_exact("rosset_tate_symbols", "trace symbols",
                      "published two-symbol form", ok,
                      notes="after the inverse-slot rewriting move"))
    gen = ff_parse(MAPS["p64"].cover, "1-x")
    out.append(_exact("annihilation_g0", "g0(1-x) on the quartic", "0",
                      verify_annihilation(g0, MAPS["p64"], gen)))
    val = evaluate_pullback(g1, MAPS["p64"], gen)
    out.append(_exact("evaluation_g1", "g1(1-x) on the quartic", "1-y",
                      val == ff_parse(MAPS["p64"].cover, "1-y")))
    sym = pushforward_e36()
    f_want, g_want = claims.pushforward_slots()
    out.append(_exact("pushforward_e36", "{norm chain}", "{1-v, 1+u}",
                      sym.f == f_want and sym.g == g_want,
                      t=time.monotonic() - t0))
    return out


def cmd_verify_divisors(args) -> list:
    out = []
    for N in _curves(args):
        for claim in claims.divisor_claims(N):
            t0 = time.monotonic()
            bad = verify_divisor(claim.function, claim.divisor,
                                 claim.up_to_two_torsion)
            out.append(_exact(
                f"divisor_{claim.name}_E{N}", f"div({claim.name})",
                "published display", not bad,
                notes=claim.note or "; ".join(bad), t=time.monotonic() - t0))
    return out


def cmd_verify_periods(args) -> list:
    ctx = _ctx(args)
    out = []
    for N in _curves(args):
        t0 = time.monotonic()
        a, b, q = claims.period_form(N)
        out.append(_numeric(
            f"real_period_E{N}", ellper.lattice(N, ctx),
            q * mpnum.beta(a, b, ctx),
            notes=f"omega1 = pi / AGM of the root gaps vs its "
                  f"Chowla-Selberg form {q} * B({a}, {b})",
            t=time.monotonic() - t0))
    return out


def cmd_verify_torsion_labels(args) -> list:
    ctx = _ctx(args)
    out = []
    chi_ok = hecke.chi_f_check()
    for N in _curves(args):
        t0 = time.monotonic()
        c = hecke.curve(N)
        pts = claims.points(N)
        tor = torsion_Ef(N)
        sums = torsion_sums(N)
        labels = {p: ellper.torsion_label(N, p, ctx) for p in tor}
        for name, expected in claims.torsion_label_claims(N).items():
            lab = labels[pts[name]]
            anchor = claims.anchor_label_point(N) == name
            pair = ellper.ok_pair(N, expected)
            out.append(_exact(
                f"label_{name}_E{N}", f"{lab[0]}+{lab[1]}*tau", str(expected),
                pair is not None and hecke.residue(c, pair) == lab,
                notes="orientation anchor" if anchor else ""))
        bijective = len(set(labels.values())) == len(labels)
        # label(P+g) = label(P) + label(g) for every P in T and generator g
        # is full additivity: P = base gives label(base) = 0, and if Q is
        # additive, so is Q+g, since label(P+Q+g) = label(P+Q) + label(g)
        # = label(P) + label(Q) + label(g) = label(P) + label(Q+g).  Every
        # Q in T is the base plus a word in the generators.  The sums are
        # those the closure of torsion_Ef computed, over the same pairs.
        additive = all(
            labels[s] == hecke.residue(
                c, (labels[p][0] + labels[g][0], labels[p][1] + labels[g][1]))
            for (p, g), s in sums.items())
        out.append(_exact(f"labels_bijective_E{N}", f"{len(tor)} labels",
                          "pairwise distinct mod nu", bijective))
        out.append(_exact(f"labels_additive_E{N}", "label(P+Q)",
                          "label(P)+label(Q) mod nu", additive,
                          t=time.monotonic() - t0))
        out.append(_exact("chi_f_check", "chi_f(1-2i)", "1 (from a_5 = 2)",
                          chi_ok))
    return out


def _file_coeffs(n_max: int, path: str):
    """Coefficients read from --an-file; a file that cannot be read or is
    malformed is a usage error."""
    try:
        return hecke.read_coeff_file(path, n_max)
    except OSError as exc:
        raise UsageError(
            f"cannot read --an-file {path!r}: {exc.strerror}") from None
    except hecke.CoefficientFileError as exc:
        raise UsageError(f"bad --an-file: {exc}") from None


def cmd_coeffs(args) -> list:
    if args.n_max < 1:
        raise UsageError("--n-max must be >= 1")
    if args.source == "file":
        if args.an_file is None:
            raise UsageError("--source file requires --an-file")
        tbl = _file_coeffs(args.n_max, args.an_file)
    elif args.an_file is not None:
        raise UsageError(f"--an-file needs --source file, not --source "
                         f"{args.source}")
    else:
        tbl = hecke.build_coeffs(hecke.curve(args.curve or 36), args.n_max,
                                 args.source)
    for n in range(1, args.n_max + 1):
        print(f"{n},{tbl[n]}")
    return []


def cmd_hyp(args) -> list:
    ctx = _ctx(args)
    try:
        vals = [Fraction(t) for t in args.params.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --params: {exc}") from None
    if len(vals) != 5:
        raise UsageError("--params needs a1,a2,a3,b1,b2")
    try:
        p = hyp3f2.HypParams(*vals)
        print(mpmath.nstr(hyp3f2.f32_unit(p, ctx).val, ctx.digits))
    except hyp3f2.DivergenceError as exc:
        raise UsageError(f"bad --params: {exc}") from None
    except PrecisionError as exc:
        raise UsageError(f"unsupported --params at --digits {ctx.digits}: "
                         f"{exc}") from None
    return []


def _literal(option: str, text: str, parse):
    """``parse(text)``, with a malformed literal as a usage error."""
    try:
        return parse(text)
    except ZeroDivisionError:
        raise UsageError(f"bad {option} {text!r}: divides by zero") from None
    except ValueError as exc:
        raise UsageError(f"bad {option} {text!r}: {exc}") from None


def _function(field, option: str, text: str):
    """A nonzero function of the field, else a usage error."""
    h = _literal(option, text, lambda t: ff_parse(field, t))
    if h.is_zero():
        raise UsageError(f"bad {option} {text!r}: zero has no valuation")
    return h


def _parse_place(text: str) -> ecdiv.CurvePoint:
    """``inf``, or the point ``(u,v)``."""
    if text.strip() == "inf":
        return ecdiv.CurvePoint.infinity()
    return ecdiv.CurvePoint(*_literal("--place", text, parse_cyclo_pair))


def cmd_tame(args) -> list:
    field = ELLIPTIC[args.curve or 36]
    f = _function(field, "--f", args.f)
    g = _function(field, "--g", args.g)
    try:
        pl = Place(field, _parse_place(args.place))
    except FieldError as exc:
        raise UsageError(f"bad --place {args.place!r}: {exc}") from None
    m, n, val = tame_symbol(f, g, pl)
    print(f"ord(f) = {m}, ord(g) = {n}, tame symbol = {val}")
    return []


# The verification commands as (name, checker, build_parser options);
# verify-all runs the checkers in this order.
CHECKS = (
    ("verify-identity", cmd_verify_identity, {"an_file": True}),
    ("verify-bloch", cmd_verify_bloch, {"digits": False}),
    ("rosset-tate", cmd_rosset_tate, {"curve": False, "digits": False}),
    ("verify-divisors", cmd_verify_divisors, {"digits": False}),
    ("verify-periods", cmd_verify_periods, {}),
    ("verify-torsion-labels", cmd_verify_torsion_labels, {}),
)


def _guarded(name, checker, args) -> list:
    """The checker's reports, or one FAIL row naming the check if it raises
    anything but a usage error, so that the other checks still report."""
    try:
        return checker(args)
    except UsageError:
        raise
    except Exception as exc:
        return [_exact(f"error_{name.replace('-', '_')}", f"{name} raised",
                       "no exception", False, f"{type(exc).__name__}: {exc}")]


def cmd_verify_all(args) -> list:
    out = []
    for name, checker, _ in CHECKS:
        out += _guarded(name, checker, args)
    return out


# ---------------------------------------------------------------------------

def reports_to_json(reports, deterministic: bool) -> str:
    payload = []
    for r in sorted(reports, key=lambda r: r.claim_id):
        d = asdict(r)
        if deterministic:
            d["timing"] = None
        payload.append(d)
    return json.dumps({"reports": payload}, indent=2, sort_keys=True)


def emit(reports, args) -> int:
    if not reports:
        return 0
    if args.report == "json":
        print(reports_to_json(reports, args.deterministic))
    else:
        for r in sorted(reports, key=lambda r: r.claim_id):
            print(r.line())
    return 0 if all(r.status == "pass" for r in reports) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call, for every main."""
    ap = argparse.ArgumentParser(
        prog="ellhyp",
        description="Verify the L-value identities and the exact proofs "
                    "machinery for the conductor-36 and conductor-64 curves.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, curve=True, digits=True, an_file=False):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--report", choices=("json", "text"), default="text")
        p.add_argument("--deterministic", action="store_true",
                       help="omit timings so identical runs emit identical JSON")
        if curve:
            p.add_argument("--curve", type=int, choices=(36, 64))
        if digits:
            p.add_argument("--digits", type=int, default=MIN_DIGITS)
        if an_file:
            p.add_argument("--an-file")
        return p

    for name, checker, options in CHECKS:
        add(name, functools.partial(_guarded, name, checker), **options)
    p = add("coeffs", cmd_coeffs, digits=False, an_file=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--source", choices=("cm", "pointcount", "file"),
                   default="cm")
    p = add("hyp", cmd_hyp, curve=False)
    p.add_argument("--params", required=True,
                   help="a1,a2,a3,b1,b2 as rationals, e.g. 1/2,1/3,... ")
    p = add("tame", cmd_tame, digits=False)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--place", required=True,
                   help="point literal (u,v) in cyclo syntax, or inf")
    add("verify-all", cmd_verify_all, an_file=True)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        reports = args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # verification machinery failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return emit(reports, args)


if __name__ == "__main__":
    sys.exit(main())
