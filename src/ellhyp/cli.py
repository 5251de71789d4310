"""Command-line verification harness.

Subcommands run the individual verifications (L-value identities, Bloch-map
reductions, the Rosset-Tate trace, periods, torsion labels) or everything at
once, and emit per-claim reports as text or JSON.  Exit code 0 means every
claim passed, 1 means a verification failed, 2 means a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

import mpmath

from . import claims, ecdiv, ellper, hecke, hyp3f2
from .cyclo import parse_cyclo
from .ecdiv import Divisor, FormalSum, RelationContext, beta_map, b3_reduce, \
    law, steinberg_relation, torsion_Ef
from .ksym import (E36FF, E64FF, MAPS, FieldError, Place, evaluate_pullback,
                   ff_parse, ord_at, pushforward_e36, rosset_tate,
                   rosset_tate_chain, tame_symbol, verify_annihilation,
                   verify_divisor)
from .mpnum import PrecisionContext

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


def _numeric(claim_id, lhs, rhs, diff, tol, notes="", t=None):
    ok = diff <= tol
    digits = None
    if diff > 0:
        digits = int(mpmath.floor(-mpmath.log10(diff)))
    return VerificationReport(
        claim_id, "numeric", mpmath.nstr(lhs, 25), mpmath.nstr(rhs, 25),
        "pass" if ok else "fail", abs_err=mpmath.nstr(diff, 5),
        digits_agreed=digits, tolerance=mpmath.nstr(tol, 5), notes=notes,
        timing=t)


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
    out = []
    for N in _curves(args):
        t0 = time.monotonic()
        c = hecke.curve(N)
        tbl = None
        if getattr(args, "an_file", None):
            tbl = _file_coeffs(c, hecke.afe_n_max(c, ctx), args.an_file)
        with ctx.workprec():
            lhs = hecke.lstar_zero(c, ctx, tbl)
            rhs = hyp3f2.rhs_main(N, ctx)
            diff = abs(lhs.val - rhs.val)
            # each side's err bounds its own error, so the sides must
            # agree within the sum of the two
            tol = lhs.err + rhs.err
            out.append(_numeric(
                f"identity_L{N}", lhs.val, rhs.val, diff, tol,
                notes="L*(E,0) from the Hecke L-series vs the "
                      "hypergeometric combination", t=time.monotonic() - t0))
    return out


def cmd_verify_bloch(args) -> list:
    out = []
    for N in _curves(args):
        t0 = time.monotonic()
        lw = law(N)
        claim = claims.bloch_claim(N)
        relctx = RelationContext(lw)
        st = claim.steinberg
        if st is not None:
            steinberg = steinberg_relation(relctx, st.f.divisor, st.one_minus_f)
            expected_st = FormalSum(lw, st.beta)
            killed = relctx.reduce(
                FormalSum(lw, [(claims.point(N, st.kills), 1)])).is_zero()
            out.append(_exact(
                f"steinberg_E{N}_{st.kills}", repr(steinberg),
                repr(expected_st), steinberg == expected_st and killed,
                notes=st.note))
        beta0 = b3_reduce(beta_map(lw, claim.f_alpha, claim.f_beta), relctx)
        want0 = FormalSum(lw, claim.beta_e0)
        out.append(_exact(f"beta_e0_E{N}", repr(beta0), repr(want0),
                          beta0 == want0))
        push_f, push_g = claim.pushforward
        beta_push = b3_reduce(beta_map(lw, push_f.divisor, push_g.divisor),
                              relctx)
        want1 = FormalSum(lw, claim.beta_pushforward)
        out.append(_exact(f"beta_pushforward_E{N}", repr(beta_push),
                          repr(want1), beta_push == want1))
        factor2 = beta0 == 2 * beta_push
        out.append(_exact(f"bloch_factor2_E{N}", repr(beta0),
                          f"2 * {beta_push!r}", factor2,
                          notes="the Bloch element is twice the pushforward"))
        if claim.beta_vanishes is not None:
            # the literal divisor of f: its display may regroup 2-torsion, so
            # read the orders at the claimed support and every 2-torsion point
            f, g = claim.beta_vanishes
            support = {x for x, _ in f.divisor} | set(lw.curve.two_torsion())
            div_f = Divisor([(x, ord_at(f.function, Place(f.function.field, x)))
                             for x in support])
            bfg = b3_reduce(beta_map(lw, div_f, g.divisor), relctx)
            out.append(_exact(f"beta_{f.name}_{g.name}_E{N}", repr(bfg),
                              "FormalSum(0)", bfg.is_zero()))
        if out:
            out[-1].timing = time.monotonic() - t0
    return out


def cmd_rosset_tate(args) -> list:
    t0 = time.monotonic()
    g0, g1, g2_expected, expected_symbols = claims.rosset_tate_input()
    out = []
    chain = rosset_tate_chain(g0, g1)
    degs = [g.degree for g in chain]
    out.append(_exact("rosset_tate_degrees", degs, [2, 1, 0],
                      degs == [2, 1, 0]))
    g2 = chain[2].coeffs[0]
    out.append(_exact("rosset_tate_g2", "computed g2", "32u^2/(v^2(u-2)^2)",
                      chain[2].degree == 0 and g2 == g2_expected))
    trace = rosset_tate(g0, g1)
    # rewrite each -{a, b} as {a^-1, b} and compare with the published pair
    rewritten = [sym.inv_first().terms[0][1] if coef == -1 else sym
                 for coef, sym in trace.terms]
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
            rep = []
            ok = verify_divisor(claim.function, claim.divisor, rep,
                                up_to_two_torsion=claim.up_to_two_torsion)
            out.append(_exact(
                f"divisor_{claim.name}_E{N}", f"div({claim.name})",
                "published display", ok,
                notes=claim.note or "; ".join(rep), t=time.monotonic() - t0))
    return out


def cmd_verify_periods(args) -> list:
    ctx = _ctx(args)
    out = []
    for N in _curves(args):
        t0 = time.monotonic()
        with ctx.workprec():
            got = ellper.real_period(N, ctx)
            if N == 36:
                want = mpmath.sqrt(6 * mpmath.pi / mpmath.sqrt(3))
            else:
                want = mpmath.sqrt(mpmath.pi)
            tol = mpmath.mpf(10) ** (-(ctx.digits - 5))
            out.append(_numeric(
                f"real_period_E{N}", got.val, want, abs(got.val - want), tol,
                notes=f"closed form {claims.period_expression(N)}",
                t=time.monotonic() - t0))
            data = ellper.lattice(N, ctx)
            ratio = data.Omega.val / mpmath.conj(
                ellper._embed(ellper._info(N).nu, ctx))
            out.append(_numeric(
                f"omega_over_nubar_real_E{N}", mpmath.im(ratio), mpmath.mpf(0),
                abs(mpmath.im(ratio)), tol,
                notes="Omega / conj(nu) must be real"))
    return out


def cmd_verify_torsion_labels(args) -> list:
    ctx = _ctx(args)
    out = []
    for N in _curves(args):
        t0 = time.monotonic()
        lw = law(N)
        pts = claims.points(N)
        tor = torsion_Ef(N)
        labels = {p: ellper.torsion_label(N, p, ctx) for p in tor}
        for name, expected in claims.torsion_label_claims(N).items():
            lab = labels[pts[name]]
            anchor = claims.anchor_label_point(N) == name
            out.append(_exact(
                f"label_{name}_E{N}", f"{lab.a}+{lab.b}*tau", str(expected),
                lab.equiv(expected),
                notes="orientation anchor" if anchor else ""))
        items = list(labels.items())
        bijective = all(not items[i][1].equiv(items[j][1])
                        for i in range(len(items))
                        for j in range(i + 1, len(items)))
        additive = all(
            labels[lw.add(p, q)].equiv(labels[p].as_cyclo()
                                       + labels[q].as_cyclo())
            for p in tor for q in tor)
        out.append(_exact(f"labels_bijective_E{N}", f"{len(tor)} labels",
                          "pairwise distinct mod nu", bijective))
        out.append(_exact(f"labels_additive_E{N}", "label(P+Q)",
                          "label(P)+label(Q) mod nu", additive,
                          t=time.monotonic() - t0))
        chi_ok = ellper.chi_f_check(ctx)
        out.append(_exact("chi_f_check", "chi_f(1-2i)", "1 (from a_5 = 2)",
                          chi_ok))
    return out


def _file_coeffs(c, n_max: int, path: str):
    """Coefficients read from --an-file; a file that cannot be read or is
    malformed is a usage error."""
    try:
        return hecke.build_coeffs(c, n_max, "file", an_file=path)
    except OSError as exc:
        raise UsageError(
            f"cannot read --an-file {path!r}: {exc.strerror}") from None
    except hecke.CoefficientFileError as exc:
        raise UsageError(f"bad --an-file: {exc}") from None


def cmd_coeffs(args) -> list:
    if args.n_max < 1:
        raise UsageError("--n-max must be >= 1")
    c = hecke.curve(args.curve or 36)
    if args.source == "file":
        if args.an_file is None:
            raise UsageError("--source file requires --an-file")
        tbl = _file_coeffs(c, args.n_max, args.an_file)
    else:
        tbl = hecke.build_coeffs(c, args.n_max, args.source)
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
        with ctx.workprec():
            val = hyp3f2.f32_unit(p, ctx)
            print(mpmath.nstr(val.val, ctx.digits))
    except hyp3f2.DivergenceError as exc:
        raise UsageError(f"bad --params: {exc}") from None
    return []


def _parse_place(text: str) -> ecdiv.CurvePoint:
    """``inf``, or ``(u,v)``: one enclosing pair of parentheses around two
    cyclo literals separated by the only top-level comma."""
    text = text.strip()
    if text == "inf":
        return ecdiv.CurvePoint.infinity()
    if not (text.startswith("(") and text.endswith(")")):
        raise UsageError(f"bad --place {text!r}: expected (u,v) or inf")
    inner = text[1:-1]
    depth = 0
    commas = []
    for pos, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                break
        elif ch == "," and depth == 0:
            commas.append(pos)
    if depth != 0 or len(commas) != 1:
        raise UsageError(f"bad --place {text!r}: expected (u,v) or inf")
    try:
        u = parse_cyclo(inner[:commas[0]])
        v = parse_cyclo(inner[commas[0] + 1:])
    except ValueError as exc:
        raise UsageError(f"bad --place {text!r}: {exc}") from None
    return ecdiv.CurvePoint(u, v)


def _function(field, option: str, text: str):
    """A nonzero function of the field, else a usage error."""
    try:
        h = ff_parse(field, text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad {option} {text!r}: {exc}") from None
    if h.is_zero():
        raise UsageError(f"bad {option} {text!r}: zero has no valuation")
    return h


def cmd_tame(args) -> list:
    field = E36FF if (args.curve or 36) == 36 else E64FF
    f = _function(field, "--f", args.f)
    g = _function(field, "--g", args.g)
    try:
        pl = Place(field, _parse_place(args.place))
    except FieldError as exc:
        raise UsageError(f"bad --place {args.place!r}: {exc}") from None
    val = tame_symbol(f, g, pl)
    print(f"ord(f) = {ord_at(f, pl)}, ord(g) = {ord_at(g, pl)}, "
          f"tame symbol = {val}")
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


def cmd_verify_all(args) -> list:
    out = []
    for _, checker, _ in CHECKS:
        out += checker(args)
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ellhyp",
        description="Verify the L-value identities and the exact proofs "
                    "machinery for the conductor-36 and conductor-64 curves.")
    ap.add_argument("--report", choices=("json", "text"), default="text")
    ap.add_argument("--deterministic", action="store_true",
                    help="omit timings so identical runs emit identical JSON")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, curve=True, digits=True, an_file=False):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--report", choices=("json", "text"), default="text")
        p.add_argument("--deterministic", action="store_true")
        if curve:
            p.add_argument("--curve", type=int, choices=(36, 64))
        if digits:
            p.add_argument("--digits", type=int, default=MIN_DIGITS)
        if an_file:
            p.add_argument("--an-file")
        return p

    for name, checker, options in CHECKS:
        add(name, checker, **options)
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
