"""CLI harness: exit codes, report formats, determinism."""

import contextlib
import copy
import dataclasses
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ellhyp
from ellhyp import claims, cli, ellper, hecke, hyp3f2, mpnum
from ellhyp.cli import main, reports_to_json, VerificationReport
from ellhyp.cyclo import I
from ellhyp.ecdiv import GroupLaw, OffCurveError, law, torsion_Ef
from ellhyp.ksym import E64FF, Poly, ff_parse


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_usage_error_low_digits(capsys):
    code, _, err = run(capsys, "verify-identity", "--digits", "20")
    assert code == 2
    assert "digits" in err


def test_usage_error_unknown_command(capsys):
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("flags", [["--report", "json"], ["--deterministic"]])
def test_report_flags_before_the_subcommand_are_usage_errors(capsys, flags):
    # the flags belong to each subcommand; before it they would be shadowed
    # by the subcommand's defaults, so they are rejected instead
    code, out, err = run(capsys, *flags, "verify-bloch")
    assert code == 2
    assert out == "" and "error:" in err


def test_usage_error_bad_hyp_params(capsys):
    code, _, err = run(capsys, "hyp", "--params", "1/2,1/3")
    assert code == 2


def test_rosset_tate_text(capsys):
    code, out, _ = run(capsys, "rosset-tate")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert lines and all(l.startswith("[PASS]") for l in lines)


def test_rosset_tate_short_chain_fails_its_rows(capsys, monkeypatch):
    # a constant g1 stops the chain after two entries: no g2 to read
    g0, _, g2, symbols = claims.rosset_tate_input()
    g1 = Poly([ff_parse(E64FF, "v")])
    monkeypatch.setattr(claims, "rosset_tate_input",
                        lambda: (g0, g1, g2, symbols))
    code, out, err = run(capsys, "rosset-tate")
    assert code == 1 and err == ""
    assert "[FAIL] rosset_tate_degrees: [2, 0] vs [2, 1, 0]" in out
    assert "[FAIL] rosset_tate_g2:" in out


def test_verify_bloch_json_schema(capsys):
    code, out, _ = run(capsys, "verify-bloch", "--report", "json",
                       "--deterministic")
    assert code == 0
    data = json.loads(out)
    assert "reports" in data
    required = {"claim_id", "kind", "lhs", "rhs", "status"}
    for rep in data["reports"]:
        assert required <= set(rep)
        assert rep["status"] == "pass"
        assert rep["kind"] in ("exact", "numeric")
        assert rep["timing"] is None  # deterministic mode strips timings
        # snake_case keys only
        assert all(k == k.lower() for k in rep)
    # order fixed by claim_id
    ids = [r["claim_id"] for r in data["reports"]]
    assert ids == sorted(ids)


def test_deterministic_byte_identical(capsys):
    code1, out1, _ = run(capsys, "verify-bloch", "--report", "json",
                         "--deterministic")
    code2, out2, _ = run(capsys, "verify-bloch", "--report", "json",
                         "--deterministic")
    assert code1 == code2 == 0
    assert out1 == out2


def test_json_round_trip():
    rep = VerificationReport(claim_id="x", kind="numeric", lhs="1.0",
                             rhs="1.0", status="pass", abs_err="0.0",
                             digits_agreed=30, tolerance="1e-20",
                             notes="n", timing=0.5)
    text = reports_to_json([rep], deterministic=False)
    back = json.loads(text)["reports"][0]
    assert back["claim_id"] == "x" and back["timing"] == 0.5
    assert VerificationReport(**back) == rep


def test_coeffs_output(capsys):
    code, out, _ = run(capsys, "coeffs", "--curve", "64", "--n-max", "10")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["1", "1"]
    assert rows[4] == ["5", "2"]
    assert len(rows) == 10


def test_coeffs_file_source_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "coeffs", "--curve", "36", "--n-max", "50")
    assert code == 0
    path = tmp_path / "a36.csv"
    path.write_text(out)
    code2, out2, _ = run(capsys, "coeffs", "--curve", "36", "--n-max", "50",
                         "--source", "file", "--an-file", str(path))
    assert code2 == 0 and out2 == out


def test_coeffs_file_source_without_path_is_usage_error(capsys):
    code, out, err = run(capsys, "coeffs", "--curve", "36", "--n-max", "5",
                         "--source", "file")
    assert code == 2 and out == ""
    assert "--an-file" in err


@pytest.mark.parametrize("source", [[], ["--source", "cm"],
                                    ["--source", "pointcount"]],
                         ids=["default", "cm", "pointcount"])
def test_coeffs_an_file_without_file_source_is_usage_error(capsys, tmp_path,
                                                           source):
    # a coefficient file that would be ignored is refused, not dropped
    code, out, err = run(capsys, "coeffs", "--curve", "36", "--n-max", "3",
                         *source, "--an-file", str(tmp_path / "a.csv"))
    assert code == 2 and out == ""
    assert "--an-file" in err and "--source" in err


@pytest.mark.parametrize("argv", [
    ["coeffs", "--curve", "36", "--n-max", "5", "--source", "file"],
    ["verify-identity", "--curve", "36"],
])
def test_missing_an_file_is_usage_error(capsys, tmp_path, argv):
    missing = tmp_path / "no-such.csv"
    code, out, err = run(capsys, *argv, "--an-file", str(missing))
    assert code == 2 and out == ""
    assert "cannot read --an-file" in err and "no-such.csv" in err


@pytest.mark.parametrize("data", [b"1,1\nx,y\n", b"1,1\n3,0\n", b"1,1\n2,0\n",
                                  b"\xff\xfe1,1\n"],
                         ids=["not-integers", "gap-in-n", "too-few-rows",
                              "not-utf-8"])
@pytest.mark.parametrize("argv", [
    ["coeffs", "--curve", "36", "--n-max", "5", "--source", "file"],
    ["verify-identity", "--curve", "36"],
])
def test_malformed_an_file_is_usage_error(capsys, tmp_path, argv, data):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    code, out, err = run(capsys, *argv, "--an-file", str(path))
    assert code == 2 and out == ""
    assert "bad --an-file" in err and "bad.csv" in err


def test_hyp_command(capsys):
    code, out, _ = run(capsys, "hyp", "--params", "1/2,1/3,-1/6,5/6,5/6")
    assert code == 0
    assert out.strip().startswith("0.9344328584844524")


def test_one_parser_serves_subcommands_in_a_row(capsys):
    # the parser is built on the first main call, not at import; two
    # subcommands in a row through it print what two separate runs print
    argvs = [["coeffs", "--curve", "64", "--n-max", "30"],
             ["hyp", "--params", "1/2,1/3,-1/6,5/6,5/6", "--digits", "40"]]
    env = dict(os.environ, PYTHONPATH=str(
        Path(ellhyp.__file__).resolve().parent.parent))
    probe = "import ellhyp.cli as c; print(c.build_parser.cache_info())"
    imported = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=60).stdout
    assert "currsize=0" in imported
    separate = [subprocess.run([sys.executable, "-m", "ellhyp.cli", *argv],
                               env=env, capture_output=True, text=True,
                               check=True, timeout=60).stdout
                for argv in argvs]
    in_a_row = []
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        in_a_row.append(out)
    assert in_a_row == separate
    assert cli.build_parser() is cli.build_parser()


def test_tame_command(capsys):
    code, out, _ = run(capsys, "tame", "--curve", "36", "--f", "1-v",
                       "--g", "1+u", "--place", "(0,1)")
    assert code == 0
    assert "tame symbol = 1" in out


def test_coeffs_zero_n_max_is_usage_error(capsys):
    code, _, err = run(capsys, "coeffs", "--curve", "36", "--n-max", "0")
    assert code == 2
    assert "--n-max" in err


def test_failed_verification_exit_code(capsys, tmp_path):
    # E64's coefficients are well formed and multiplicative, so the file is
    # accepted (it holds the count E36's AFE reads at the default digits);
    # the identity for E36 then fails
    n_max = hecke.afe_n_max(hecke.curve(36),
                            mpnum.PrecisionContext(cli.MIN_DIGITS))
    code, out, _ = run(capsys, "coeffs", "--curve", "64", "--n-max",
                       str(n_max))
    assert code == 0
    path = tmp_path / "a64.csv"
    path.write_text(out)
    code, out, _ = run(capsys, "verify-identity", "--curve", "36",
                       "--an-file", str(path))
    assert code == 1
    assert out.startswith("[FAIL] identity_L36:")


def test_verify_identity_work_at_152_digits(monkeypatch, capsys):
    # the work the two kernels do, as counts that timing noise cannot hide:
    # the AFE cut at 1/4 leaves both curves 41 E1 calls (133 at the cut
    # 1), and the weighted Hurwitz zeta batches take 2240 Euler-Maclaurin
    # steps (5342 when every value ran to full relative precision)
    calls = {"e1_fixed": 0, "_em_ratio": 0}
    for name in calls:
        real = getattr(mpnum, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(mpnum, name, counted)
    code, _, _ = run(capsys, "verify-identity", "--digits", "152")
    assert code == 0
    assert calls["e1_fixed"] <= 45
    assert calls["_em_ratio"] <= 5342 // 2


@pytest.mark.parametrize("command", ["verify-identity", "verify-all"])
def test_an_file_without_curve_is_usage_error(capsys, tmp_path, command):
    # one file holds one curve's coefficients: without --curve it would be
    # checked against both curves, and E64 would fail on E36's table
    code, out, _ = run(capsys, "coeffs", "--curve", "36", "--n-max", "200")
    assert code == 0
    path = tmp_path / "a36.csv"
    path.write_text(out)
    code, out, err = run(capsys, command, "--an-file", str(path))
    assert code == 2 and out == ""
    assert "--an-file" in err and "--curve" in err


def _period_status(capsys):
    code, out, _ = run(capsys, "verify-periods", "--report", "json",
                       "--deterministic")
    reps = {r["claim_id"]: r for r in json.loads(out)["reports"]}
    return code, reps["real_period_E36"], reps["real_period_E64"]


def test_verify_periods_reads_claimed_exponents(capsys):
    code, e36, e64 = _period_status(capsys)
    assert code == 0 and e36["status"] == e64["status"] == "pass"
    assert e36["notes"] == ("omega1 = pi / AGM of the root gaps vs its "
                            "Chowla-Selberg form 1 * B(1/2, 1/3)")
    assert e64["notes"] == ("omega1 = pi / AGM of the root gaps vs its "
                            "Chowla-Selberg form 1/4 * B(1/4, 1/4)")


@pytest.mark.parametrize("N, key, value", [
    ("36", "beta", ["1/2", "2/3"]), ("36", "factor", "2"),
    ("64", "beta", ["1/4", "3/4"]), ("64", "factor", "1/2")],
    ids=["36-beta", "36-factor", "64-beta", "64-factor"])
def test_verify_periods_fails_on_a_changed_beta_form(capsys, monkeypatch, N,
                                                     key, value):
    data = copy.deepcopy(claims.raw())
    data["periods"][N][key] = value
    monkeypatch.setattr(claims, "raw", lambda: data)
    code, e36, e64 = _period_status(capsys)
    changed, kept = (e36, e64) if N == "36" else (e64, e36)
    assert code == 1
    assert changed["status"] == "fail" and kept["status"] == "pass"


# one change per curve to each part of claims.json's identity entry
IDENTITY_CHANGES = [
    ("36", ["terms", 1, 0], 1), ("36", ["terms", 0, 2], "1/6"),
    ("36", ["k"], 3), ("36", ["sqrt"], 1),
    ("64", ["terms", 0, 0], -1), ("64", ["terms", 1, 1], "1/4"),
    ("64", ["k"], 4), ("64", ["sqrt"], 2)]


@pytest.mark.parametrize("N, path, value", IDENTITY_CHANGES,
                         ids=["-".join(map(str, [N, *path]))
                              for N, path, _ in IDENTITY_CHANGES])
def test_verify_identity_fails_on_a_changed_identity(capsys, monkeypatch, N,
                                                     path, value):
    # rhs_main sums the identity claims.json states: a changed sign, F~
    # argument, k or sqrt fails that curve's row and no other
    data = copy.deepcopy(claims.raw())
    entry = data["identities"][N]
    *head, last = path
    for key in head:
        entry = entry[key]
    assert entry[last] != value
    entry[last] = value
    monkeypatch.setattr(claims, "raw", lambda: data)
    code, out, err = run(capsys, "verify-identity", "--report", "json",
                         "--deterministic")
    status = {r["claim_id"]: r["status"] for r in json.loads(out)["reports"]}
    assert code == 1 and err == ""
    assert status == {f"identity_L{N}": "fail",
                      f"identity_L{100 - int(N)}": "pass"}


@pytest.fixture
def fresh_lattice():
    ellper.lattice.cache_clear()
    mpnum._gamma_agm.cache_clear()
    yield
    ellper.lattice.cache_clear()
    mpnum._gamma_agm.cache_clear()


def _shifted_root(monkeypatch, N, k, shift):
    """law(N) with its k-th root (largest real first) moved by `shift`."""
    real = ellper.law
    curve = real(N).curve
    roots = list(curve.roots)
    roots[k] = roots[k] + shift
    moved = GroupLaw(dataclasses.replace(curve, roots=tuple(roots)))
    monkeypatch.setattr(ellper, "law",
                        lambda n: moved if n == N else real(n))


@pytest.mark.parametrize("digits", [30, 100, 200])
@pytest.mark.parametrize("N", [36, 64])
def test_verify_periods_fails_on_a_moved_root(capsys, monkeypatch,
                                              fresh_lattice, N, digits):
    # the AGM of the root gaps against the Beta value: a real root moved by
    # 10^-12 moves omega1 far outside the two balls
    _shifted_root(monkeypatch, N, 0, Fraction(1, 10 ** 12))
    code, out, err = run(capsys, "verify-periods", "--digits", str(digits))
    assert code == 1 and err == ""
    other = 100 - N
    assert f"[FAIL] real_period_E{N}" in out
    assert f"[PASS] real_period_E{other}" in out


def test_verify_periods_rejects_a_non_real_period(capsys, monkeypatch,
                                                  fresh_lattice):
    # a complex shift of e2 leaves omega1 off the real line
    _shifted_root(monkeypatch, 64, 1, Fraction(1, 10 ** 12) * I)
    code, out, err = run(capsys, "verify-periods", "--curve", "64")
    assert code == 1 and err == ""
    assert out == ("[FAIL] error_verify_periods: verify-periods raised vs no "
                   "exception  (PeriodError: real period came out non-real)\n")


def test_torsion_labels_fail_on_a_wrong_h(capsys, monkeypatch):
    # h = 1 + i multiplies every label by 1 + i, which is not invertible
    # mod nu = 4, so published labels move and labels collide
    monkeypatch.setitem(ellper._H_AND_ORIENTATION, 64, ((1, 1), +1))
    code, out, err = run(capsys, "verify-torsion-labels", "--curve", "64")
    assert code == 1 and err == ""
    for row in ("label_S_E64", "label_T_E64", "label_P0_E64",
                "labels_bijective_E64"):
        assert f"[FAIL] {row}" in out


def test_torsion_labels_guard_the_agm(capsys, monkeypatch, fresh_lattice):
    # the lattice's omega1 goes through the complex mpnum.agm and the Gamma
    # values of its Beta form through the integer real AGM, so a scaled
    # complex AGM kernel fails verify-periods; a wrong omega1 also moves
    # every label off O_K
    real_agm = mpnum.agm
    monkeypatch.setattr(mpnum, "agm", lambda a, b, ctx: tuple(
        x * mpmath.mpf("1.37") for x in real_agm(a, b, ctx)))
    code, _, _ = run(capsys, "verify-periods")
    assert code == 1
    code, out, err = run(capsys, "verify-torsion-labels")
    assert code == 1 and err == ""
    assert out.startswith("[FAIL] error_verify_torsion_labels: "
                          "verify-torsion-labels raised vs no exception  "
                          "(LabelError: ")
    assert out.count("\n") == 1


# (check, namespace cli reads the layer through, layer name)
FAULTS = [("verify-periods", ellper, "lattice"),
          ("verify-torsion-labels", ellper, "torsion_label"),
          ("verify-identity", hecke, "lstar_zero"),
          ("verify-identity", hyp3f2, "rhs_main"),
          ("verify-divisors", cli, "verify_divisor"),
          ("verify-bloch", cli, "beta_map"),
          ("rosset-tate", cli, "rosset_tate")]


@pytest.mark.parametrize("check, owner, name", FAULTS,
                         ids=[name for _, _, name in FAULTS])
def test_a_raising_layer_leaves_one_error_row(capsys, monkeypatch, check,
                                              owner, name):
    # a fault inside one check becomes that check's one FAIL row; the rows
    # of every other check are those of a clean run, byte for byte
    argv = ("--report", "json", "--deterministic")
    code, out, _ = run(capsys, "verify-all", *argv)
    assert code == 0
    clean = [json.dumps(r) for r in json.loads(out)["reports"]]
    _, out, _ = run(capsys, check, *argv)
    own = {json.dumps(r) for r in json.loads(out)["reports"]}
    assert own and own <= set(clean)
    real = getattr(owner, name)

    def fault(*args, **kwargs):
        # only cli's own call raises: torsion_label reads ellper.lattice too
        if sys._getframe(1).f_globals["__name__"] == "ellhyp.cli":
            raise RuntimeError(f"injected into {name}")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, fault)
    code, out, err = run(capsys, "verify-all", *argv)
    assert code == 1 and err == ""
    rows = json.loads(out)["reports"]
    errors = [r for r in rows if r["claim_id"].startswith("error_")]
    assert errors == [{
        "abs_err": None, "claim_id": "error_" + check.replace("-", "_"),
        "digits_agreed": None, "kind": "exact", "lhs": f"{check} raised",
        "notes": f"RuntimeError: injected into {name}", "rhs": "no exception",
        "status": "fail", "timing": None, "tolerance": None}]
    assert [json.dumps(r) for r in rows if r not in errors] == \
        [r for r in clean if r not in own]


def test_verify_torsion_labels_curve36(capsys):
    code, out, _ = run(capsys, "verify-torsion-labels", "--curve", "36")
    assert code == 0
    assert "label_P_E36" in out


def test_verify_torsion_labels_work_at_a_second_precision(monkeypatch,
                                                        capsys):
    # the exact side of the check is built once per process: at a second
    # precision the additivity sums come from the closure's table, and the
    # point literals from claims' cache, so neither is computed again
    assert run(capsys, "verify-torsion-labels", "--digits", "30")[0] == 0
    calls = []
    real = GroupLaw.add
    monkeypatch.setattr(GroupLaw, "add", lambda self, p, q: calls.append(
        (p, q)) or real(self, p, q))
    misses = claims._point.cache_info().misses
    assert run(capsys, "verify-torsion-labels", "--digits", "45")[0] == 0
    assert calls == []
    assert claims._point.cache_info().misses == misses


def test_point_cache_still_checks_a_changed_literal(capsys, monkeypatch):
    # the point cache is keyed on the coordinate text, so after a clean run
    # a changed literal is parsed and checked against the curve
    assert run(capsys, "verify-torsion-labels")[0] == 0
    data = copy.deepcopy(claims.raw())
    data["points"]["36"]["P"] = ["0", "2"]
    monkeypatch.setattr(claims, "raw", lambda: data)
    with pytest.raises(OffCurveError):
        claims.points(36)


@pytest.mark.parametrize("N", [36, 64])
def test_swapped_labels_fail_additivity(capsys, monkeypatch, N):
    # a labelling that stays a bijection but is no homomorphism: the labels
    # of two non-identity points trade places
    p, q = [x for x in torsion_Ef(N) if x != law(N).base][:2]
    real = ellper.torsion_label
    monkeypatch.setattr(ellper, "torsion_label", lambda n, pt, ctx: real(
        n, {p: q, q: p}.get(pt, pt), ctx))
    code, out, _ = run(capsys, "verify-torsion-labels", "--curve", str(N),
                       "--report", "json", "--deterministic")
    status = {r["claim_id"]: r["status"] for r in json.loads(out)["reports"]}
    assert code == 1
    assert status[f"labels_additive_E{N}"] == "fail"
    assert status[f"labels_bijective_E{N}"] == "pass"


@pytest.mark.parametrize("command", ["rosset-tate", "verify-divisors",
                                     "verify-torsion-labels --digits 30"])
def test_output_independent_of_hash_seed(command):
    # sets and dicts of CycloNum-keyed points, and the caches keyed on them,
    # must not leak their hash order into a report
    src = str(Path(ellhyp.__file__).resolve().parent.parent)
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.append(subprocess.run(
            [sys.executable, "-m", "ellhyp.cli", *command.split(), "--report",
             "json", "--deterministic"], env=env, capture_output=True, check=True,
            timeout=300).stdout)
    assert outs[0] == outs[1]


def test_tame_place_with_nested_parentheses(capsys):
    # the claims.json point iS on E64: its v literal ends in its own ')'
    code, out, err = run(capsys, "tame", "--curve", "64", "--f", "1-v",
                         "--g", "1+u",
                         "--place", "(-2-2*sqrt2,i*(4+4*sqrt2))")
    assert code == 0, err
    assert out.startswith("ord(f) = 0, ord(g) = 0,")


@pytest.mark.parametrize("place", ["(0,1", "0,1", "((0,1))", "(0,1,2)",
                                   "(0,1)(2,3)", "(0,)", "(0,1,)", "(0),(1)",
                                   "(1)*2,3*(4)", "(1/0,1)", "(1/(1-1),1)"])
def test_tame_malformed_place_is_usage_error(capsys, place):
    code, _, err = run(capsys, "tame", "--curve", "36", "--f", "1-v",
                       "--g", "1+u", "--place", place)
    assert code == 2
    assert "--place" in err
    if "/" in place:
        assert "divides by zero" in err


@pytest.mark.parametrize("option", ["--f", "--g"])
@pytest.mark.parametrize("text, reason",
                         [("1+", "bad e36 literal"),
                          ("0", "zero has no valuation"),
                          ("1/(1-1)", "divides by zero"),
                          ("3/0", "divides by zero")],
                         ids=["malformed", "zero", "divides-by-zero",
                              "zero-denominator"])
def test_tame_bad_function_is_usage_error(capsys, option, text, reason):
    funcs = {"--f": "1-v", "--g": "1+u", option: text}
    code, out, err = run(capsys, "tame", "--curve", "36",
                         f"--f={funcs['--f']}", f"--g={funcs['--g']}",
                         "--place", "(0,1)")
    assert code == 2 and out == ""
    assert err.startswith("usage error:")
    assert option in err and reason in err


def _nested(text):
    return "(" * 2000 + text + ")" * 2000


@pytest.mark.parametrize("argv", [
    ["--f", _nested("1+u"), "--g", "1+u", "--place", "(0,1)"],
    ["--f=" + "-" * 3000 + "u", "--g", "1+u", "--place", "(0,1)"],
    ["--f", "1-v", "--g", "1+u", "--place", f"(0,{_nested('1')})"]],
    ids=["f-parentheses", "f-signs", "place-parentheses"])
def test_tame_deep_literal_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "tame", "--curve", "36", *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error:")


def test_tame_syntax_warning_stays_off_stderr():
    # "1z" makes Python's parser warn before it fails: one line, no warning
    src = str(Path(ellhyp.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "ellhyp.cli", "tame", "--f", "1z", "--g", "u",
         "--place", "(0,1)"], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("usage error:")
    assert "Warning" not in proc.stderr


def test_tame_off_curve_place_is_usage_error(capsys):
    code, _, err = run(capsys, "tame", "--curve", "36", "--f", "1-v",
                       "--g", "1+u", "--place", "(1,1)")
    assert code == 2
    assert "not on the curve" in err


@pytest.mark.parametrize("params", ["1,1,1,1/2,1/2", "1/2,1/3,1/5,0,2"],
                         ids=["margin-2", "lower-0"])
def test_hyp_divergent_params_is_usage_error(capsys, params):
    code, out, err = run(capsys, "hyp", "--params", params)
    assert code == 2
    assert out == "" and "--params" in err


def test_hyp_unreachable_precision_is_usage_error(capsys):
    # valid parameters whose tail expansion does not reach the target even
    # after the head doubles: a limit of the method, not a failed
    # verification
    code, out, err = run(capsys, "hyp", "--params", "50,50,50,75,76")
    assert code == 2
    assert out == ""
    assert "--params" in err and "M = 5376 head terms" in err
    assert "K = 42 coefficients" in err


def test_hyp_margin_past_the_float_range_is_usage_error(capsys):
    # a margin of 10^400 would overflow a float; its head is refused first
    code, out, err = run(capsys, "hyp", "--params", "1/2,1/2,1/2,1e400,2")
    assert code == 2 and out == ""
    assert "convergence margin 1.0e+400" in err


def test_verify_identity_reports_agreement_of_equal_sides(capsys):
    # at 43 digits the two E64 sides round to the same value; the report
    # then gives the working precision as the agreement, not null
    code, out, _ = run(capsys, "verify-identity", "--digits", "43",
                       "--report", "json", "--deterministic")
    assert code == 0
    for r in json.loads(out)["reports"]:
        assert isinstance(r["digits_agreed"], int) and r["digits_agreed"] > 43


@pytest.mark.parametrize("argv", [["verify-all", "--digits", "30"],
                                  ["verify-periods", "--digits", "100"]])
def test_every_numeric_row_reports_an_integer_agreement(capsys, argv):
    # rows whose sides match exactly (the E64 period at 30 and 100 digits)
    # report the working precision, not null; the two identities and the
    # two real periods are the numeric rows
    code, out, _ = run(capsys, *argv, "--report", "json", "--deterministic")
    assert code == 0
    numeric = [r for r in json.loads(out)["reports"] if r["kind"] == "numeric"]
    assert len(numeric) >= {"verify-all": 4, "verify-periods": 2}[argv[0]]
    for r in numeric:
        assert isinstance(r["digits_agreed"], int), r["claim_id"]
        assert r["digits_agreed"] >= int(argv[-1]), r["claim_id"]


def test_verify_identity_100_digits(capsys):
    code, out, _ = run(capsys, "verify-identity", "--digits", "100",
                       "--report", "json", "--deterministic")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["claim_id"] for r in reports] == ["identity_L36", "identity_L64"]
    for r in reports:
        assert r["status"] == "pass"
        assert float(r["abs_err"]) <= 1e-90


def test_verify_identity_150_digits(capsys):
    # at 150 digits the tail's Hurwitz zeta values fall far below 10^-150,
    # where a stop relative to 1 rather than to the value loses them
    code, out, _ = run(capsys, "verify-identity", "--digits", "150",
                       "--report", "json", "--deterministic")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["claim_id"] for r in reports] == ["identity_L36", "identity_L64"]
    for r in reports:
        assert r["status"] == "pass"
        # the tolerance is err(L) + err(R), and both meet the target
        assert float(r["abs_err"]) <= float(r["tolerance"]) <= 1e-150


# Bounded option values: a valid literal can cost without limit (a
# two-digit exponent on both sides of a quotient already costs seconds),
# so literals use exponents up to 20 and short free text.
_ATOMS = st.sampled_from(["u", "v", "i", "z", "sqrt2", "1", "2", "3"])
_LITERALS = st.one_of(
    st.recursive(
        st.one_of(_ATOMS, st.builds("{}^{}".format, _ATOMS,
                                    st.integers(-3, 20))),
        lambda inner: st.builds("({}{}{})".format, inner,
                                st.sampled_from("+-*/"), inner),
        max_leaves=4),
    st.text(alphabet="uv120+-*/^(),i ", max_size=4))
_PLACES = st.sampled_from(["inf", "(0,1)", "(0,-1)", "(-1,0)", "(2,-3)",
                           "(0,0)", "(2,0)", "(2*i,4*z^9)", "(1,1)", "(0,1",
                           "(0,1,2)", "((0,1))", "x"])
_RATIONALS = st.builds("{}/{}".format, st.integers(-6, 6), st.integers(1, 6))
_COMMON = st.tuples(st.sampled_from([[], ["--curve", "36"], ["--curve", "64"]]),
                    st.sampled_from([[], ["--report", "json"],
                                     ["--report", "text"]]),
                    st.sampled_from([[], ["--deterministic"]]))


@st.composite
def _argvs(draw):
    curve, report, det = draw(_COMMON)
    digits = ["--digits", str(draw(st.integers(30, 40)))]
    name = draw(st.sampled_from(
        [name for name, _, _ in cli.CHECKS] + ["verify-all", "coeffs", "hyp",
                                              "tame"]))
    options = dict(next((o for n, _, o in cli.CHECKS if n == name), {}))
    argv = [name] + report + det
    if name == "coeffs":
        return argv + curve + [
            "--n-max", str(draw(st.integers(-1, 200))),
            "--source", draw(st.sampled_from(["cm", "pointcount", "file"]))]
    if name == "hyp":
        count = draw(st.sampled_from([5, 5, 5, 4, 6]))
        params = ",".join(draw(st.lists(_RATIONALS, min_size=count,
                                        max_size=count)))
        return argv + digits + ["--params=" + params]
    if name == "tame":
        return argv + curve + ["--f=" + draw(_LITERALS),
                               "--g=" + draw(_LITERALS),
                               "--place=" + draw(_PLACES)]
    return (argv + (curve if options.get("curve", True) else [])
            + (digits if options.get("digits", True) else []))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argvs())
def test_main_exits_only_0_1_2_and_1_only_with_a_fail_row(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        failed = ("[FAIL]" in out.getvalue() if "json" not in argv
                  else any(r["status"] == "fail"
                           for r in json.loads(out.getvalue())["reports"]))
        assert failed, (argv, err.getvalue())
