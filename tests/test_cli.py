"""CLI harness: exit codes, report formats, determinism."""

import json

import pytest

from ellhyp.cli import main, reports_to_json, VerificationReport


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


def test_usage_error_bad_hyp_params(capsys):
    code, _, err = run(capsys, "hyp", "--params", "1/2,1/3")
    assert code == 2


def test_rosset_tate_text(capsys):
    code, out, _ = run(capsys, "rosset-tate")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert lines and all(l.startswith("[PASS]") for l in lines)


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


@pytest.mark.parametrize("argv", [
    ["coeffs", "--curve", "36", "--n-max", "5", "--source", "file"],
    ["verify-identity", "--curve", "36"],
])
def test_missing_an_file_is_usage_error(capsys, tmp_path, argv):
    missing = tmp_path / "no-such.csv"
    code, out, err = run(capsys, *argv, "--an-file", str(missing))
    assert code == 2 and out == ""
    assert "cannot read --an-file" in err and "no-such.csv" in err


@pytest.mark.parametrize("text", ["1,1\nx,y\n", "1,1\n3,0\n", "1,1\n2,0\n"],
                         ids=["not-integers", "gap-in-n", "too-few-rows"])
@pytest.mark.parametrize("argv", [
    ["coeffs", "--curve", "36", "--n-max", "5", "--source", "file"],
    ["verify-identity", "--curve", "36"],
])
def test_malformed_an_file_is_usage_error(capsys, tmp_path, argv, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    code, out, err = run(capsys, *argv, "--an-file", str(path))
    assert code == 2 and out == ""
    assert "bad --an-file" in err and "bad.csv" in err


def test_hyp_command(capsys):
    code, out, _ = run(capsys, "hyp", "--params", "1/2,1/3,-1/6,5/6,5/6")
    assert code == 0
    assert out.strip().startswith("0.9344328584844524")


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
    # accepted; the identity for E36 then fails
    code, out, _ = run(capsys, "coeffs", "--curve", "64", "--n-max", "200")
    assert code == 0
    path = tmp_path / "a64.csv"
    path.write_text(out)
    code, out, _ = run(capsys, "verify-identity", "--curve", "36",
                       "--an-file", str(path))
    assert code == 1
    assert out.startswith("[FAIL] identity_L36:")


def test_verify_torsion_labels_curve36(capsys):
    code, out, _ = run(capsys, "verify-torsion-labels", "--curve", "36")
    assert code == 0
    assert "label_P_E36" in out


def test_tame_place_with_nested_parentheses(capsys):
    # the claims.json point iS on E64: its v literal ends in its own ')'
    code, out, err = run(capsys, "tame", "--curve", "64", "--f", "1-v",
                         "--g", "1+u",
                         "--place", "(-2-2*sqrt2,i*(4+4*sqrt2))")
    assert code == 0, err
    assert out.startswith("ord(f) = 0, ord(g) = 0,")


@pytest.mark.parametrize("place", ["(0,1", "0,1", "((0,1))", "(0,1,2)",
                                   "(0,1)(2,3)", "(0,)"])
def test_tame_malformed_place_is_usage_error(capsys, place):
    code, _, err = run(capsys, "tame", "--curve", "36", "--f", "1-v",
                       "--g", "1+u", "--place", place)
    assert code == 2
    assert "--place" in err


@pytest.mark.parametrize("option", ["--f", "--g"])
@pytest.mark.parametrize("text", ["1+", "0", "1/(1-1)"],
                         ids=["malformed", "zero", "divides-by-zero"])
def test_tame_bad_function_is_usage_error(capsys, option, text):
    funcs = {"--f": "1-v", "--g": "1+u", option: text}
    code, out, err = run(capsys, "tame", "--curve", "36",
                         f"--f={funcs['--f']}", f"--g={funcs['--g']}",
                         "--place", "(0,1)")
    assert code == 2 and out == ""
    assert option in err


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
