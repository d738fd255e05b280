import csv
import io
import json

import pytest

from cfx import cli, oracle
from cfx.identities import VerificationReport
from cfx.kernel import PrecisionError


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_convergents_e_euler_table(capsys):
    status, out, _ = run_cli(
        capsys, "convergents", "--expansion", "e-euler", "--depth", "5"
    )
    assert status == 0
    for frac in ("3", "11/4", "49/18", "87/32", "1631/600", "11743/4320"):
        assert frac in out


def test_convergents_csv_round_trip(capsys):
    status, out, _ = run_cli(
        capsys,
        "convergents", "--expansion", "e-euler", "--depth", "3", "--format", "csv",
    )
    assert status == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["value"] for r in rows] == ["3", "11/4", "49/18", "87/32"]


def test_convergents_formats_identical_numeric_content(capsys):
    args = ["convergents", "--expansion", "exp-n", "--n", "2", "--depth", "4"]
    _, text_out, _ = run_cli(capsys, *args, "--format", "text")
    _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
    _, json_out, _ = run_cli(capsys, *args, "--format", "json")
    record = json.loads(json_out)
    assert record["schema"] == 1
    csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
    for json_row, csv_row in zip(record["rows"], csv_rows):
        assert csv_row["value"] == json_row["value"]
        assert json_row["value"] in text_out


def test_output_deterministic_modulo_runtime(capsys):
    args = [
        "eval", "--expansion", "exp-n", "--n", "3", "--digits", "25",
        "--format", "json",
    ]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1["diagnostics"].pop("runtime_seconds")
    r2["diagnostics"].pop("runtime_seconds")
    assert r1 == r2


def test_eval_reports_oracle_delta(capsys):
    status, out, _ = run_cli(
        capsys, "eval", "--expansion", "e-euler", "--digits", "30", "--format", "json"
    )
    assert status == 0
    record = json.loads(out)
    row = record["rows"][0]
    assert row["value"].startswith("2.71828182845904523536")
    assert row["oracle_delta"] is not None


def test_eval_complex_parameter_negative_literal(capsys):
    status, out, _ = run_cli(
        capsys,
        "eval", "--expansion", "inc-gamma", "--z", "-1+2i", "--digits", "20",
        "--format", "json",
    )
    assert status == 0
    assert json.loads(out)["parameters"]["z"] == "-1+2i"


def test_diff_table_n1(capsys):
    status, out, _ = run_cli(
        capsys, "diff-table", "--n", "1", "--depth", "4", "--format", "csv"
    )
    assert status == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["difference"] for r in rows] == ["-1/4", "-1/36", "-1/288", "-1/2400"]
    assert all(r["match"] == "True" for r in rows)


def test_verify_subset_exit_0(capsys):
    status, out, _ = run_cli(
        capsys, "verify", "--suite", "diff", "--max-n", "3", "--depth", "10"
    )
    assert status == 0
    record = json.loads(out)
    assert record["diagnostics"]["failed"] == 0
    assert len(record["rows"]) == 3
    # The difference-table discrepancy note rides along with the n = 1 report.
    assert any(r["note"] for r in record["rows"])


def test_verify_failure_exit_1(capsys, monkeypatch):
    failing = VerificationReport(
        claim_id="diff", params={}, expected="x", actual="y", passed=False
    )
    monkeypatch.setattr(cli.identities, "run_suite", lambda *a, **k: [failing])
    status, out, _ = run_cli(capsys, "verify", "--suite", "diff")
    assert status == 1
    assert json.loads(out)["diagnostics"]["failed"] == 1


def test_verify_unknown_suite_exit_2(capsys):
    status, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert status == 2
    assert "usage error" in err


def test_unknown_expansion_exit_2(capsys):
    status, _, err = run_cli(capsys, "eval", "--expansion", "nope")
    assert status == 2


def test_missing_required_param_exit_2(capsys):
    status, _, err = run_cli(capsys, "eval", "--expansion", "exp-n")
    assert status == 2
    assert "usage error" in err


def test_domain_error_exit_3(capsys):
    status, _, err = run_cli(capsys, "eval", "--expansion", "inc-gamma", "--z", "-3")
    assert status == 3
    assert "domain error" in err


def test_compare_e_family(capsys):
    status, out, _ = run_cli(
        capsys,
        "compare", "--value", "e",
        "--expansions", "e-euler,e-regular,e-over,e-sporadic",
        "--depth", "8", "--digits", "20", "--format", "json",
    )
    assert status == 0
    record = json.loads(out)
    diag = record["diagnostics"]
    assert diag["limits_agree"] is True
    assert len(diag["first_differing_index"]) == 6
    assert all(v is not None for v in diag["first_differing_index"].values())


def test_compare_single_expansion_trivial(capsys):
    status, out, _ = run_cli(
        capsys,
        "compare", "--value", "e", "--expansions", "e-euler",
        "--depth", "3", "--digits", "15", "--format", "json",
    )
    assert status == 0
    assert json.loads(out)["diagnostics"]["first_differing_index"] == {}


def test_compare_mixed_constants_exit_2(capsys):
    status, _, err = run_cli(
        capsys,
        "compare", "--value", "e", "--expansions", "e-euler,e-squared",
        "--depth", "3",
    )
    assert status == 2
    assert "different constants" in err


def test_depth_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CFX_MAX_DEPTH", "5")
    status, _, err = run_cli(
        capsys, "eval", "--expansion", "e-euler", "--digits", "30"
    )
    assert status == 1
    assert "depth cap" in err


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_depth_cap_env_invalid_exit_2(capsys, monkeypatch, value):
    monkeypatch.setenv("CFX_MAX_DEPTH", value)
    status, out, err = run_cli(
        capsys, "eval", "--expansion", "e-euler", "--digits", "30"
    )
    assert status == 2
    assert "usage error" in err and "CFX_MAX_DEPTH" in err
    assert out == ""


@pytest.mark.parametrize("digits", ["0", "-3"])
@pytest.mark.parametrize(
    "command",
    [
        ["eval", "--expansion", "e-euler"],
        ["convergents", "--expansion", "e-euler"],
        ["diff-table", "--n", "1"],
        ["verify", "--suite", "diff"],
        ["compare", "--value", "e", "--expansions", "e-euler"],
    ],
)
def test_nonpositive_digits_exit_2(capsys, command, digits):
    status, out, err = run_cli(capsys, *command, "--digits", digits)
    assert status == 2
    assert "--digits" in err
    assert out == ""


def test_convergents_complex_parameter_exact(capsys):
    status, out, _ = run_cli(
        capsys,
        "convergents", "--expansion", "inc-gamma", "--z", "1+1i", "--depth", "1",
        "--digits", "10", "--format", "json",
    )
    assert status == 0
    rows = json.loads(out)["rows"]
    # P_0 = 1 + z; P_1 = b_1 P_0 + a_1 with a_1 = -z^2 = -2i, b_1 = 2 + 2z.
    assert [r["p_raw"] for r in rows] == ["2+1i", "6+6i"]
    assert rows[1]["q_raw"] == "4+2i"
    assert rows[1]["value"] == "9/5+3/5i"


def test_no_command_exit_2(capsys):
    status, _, _ = run_cli(capsys)
    assert status == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--expansion", "e-euler", "--n", "7", "--z", "3"],
        ["convergents", "--expansion", "exp-n", "--n", "2", "--M", "3"],
        ["compare", "--value", "e", "--expansions", "e-euler,e-regular", "--n", "3"],
        # The unused flag is reported before z = -3 fails as a domain error.
        ["eval", "--expansion", "inc-gamma", "--z", "-3", "--n", "2"],
    ],
)
def test_flag_no_family_takes_exit_2(capsys, argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == 2
    assert "not taken by" in err
    assert out == ""


def test_compare_unknown_family_with_flag_exit_2(capsys):
    status, out, err = run_cli(
        capsys, "compare", "--value", "e", "--expansions", "e-euler,bogus", "--n", "3"
    )
    assert status == 2
    assert "unknown family 'bogus'" in err
    assert out == ""


def test_compare_flag_taken_by_one_family(capsys):
    status, _, _ = run_cli(
        capsys,
        "compare", "--value", "e", "--expansions", "e-euler,exp-n", "--n", "1",
        "--depth", "3", "--digits", "15",
    )
    assert status == 0


def test_compare_value_must_match_label_exit_2(capsys):
    status, out, err = run_cli(
        capsys, "compare", "--value", "pi", "--expansions", "e-euler,e-regular"
    )
    assert status == 2
    assert "--value pi" in err
    assert out == ""


def test_compare_value_e_squared_accepted(capsys):
    status, _, _ = run_cli(
        capsys,
        "compare", "--value", "e^2", "--expansions", "exp-n,e-squared", "--n", "2",
        "--depth", "3", "--digits", "15",
    )
    assert status == 0


def test_verify_digits_below_claim_floor_exit_2(capsys):
    status, out, err = run_cli(capsys, "verify", "--suite", "thm31", "--digits", "5")
    assert status == 2
    assert "thm31" in err and "--digits >= 11" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--suite", "diff", "--max-n", "-1"], "--max-n: must be a positive integer"),
        (["--suite", "all", "--max-n", "0"], "--max-n: must be a positive integer"),
        (["--suite", "lemma42", "--max-n", "1"], "lemma42 needs --max-n >= 2, not 1"),
        (["--suite", "recurrence4", "--depth", "1"], "requires k_max >= 2"),
        (["--suite", "rate", "--depth", "0", "--max-n", "2"], "requires n >= 1 and k_max >= 1"),
    ],
)
def test_verify_empty_grid_exit_2(capsys, argv, message):
    status, out, err = run_cli(capsys, "verify", *argv)
    assert status == 2
    assert message in err
    assert out == ""


def test_verify_exact_claim_any_digits(capsys):
    status, _, _ = run_cli(
        capsys, "verify", "--suite", "diff", "--digits", "5", "--max-n", "2", "--depth", "5"
    )
    assert status == 0


def test_precision_error_exit_1(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise PrecisionError("series failed to converge")

    monkeypatch.setattr(oracle, "exp_series", fail)
    status, out, err = run_cli(capsys, "eval", "--expansion", "e-euler", "--digits", "20")
    assert status == 1
    assert err.startswith("cfx: ") and "Traceback" not in err
    assert out == ""
