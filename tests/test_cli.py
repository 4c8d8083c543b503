import json
import multiprocessing
import signal

import pytest

from picard import localfield as lf
from picard.cli import main
from picard.search import MAX_WORKERS


def test_analyze_single_prime_json(capsys):
    code = main(["analyze", "--curve", "[1,0,14,72,-41]", "--prime", "5", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    rep = data["reports"][0]
    assert rep["p"] == 5 and rep["f_p"] == 0 and rep["type"] == "b"
    assert rep["exceptional"] is True


def test_analyze_global_human(capsys):
    code = main(["analyze", "--curve", "[1,0,0,0,-1]"])
    assert code == 0
    out = capsys.readouterr().out
    assert "f_2 in [2, 28]" in out
    assert "f_3 in [4, 21]" in out


def test_analyze_with_witness_file(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({
        "p": 3, "m": 8, "curve": [1, 0, 0, 0, -1],
        "charts": [{"x_scale": 3, "x_center": [0], "y_scale": 0,
                    "y_poly": [[-1]], "y_codim": 4}],
    }))
    code = main(["analyze", "--curve", "[1,0,0,0,-1]", "--prime", "3",
                 "--witness", str(wfile), "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["reports"][0]["f_p"] == 6


def test_analyze_curve_whose_discriminant_has_a_large_square_factor(capsys):
    # (x^2 - 2*5^20)(x^2 + x + 37): Delta = 4 (2*5^20) (-147) R^2, R a 29-digit prime
    code = main(["analyze", "--curve", "[1,1,-190734863281213,-190734863281250,-7057189941406250]",
                 "--json"])
    assert code == 0
    reports = {r["p"]: r["f_p"] for r in json.loads(capsys.readouterr().out)["per_prime"]}
    assert reports[5] == reports[7] == reports[36379788070931053161621095119] == 2


def test_analyze_normalizes_input(capsys):
    code = main(["analyze", "--curve", "[3,1,0,0,-54]", "--prime", "3", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["curve"] == "[1,1,0,0,-1458]"


def test_analyze_inseparable_exit_1(capsys):
    # (x-1)^2(x^2+1) = x^4 - 2x^3 + 2x^2 - 2x + 1
    code = main(["analyze", "--curve", "[1,-2,2,-2,1]"])
    assert code == 1


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # missing --curve
    assert exc.value.code == 2
    code = main(["analyze", "--curve", "[1,2]"])
    assert code == 2


def test_search_cli_and_verify_examples(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    code = main(["search", "--set", "2,3", "--height", "2", "--out", str(out)])
    assert code == 0
    assert out.exists() and out.read_text().strip()
    code = main(["verify-examples"])
    assert code == 0
    text = capsys.readouterr().out
    assert "FAIL" not in text and "PASS" in text


def test_search_rejects_bad_config(tmp_path, capsys, monkeypatch):
    out = tmp_path / "r.jsonl"
    monkeypatch.setattr(multiprocessing, "Pool", None)  # starting a pool raises TypeError
    # a composite in S, no worker, too many workers, a resume token outside [-3, 3]
    bad = (["--set", "4"], ["--workers", "0"], ["--workers", str(MAX_WORKERS + 1)], ["--resume", "99"])
    for extra in bad:
        args = ["search", "--set", "3", "--height", "3", "--out", str(out)] + extra
        assert main(args) == 2, extra
    assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize("where, resume", [("missing/r.jsonl", None), ("", None), ("", "0")])
def test_search_unwritable_out_exit_1(tmp_path, capsys, where, resume):
    # a path in a missing directory, a directory, and a directory to resume
    # from: one error line and exit 1, no traceback
    args = ["search", "--set", "2,3", "--height", "1", "--out", str(tmp_path / where)]
    assert main(args + (["--resume", resume] if resume else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_analyze_rejects_degenerate_inputs(capsys):
    # leading coefficient zero: not a quartic
    assert main(["analyze", "--curve", "[0,1,2,3,4]"]) == 2
    # composite --prime
    assert main(["analyze", "--curve", "[1,0,0,0,-1]", "--prime", "4"]) == 2
    capsys.readouterr()


def test_analyze_unfactorable_discriminant_exit_1(capsys):
    # Delta(x^4 + a0) = 256 a0^3, and a0 = (2^61 - 1)(2^89 - 1) is beyond rho's budget
    a0 = (2**61 - 1) * (2**89 - 1)
    code = main(["analyze", "--curve", f"[1,0,0,0,{a0}]"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "digit cofactor" in err[0]


def test_analyze_huge_discriminant_exit_1(capsys):
    # a0 = 10^1000 + 1: primality tests on the 2997-digit cofactor of Delta
    # would take minutes, so the factorization budget ends the run at once
    code = main(["analyze", "--curve", f"[1,0,0,0,{10**1000 + 1}]"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "2997-digit cofactor" in err[0]


def test_analyze_precision_stall_exit_1(monkeypatch, capsys):
    # x (x - 5^21)(x^2 - 1): the roots 0 and 5^21 agree to 21 digits, which a
    # 30 pi-digit ceiling cannot certify apart
    monkeypatch.setattr(lf, "MAX_PI_DIGITS", 30)
    code = main(["analyze", "--curve", "[1,-476837158203125,-1,476837158203125,0]", "--prime", "5"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "precision ceiling of 30 pi-digits" in err[0]


_WITNESS_CHART = {"x_scale": 3, "x_center": [0], "y_scale": 0, "y_poly": [[-1]], "y_codim": 4}


@pytest.mark.parametrize(
    "witness",
    [
        [{"p": 3, "m": 8}],  # a list, not an object
        {"p": 3, "m": 8, "charts": 5},
        {"p": 3, "m": 8, "charts": [1]},
        {"p": 3, "m": 8, "charts": [dict(_WITNESS_CHART, x_center=5)]},
        {"p": 3, "m": None, "charts": [_WITNESS_CHART]},
        {"p": 3, "m": 1e999, "charts": [_WITNESS_CHART]},  # json.dumps writes Infinity
        {"p": 3, "m": -1, "charts": [_WITNESS_CHART]},  # the order of 3 mod -1 was searched forever
        {"p": 3, "m": 1000003, "charts": [_WITNESS_CHART]},  # 3 has order 333334: F_(3^333334)
        {"p": 3, "m": 8.9, "charts": [_WITNESS_CHART]},  # int() read it as m = 8
        {"p": 3, "m": 8, "charts": [dict(_WITNESS_CHART, y_poly=[[True]])]},  # int() read True as 1
    ],
)
def test_analyze_malformed_witness_exit_1(tmp_path, capsys, witness):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(witness))
    old = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(10)
    try:
        code = main(["analyze", "--curve", "[1,0,0,0,-1]", "--prime", "3", "--witness", str(wfile)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err and err.startswith("error: cannot read witness")


def _timeout(signum, frame):
    raise TimeoutError("analyze did not finish")


@pytest.mark.parametrize(
    "change, line",
    [
        ({"x_scale": -3}, "error: cannot read witness: "),
        ({"y_scale": -1}, "error: cannot read witness: "),
        ({"y_codim": -4}, "error: cannot read witness: "),
        ({"curve": [1, 0, 0, 0]}, "witness invalid: "),
        ({"curve": [1, 0, 0, 0, 0]}, "witness invalid: "),
        ({"y_poly": [[1]] + [[0, 0, 0, 0, 0, 0, 0, 0, 1]] * 16}, "error: cannot read witness: "),
        ({"x_center": [0] * 161}, "error: cannot read witness: "),
        ({"y_poly": [[1] + [0] * 160]}, "error: cannot read witness: "),
    ],
)
def test_analyze_witness_with_bad_scales_or_curve_exit_1(tmp_path, capsys, change, line):
    chart = {"x_scale": 3, "x_center": [0], "y_scale": 0, "y_poly": [[1]], "y_codim": 4}
    witness = {"p": 3, "m": 8, "curve": [1, 0, 0, 0, 1], "charts": [chart]}
    for key, value in change.items():
        (witness if key == "curve" else chart)[key] = value
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(witness))
    code = main(["analyze", "--curve", "[1,0,0,0,1]", "--prime", "3", "--witness", str(wfile)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(line) and err.count("\n") == 1 and "Traceback" not in err, err
