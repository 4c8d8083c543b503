import json

import pytest

from picard.cli import main


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


def test_search_rejects_bad_config(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    # a composite in S, no worker, a resume token outside [-3, 3]
    for extra in (["--set", "4"], ["--workers", "0"], ["--resume", "99"]):
        args = ["search", "--set", "3", "--height", "3", "--out", str(out)] + extra
        assert main(args) == 2, extra
    assert not out.exists()
    capsys.readouterr()


def test_analyze_rejects_degenerate_inputs(capsys):
    # leading coefficient zero: not a quartic
    assert main(["analyze", "--curve", "[0,1,2,3,4]"]) == 2
    # composite --prime
    assert main(["analyze", "--curve", "[1,0,0,0,-1]", "--prime", "4"]) == 2
    capsys.readouterr()


def test_bad_precision_setting_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("PICARD_MAX_PRECISION", "abc")
    code = main(["analyze", "--curve", "[1,0,14,72,-41]", "--prime", "5"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "PICARD_MAX_PRECISION" in err[0]


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
    monkeypatch.setenv("PICARD_MAX_PRECISION", "30")
    code = main(["analyze", "--curve", "[1,-476837158203125,-1,476837158203125,0]", "--prime", "5"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "PICARD_MAX_PRECISION" in err[0]
