import json
import subprocess
import sys

import pytest

from piregular import UniPolynomial, witnesses
from piregular.cli import dispatch

RTL_OK = ["right-to-left", "--ring", "zmod:4", "--dim", "2", "--n", "2",
          "--A", "[[2,0],[0,1]]", "--X", "[[1,0],[0,1]]"]


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "piregular", *args],
                          capture_output=True, text=True)


def test_right_to_left_example(capsys):
    assert dispatch(RTL_OK) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["Y"] == [[0, 0], [0, 1]]
    assert doc["N"] == 4
    assert doc["verified"] is True


def test_right_to_left_subprocess():
    proc = run_cli(RTL_OK)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["Y"] == [[0, 0], [0, 1]]
    assert "left witness verified" in proc.stderr


def test_json_on_stdout_is_byte_stable(capsys):
    assert dispatch(RTL_OK) == 0
    first = capsys.readouterr().out
    assert dispatch(RTL_OK) == 0
    assert capsys.readouterr().out == first


def test_exit_2_on_parse_errors(capsys):
    cases = [
        ["right-to-left", "--ring", "zmod:seven", "--dim", "2", "--n", "1",
         "--A", "[[1,0],[0,1]]", "--X", "[[1,0],[0,1]]"],
        ["right-to-left", "--ring", "zmod:4", "--dim", "2", "--n", "1",
         "--A", "[[1,0],[0,1]", "--X", "[[1,0],[0,1]]"],
        ["right-to-left", "--ring", "zmod:4", "--dim", "3", "--n", "1",
         "--A", "[[1,0],[0,1]]", "--X", "[[1,0],[0,1]]"],
        ["no-such-command"],
        [],
        ["cp-verify"],  # --k is required
    ]
    for argv in cases:
        assert dispatch(argv) == 2, argv
        capsys.readouterr()


def test_exit_1_on_mathematically_negative_inputs(capsys):
    argv = ["right-to-left", "--ring", "zmod:4", "--dim", "2", "--n", "1",
            "--A", "[[0,1],[0,0]]", "--X", "[[1,0],[0,1]]"]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert "not a right witness" in err


@pytest.mark.parametrize("argv", [
    ["cp-verify", "--k", "3", "--dim", "0"],
    ["cp-verify", "--k", "3", "--dim", "-1"],
    ["cp-verify", "--k", "3", "--n", "0"],
    ["cp-verify", "--k", "3", "--workers", "-2"],
    ["classify", "--ring", "zmod:2", "--dim", "0"],
    ["classify", "--ring", "zmod:2", "--dim", "2", "--n-bound", "0"],
    ["identity-check", "--ring", "int", "--dim", "2", "--degree", "4", "--samples", "-3"],
    ["identity-check", "--ring", "int", "--dim", "0", "--degree", "4"],
])
def test_exit_2_on_out_of_range_sizes(argv, capsys):
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be a positive integer" in captured.err


def test_internal_error_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(witnesses, "det_poly_matrix",
                        lambda f: UniPolynomial.from_coeffs(f.ring, [1]))
    assert dispatch(RTL_OK) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: identities failed:")
    assert "left_witness" in captured.err
    assert "Traceback" not in captured.err


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    capsys.readouterr()


def test_verify_cert_round_trip(tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert dispatch(RTL_OK + ["--out", str(path)]) == 0
    capsys.readouterr()
    assert dispatch(["verify-cert", "--path", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True

    # emitting to a file twice is byte-identical
    other = tmp_path / "cert2.json"
    assert dispatch(RTL_OK + ["--out", str(other)]) == 0
    capsys.readouterr()
    assert path.read_bytes() == other.read_bytes()


def test_verify_cert_detects_tampering(tmp_path, capsys):
    path = tmp_path / "cert.json"
    dispatch(RTL_OK + ["--out", str(path)])
    capsys.readouterr()
    doc = json.loads(path.read_text())
    doc["Y"] = [[1, 1], [1, 1]]
    path.write_text(json.dumps(doc))
    assert dispatch(["verify-cert", "--path", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verified"] is False

    path.write_text("{broken")
    assert dispatch(["verify-cert", "--path", str(path)]) == 2
    capsys.readouterr()
    assert dispatch(["verify-cert", "--path", str(path) + ".missing"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("field", ["n", "N"])
def test_verify_cert_rejects_non_positive_exponent(field, tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert dispatch(RTL_OK + ["--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc[field] = -1
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert dispatch(["verify-cert", "--path", str(path)]) == 2
    assert "positive integers" in capsys.readouterr().err


def test_drazin_command(capsys):
    argv = ["drazin", "--ring", "zmod:5", "--dim", "1", "--n", "1",
            "--A", "[[2]]", "--X", "[[3]]"]
    assert dispatch(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["w"] == [[3]]


def test_cp_verify_command(capsys):
    assert dispatch(["cp-verify", "--k", "2", "--dim", "2", "--n", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counterexamples"] == []
    assert doc["pipeline"]["failures"] == []
    assert doc["total"] == 16
    assert "content_hash" in doc
    assert "wall_time_ms" not in doc


def test_classify_command(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    argv = ["classify", "--ring", "zmod:2", "--dim", "2",
            "--records", str(records)]
    assert dispatch(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total"] == 16
    assert doc["disagree"] == 0
    lines = records.read_text().splitlines()
    assert len(lines) == 16
    assert all(json.loads(line)["agrees"] for line in lines)


def test_identity_check_command(capsys):
    base = ["identity-check", "--ring", "int", "--dim", "2",
            "--samples", "30", "--seed", "3"]
    assert dispatch(base + ["--degree", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_vanish"] is True
    assert dispatch(base + ["--degree", "3"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_vanish"] is False
    assert doc["witness"] is not None


def test_shepherdson_command(capsys):
    assert dispatch(["shepherdson"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True
    assert doc["ambiguities"] == []
    assert len(doc["checks"]) == 5


def test_nf_command(capsys):
    assert dispatch(["nf", "--expr", "a*x + b*z"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["is_zero"] is True
    assert dispatch(["nf", "--expr", "a*w", "--strategy", "rightmost"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["normal_form"] == "-b*y + 1"
    assert dispatch(["nf", "--expr", "a*("]) == 2
    capsys.readouterr()


def test_exit_code_matrix_subprocess():
    # one scripted sweep through all three exit codes via the real entrypoint
    table = [
        (["nf", "--expr", "w*a"], 0),
        (["identity-check", "--ring", "int", "--dim", "2", "--degree", "3",
          "--samples", "20", "--seed", "0"], 1),
        (["classify", "--ring", "int", "--dim", "2"], 2),
    ]
    for argv, expected in table:
        proc = run_cli(argv)
        assert proc.returncode == expected, (argv, proc.stderr)
        if expected != 2:
            json.loads(proc.stdout)
