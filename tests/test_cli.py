import contextlib
import io
import json
import random
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piregular import (cli, emit_certificate, errors, integer_instance, lab, parse_ring_spec,
                       poly_ring, right_to_left_certificate, sampled_finite_instance, witnesses)
from piregular.cli import dispatch
from piregular.identities import MAX_DEGREE
from piregular.jsonio import hash_lines

from helpers import naive_certificate_identities
from test_acceptance import GOLDEN

RTL_OK = ["right-to-left", "--ring", "zmod:4", "--dim", "2", "--n", "2",
          "--A", "[[2,0],[0,1]]", "--X", "[[1,0],[0,1]]"]
LONG = "1" + "0" * 5000  # 5001 digits: over CPython's default limit of 4300 for int <-> str
SEVENS = "7" * 3000


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


def test_exit_2_on_parse_errors(tmp_path, capsys):
    # json.dumps refuses the long integer, so the certificate is spelled out
    long_cert = tmp_path / "long.json"
    long_cert.write_text(
        '{"ring":"int","dim":1,"n":1,"N":1,"A":[[' + LONG + ']],"X":[[1]],"p_coeffs":[-1,1],'
        '"C":[[1]],"w":[[1]],"Y":[[1]],"verified":true,"identities":[]}')
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
        # str.isdigit accepts a superscript digit that int() refuses
        ["nf", "--expr", "a²"],
        ["right-to-left", "--ring", "zmod:4", "--dim", "1", "--n", "1",
         "--A", "[[²]]", "--X", "[[1]]"],
        ["identity-check", "--ring", "zmod:²", "--dim", "2", "--degree", "4"],
        ["classify", "--ring", "quot:zmod:2:t²", "--dim", "1"],
        # integers too long for int(): a ParseError, or a MalformedPayload in JSON
        ["nf", "--expr", LONG],
        ["nf", "--expr", "a^" + LONG],
        ["right-to-left", "--ring", "int", "--dim", "1", "--n", "1",
         "--A", f"[[{LONG}]]", "--X", "[[0]]"],
        ["classify", "--ring", "zmod:" + LONG, "--dim", "1"],
        ["identity-check", "--ring", "zmod:" + LONG, "--dim", "2", "--degree", "4"],
        ["verify-cert", "--path", str(long_cert)],
        # powers whose size passes the budget: 4^15 words, degree 10^8, 10^8 * 2 bits
        ["nf", "--expr", "(a+b+c+d)^15"],
        ["right-to-left", "--ring", "poly:int:t", "--dim", "1", "--n", "1",
         "--A", "[[t^99999999]]", "--X", "[[0]]"],
        ["right-to-left", "--ring", "int", "--dim", "1", "--n", "1",
         "--A", "[[3^99999999]]", "--X", "[[0]]"],
        # powers within the size budget whose products pass the work budget
        ["right-to-left", "--ring", "poly:poly:int:t:u", "--dim", "1", "--n", "1",
         "--A", "[[(1+t)^3000]]", "--X", "[[0]]"],
        ["nf", "--expr", "(a+b+c+d)^10"],
        # a product of powers that each fit the work budget is charged to the same account
        ["nf", "--expr", "(a+b+c+d)^5 (a+b+c+d)^5"],
    ]
    for argv in cases:
        start = time.perf_counter()
        assert dispatch(argv) == 2, argv
        assert time.perf_counter() - start < 1, argv
        assert capsys.readouterr().out == "", argv


@pytest.mark.parametrize("argv", [
    # A is idempotent, so the instance holds; q = det(I - xX) has a
    # coefficient of about 6000 digits
    ["right-to-left", "--ring", "int", "--dim", "3", "--n", "1",
     "--A", "[[1,0,0],[0,0,0],[0,0,0]]", "--X", f"[[1,0,0],[0,{SEVENS},0],[0,0,{SEVENS}]]"],
    ["nf", "--expr", f"({'9' * 3000} a)^2"],
], ids=["right-to-left", "nf"])
def test_exit_2_when_a_result_has_too_many_digits_to_print(argv, capsys):
    assert dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{sys.get_int_max_str_digits()} digits" in err
    assert "Traceback" not in err


def test_cp_verify_ignores_a_workers_environment_variable(monkeypatch, capsys):
    monkeypatch.setenv("PIREGULAR_WORKERS", "abc")
    assert dispatch(["cp-verify", "--k", "2"]) == 0
    assert "1 worker(s)" in capsys.readouterr().err


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
    RTL_OK[:5] + ["--n", "0"] + RTL_OK[7:],
    ["drazin", "--ring", "zmod:5", "--dim", "1", "--n", "0", "--A", "[[2]]", "--X", "[[3]]"],
])
def test_exit_2_on_out_of_range_sizes(argv, capsys):
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be a positive integer" in captured.err


@pytest.mark.parametrize("argv", [
    ["classify", "--ring", "zmod:2000", "--dim", "1"],
    ["cp-verify", "--k", "5000", "--dim", "1"],
])
def test_exit_2_on_oversized_scans(argv, capsys):
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:")
    assert "exceed budget" in captured.err


NEGATIVE = {"PreconditionFailed", "UnverifiedCertificate"}
INTERNAL = {"InternalViolation"}
ERROR_CLASSES = sorted((cls for cls in vars(errors).values()
                        if isinstance(cls, type) and issubclass(cls, errors.PiregularError)),
                       key=lambda cls: cls.__name__)


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_class_exits_with_its_documented_code(error, monkeypatch, capsys):
    def handler(args):
        raise error("raised on purpose")
    monkeypatch.setattr(cli, "_cmd_nf", handler)
    expected = 1 if error.__name__ in NEGATIVE else 3 if error.__name__ in INTERNAL else 2
    assert dispatch(["nf", "--expr", "a"]) == expected
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("raised on purpose\n")
    assert "Traceback" not in captured.err


def test_internal_error_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(witnesses, "char_poly_rows",
                        lambda ring, rows: poly_ring(ring).gen() ** len(rows))
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


def test_verify_cert_refuses_a_huge_wrong_exponent_without_powering(tmp_path, capsys):
    # N != n*dim is read before any power: A^4000000 over the integers
    # would take seconds and megabytes, and no identity that needs it holds.
    path = tmp_path / "cert.json"
    path.write_text(
        '{"ring":"int","dim":2,"n":1,"N":4000000,"A":[[2,1],[1,1]],"X":[[2,1],[1,1]],'
        '"p_coeffs":[1],"C":[[1,0],[0,1]],"w":[[1,0],[0,1]],"Y":[[1,0],[0,1]],'
        '"verified":true,"identities":[]}')
    start = time.perf_counter()
    assert dispatch(["verify-cert", "--path", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    holds = {item["name"]: item["holds"]
             for item in json.loads(capsys.readouterr().out)["identities"]}
    assert holds == {"right_witness": False, "exponent_is_n_times_dim": False,
                     "char_poly_factor_shape": False, "raised_right_witness": False,
                     "commuting_witness": True, "raised_left_witness": False,
                     "left_witness": False}


def test_verify_cert_refuses_a_consistent_exponent_over_the_budget(tmp_path, capsys):
    # N = n*dim passes the cheap exponent check, so verifying would power A
    # to 20000000; the loader refuses n * dim over the budget as an
    # instance does, before it builds any matrix.
    path = tmp_path / "cert.json"
    path.write_text(
        '{"ring":"int","dim":2,"n":10000000,"N":20000000,"A":[[2,1],[1,1]],'
        '"X":[[2,1],[1,1]],"p_coeffs":[1],"C":[[1,0],[0,1]],"w":[[1,0],[0,1]],'
        '"Y":[[1,0],[0,1]],"verified":true,"identities":[]}')
    start = time.perf_counter()
    assert dispatch(["verify-cert", "--path", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds budget" in captured.err


def test_right_to_left_refuses_an_exponent_over_the_budget(capsys):
    # n * dim = 8000000 > 2^20: the certificate's p would hold that many
    # coefficients, so the instance refuses before computing any power.
    argv = ["right-to-left", "--ring", "zmod:4", "--dim", "2", "--n", "4000000",
            "--A", "[[2,0],[0,1]]", "--X", "[[1,0],[0,1]]"]
    start = time.perf_counter()
    assert dispatch(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:")
    assert "exceeds budget" in captured.err


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


@pytest.mark.parametrize("field, value",
                         [("identities", 5), ("identities", [5]), ("p_coeffs", 7)])
def test_verify_cert_rejects_wrongly_shaped_lists(field, value, tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert dispatch(RTL_OK + ["--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert dispatch(["verify-cert", "--path", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "p_coeffs must be a list" in captured.err
    assert "Traceback" not in captured.err


CERT_RINGS = ["zmod:12", "quot:zmod:3:t^2", "int"]
WRONG_TYPES = [None, 1.5, {}, "x"]  # wrong for every field and every entry
SEEDS = st.integers(0, 99)


@st.composite
def mutated_certificate(draw):
    """A valid certificate document from ``generators`` with one mutation:
    an entry of a matrix or of p_coeffs, n or N moved by one, a stored flag
    flipped, or a field of the wrong type; and whether the document is now
    malformed (a wrong type, or an exponent below 1)."""
    token, dim, seed = draw(st.sampled_from(CERT_RINGS)), draw(st.integers(1, 2)), draw(SEEDS)
    spec = parse_ring_spec(token)
    if token == "int":
        nil_dim = draw(st.integers(0, dim))
        inst = integer_instance(nil_dim, dim - nil_dim, seed)
    else:
        inst = sampled_finite_instance(spec, dim, seed)
    doc = json.loads(emit_certificate(right_to_left_certificate(inst)))
    kind = draw(st.sampled_from(["A", "X", "C", "w", "Y", "p_coeffs", "n", "N",
                                 "verified", "holds", "type"]))
    if kind in ("n", "N"):
        doc[kind] += draw(st.sampled_from([-1, 1]))
        return doc, doc[kind] < 1
    if kind == "verified":
        doc["verified"] = not doc["verified"]
    elif kind == "holds":
        item = draw(st.sampled_from(doc["identities"]))
        item["holds"] = not item["holds"]
    elif kind == "type":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(st.sampled_from(WRONG_TYPES))
        return doc, True
    else:
        rng, wrong = random.Random(draw(SEEDS)), draw(st.integers(0, 3)) == 0  # one in four
        row = doc[kind] if kind == "p_coeffs" else doc[kind][draw(st.integers(0, dim - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(WRONG_TYPES)) if wrong \
            else spec.payload_to_json(spec.sample_payload(rng, 3))
        return doc, wrong
    return doc, False


@settings(max_examples=60, deadline=None)
@given(mutated_certificate())
def test_verify_cert_gives_no_false_verdict_on_a_mutated_certificate(case):
    # exit 0 exactly when a naive oracle confirms all seven identities, exit 1
    # naming what fails, else exit 2; never a traceback
    doc, malformed = case
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(["verify-cert", "--path", "-"])
    assert "Traceback" not in err.getvalue()
    if malformed:
        assert (code, out.getvalue()) == (2, ""), err.getvalue()
        return
    failing = {name for name, holds in naive_certificate_identities(doc).items() if not holds}
    assert code == (1 if failing else 0), err.getvalue()
    if code == 1:
        named = set(err.getvalue().split("certificate FAILED: ", 1)[1].strip().split(", "))
        if doc["N"] == doc["n"] * doc["dim"]:
            assert named == failing
        else:  # the verifier computes no power, so it fails every identity needing one
            assert "exponent_is_n_times_dim" in failing & named


RTL_1X1 = ["right-to-left", "--ring", "zmod:4", "--dim", "1", "--n", "1",
           "--A", "[[3]]", "--X", "[[3]]"]


@pytest.mark.parametrize("argv, field, value, message", [
    (RTL_1X1, "dim", True, "dim must be a positive integer, got True"),
    (RTL_1X1, "dim", 1.0, "dim must be a positive integer, got 1.0"),
    (RTL_OK, "verified", "no", "verified and every holds must be true or false"),
    (RTL_OK, "holds", "no", "verified and every holds must be true or false"),
], ids=["dim-true", "dim-float", "verified-string", "holds-string"])
def test_verify_cert_rejects_wrongly_typed_dim_and_flags(argv, field, value, message,
                                                        tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert dispatch(argv + ["--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    if field == "holds":
        doc["identities"][-1]["holds"] = value
    else:
        doc[field] = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert dispatch(["verify-cert", "--path", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


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


def test_classify_records_hash_matches_the_golden_and_the_file(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    assert dispatch(["classify", "--ring", "zmod:4", "--dim", "2",
                     "--records", str(records)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["records_hash"] == GOLDEN["classify_z4_records"]
    assert doc["records_hash"] == hash_lines(records.read_text().splitlines())


def test_classify_past_the_budget_writes_no_records_file(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    assert dispatch(["classify", "--ring", "zmod:2000", "--dim", "1",
                     "--records", str(records)]) == 2
    assert not records.exists()


def test_a_failing_classify_keeps_the_records_written_so_far(tmp_path, monkeypatch, capsys):
    records = tmp_path / "records.jsonl"
    plain, calls = lab._classify, []

    def failing(*args):
        calls.append(1)
        if len(calls) > 5:
            raise errors.InternalViolation("sixth record")
        return plain(*args)

    monkeypatch.setattr(lab, "_classify", failing)
    assert dispatch(["classify", "--ring", "zmod:2", "--dim", "2",
                     "--records", str(records)]) == 3
    assert capsys.readouterr().out == ""
    assert len(records.read_text().splitlines()) == 5


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


def test_nf_of_a_large_power_is_fast(capsys):
    # 7776 input terms, each rewritten word popped once from a max-heap
    start = time.perf_counter()
    assert dispatch(["nf", "--expr", "(a+b+c+d+w+x)^5"]) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["kind"] == "normal-form"


def test_exit_code_matrix_subprocess():
    # one scripted sweep through all three exit codes via the real entrypoint
    table = [
        (["nf", "--expr", "w*a"], 0),
        (["identity-check", "--ring", "int", "--dim", "2", "--degree", "3",
          "--samples", "20", "--seed", "0"], 1),
        (["classify", "--ring", "int", "--dim", "2"], 2),
        (["nf", "--expr", "a^" + LONG], 2),
    ]
    for argv, expected in table:
        proc = run_cli(argv)
        assert proc.returncode == expected, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv
        if expected != 2:
            json.loads(proc.stdout)


# -- the exit-code contract on drawn argument vectors ------------------------------

CLI_RINGS = ["zmod:2", "zmod:3", "quot:zmod:2:t^2", "int", "quot:zmod:2"]
CLI_SIZES = {
    "cp-verify": {"k": range(-1, 4), "dim": range(-1, 3), "n": range(-2, 4),
                  "workers": range(-2, 4)},
    "classify": {"dim": range(-1, 3), "n-bound": range(-2, 4)},
    "identity-check": {"dim": range(-1, 3), "degree": [-1, 0, 1, 2, 3, 4, 9],
                       "samples": range(-2, 4), "bound": range(-2, 4)},
}
OPTIONAL_SIZES = {"n", "workers", "n-bound", "samples", "bound"}


@st.composite
def sized_argv(draw):
    """A cp-verify, classify or identity-check argument vector with small
    sizes, and whether one of them is out of range (below 1, or a degree
    above MAX_DEGREE).  At most one size is drawn out of range, so each
    guard is exercised on its own; an optional size may be left out."""
    command = draw(st.sampled_from(sorted(CLI_SIZES)))
    sizes = CLI_SIZES[command]
    bad = draw(st.sampled_from([None, *sizes]))
    argv = [command]
    if command != "cp-verify":
        argv += ["--ring", draw(st.sampled_from(CLI_RINGS))]
    if command == "identity-check":
        argv.append(f"--seed={draw(st.integers(0, 3))}")
    for name, values in sizes.items():
        pool = [v for v in values if (1 <= v <= MAX_DEGREE) != (name == bad)]
        if name in OPTIONAL_SIZES and name != bad:
            pool.insert(0, None)
        value = draw(st.sampled_from(pool))
        if value is not None:
            argv.append(f"--{name}={value}")
    return argv, bad is not None


@settings(max_examples=100, deadline=None)
@given(sized_argv())
def test_drawn_argument_vectors_keep_the_exit_code_contract(case):
    argv, out_of_range = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if out_of_range:
        assert code == 2, (argv, err.getvalue())
        assert out.getvalue() == ""
