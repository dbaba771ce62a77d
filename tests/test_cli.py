import contextlib
import io
import json
import random
import subprocess
import sys
import time
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piregular import (SquareMatrix, cli, emit_certificate, errors, integer_instance, lab,
                       parse_ring_spec, poly_ring, right_to_left_certificate,
                       sampled_finite_instance, witnesses)
from piregular.cli import dispatch
from piregular.identities import MAX_DEGREE
from piregular.jsonio import hash_lines
from piregular.rings import NESTING_LIMIT

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
    deep_cert = tmp_path / "deep.json"
    deep_cert.write_text("[" * 993 + "]" * 993)
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
        # one-term powers whose sums walk more dense coefficient slots than the budget
        ["right-to-left", "--ring", "poly:int:t", "--dim", "1", "--n", "1",
         "--A", "[[" + "+".join(["t^500000"] * 100) + "]]", "--X", "[[0]]"],
        # a dense factor times a long sparse one walks the sparse one's slots per term
        ["right-to-left", "--ring", "poly:int:t", "--dim", "1", "--n", "1",
         "--A", "[[(1+t)^500*t^500000]]", "--X", "[[0]]"],
        # a slot of a two-layer tower is charged twice
        ["right-to-left", "--ring", "poly:poly:int:t:u", "--dim", "1", "--n", "1",
         "--A", "[[(t+u)^500]]", "--X", "[[0]]"],
        # nesting that would pass the interpreter's recursion limit
        ["nf", "--expr", "(" * 246 + "a" + ")" * 246],
        ["right-to-left", "--ring", "int", "--dim", "1", "--n", "1",
         "--A", "[[" + "(" * 246 + "1" + ")" * 246 + "]]", "--X", "[[1]]"],
        ["classify", "--ring", "poly:" * 1200 + "int" + ":t" * 1200, "--dim", "1"],
        ["verify-cert", "--path", str(deep_cert)],
    ]
    for argv in cases:
        start = time.perf_counter()
        assert dispatch(argv) == 2, argv
        assert time.perf_counter() - start < 1, argv
        assert capsys.readouterr().out == "", argv


def test_a_text_nested_to_the_limit_parses(capsys):
    expr = "(" * NESTING_LIMIT + "a" + ")" * NESTING_LIMIT
    assert dispatch(["nf", "--expr", expr]) == 0
    assert json.loads(capsys.readouterr().out)["normal_form"] == "a"
    assert dispatch(["nf", "--expr", "(" + expr + ")"]) == 2
    assert "nests deeper than" in capsys.readouterr().err


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


def test_verify_cert_checks_every_coefficient_of_p(tmp_path, capsys):
    # p = x^N q(x) with q(x) = det(I - xX); here q = 1 + 10x + x^2, and a
    # changed top coefficient keeps the zero prefix and the leading 1 of q
    spec = parse_ring_spec("zmod:12")
    doc = json.loads(emit_certificate(right_to_left_certificate(
        sampled_finite_instance(spec, 2, 5))))
    assert doc["p_coeffs"] == [0, 0, 1, 10, 1]
    doc["p_coeffs"][-1] = 6
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert dispatch(["verify-cert", "--path", str(path)]) == 1
    assert capsys.readouterr().err.strip().endswith("certificate FAILED: char_poly_factor_shape")
    with pytest.raises(errors.UnverifiedCertificate, match="char_poly_factor_shape"):
        emit_certificate(witnesses.certificate_from_json(doc))


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


CERT_RINGS = ["zmod:12", "quot:zmod:3:t^2", "int", "poly:int:t"]
RING_TOKENS = CERT_RINGS + ["zmod:5", "quot:zmod:2:t^2"]  # poly and quot rings read string literals
WRONG_TYPES = [None, 1.5, {}, "x"]  # wrong for every field and every entry
UNPARSABLE = ["1+", "t^^2", "(1+t", "2 3)", "t^"]  # no literal of any ring, nor a ring spec
HUGE = [10 ** 300 + 1, -(2 ** 1000)]  # an entry of every ring, an exponent or dim past the budget
TOO_LONG = "<a 5001-digit integer>"  # written into the document text as LONG
SEEDS = st.integers(0, 99)


def poly_instance(dim: int, seed: int):
    """An integer instance over poly:int:t, conjugated by the shear I + t E_01 so that
    its entries are polynomials: the witness identity carries over."""
    nil_dim = seed % (dim + 1)
    inst, spec = integer_instance(nil_dim, dim - nil_dim, seed), parse_ring_spec("poly:int:t")
    t = spec.gen()
    p, p_inv = (SquareMatrix.from_rows(spec, [[off if (i, j) == (0, 1) else int(i == j)
                                                for j in range(dim)] for i in range(dim)])
                for off in (t, -t))

    def conjugate(mat):
        return p * SquareMatrix.from_rows(spec, mat.rows) * p_inv

    return witnesses.RightWitnessInstance(conjugate(inst.A), inst.n, conjugate(inst.X))


def _strings(token: str) -> bool:
    return not parse_ring_spec(token).atomic_literals


@st.composite
def mutated_certificate(draw):
    """A valid certificate document from ``generators`` (or :func:`poly_instance`) at
    dim 1-3 with one mutation: an entry of a matrix or of p_coeffs, n, N or dim moved
    by one, two matrix fields swapped, another ring token, a stored flag flipped, an
    identities entry dropped or duplicated, a field of the wrong type, a huge integer
    or an unparsable literal; and whether the document is now malformed (a wrong
    type, an exponent below 1 or past the budget, matrices of another dim, an integer
    too long to read, or entries that are not literals of the new ring)."""
    token, dim, seed = draw(st.sampled_from(CERT_RINGS)), draw(st.integers(1, 3)), draw(SEEDS)
    spec = parse_ring_spec(token)
    if token == "int":
        nil_dim = draw(st.integers(0, dim))
        inst = integer_instance(nil_dim, dim - nil_dim, seed)
    elif token == "poly:int:t":
        inst = poly_instance(dim, seed)
    else:
        inst = sampled_finite_instance(spec, dim, seed)
    doc = json.loads(emit_certificate(right_to_left_certificate(inst)))
    kind = draw(st.sampled_from(["A", "X", "C", "w", "Y", "p_coeffs", "n", "N", "dim",
                                 "swap", "ring", "verified", "holds", "drop", "duplicate",
                                 "type", "huge", "unparsable"]))
    if kind in ("n", "N", "dim"):
        doc[kind] += draw(st.sampled_from([-1, 1]))
        return doc, doc[kind] < 1 or kind == "dim"
    if kind == "swap":
        first, second = draw(st.lists(st.sampled_from("AXCwY"), min_size=2, max_size=2,
                                      unique=True))
        doc[first], doc[second] = doc[second], doc[first]
    elif kind == "ring":
        doc["ring"] = draw(st.sampled_from([other for other in RING_TOKENS if other != token]))
        return doc, _strings(doc["ring"]) != _strings(token)
    elif kind == "verified":
        doc["verified"] = not doc["verified"]
    elif kind == "holds":
        item = draw(st.sampled_from(doc["identities"]))
        item["holds"] = not item["holds"]
    elif kind in ("drop", "duplicate"):  # the verifier recomputes them all and reads none
        place = draw(st.integers(0, len(doc["identities"]) - 1))
        item = doc["identities"].pop(place)
        if kind == "duplicate":
            doc["identities"][place:place] = [item, dict(item)]
    elif kind == "type":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(st.sampled_from(WRONG_TYPES))
        return doc, True
    else:
        def put(field, value):  # into one entry of a matrix field or of p_coeffs
            row = doc[field] if field == "p_coeffs" else doc[field][draw(st.integers(0, dim - 1))]
            row[draw(st.integers(0, len(row) - 1))] = value

        entries = ["A", "X", "C", "w", "Y", "p_coeffs"]
        if kind == "unparsable":
            field = draw(st.sampled_from(entries + ["ring"]))
            value = draw(st.sampled_from(UNPARSABLE))
            if field == "ring":
                doc["ring"] = value
            else:
                put(field, value)
            return doc, True
        if kind == "huge":
            field = draw(st.sampled_from(entries + ["n", "N", "dim"]))
            value = draw(st.sampled_from(HUGE + [TOO_LONG]))
            if field in ("n", "N", "dim"):
                doc[field] = value if value == TOO_LONG else abs(value)
                # a huge N alone is only a wrong exponent: the verifier computes no power
                return doc, field != "N" or value == TOO_LONG
            put(field, value if value == TOO_LONG else spec.payload_to_json(spec.p_from_int(value)))
            return doc, value == TOO_LONG
        wrong = draw(st.integers(0, 3)) == 0  # one in four
        put(kind, draw(st.sampled_from(WRONG_TYPES)) if wrong
            else spec.payload_to_json(spec.sample_payload(random.Random(draw(SEEDS)), 3)))
        return doc, wrong
    return doc, False


@settings(max_examples=60, deadline=timedelta(seconds=1))
@given(mutated_certificate())
def test_verify_cert_gives_no_false_verdict_on_a_mutated_certificate(case):
    # exit 0 exactly when a naive oracle confirms all seven identities, exit 1
    # naming what fails, else exit 2; never a traceback
    doc, malformed = case
    out, err = io.StringIO(), io.StringIO()
    text = json.dumps(doc).replace(json.dumps(TOO_LONG), LONG)
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(["verify-cert", "--path", "-"])
    assert "Traceback" not in err.getvalue()
    if malformed:
        assert (code, out.getvalue()) == (2, ""), err.getvalue()
        return
    if doc["N"] != doc["n"] * doc["dim"]:  # the verifier computes no power, so it
        # fails every identity needing one, and says why
        assert code == 1 and "exponent_is_n_times_dim" in err.getvalue(), err.getvalue()
        return
    failing = {name for name, holds in naive_certificate_identities(doc).items() if not holds}
    assert code == (1 if failing else 0), err.getvalue()
    if code == 1:
        named = set(err.getvalue().split("certificate FAILED: ", 1)[1].strip().split(", "))
        assert named == failing


RTL_1X1 = ["right-to-left", "--ring", "zmod:4", "--dim", "1", "--n", "1",
           "--A", "[[3]]", "--X", "[[3]]"]


@pytest.mark.parametrize("argv, field, value, message", [
    (RTL_1X1, "dim", True, "dim must be a positive integer, got True"),
    (RTL_1X1, "dim", 1.0, "dim must be a positive integer, got 1.0"),
    (RTL_OK, "verified", "no", "verified and every holds must be true or false"),
    (RTL_OK, "holds", "no", "verified and every holds must be true or false"),
    (RTL_OK, "ring", 1.5, "ring spec must be a string, got float"),
    (RTL_OK, "ring", None, "ring spec must be a string, got NoneType"),
    (RTL_OK, "ring", {}, "ring spec must be a string, got dict"),
    (RTL_OK, "ring", 3, "ring spec must be a string, got int"),
    (RTL_OK, "ring", ["zmod:4"], "ring spec must be a string, got list"),
], ids=["dim-true", "dim-float", "verified-string", "holds-string", "ring-float",
        "ring-null", "ring-object", "ring-int", "ring-list"])
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


def test_an_identity_check_past_the_budget_exits_2_at_once(capsys):
    for argv in (
        # 2 * 100000^3 entry products for one s_2: refused before any matrix is drawn
        ["--ring", "zmod:2", "--dim", "100000", "--degree", "2"],
        # an entry of a polynomial tower holds (bound + 1) slots per layer, 100 and 1000
        ["--ring", "poly:poly:int:a:b", "--dim", "2", "--degree", "4"],
        ["--ring", "poly:poly:poly:int:a:b:c", "--dim", "2", "--degree", "4"],
    ):
        start = time.perf_counter()
        assert dispatch(["identity-check", *argv, "--samples", "1"]) == 2, argv
        assert time.perf_counter() - start < 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "past the budget" in captured.err
        assert "Traceback" not in captured.err


def test_an_identity_check_with_samples_past_the_budget_exits_2_at_once(capsys):
    # s_4 vanishes on M_2(Z_2), so every one of 10^9 samples would be evaluated
    start = time.perf_counter()
    assert dispatch(["identity-check", "--ring", "zmod:2", "--dim", "2",
                     "--degree", "4", "--samples", "1000000000"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "past the budget" in captured.err
    assert "Traceback" not in captured.err


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


@settings(max_examples=100, deadline=timedelta(seconds=1))
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
