"""Command-line front end.

Every pipeline is a subcommand that prints a single JSON document on
standard output (canonical form: sorted keys, compact separators, integers
only) and a one-line human summary on standard error.  Exit codes: 0 for a
verified or positive result, 1 for a mathematically negative result (an
identity fails, a witness is absent, a counterexample exists), 2 for usage
and parse errors, and 3 for an internal error (an identity that holds by
construction failed: an implementation bug, not a verdict).  Timing is
reported on standard error only, never inside the JSON, so repeated runs
emit byte-identical documents.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
from pathlib import Path

from .errors import DimMismatch, MalformedPayload, ParseError, PiregularError
from .freealg import nc_normal_form, overlap_check, parse_nc, shepherdson_demo, shepherdson_system
from .identities import check_identity_on_samples
from .jsonio import canonical_dumps, content_hash
from .matrices import matrix_to_json, parse_matrix_literal
from .rings import parse_ring_spec, require_positive
from .witnesses import (
    RightWitnessInstance,
    certificate_from_json,
    drazin_witness,
    emit_certificate,
    right_to_left_certificate,
    verify_certificate,
)
from . import lab

_PREFIXES = {1: "error", 2: "usage error", 3: "internal error"}


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _write_document(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _emit_payload(args, payload: dict) -> None:
    _write_document(args, canonical_dumps(payload))


def _instance_args(args) -> list:
    """[A, X] from ``--A`` and ``--X`` over ``--ring``, each ``--dim`` square, with ``--n`` >= 1."""
    require_positive(n=args.n)
    spec = parse_ring_spec(args.ring)
    mats = []
    for label, text in (("--A", args.A), ("--X", args.X)):
        try:
            mats.append(parse_matrix_literal(spec, text))
        except ParseError as exc:
            raise ParseError(f"in {label}: {exc}") from exc
        if mats[-1].dim != args.dim:
            raise DimMismatch(f"{label} is {mats[-1].dim}x{mats[-1].dim}, --dim says {args.dim}")
    return mats


def _cmd_right_to_left(args) -> int:
    a, x = _instance_args(args)
    instance = RightWitnessInstance(a, args.n, x)
    cert = right_to_left_certificate(instance)
    _write_document(args, emit_certificate(cert))
    _say(f"left witness verified at n = {args.n}: Y = {cert.Y}")
    return 0


def _cmd_verify_cert(args) -> int:
    raw = sys.stdin.read() if args.path == "-" else Path(args.path).read_text()
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # not JSON, an int too long for int(), too deep
        raise MalformedPayload(f"certificate is not valid JSON: {exc}") from exc
    cert = certificate_from_json(data)
    verdict = verify_certificate(cert)
    _emit_payload(args, {
        "kind": "verification",
        "verified": verdict.ok,
        "identities": [{"name": name, "holds": holds}
                       for name, holds in verdict.identities],
    })
    if verdict.ok:
        _say("certificate verified: all identities hold")
        return 0
    _say("certificate FAILED: " + ", ".join(verdict.failing()))
    return 1


def _cmd_drazin(args) -> int:
    a, x = _instance_args(args)
    w = drazin_witness(a, x, args.n)
    _emit_payload(args, {
        "kind": "drazin",
        "ring": a.ring.token(),
        "dim": args.dim,
        "n": args.n,
        "w": matrix_to_json(w),
    })
    _say(f"commuting witness w = {w}")
    return 0


def _cmd_cp_verify(args) -> int:
    report = lab.cp_report(args.k, args.dim, args.n, workers=args.workers)
    payload = report.to_json_payload()
    _emit_payload(args, {**payload, "content_hash": content_hash(payload)})
    _say(f"{report.total} matrices over zmod:{args.k} at n = {args.n}: "
         f"{len(report.counterexamples)} one-sided, "
         f"{len(report.pipeline_failures)} pipeline failures, "
         f"{report.pipeline_checked} certificates checked "
         f"[{report.wall_time_ms} ms, {report.workers} worker(s)]")
    return 0 if report.ok else 1


def _cmd_classify(args) -> int:
    spec = parse_ring_spec(args.ring)
    # size errors raise here, before the --records file is opened
    records = lab.classify_all(spec, args.dim, n_bound=args.n_bound)
    digest = hashlib.sha256()  # the bytes jsonio.hash_lines hashes
    agree = total = 0
    with open(args.records, "w") if args.records else contextlib.nullcontext() as out:
        for record in records:
            line = canonical_dumps(record.to_json_payload()) + "\n"
            digest.update(line.encode("ascii"))
            if out is not None:
                out.write(line)
            total += 1
            agree += record.agrees
    payload = {
        "kind": "classification-summary",
        "ring": spec.token(),
        "dim": args.dim,
        "n_bound": args.n_bound,
        "total": total,
        "agree": agree,
        "disagree": total - agree,
        "records_hash": digest.hexdigest(),
    }
    _emit_payload(args, payload)
    _say(f"{total} matrices classified; right/left exponent sets agree on {agree}")
    return 0 if agree == total else 1


def _cmd_identity_check(args) -> int:
    spec = parse_ring_spec(args.ring)
    report = check_identity_on_samples(spec, args.dim, args.degree,
                                       samples=args.samples, seed=args.seed,
                                       bound=args.bound)
    payload = report.to_json_payload()
    _emit_payload(args, {**payload, "content_hash": content_hash(payload)})
    if report.all_vanish:
        _say(f"s_{args.degree} vanished on all {args.samples} sampled tuples")
        return 0
    _say(f"s_{args.degree} does not vanish; witness tuple recorded")
    return 1


def _cmd_shepherdson(args) -> int:
    report = shepherdson_demo()
    ambiguities = overlap_check(shepherdson_system())
    payload = report.to_json_payload()
    payload["ambiguities"] = [
        {"kind": amb.kind, "word": amb.word} for amb in ambiguities]
    _emit_payload(args, payload)
    _say("Shepherdson checks: " +
         ", ".join(f"{c.name}={'ok' if c.holds else 'FAIL'}" for c in report.checks))
    return 0 if report.verified and not ambiguities else 1


def _cmd_nf(args) -> int:
    poly = parse_nc(args.expr)
    normal = nc_normal_form(poly, strategy=args.strategy)
    _emit_payload(args, {
        "kind": "normal-form",
        "input": str(poly),
        "normal_form": str(normal),
        "is_zero": normal.is_zero,
    })
    _say(f"nf({poly}) = {normal}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="piregular",
        description="Exact witness algebra for strongly pi-regular matrices "
                    "over commutative rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON document here instead of stdout")

    instance = argparse.ArgumentParser(add_help=False, parents=[common])
    instance.add_argument("--ring", required=True, help="ring spec, e.g. int, zmod:4, poly:zmod:3:t")
    instance.add_argument("--dim", type=int, required=True)
    instance.add_argument("--n", type=int, required=True, help="exponent; n * dim <= 2^20")
    instance.add_argument("--A", required=True,
                          help="matrix literal [[...],[...]]; (...) groups; each power's size "
                               "<= 2^20, the whole literal's term products <= 2^18 and "
                               "coefficient slots <= 2^22")
    instance.add_argument("--X", required=True, help="right witness literal")

    p = sub.add_parser("right-to-left", parents=[instance],
                       help="convert a right witness into a verified left-witness certificate")
    p.set_defaults(handler=_cmd_right_to_left)

    p = sub.add_parser("verify-cert", parents=[common],
                       help="re-verify a certificate document (n * dim <= 2^20) "
                            "from a file or '-' for stdin")
    p.add_argument("--path", required=True)
    p.set_defaults(handler=_cmd_verify_cert)

    p = sub.add_parser("drazin", parents=[instance],
                       help="compute the commuting witness w = A^n X^(n+1)")
    p.set_defaults(handler=_cmd_drazin)

    p = sub.add_parser("cp-verify", parents=[common],
                       help="exhaustive right/left agreement scan over M_dim(Z_k)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--n", type=int, default=1, help="exponent; n * dim at most 2^20")
    p.add_argument("--workers", type=int, default=1, help="process count (default: 1)")
    p.set_defaults(handler=_cmd_cp_verify)

    p = sub.add_parser("classify", parents=[common],
                       help="stream witness-exponent records for every matrix over a finite ring")
    p.add_argument("--ring", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n-bound", type=int, default=None)
    p.add_argument("--records", help="write one JSON record per line to this file, as each "
                   "is made; a scan that fails leaves the lines written so far")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("identity-check", parents=[common],
                       help="evaluate the standard identity s_degree on sampled matrix tuples")
    p.add_argument("--ring", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=9,
                   help="sampling bound for infinite rings")
    p.set_defaults(handler=_cmd_identity_check)

    p = sub.add_parser("shepherdson", parents=[common],
                       help="run the one-sided invertibility checks in the Shepherdson ring")
    p.set_defaults(handler=_cmd_shepherdson)

    p = sub.add_parser("nf", parents=[common],
                       help="normal form of a free-algebra expression modulo the stock rules")
    p.add_argument("--expr", required=True,
                   help="expression; each power's size <= 2^20, the whole text's term "
                        "products <= 2^18 and terms summed or multiplied <= 2^22")
    p.add_argument("--strategy", choices=("leftmost", "rightmost"), default="leftmost")
    p.set_defaults(handler=_cmd_nf)

    return parser


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (PiregularError, OSError) as exc:
        code = getattr(exc, "exit_code", 2)
        _say(f"{_PREFIXES[code]}: {exc}")
        return code


def entrypoint() -> None:
    sys.exit(dispatch(sys.argv[1:]))
