"""The benchmark's four workloads, written against piregular's public API.

A workload builds its inputs from the seed (set-up, untimed), runs one job
and checks every output of that job.  Every job runs in a fresh interpreter
(see ``job.py``), so ``lab``'s engine tables and their column and row maps
start cold, as they do for a CLI call.  ``quick`` shrinks every input for
the self-check.

The two exhaustive workloads ignore the seed.  ``certify-mix`` and
``identities`` draw their instances from it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from piregular import generators, identities, jsonio, lab, rings, witnesses
from piregular.errors import PiregularError
from piregular.matrices import SquareMatrix

from meter import Meter

# content_hash of cp_report(k, 2, 1): the cp4 and cp9 goldens of
# tests/test_acceptance.py, with the number of certificates each scan builds.
CP_GOLDEN = {
    4: ("a9ec82c062c61ce6409293f0650e9dc784f07b14fd44d9071e718d8f4d4f711c", 145),
    9: ("f1504947f864711a362f577386c0c5576d504fd2bc95d0dbef4a8b34d5890e24", 4537),
}

# hash_lines over the canonical classification records of M_m(R), recorded
# when the benchmark was defined; zmod:4 is the classify_z4_records golden.
CLASSIFY_GOLDEN = {
    ("zmod:9", 2): ("0a1bc7afb863e74dc5b91adb9457256e25c475c2c2058601acfd456eb56bd344", 6561),
    ("quot:zmod:3:t^2", 2): (
        "bfc91fbe9876cc375804538d053dff3bf2f004d5d5b821dd4c53f19e15d5b027", 6561),
    ("zmod:2", 3): ("08b15afeaab470ec5c7fdb863e1af2b414a4a043c0d4867b7d6f93db45c9528f", 512),
    ("zmod:4", 2): ("fc3e3ed0f9d7abcfe9835695bde0b55af15741d584c29da6d62d35037a28fa2b", 256),
}

# The identity_z6 golden: check_identity_on_samples(zmod:6, 2, 4, 200, seed=20260814).
IDENTITY_Z6 = "42131b859837a4c9e70f49cfe4fe311c731f9f1b6ba0977fa3372be2115bef75"
IDENTITY_Z6_SEED = 20260814


class JobFailed(Exception):
    """A job's output cannot be produced; counted as one failed operation."""


class _Clock:
    """A job's timings, each in seconds and in ref units (see meter.py):
    the whole job, and every operation of each kind."""

    def __init__(self):
        self.meter = Meter()
        self.samples = {}
        self.meter.tick()

    def start(self):
        self.meter.tick()

    def stop(self, kind="ops"):
        self._record(kind, *self.meter.tick())

    def around(self, call):
        """One operation that waits on worker processes (Meter.around)."""
        result, seconds, refs = self.meter.around(call)
        self._record("ops", seconds, refs)
        return result

    def _record(self, kind, seconds, refs):
        pairs = self.samples.setdefault(kind, ([], []))
        pairs[0].append(seconds)
        pairs[1].append(refs)

    def result(self, **fields) -> dict:
        self.meter.tick()
        out = {"wall": self.meter.seconds, "wall_ref": self.meter.refs,
               "reference": self.meter.current}
        for kind, (seconds, refs) in self.samples.items():
            out[kind], out[kind + "_ref"] = seconds, refs
        out.update(fields)
        return out


def _matrix_number(spec, elements, m, number):
    """Matrix ``number`` of M_m(spec) in the row-major order of the
    exhaustive scans: base-q digits, most significant first, index
    ``elements`` (the ring's canonical enumeration)."""
    q = len(elements)
    digits = []
    for _ in range(m * m):
        number, digit = divmod(number, q)
        digits.append(digit)
    digits.reverse()
    return SquareMatrix.from_rows(
        spec, [[elements[digits[i * m + j]] for j in range(m)] for i in range(m)])


# Plain payload arithmetic, independent of SquareMatrix, for the checks.

def _naive_mul(spec, a, b):
    m = len(a)
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = spec.zero_payload()
            for k in range(m):
                acc = spec.p_add(acc, spec.p_mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _naive_pow(spec, a, exponent):
    m = len(a)
    out = [[spec.one_payload() if i == j else spec.zero_payload() for j in range(m)]
           for i in range(m)]
    for _ in range(exponent):
        out = _naive_mul(spec, out, a)
    return out


def _payloads(mat):
    return [[e.payload for e in row] for row in mat.entries]


def _json_payloads(spec, rows):
    return [[spec.payload_from_json(v) for v in row] for row in rows]


# -- scan-z9 -------------------------------------------------------------------


class ScanZ9:
    """``cp_report(9, 2, 1, workers=2)``: the process-pool scan, ~99% of it
    certificate building.  The traced run adds a serial scan and a replay
    of every ``stride``-th matrix through the public search and certificate
    calls, in this process where spans can see them."""

    name = "scan-z9"
    unit = "witnesses.certificate"

    def __init__(self, quick: bool):
        self.k = 4 if quick else 9
        self.stride = 4 if quick else 8

    def setup(self, seed, index):
        return None

    def run(self, mode, inputs, tracer):
        if mode == "replay":
            return self._replay(tracer)
        clock = _Clock()
        try:
            if mode == "serial":
                clock.start()
                report = lab.cp_report(self.k, 2, 1, workers=1)
                clock.stop()
            else:
                report = clock.around(lambda: lab.cp_report(self.k, 2, 1, workers=2))
        except PiregularError as exc:
            raise JobFailed(f"cp_report raised {type(exc).__name__}: {exc}") from exc
        return clock.result(outputs={
            "hash": jsonio.content_hash(report.to_json_payload()),
            "total": report.total, "checked": report.pipeline_checked, "ok": report.ok})

    def _replay(self, tracer):
        span = tracer.span
        spec = rings.IntegersMod(self.k)
        elements = rings.enumerate_elements(spec)
        rows = []
        clock = _Clock()
        for number in range(0, self.k ** 4, self.stride):
            a = _matrix_number(spec, elements, 2, number)
            clock.start()
            verified = ok = None
            with span("request.replay"):
                with span("lab.right_search"):
                    x = lab.right_witness_search(a, 1)
                with span("lab.left_search"):
                    y = lab.left_witness_search(a, 1)
                if x is not None:
                    with span("witnesses.instance"):
                        inst = witnesses.RightWitnessInstance(a, 1, x)
                    with span("witnesses.certificate"):
                        cert = witnesses.right_to_left_certificate(inst)
                    verified = cert.verified
                    ok = witnesses.verify_certificate(cert).ok
            clock.stop()
            rows.append((number, x is not None, y is not None, verified, ok))
        found = sum(1 for row in rows if row[1])
        return clock.result(outputs=rows,
                            stats={"right_found": found, "right_searches": len(rows)})

    def check(self, mode, inputs, outputs):
        if mode == "replay":
            problems = [f"matrix {number}: right={right} left={left} "
                        f"verified={verified} verify={ok}"
                        for number, right, left, verified, ok in outputs
                        if right != left or (right and not (verified and ok))]
            return len(outputs), problems
        golden, checked = CP_GOLDEN[self.k]
        problems = []
        if outputs["hash"] != golden:
            problems.append(f"cp{self.k} content hash {outputs['hash']} != golden {golden}")
        if outputs["total"] != self.k ** 4 or outputs["checked"] != checked:
            problems.append(f"scanned {outputs['total']} matrices and "
                            f"{outputs['checked']} certificates")
        if not outputs["ok"]:
            problems.append("report has counterexamples or pipeline failures")
        return 1, problems[:1]


# -- classify-mix ----------------------------------------------------------------


class ClassifyMix:
    """``classify_all`` over three rings, every record serialized with
    ``canonical_dumps`` and the lines hashed.  The traced run adds a replay
    of the same walk through the public search calls, in a fresh process
    so that its searches start as cold as the job's."""

    name = "classify-mix"
    unit = "request.record"

    def __init__(self, quick: bool):
        self.rings = (("zmod:4", 2),) if quick else \
            (("zmod:9", 2), ("quot:zmod:3:t^2", 2), ("zmod:2", 3))

    def setup(self, seed, index):
        return None

    def run(self, mode, inputs, tracer):
        if mode == "replay":
            return self._replay(tracer)
        span = tracer.span
        outputs = []
        clock = _Clock()
        for token, m in self.rings:
            spec = rings.parse_ring_spec(token)
            total = spec.cardinality() ** (m * m)
            try:
                with span("lab.classify_all"):
                    records = lab.classify_all(spec, m)
                lines, disagree = [], 0
                for _ in range(total):
                    clock.start()
                    with span("request.record"):
                        with span("lab.classify"):
                            record = next(records, None)
                        if record is None:
                            break
                        lines.append(jsonio.canonical_dumps(record.to_json_payload()))
                    clock.stop()
                    disagree += not record.agrees
                extra = next(records, None) is not None
            except PiregularError as exc:
                raise JobFailed(f"classify_all({token}, {m}) raised "
                                f"{type(exc).__name__}: {exc}") from exc
            outputs.append({"ring": token, "dim": m, "records": len(lines) + extra,
                            "disagree": disagree, "hash": jsonio.hash_lines(lines)})
        return clock.result(outputs=outputs)

    def _replay(self, tracer):
        span = tracer.span
        rows = []
        searches = found = 0
        clock = _Clock()
        for token, m in self.rings:
            spec = rings.parse_ring_spec(token)
            elements = rings.enumerate_elements(spec)
            for number in range(len(elements) ** (m * m)):
                a = _matrix_number(spec, elements, m, number)
                clock.start()
                rights, lefts = [], []
                with span("request.replay"):
                    with span("lab.power_index"):
                        index, _cycle = lab.power_sequence_index(a)
                    for n in range(1, index + 2):
                        with span("lab.right_search"):
                            x = lab.right_witness_search(a, n)
                        with span("lab.left_search"):
                            y = lab.left_witness_search(a, n)
                        if x is not None:
                            rights.append(n)
                        if y is not None:
                            lefts.append(n)
                clock.stop()
                searches += index + 1
                found += len(rights)
                rows.append((token, number, index, rights, lefts))
        return clock.result(outputs=rows,
                            stats={"right_found": found, "right_searches": searches})

    def check(self, mode, inputs, outputs):
        if mode == "replay":
            problems = [f"{token} matrix {number}: index {index}, right {rights}, "
                        f"left {lefts}"
                        for token, number, index, rights, lefts in outputs
                        if rights != lefts or index not in rights]
            return len(outputs), problems
        problems = []
        for out in outputs:
            golden, count = CLASSIFY_GOLDEN[(out["ring"], out["dim"])]
            if out["hash"] != golden or out["records"] != count or out["disagree"]:
                problems.append(f"M_{out['dim']}({out['ring']}): {out['records']} records, "
                                f"{out['disagree']} one-sided, hash {out['hash']}")
        return len(self.rings), problems


# -- certify-mix -------------------------------------------------------------------


@dataclass(frozen=True)
class _Case:
    A: SquareMatrix
    n: int
    X: SquareMatrix
    tamper: object  # (row, col) of Y to change, or None


# (ring, dim, requests per job).  The counts are fixed so every seed sends
# the same mix; the seed picks the instances.  Dim-4 quot and dim-4/5 int
# instances make up the latency tail.
CERTIFY_FAMILIES = (
    ("int", 2, 90), ("int", 3, 24), ("int", 4, 8), ("int", 5, 3),
    ("zmod:12", 2, 90), ("zmod:12", 3, 24), ("zmod:12", 4, 6),
    ("quot:zmod:3:t^2", 2, 75), ("quot:zmod:3:t^2", 3, 20), ("quot:zmod:3:t^2", 4, 10),
)
TAMPER_EVERY = 5


class CertifyMix:
    """Closed loop, one client.  A certificate request is
    ``RightWitnessInstance`` + ``right_to_left_certificate`` +
    ``emit_certificate``; each emitted certificate is then verified through
    ``certificate_from_json`` + ``verify_certificate``, and every
    ``TAMPER_EVERY``-th one is verified again with one entry of Y changed,
    which must be rejected."""

    name = "certify-mix"
    unit = "witnesses.certificate"

    def __init__(self, quick: bool):
        self.families = tuple((ring, dim, max(1, count // 15) if quick else count)
                              for ring, dim, count in CERTIFY_FAMILIES)

    def setup(self, seed, index):
        rng = random.Random(f"certify-mix:{seed}:{index}")
        instances = []
        for token, dim, count in self.families:
            spec = None if token == "int" else rings.parse_ring_spec(token)
            for _ in range(count):
                instance_seed = rng.randrange(1 << 31)
                if spec is None:
                    nil = rng.randint(1, dim - 1)
                    instances.append(generators.integer_instance(nil, dim - nil, instance_seed))
                else:
                    instances.append(
                        generators.sampled_finite_instance(spec, dim, instance_seed))
        rng.shuffle(instances)
        return [_Case(inst.A, inst.n, inst.X, self._tamper_spot(inst, rng)
                      if i % TAMPER_EVERY == 0 else None)
                for i, inst in enumerate(instances)]

    @staticmethod
    def _tamper_spot(inst, rng):
        """An entry (i, j) of Y whose change must break A^n = Y A^(n+1):
        adding 1 there adds row j of A^(n+1) to row i of the product, so
        row j must be nonzero."""
        spec, dim = inst.A.ring, inst.A.dim
        power = _naive_pow(spec, _payloads(inst.A), inst.n + 1)
        zero = spec.zero_payload()
        live = [j for j in range(dim) if any(p != zero for p in power[j])]
        return (rng.randrange(dim), rng.choice(live)) if live else None

    def run(self, mode, cases, tracer):
        span = tracer.span
        outputs = []
        clock = _Clock()
        for case in cases:
            clock.start()
            try:
                with span("request.certify"):
                    with span("witnesses.instance"):
                        inst = witnesses.RightWitnessInstance(case.A, case.n, case.X)
                    with span("witnesses.certificate"):
                        cert = witnesses.right_to_left_certificate(inst)
                    with span("witnesses.emit"):
                        text = witnesses.emit_certificate(cert)
            except PiregularError as exc:
                clock.stop()
                outputs.append((f"{type(exc).__name__}: {exc}", None, None))
                continue
            clock.stop()
            verdict = _verify_request(text, span, clock)
            tampered = None
            if case.tamper is not None:
                tampered = _verify_request(_tamper(text, case.tamper), span, clock)
            outputs.append((text, verdict, tampered))
        return clock.result(outputs=outputs)

    def check(self, mode, cases, outputs):
        problems = []
        attempted = 0
        for number, (case, (text, verdict, tampered)) in enumerate(zip(cases, outputs)):
            attempted += 1
            if verdict is None:
                problems.append(f"request {number}: {text}")
                continue
            attempted += 1 + (case.tamper is not None)
            wrong = _certificate_problem(case, text)
            if wrong:
                problems.append(f"request {number}: {wrong}")
            if verdict != ():
                problems.append(f"request {number}: round trip failed {verdict}")
            if case.tamper is not None and tampered != ("left_witness",):
                problems.append(f"request {number}: tampered Y verdict {tampered}")
        return attempted, problems


def _verify_request(text, span, clock):
    """One verification request; returns the failing identities, or the
    error text when the document is refused."""
    clock.start()
    try:
        with span("request.verify"):
            doc = json.loads(text)
            with span("witnesses.from_json"):
                cert = witnesses.certificate_from_json(doc)
            failing = witnesses.verify_certificate(cert).failing()
    except PiregularError as exc:
        failing = f"{type(exc).__name__}: {exc}"
    clock.stop("verify_ops")
    return failing


def _tamper(text, spot):
    doc = json.loads(text)
    spec = rings.parse_ring_spec(doc["ring"])
    i, j = spot
    old = spec.payload_from_json(doc["Y"][i][j])
    doc["Y"][i][j] = spec.payload_to_json(spec.p_add(old, spec.one_payload()))
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _certificate_problem(case, text):
    """Check an emitted certificate without piregular's matrix code: the
    bytes are canonical, it restates the request, claims every identity,
    and its Y satisfies A^n = Y A^(n+1) in plain payload arithmetic."""
    doc = json.loads(text)
    if json.dumps(doc, sort_keys=True, separators=(",", ":")) != text:
        return "certificate bytes are not canonical"
    spec = case.A.ring
    if doc["ring"] != spec.token() or doc["n"] != case.n or doc["dim"] != case.A.dim:
        return "certificate does not restate the request"
    a = _json_payloads(spec, doc["A"])
    if a != _payloads(case.A) or _json_payloads(spec, doc["X"]) != _payloads(case.X):
        return "certificate matrices differ from the request"
    if doc["verified"] is not True or not all(item["holds"] for item in doc["identities"]):
        return "certificate does not claim every identity"
    y = _json_payloads(spec, doc["Y"])
    if _naive_pow(spec, a, case.n) != _naive_mul(spec, y, _naive_pow(spec, a, case.n + 1)):
        return "Y is not a left witness"
    return None


# -- identities ----------------------------------------------------------------------


class Identities:
    """Standard identities: s_4 on 2x2 over int and zmod:6, s_6 on 3x3 over
    zmod:4 (all must vanish), the s_3 non-vanishing search over int, and the
    identity_z6 sampling report.  Long chains of generic matrix products,
    no powers, witnesses or Berkowitz."""

    name = "identities"
    unit = "identities.s6"

    def __init__(self, quick: bool):
        self.s4_per_ring = 10 if quick else 150
        self.s6_count = 1 if quick else 8

    def setup(self, seed, index):
        rng = random.Random(f"identities:{seed}:{index}")
        z, z4, z6 = rings.Integers(), rings.IntegersMod(4), rings.IntegersMod(6)

        def sample(spec, dim, bound):
            return SquareMatrix.from_rows(spec, [
                [rings.sample_element(spec, rng, bound) for _ in range(dim)]
                for _ in range(dim)])

        ops = [("s4", [sample(z, 2, 9) for _ in range(4)]) for _ in range(self.s4_per_ring)]
        ops += [("s4", [sample(z6, 2, None) for _ in range(4)])
                for _ in range(self.s4_per_ring)]
        ops += [("s6", [sample(z4, 3, None) for _ in range(6)]) for _ in range(self.s6_count)]
        ops += [("search", None), ("check", None)]
        rng.shuffle(ops)
        return ops

    def run(self, mode, ops, tracer):
        span = tracer.span
        outputs = []
        clock = _Clock()
        for kind, mats in ops:
            clock.start()
            try:
                with span("request.identity"):
                    with span("identities." + kind):
                        if mats is not None:
                            out = identities.standard_identity(mats).is_zero
                        elif kind == "search":
                            out = identities.search_nonvanishing(rings.Integers(), 2, 3)
                        else:
                            report = identities.check_identity_on_samples(
                                rings.IntegersMod(6), 2, 4, 200, seed=IDENTITY_Z6_SEED)
                            out = (report.all_vanish, report.hash())
            except PiregularError as exc:
                out = f"{type(exc).__name__}: {exc}"
            clock.stop()
            outputs.append(out)
        return clock.result(outputs=outputs)

    def check(self, mode, ops, outputs):
        problems = []
        for (kind, _mats), out in zip(ops, outputs):
            if kind in ("s4", "s6"):
                ok = out is True
            elif kind == "search":
                ok = isinstance(out, tuple) and len(out) == 3 and \
                    not identities.standard_identity(out).is_zero
            else:
                ok = out == (True, IDENTITY_Z6)
            if not ok:
                problems.append(f"{kind}: {out!r}")
        return len(ops), problems


WORKLOADS = {cls.name: cls for cls in (ScanZ9, ClassifyMix, CertifyMix, Identities)}
