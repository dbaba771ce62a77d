"""Spans and counters for the traced run of the benchmark.

Everything here acts on piregular from outside.  Spans open around the
calls the benchmark makes into each layer, and around the stage functions
that ``right_to_left_certificate`` and ``emit_certificate`` reach through
their module globals (``drazin_witness``, ``azumaya_lower_left``,
``det_poly_matrix``, ``verify_certificate``, ``canonical_dumps``), which
:func:`install` swaps for wrappers.  Counters ride on
``SquareMatrix.__mul__``/``__pow__`` and ``RingElem.__mul__``/``__add__``
and are charged to the innermost open span.  Untraced runs install none of
this and use :data:`NULL`, whose spans cost one no-op context manager.
"""

from __future__ import annotations

import contextlib
import json
import time

# Slots of a span's counter list.
MUL, POW, EMUL, EADD, MUL_T, BYTES = range(6)
SPAN_FIELDS = ["id", "name", "start", "end", "parent", "request",
               "mat_mul", "mat_pow", "elem_mul", "elem_add", "mat_mul_s", "bytes"]

_now = time.perf_counter


def _zero_counts():
    return [0, 0, 0, 0, 0.0, 0]


class Tracer:
    """In-memory span recorder.

    A span is ``[id, name, start, end, parent_id, request_id, counts]``.  A
    span opened with no span around it starts a new request; its
    descendants share that request id.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._outside = _zero_counts()
        self.cur = self._outside
        self._requests = 0

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack
        if stack:
            parent, request = stack[-1][0], stack[-1][5]
        else:
            self._requests += 1
            parent, request = None, self._requests
        rec = [len(self.spans), name, 0.0, 0.0, parent, request, _zero_counts()]
        self.spans.append(rec)
        stack.append(rec)
        self.cur = rec[6]
        rec[2] = _now()
        try:
            yield rec
        finally:
            rec[3] = _now()
            stack.pop()
            self.cur = stack[-1][6] if stack else self._outside

    def summary(self) -> dict:
        """Per span name: calls, summed duration, summed self time (duration
        minus the time its child spans cover) and counters summed over the
        span and all its descendants."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        inclusive = [list(rec[6]) for rec in spans]
        # Children always have larger ids than their parent, so walking
        # backwards folds every subtree before its root is read.
        for rec in reversed(spans):
            parent = rec[4]
            if parent is not None:
                child_time[parent] += rec[3] - rec[2]
                mine, theirs = inclusive[rec[0]], inclusive[parent]
                for slot in range(len(mine)):
                    theirs[slot] += mine[slot]
        out = {}
        for rec in spans:
            agg = out.get(rec[1])
            if agg is None:
                agg = out[rec[1]] = {"calls": 0, "total": 0.0, "self": 0.0,
                                     "counts": _zero_counts()}
            duration = rec[3] - rec[2]
            agg["calls"] += 1
            agg["total"] += duration
            agg["self"] += duration - child_time[rec[0]]
            for slot, value in enumerate(inclusive[rec[0]]):
                agg["counts"][slot] += value
        return out

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span
        with its own (not inclusive) counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as handle:
            handle.write(json.dumps(SPAN_FIELDS) + "\n")
            for rec in self.spans:
                handle.write(json.dumps(rec[:6] + rec[6]) + "\n")


class _NullTracer:
    """Stand-in for untraced runs: spans do nothing."""

    _noop = contextlib.nullcontext()

    def span(self, name):
        return self._noop


NULL = _NullTracer()


def _counting(method, slot, tracer):
    def wrapper(self, other):
        tracer.cur[slot] += 1
        return method(self, other)
    return wrapper


def _timed_matrix_mul(method, tracer):
    def wrapper(self, other):
        counts = tracer.cur
        counts[MUL] += 1
        start = _now()
        out = method(self, other)
        counts[MUL_T] += _now() - start
        return out
    return wrapper


def _stage(function, name, tracer):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return function(*args, **kwargs)
    return wrapper


def _dumps(function, tracer):
    def wrapper(obj):
        with tracer.span("jsonio.dumps"):
            text = function(obj)
            tracer.cur[BYTES] += len(text)  # canonical JSON is ASCII
        return text
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap piregular's layers for this process.  Callers reach the wrapped
    functions through their modules (``witnesses.verify_certificate``,
    ``jsonio.canonical_dumps``), as the package's own code does."""
    from piregular import jsonio, matrices, rings, witnesses

    elem, mat = rings.RingElem, matrices.SquareMatrix
    elem.__mul__ = _counting(elem.__mul__, EMUL, tracer)
    elem.__add__ = _counting(elem.__add__, EADD, tracer)
    mat.__pow__ = _counting(mat.__pow__, POW, tracer)
    mat.__mul__ = _timed_matrix_mul(mat.__mul__, tracer)
    for name, span_name in (("drazin_witness", "witnesses.drazin"),
                            ("azumaya_lower_left", "witnesses.azumaya"),
                            ("verify_certificate", "witnesses.verify"),
                            ("det_poly_matrix", "matrices.det_poly")):
        setattr(witnesses, name, _stage(getattr(witnesses, name), span_name, tracer))
    dumps = _dumps(jsonio.canonical_dumps, tracer)
    jsonio.canonical_dumps = dumps
    witnesses.canonical_dumps = dumps


def layer_metrics(summary: dict, unit: str) -> tuple:
    """The span-derived per-layer metrics, and for each one that is not 0 a
    note giving its base.  Stage times are mean self time per call;
    matrix-level counts are per certificate or verification span; ring
    counts and ``matrices.mul_s`` are per ``unit`` span (one certificate,
    one s_6 evaluation or one classification record).  A layer the
    workload never called reads 0."""
    metrics, notes = {}, {}

    def calls(span):
        agg = summary.get(span)
        return agg["calls"] if agg else 0

    def put(name, value, note):
        metrics[name] = value
        if value:
            notes[name] = note

    for name, span, slot in (("rings.elem_mul_calls", unit, EMUL),
                             ("rings.elem_add_calls", unit, EADD),
                             ("matrices.mul_calls_per_cert", "witnesses.certificate", MUL),
                             ("matrices.pow_calls_per_cert", "witnesses.certificate", POW),
                             ("matrices.mul_calls_per_verify", "witnesses.verify", MUL),
                             ("matrices.mul_s", unit, MUL_T)):
        agg = summary.get(span)
        put(name, agg["counts"][slot] / agg["calls"] if agg else 0,
            f"per {span} span, {calls(span)} spans")
    for name, span in (("matrices.det_poly_s", "matrices.det_poly"),
                       ("witnesses.instance_s", "witnesses.instance"),
                       ("witnesses.drazin_s", "witnesses.drazin"),
                       ("witnesses.azumaya_s", "witnesses.azumaya"),
                       ("witnesses.cert_self_s", "witnesses.certificate"),
                       ("witnesses.verify_s", "witnesses.verify"),
                       ("witnesses.from_json_s", "witnesses.from_json"),
                       ("lab.right_search_s", "lab.right_search"),
                       ("lab.left_search_s", "lab.left_search"),
                       ("lab.power_index_s", "lab.power_index"),
                       ("jsonio.dumps_s", "jsonio.dumps")):
        agg = summary.get(span)
        put(name, agg["self"] / agg["calls"] if agg else 0,
            f"mean self time per call, {calls(span)} calls")
    put("lab.search_calls", calls("lab.right_search") + calls("lab.left_search"),
        "right and left searches in the traced job")
    dumps = summary.get("jsonio.dumps")
    put("jsonio.bytes", dumps["counts"][BYTES] if dumps else 0,
        "canonical JSON bytes serialized in the traced job")
    return metrics, notes
