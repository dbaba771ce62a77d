"""One job of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per job and reads the single JSON line
it prints: set-up time, the job's wall time, its operation latencies, how
many outputs were checked and which failed, and for a traced job the
per-layer metrics.  piregular is imported from ``src/`` of the checkout
this file sits in, never from anywhere else.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0, help="job number within the run")
    parser.add_argument("--mode", default="job")
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    parser.add_argument("--trace-out", help="record spans and write them to this path")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import piregular

    if not Path(piregular.__file__).resolve().is_relative_to(SRC):
        print(f"piregular imported from {piregular.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.quick)
    inputs = workload.setup(args.seed, args.index)
    tracer = tracing.NULL
    if args.trace_out:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    setup = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    begun = time.perf_counter()
    try:
        result = workload.run(args.mode, inputs, tracer)
        attempted, problems = workload.check(args.mode, inputs, result["outputs"])
    except workloads.JobFailed as exc:
        result = {"wall": time.perf_counter() - begun, "wall_ref": 0.0, "reference": 0.0}
        attempted, problems = 1, [str(exc)]
    report = {
        "setup": setup,
        **{key: result.get(key, []) for key in ("ops", "ops_ref", "verify_ops", "verify_ops_ref")},
        **{key: result[key] for key in ("wall", "wall_ref", "reference")},
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems[:5],
        "stats": result.get("stats", {}),
    }
    if args.trace_out:
        report["layers"], report["notes"] = tracing.layer_metrics(tracer.summary(), workload.unit)
        tracer.write(ROOT / args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
