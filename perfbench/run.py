"""piregular benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The untimed part of each job (interpreter
start, import, input generation) is ``setup_s``; the job itself runs in a
fresh interpreter (``job.py``), and jobs repeat until ``--seconds`` have
passed and the run holds enough samples.  Every output of every job is
checked.  Human-readable lines, including run metadata, go first; the last
line of standard output is the JSON result.  With ``--trace 1`` the run
measures the per-layer metrics instead (see ``METRICS.md``) and leaves its
spans under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOB = Path(__file__).resolve().parent / "job.py"

WORKLOADS = ("scan-z9", "classify-mix", "certify-mix", "identities")

# job_ref, p50_ref and p99_ref are in multiples of a fixed reference work
# timed inside each job (meter.py); the same figures in seconds and
# milliseconds are printed next to them.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "job_ref": "ref",
    "p50_ref": "ref",
    "p99_ref": "ref",
}

PER_LAYER = {
    "rings.elem_mul_calls": "count",
    "rings.elem_add_calls": "count",
    "matrices.mul_calls_per_cert": "count",
    "matrices.pow_calls_per_cert": "count",
    "matrices.mul_calls_per_verify": "count",
    "matrices.mul_s": "s",
    "matrices.det_poly_s": "s",
    "witnesses.instance_s": "s",
    "witnesses.drazin_s": "s",
    "witnesses.azumaya_s": "s",
    "witnesses.cert_self_s": "s",
    "witnesses.verify_s": "s",
    "witnesses.from_json_s": "s",
    "lab.right_search_s": "s",
    "lab.left_search_s": "s",
    "lab.power_index_s": "s",
    "lab.search_calls": "count",
    "lab.right_found_ratio": "ratio",
    "lab.scan_serial_s": "s",
    "lab.pool_speedup": "ratio",
    "jsonio.dumps_s": "s",
    "jsonio.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

# What one operation is, for the p50/p99 figures, and the names the
# workload's raw figures go by in performance claims (job_s is scan_s on
# scan-z9, ...).
OPERATION = {
    "scan-z9": "scan",
    "classify-mix": "classification record",
    "certify-mix": "certificate request",
    "identities": "identity call",
}
ALIASES = {
    "scan-z9": {"job_s": "scan_s"},
    "classify-mix": {"job_s": "classify_s"},
    "certify-mix": {"p50_ms": "cert_p50_ms", "p99_ms": "cert_p99_ms"},
    "identities": {"job_s": "identity_s"},
}

MIN_JOBS = 3  # set-up and job time are medians over at least this many jobs
MIN_CERT_REQUESTS = 1000  # so that p99 has ten samples beyond it
STOP_STARTING_S = 110  # start no job after this, whatever --seconds asks
DEADLINE_S = 170  # a job still running then is killed and the run fails


class BenchError(Exception):
    pass


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Runner:
    def __init__(self, args):
        self.args = args
        self.started = _clock()

    def job(self, mode="job", index=0, traced=False) -> dict:
        args = self.args
        cmd = [sys.executable, str(JOB), "--workload", args.workload, "--seed", str(args.seed),
               "--index", str(index), "--mode", mode]
        if traced:
            cmd += ["--trace-out", f".perfbench/trace-{args.workload}-{mode}-seed{args.seed}.jsonl"]
        if args.quick:
            cmd.append("--quick")
        t0 = _clock()
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (t0 - self.started)))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{args.workload} {mode} job still running at the deadline")
        finally:
            if proc.poll() is None:
                # Timed out or interrupted: take down the job and its pool workers.
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{args.workload} {mode} job exited with {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


def timed_run(runner: Runner) -> tuple:
    args = runner.args
    min_jobs = 1 if args.quick else MIN_JOBS
    min_ops = MIN_CERT_REQUESTS if args.workload == "certify-mix" and not args.quick else 0
    jobs = []
    while True:
        jobs.append(runner.job(index=len(jobs)))
        elapsed = _clock() - runner.started
        enough = (elapsed >= args.seconds and len(jobs) >= min_jobs
                  and sum(len(job["ops"]) for job in jobs) >= min_ops)
        if enough or elapsed >= STOP_STARTING_S:
            break
    def pooled(key):
        return [t for job in jobs for t in job[key]]

    ops, op_refs = pooled("ops"), pooled("ops_ref")
    if not ops:
        raise BenchError("no operation completed")
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    count = f"{len(ops)} {OPERATION[args.workload]}s"
    metrics = {
        "setup_s": statistics.median(job["setup"] for job in jobs),
        "peak_rss_mb": max(own, children) / 1024,
        "job_ref": statistics.median(job["wall_ref"] for job in jobs),
        "p50_ref": percentile(op_refs, 0.50),
        "p99_ref": percentile(op_refs, 0.99),
    }
    notes = {
        "setup_s": f"median of {len(jobs)} jobs",
        "peak_rss_mb": "largest of this process and every job and pool worker it started",
        "job_ref": f"median of {len(jobs)} jobs",
        "p50_ref": count,
        "p99_ref": count,
    }
    aliases = ALIASES[args.workload]
    raw = [("job_s", statistics.median(job["wall"] for job in jobs), "s",
            f"median of {len(jobs)} jobs"),
           ("p50_ms", percentile(ops, 0.50) * 1000, "ms", count),
           ("p99_ms", percentile(ops, 0.99) * 1000, "ms", count)]
    verifies, verify_refs = pooled("verify_ops"), pooled("verify_ops_ref")
    if verifies:
        base = f"{len(verifies)} verification requests"
        raw += [("verify_p50_ms", percentile(verifies, 0.50) * 1000, "ms", base),
                ("verify_p99_ms", percentile(verifies, 0.99) * 1000, "ms", base),
                ("verify_p50_ref", percentile(verify_refs, 0.50), "ref", base),
                ("verify_p99_ref", percentile(verify_refs, 0.99), "ref", base)]
    raw.append(("reference_ms", statistics.median(job["reference"] for job in jobs) * 1000,
                "ms", "duration of one ref, median over jobs"))
    extra = [(f"{name} [{aliases[name]}]" if name in aliases else name, f"{value:.6g}", unit, note)
             for name, value, unit, note in raw]
    extra += [("job walls", " ".join(f"{job['wall']:.4f}" for job in jobs), "s", "every job"),
              ("setups", " ".join(f"{job['setup']:.4f}" for job in jobs), "s", "every job")]
    return jobs, metrics, notes, extra


def bracketed(runner: Runner, mode: str) -> tuple:
    """Untraced, traced, untraced: the traced job's overhead is measured
    against untraced jobs on both sides of it, on the same inputs."""
    before = runner.job(mode=mode)
    traced = runner.job(mode=mode, traced=True)
    return [before, runner.job(mode=mode)], traced


def traced_run(runner: Runner) -> tuple:
    workload = runner.args.workload
    extra = []
    if workload == "scan-z9":
        pool = runner.job()
        serial = runner.job(mode="serial")
        bases, traced = bracketed(runner, "replay")
        jobs, layer_jobs = [pool, serial, *bases, traced], [traced]
        extra += [("scan_s", f"{pool['wall']:.6g}", "s", "one scan, 2 workers")]
    elif workload == "classify-mix":
        bases, traced = bracketed(runner, "job")
        replay = runner.job(mode="replay", traced=True)
        jobs, layer_jobs = [*bases, traced, replay], [traced, replay]
    else:
        bases, traced = bracketed(runner, "job")
        jobs, layer_jobs = [*bases, traced], [traced]
    metrics = {name: 0 for name in PER_LAYER}
    notes = {}
    for job in layer_jobs:
        metrics.update({name: value for name, value in job["layers"].items() if value})
        notes.update(job["notes"])
    stats = next((job["stats"] for job in layer_jobs if job["stats"]), None)
    if stats and stats["right_searches"]:
        metrics["lab.right_found_ratio"] = stats["right_found"] / stats["right_searches"]
        notes["lab.right_found_ratio"] = f"{stats['right_found']}/{stats['right_searches']}"
    if workload == "scan-z9":
        metrics["lab.scan_serial_s"] = serial["wall"]
        metrics["lab.pool_speedup"] = serial["wall"] / pool["wall"]
        notes["lab.scan_serial_s"] = "one scan, 1 worker"
        notes["lab.pool_speedup"] = (f"1-worker scan {serial['wall']:.4f} s / 2-worker "
                                     f"scan {pool['wall']:.4f} s, run back to back")
    base_ref = statistics.mean(job["wall_ref"] for job in bases)
    metrics["trace.overhead_ratio"] = traced["wall_ref"] / base_ref
    notes["trace.overhead_ratio"] = (f"traced {traced['wall_ref']:.0f} ref / untraced "
                                     f"{base_ref:.0f} ref, mean of the jobs before and after")
    for name, value in metrics.items():
        if not value:
            notes[name] = "not exercised by this workload"
    return jobs, metrics, notes, extra


def metadata(seed: int) -> dict:
    src = ROOT / "src"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "seed": seed,
        "src_lines": sum(len(path.read_text().splitlines())
                         for path in sorted(src.rglob("*.py"))),
    }


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git; a plain
    source tree has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="reduced inputs and as few as one job, for selfcheck.py")
    args = parser.parse_args()
    if not (ROOT / "src" / "piregular" / "__init__.py").is_file():
        print(f"no piregular sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print("meta " + json.dumps(metadata(args.seed), sort_keys=True), flush=True)
    runner = Runner(args)
    try:
        jobs, metrics, notes, extra = (traced_run if args.trace else timed_run)(runner)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    attempted = sum(job["attempted"] for job in jobs)
    failed = sum(job["failed"] for job in jobs)
    for job in jobs:
        for problem in job["problems"]:
            print(f"FAILED {problem}")
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value  # counts stay exact
        print(f"{name} = {shown} {units[name]} ({notes.get(name, '')})")
    for name, value, unit, note in extra:
        print(f"{name} = {value} {unit} ({note})")
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} failed of {attempted} "
          f"checked operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
