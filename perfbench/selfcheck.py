"""Self-check of the benchmark at reduced size.

    python3 perfbench/selfcheck.py

For every workload, runs ``run.py --quick`` untraced and traced and asserts
that the result line holds exactly the metrics BENCHMARK.json declares,
each with its unit, and no failed check.  Then it runs each workload's job
in this process, corrupts one output, and asserts that the workload's
check counts it, so that ``fail_ratio`` rises above 0.  Exits 0 when every
assertion holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def check_emitted(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    want = declared("per_layer" if trace else "end_to_end")
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == want, (workload, trace, got, want)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
        assert any(line.startswith(name) for line in lines[:-1]), f"{name} not printed"
    assert any(line.startswith("fail_ratio = 0 ") for line in lines), lines


def _corrupt_scan(outputs):
    outputs["hash"] = "0" * 64


def _corrupt_classify(outputs):
    outputs[0]["hash"] = outputs[0]["hash"][::-1]


def _corrupt_certify(cases, outputs):
    # Give the first tampered-case certificate the tampered Y: a bad emit.
    number = next(i for i, case in enumerate(cases) if case.tamper is not None)
    text, verdict, tampered = outputs[number]
    outputs[number] = (workloads._tamper(text, cases[number].tamper), verdict, tampered)


def _corrupt_identities(ops, outputs):
    number = next(i for i, (kind, _mats) in enumerate(ops) if kind == "s4")
    outputs[number] = False


def check_corruption_counted(name: str) -> None:
    workload = workloads.WORKLOADS[name](True)
    inputs = workload.setup(7, 0)
    outputs = workload.run("job", inputs, tracing.NULL)["outputs"]
    attempted, problems = workload.check("job", inputs, outputs)
    assert attempted >= 1 and not problems, (name, problems)
    if name == "scan-z9":
        _corrupt_scan(outputs)
    elif name == "classify-mix":
        _corrupt_classify(outputs)
    elif name == "certify-mix":
        _corrupt_certify(inputs, outputs)
    else:
        _corrupt_identities(inputs, outputs)
    attempted, problems = workload.check("job", inputs, outputs)
    fail_ratio = len(problems) / attempted
    assert fail_ratio > 0, (name, "corrupted output not counted as failed")


def main() -> int:
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_emitted(name, trace)
        check_corruption_counted(name)
        print(f"{name}: metrics emitted with units; corrupted output counted as failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
