"""Smoke-size self-test of the benchmark.

Runs every workload of ``BENCHMARK.json`` on tiny inputs, untraced and
traced, and asserts that each emits exactly its named metrics with their
declared units, passes its output checks, and prints every metric by name.
Then checks that the benchmark fails (non-zero exit, no result line) in a
directory holding only the benchmark and not the program.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def check_workload(spec: dict, workload: str, trace: int) -> None:
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace} failed:\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(units), (
        f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
        f"{set(result['metrics']) ^ set(units)}"
    )
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], (name, metric["unit"], units[name])
        assert math.isfinite(metric["value"]), (name, metric)
        assert any(line.startswith(f"{name} = ") for line in lines), f"{name} not printed"
        if not trace:
            assert metric["value"] != 0, f"end-to-end metric {name} is 0"


def check_bare_directory(spec: dict) -> None:
    """Without ``src/`` the benchmark must exit non-zero and print no result."""
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "benchmark succeeded without the program"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_workload(spec, workload, trace)
            print(f"ok  {workload} --trace {trace}", flush=True)
    check_bare_directory(spec)
    print("ok  fails without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
