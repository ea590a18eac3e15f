"""EHNA benchmark: one workload per invocation, result as a JSON last line.

Usage, from the repository root::

    python3 perfbench/run.py --workload train-dblp --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` runs
the workload twice on a fixed amount of work (one fit, one serve episode) —
untraced, then traced — checks that both passes computed bitwise-identical
results, and reports the per-layer metrics of the traced pass plus the
tracing overhead.  The span log is written to ``.perfbench/traces/``.
Every metric is printed by name and unit; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: on a 2-core machine the
# default spin-waiting pool slows fits and changes the loss in the last digits.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import fingerprint  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, spec, work: Path, checks) -> dict:
    res = workloads.run_pass(
        args.workload, spec, args.seed, args.seconds, work, checks,
        setups=spec["setups"], rounds=None,
        min_queries=workloads.MIN_QUERIES[args.size],
    )
    metrics = workloads.end_to_end(res)
    metrics["peak_rss_mb"] = peak_rss_mb()
    print(f"# samples: {len(res.setup_s)} set-ups, {res.fits} fits, "
          f"{len(res.episodes)} serve episodes, "
          f"{sum(len(e.encode_ms) for e in res.episodes)} encode calls")
    print(f"# encode.p50_ms = {metrics.pop('encode.p50_ms'):.6g} ms (not bounded)")
    return metrics


def measure_traced(args, spec, work: Path, checks, info: dict) -> dict:
    fixed = dict(setups=1, rounds=1, min_queries=1)
    plain = workloads.run_pass(
        args.workload, spec, args.seed, args.seconds, work, checks, **fixed
    )
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        traced = workloads.run_pass(
            args.workload, spec, args.seed, args.seconds, work, checks, **fixed
        )
    finally:
        tracing.uninstall(undo)
    checks.require(
        traced.loss_history == plain.loss_history and traced.auc == plain.auc
        and traced.episodes[0].digest == plain.episodes[0].digest,
        "tracing changed the computation (loss history, AUC or served answers)",
    )
    metrics = tracing.layer_metrics(tracer, traced.loops)
    metrics["trace.overhead_frac"] = traced.window_s / plain.window_s - 1.0
    out_dir = ROOT / ".perfbench" / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(
        out_dir / f"{args.workload}-seed{args.seed}.json",
        {"workload": args.workload, "seed": args.seed, "machine": info},
    )
    return metrics


def report(checks) -> None:
    print(f"fail_frac = {checks.failed / max(checks.attempted, 1):.6g} share "
          f"({checks.failed} of {checks.attempted} operations)")
    for problem in checks.problems:
        print(f"# FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the self-test")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    spec = workloads.params(args.workload, args.size)
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    info = fingerprint.machine(ROOT, work, spec["precision"])
    for key, value in info.items():
        print(f"# {key}: {value}")
    checks = workloads.Checks()
    try:
        if args.trace:
            metrics = measure_traced(args, spec, work, checks, info)
        else:
            metrics = measure(args, spec, work, checks)
    except Exception as exc:
        # An operation raised: it counts as failed, and the run has no result.
        checks.op(False, f"raised {exc!r}")
        report(checks)
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    report(checks)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
