"""entgeo benchmark: one command for every workload and metric.

Run from the repository root:

    python3 perfbench/run.py --workload fixed_point --seed 1 --seconds 36 --trace 0

With --trace 0 it reports the end-to-end metrics, measured untraced, with
item latencies scaled to the host's speed by a reference loop timed in the
same run (see README.md); with --trace 1 the per-layer metrics of a traced
run.  Every metric is printed
by name with its unit, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Details (sample counts,
the tail percentile, set-up samples, versions, failure notes) go to
.perfbench_out/ in the repository root.

Each workload runs closed-loop: one caller, one process, BLAS pinned to one
thread.  Set-up (fresh interpreter, entgeo import, input generation,
warm-up) is measured in five fresh processes, two before the measuring
process, the measuring process itself and two after it, and reported as
the median.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# pinned before any child process (and any numpy) starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("fixed_point", "quantum_reports", "gpt_composites")
# Set-up time changes with the host from one second to the next, so its
# samples are taken before and after the measuring process (the middle one).
SETUP_BEFORE = SETUP_AFTER = 2
DEADLINE_S = 170.0

UNITS = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_fraction": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "trace.overhead_fraction":
        return "ratio"
    if name == "cli.stdout_bytes":
        return "B"
    return "count"


def worker(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--seconds", str(args.seconds), "--out-dir", str(OUT_DIR),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before the measuring process started")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="entgeo benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "entgeo" / "__init__.py").is_file():
        print(f"perfbench: no entgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    try:
        if args.trace:
            setup_samples = []
            result = worker(args, "trace", deadline)
            metrics = result["metrics"]
            units = {name: layer_unit(name) for name in metrics}
        else:
            setup_samples = [
                worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_BEFORE)
            ]
            result = worker(args, "measure", deadline)
            setup_samples.append(result["setup_s"])
            setup_samples += [
                worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_AFTER)
            ]
            metrics = {
                "items_per_s": result["items_per_s"],
                "item_p50_ms": result["item_p50_ms"],
                "item_tail_ms": result["item_tail_ms"],
                "setup_s": statistics.median(setup_samples),
                "peak_rss_mb": result["peak_rss_mb"],
            }
            units = dict(UNITS)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    details = dict(result["details"], setup_samples_s=setup_samples)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "environment": env,
                "attempted": attempted,
                "failed": failed,
                "failure_notes": result["failure_notes"],
                "metrics": metrics,
                "details": details,
            },
            indent=2,
        )
    )
    shown = dict(metrics, failed_fraction=failed / attempted)
    for name, value in shown.items():
        print(f"{args.workload} {name} {value:.6g} {units.get(name, UNITS.get(name))}")
    print("details " + json.dumps({k: v for k, v in details.items() if k != "latency_ms_by_kind"}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
