"""Benchmark of profix: a large survival fit and the mixture acceptance Monte Carlo study.

Run from the root of a checkout:

    python3 bench/run.py --workload surv_fit_n3000 --seed 1 --seconds 40 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

- ``surv_fit_n3000``: ``profix fit --force`` on a continuous-baseline
  survival dataset of 3000 records per operation;
- ``mix_mc_n500``: one replication of the mixture acceptance study.

Each runs as a closed loop in a fresh process with single-threaded BLAS
(``worker.py``); the next operation starts when the last one ends.  Set-up
(imports, input generation, one warm-up operation) is measured in that
process and in set-up-only processes before and after it, and reported as
the median.  Every operation passes a correctness gate or counts as failed.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``op_s_best``
(the median operation time in the run's fastest window, see
``worker.best_window``) and ``peak_rss_mb``.  Whole-run throughput, median
and 90th percentile are printed as lines of their own; they are not in the
result, because on a shared host they move with other tenants' load more
than the bound a change is judged by.  ``--trace 1`` runs the same
operations with spans around the program's layers (``tracing.py``) and
prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The process exits 0 only when it printed that line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).with_name("worker.py")

#: Set-up-only processes started before and after the run, by size; the
#: median of their set-up times and the run's own is ``setup_s``.
SETUP_ONLY = {"full": (2, 2), "tiny": (0, 0)}

#: Everything, set-up processes included, must finish within this many seconds.
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_best": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    pass


def run_worker(args, mode, deadline):
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--mode", mode,
    ]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker ({mode}) exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args):
    if not (ROOT / "src" / "profix" / "__init__.py").is_file():
        raise BenchmarkError(f"no profix sources under {ROOT / 'src'}")
    deadline = time.monotonic() + BUDGET_S
    before, after = SETUP_ONLY[args.size]
    setups = [run_worker(args, "setup", deadline)["setup_s"] for _ in range(before)]
    result = run_worker(args, "run", deadline)
    setups.append(result["setup_s"])
    setups += [run_worker(args, "setup", deadline)["setup_s"] for _ in range(after)]
    if args.trace:
        units = tracing.METRICS
        metrics = result["metrics"]
    else:
        units = END_TO_END_UNITS
        metrics = dict(result["metrics"], setup_s=statistics.median(setups),
                       peak_rss_mb=result["peak_rss_mb"])
    return result, {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SETUP_ONLY), default="full",
                        help="tiny runs a small fit dataset, for the self-tests")
    args = parser.parse_args(argv)
    try:
        result, metrics = measure(args)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("environment " + json.dumps(result["env"], sort_keys=True))
    if "trace_file" in result:
        print(f"spans written to {result['trace_file']}")
    for problem in result["problems"]:
        print(f"gate failure: {problem}")
    print(f"fail_frac {result['failed'] / result['attempted']:.6g} ratio")
    for name, (value, unit) in result.get("info", {}).items():
        print(f"{name} {value:.6g} {unit}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
