"""One benchmark process: set up a workload, run it in a closed loop, check it.

``run.py`` starts this script in a fresh process with single-threaded
BLAS, so that its peak resident set belongs to one workload and its set-up
time includes the imports.  With ``--mode setup`` it only sets up (imports,
input generation and one warm-up operation) and reports the time that took.
The last line of its standard output is a JSON object for ``run.py``.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import profix  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

#: At most this many gate failures are quoted in the output.
MAX_PROBLEMS = 5

#: A window of the timed loop (``best_window``) holds at least this many
#: operations, taking at least this many seconds together.
WINDOW_OPS = 3
WINDOW_S = 0.2


def environment(seed):
    """What a result depends on besides the code: versions, threads, CPU."""
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        top = sha = None
    if top is None or Path(top).resolve() != ROOT:
        sha = None  # an exported tree is no git checkout, or belongs to another one
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_sha": sha,
        "seed": seed,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
    }


def op_times(wl, inputs):
    """Wall time of each operation, run one after another."""
    times = []
    for inp in inputs:
        t = perf_counter()
        wl.op(inp)
        times.append(perf_counter() - t)
    return times


def closed_loop(wl, seconds):
    """Start operations until the deadline; the last one runs to its end."""
    inputs, outputs, times, errors = [], [], [], {}
    t0 = perf_counter()
    deadline = t0 + seconds
    j = 0
    while True:
        inp = wl.input(j)
        t = perf_counter()
        try:
            out = wl.op(inp)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            out = None
            errors[j] = f"input {inp}: {type(exc).__name__}: {exc}"
        times.append(perf_counter() - t)
        inputs.append(inp)
        outputs.append(out)
        j += 1
        if perf_counter() >= deadline:
            return inputs, outputs, times, errors, perf_counter() - t0


def gate(wl, inputs, outputs, errors):
    """Problems per failed operation, from the correctness gate."""
    problems = []
    for j, (inp, out) in enumerate(zip(inputs, outputs)):
        found = [errors[j]] if j in errors else wl.check(inp, out)
        if found:
            problems.append("; ".join(found))
    return problems


def best_window(times):
    """Median op time in the run's fastest window of consecutive operations.

    A window closes once it holds ``WINDOW_OPS`` operations and
    ``WINDOW_S`` seconds of them; a trailing window that is not full is
    left out unless it is the only one.  On a shared host the same
    operations take up to 1.8 times as long while other tenants load the
    cores, in phases of seconds to minutes; the fastest window is the speed
    of the program itself, as the best of ``timeit``'s repeats is.
    """
    windows, current = [], []
    for t in times:
        current.append(t)
        if len(current) >= WINDOW_OPS and sum(current) >= WINDOW_S:
            windows.append(statistics.median(current))
            current = []
    return min(windows) if windows else statistics.median(current)


def run_end_to_end(wl, seconds):
    inputs, outputs, times, errors, loop_s = closed_loop(wl, seconds)
    problems = gate(wl, inputs, outputs, errors)
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    metrics = {"op_s_best": best_window(times)}
    info = {
        "ops_per_s": (len(times) / loop_s, "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_p90": (p90, "s"),
    }
    return len(inputs), problems, metrics, info


def traced_batch(wl, tracer, batch):
    """Run one batch with the layers wrapped."""
    patches = tracing.install(tracer)
    try:
        return [tracer.call("bench.op", "bench", wl.op, (inp,), {}, op=True) for inp in batch]
    finally:
        tracing.uninstall(patches)


def run_traced(wl, seconds, trace_path):
    """Traced batches, each followed by the same operations untraced.

    Alternating keeps a drift in machine speed from showing as tracing
    overhead.
    """
    tracer = tracing.Tracer()
    inputs, outputs, untraced = [], [], []
    t0 = perf_counter()
    while not inputs or perf_counter() - t0 < seconds:
        batch = [wl.input(len(inputs) + i) for i in range(wl.batch)]
        outputs += traced_batch(wl, tracer, batch)
        untraced += op_times(wl, batch)
        inputs += batch
    tracer.write(trace_path)
    metrics = tracing.layer_metrics(tracer.spans, wl.batch, statistics.fmean(untraced))
    return len(inputs), gate(wl, inputs, outputs, {}), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    args = parser.parse_args(argv)
    if Path(profix.__file__).resolve().parent != SRC / "profix":
        raise SystemExit(f"profix was imported from {profix.__file__}, not from {SRC}")

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    wl.op(wl.input(-1))
    result = {"setup_s": perf_counter() - T_START}
    if args.mode == "run":
        if args.trace:
            name = f"trace-{args.workload}-{args.size}-{args.seed}.jsonl.gz"
            trace_path = ROOT / ".bench_out" / name
            attempted, problems, metrics = run_traced(wl, args.seconds, trace_path)
            result["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            attempted, problems, metrics, result["info"] = run_end_to_end(wl, args.seconds)
        result.update(
            attempted=attempted,
            failed=len(problems),
            problems=problems[:MAX_PROBLEMS],
            metrics=metrics,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            env=environment(args.seed),
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
