"""Self-tests of the benchmark, on its tiny size.

Run from the root of a checkout:

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"1/op", "count", "B/op", "GFLOP/op"}


def run_bench(workload, trace, seed=5, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_spec():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    lines, result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert np.isfinite(metric["value"])
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1])


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_for_a_seed(workload):
    first = result_of(run_bench(workload, 1))[1]["metrics"]
    second = result_of(run_bench(workload, 1))[1]["metrics"]
    counts = [name for name, m in first.items() if m["unit"] in COUNT_UNITS]
    counts.append("fixed_point.contraction_p50")
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["fixed_point.solves"]["value"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_gate_catches_a_corrupted_estimate(workload):
    wl = workloads.WORKLOADS[workload](seed=5, size="tiny")
    inp = wl.input(0)
    out = wl.op(inp)
    assert wl.check(inp, out) == []
    theta, se = wl.estimate(out)
    theta += 0.01 * se  # in place: the output now carries the corrupted estimate
    assert wl.check(inp, out)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(NAMES[0], 0, cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
