"""Record the reference estimates the benchmark's correctness gate compares with.

Runs every input of each workload's universe once and stores theta_hat and
se per input in ``reference.npz`` next to this file, merged with the keys
already there.  Run it from the root of a checkout, with single-threaded
BLAS, only at a commit whose estimates are trusted:

    OPENBLAS_NUM_THREADS=1 python3 bench/record_reference.py surv_fit_n3000 mix_mc_n500
    OPENBLAS_NUM_THREADS=1 python3 bench/record_reference.py surv_fit_n3000 --size tiny
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def record(name, size):
    wl = workloads.WORKLOADS[name](seed=0, size=size, reference={})
    thetas, ses = [], []
    for k in range(wl.universe):
        theta, se = wl.estimate(wl.op(k))
        if theta is None:
            raise SystemExit(f"{wl.key}: input {k} failed ({se})")
        thetas.append(theta)
        ses.append(se)
    # single precision is far finer than the gate tolerance and halves the file
    return {f"{wl.key}.theta": np.array(thetas, dtype=np.float32),
            f"{wl.key}.se": np.array(ses, dtype=np.float32)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    path = workloads.REFERENCE_PATH
    table = workloads.load_reference(path) if path.exists() else {}
    for name in args.workloads:
        table.update(record(name, args.size))
    np.savez_compressed(path, **table)


if __name__ == "__main__":
    main()
