#!/usr/bin/env python3
"""aucmax benchmark: one workload, one run.

    python3 perfbench/run.py --workload synth-protocol --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Prints every metric with its unit, then, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0`` and the per-layer metrics of a
traced run with ``--trace 1``.  The full report (per-pass times, checks,
environment and input hashes) goes to ``.perfbench/results/``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("synth-protocol", "eeg-set2-train", "eeg-set4-extract")
BLAS_THREADS = 1     # <= nproc; one thread keeps timings steady on a shared 2-core machine


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time; at least three passes run regardless")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the harness self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = ROOT / "src" / "aucmax" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from an aucmax source checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    import aucmax
    if Path(aucmax.__file__).resolve() != package.resolve():
        print(f"error: imported aucmax from {aucmax.__file__}, not {package}", file=sys.stderr)
        return 2
    import harness

    return harness.run(args, ROOT, import_s=time.perf_counter() - START)


if __name__ == "__main__":
    sys.exit(main())
