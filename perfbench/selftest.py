#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selftest.py

1. Every workload runs through ``run.py`` with and without tracing, emits
   exactly the metrics ``BENCHMARK.json`` names (and the layer map in
   ``layers.json`` covers every per-layer metric), and passes its checks.
2. Traced counts repeat exactly between two runs with the same seed.
3. Deliberately corrupted outputs count as failed operations: a perturbed
   ``w`` in a model, an altered reported AUC, and a truncated feature CSV.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5
TIME_METRIC_SUFFIX = "_s"
HUMAN_METRICS = {   # printed by name and unit on stdout, beyond the final JSON line
    "synth-protocol": ("train_s", "compare_s", "auc_test", "error_rate"),
    "eeg-set2-train": ("train_s", "auc_test", "error_rate"),
    "eeg-set4-extract": ("extract_s", "error_rate"),
}


def run_benchmark(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_emitted(spec, layers, failures):
    counts = {}
    for workload in HUMAN_METRICS:
        for trace in (0, 1):
            human, result = run_benchmark(workload, trace)
            section = spec["per_layer"] if trace else spec["end_to_end"]
            expected = {m["name"]: m["unit"] for m in section}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = f"{workload} trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{tag}: result keys {sorted(result)}")
            if got != expected:
                failures.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{tag}: not correct ({result['failed']} failed)")
            printed = {line.split()[0] for line in human if line.strip()}
            for name in (*[m["name"] for m in spec["end_to_end"]], *HUMAN_METRICS[workload]):
                if name not in printed:
                    failures.append(f"{tag}: {name} not printed")
            if trace:
                counts.setdefault(workload, []).append(
                    {k: v["value"] for k, v in result["metrics"].items()
                     if not k.endswith(TIME_METRIC_SUFFIX)})
    missing = {m["name"] for m in spec["per_layer"]} - set(layers["metrics"])
    if missing:
        failures.append(f"layers.json lacks {sorted(missing)}")
    for workload in HUMAN_METRICS:            # second traced run: counts must repeat exactly
        _, result = run_benchmark(workload, 1)
        again = {k: v["value"] for k, v in result["metrics"].items()
                 if not k.endswith(TIME_METRIC_SUFFIX)}
        if again != counts[workload][0]:
            diff = sorted(k for k in again if again[k] != counts[workload][0].get(k))
            failures.append(f"{workload}: traced counts differ between runs: {diff}")


def check_corruption(failures):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import aucmax.cli as cli
    import harness
    from checks import Checker
    from workloads import TINY, WORKLOADS

    def perturb_w(out):
        path = out / "model.json"
        model = json.loads(path.read_text())
        model["w"][0] += 0.05
        path.write_text(json.dumps(model))

    def alter_auc(out):
        path = out / "comparison.json"
        report = json.loads(path.read_text())
        report["rows"][-1]["auc"] -= 0.01
        path.write_text(json.dumps(report))

    def truncate_csv(out):
        path = out / "features.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))

    cases = (
        ("synth-protocol", "train-newton", perturb_w),
        ("synth-protocol", "compare", alter_auc),
        ("eeg-set4-extract", "extract", truncate_csv),
    )
    work = ROOT / ".perfbench" / "selftest"
    real_main = cli.main
    try:
        for name, target, corrupt in cases:
            shutil.rmtree(work, ignore_errors=True)
            workload = WORKLOADS[name](work, SEED, TINY)
            checker = Checker(workload)
            workload.setup(real_main)
            clean = harness.run_pass(workload, 0, checker)

            def corrupting_main(argv):
                rc = real_main(argv)
                out = Path(argv[argv.index("--out") + 1])
                if out.name == target:
                    corrupt(out)
                return rc

            cli.main = corrupting_main
            try:
                bad = harness.run_pass(workload, 0, checker)
            finally:
                cli.main = real_main
            tag = f"{name}: {corrupt.__name__}"
            if clean.failed != 0:
                failures.append(f"{tag}: clean pass failed: {clean.errors}")
            if bad.failed != 1:
                failures.append(f"{tag}: {bad.failed} failed operations, expected 1")
            else:
                print(f"caught {tag}: {bad.errors[0][1]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    failures = []
    check_emitted(spec, layers, failures)
    check_corruption(failures)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
