"""Set-up, the closed measurement loop, the traced run and the result line.

One client issues the workload's commands one after another through
``aucmax.cli.main(argv)`` in this process.  A pass is one run of the
workload's command sequence; passes repeat until the run's seconds are
used, and every end-to-end time is the median over passes.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import aucmax
import aucmax.cli as cli
from aucmax.features import build_feature_sets, default_channel_indices

from calibrate import Calibration
from checks import Checker
from tracing import Tracer
from workloads import FULL, TINY, WORKLOADS, sha256_file

SETUP_REPEATS = 3
MIN_PASSES = 3               # per kind of pass: untraced, and traced in a trace run
INCREMENT_REPEATS = 3        # build_feature_sets timings per level (features.setK_increment_s)
SCALES = {"full": FULL, "tiny": TINY}
COMMAND_METRICS = {"extract": "extract_s", "train": "train_s", "compare": "compare_s"}
INCREMENT_METRICS = ("features.set1_s", "features.set2_increment_s",
                     "features.set3_increment_s", "features.set4_increment_s")


@dataclass
class Pass:
    index: int
    traced: bool
    seconds: dict = field(default_factory=lambda: defaultdict(float))
    attempted: int = 0
    errors: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    split: dict = field(default_factory=dict)
    speed: float = 1.0       # calibration factor measured around this pass's commands

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    @property
    def failed(self) -> int:
        return len({e[0] for e in self.errors})


def run_pass(workload, index, checker, tracer=None, calibration=None) -> Pass:
    """Run the workload's commands once, sampling machine speed before each;
    check outputs after the timed part."""
    record = Pass(index=index, traced=tracer is not None)
    done = []
    first_sample = len(calibration.samples) if calibration is not None else 0
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for cmd in workload.commands(index):
            if calibration is not None:
                calibration.sample()
                calibration.sample()
            start = time.perf_counter()
            if tracer is not None:
                tracer.enter(f"cli.{cmd.kind}")
            try:
                rc = cli.main(list(cmd.argv))
            finally:
                if tracer is not None:
                    tracer.exit()
            record.seconds[cmd.kind] += time.perf_counter() - start
            done.append((cmd, rc))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if calibration is not None:
        calibration.sample()
        calibration.sample()
        record.speed = calibration.factor(calibration.samples[first_sample:])
    if tracer is not None:
        record.layers = tracer.layer_metrics()
        record.split = tracer.design_split()
    for n, (cmd, rc) in enumerate(done):
        record.attempted += 1
        problems = [f"exit code {rc}"] if rc != 0 else checker.check(cmd)
        record.errors += [(n, f"pass {index} {cmd.kind}: {p}") for p in problems]
    return record


def set_up(workload, checker, calibration) -> tuple[list[float], dict, list[str]]:
    """Generate the inputs SETUP_REPEATS times; every repeat must give the
    same bytes.  Returns the repeat times, the input hashes and errors."""
    times, first, errors = [], None, []
    for r in range(SETUP_REPEATS):
        shutil.rmtree(workload.inputs, ignore_errors=True)
        calibration.sample()
        calibration.sample()
        start = time.perf_counter()
        hashes = workload.setup(cli.main)
        times.append(time.perf_counter() - start)
        if first is None:
            first = hashes
        elif hashes != first:
            errors.append(f"set-up repeat {r}: generated inputs differ from repeat 0")
    if (workload.inputs / "set2").is_dir():
        errors += [f"set-up: {e}" for e in
                   checker.check_table(workload.inputs / "set2", workload.scale.set2_trials, 2)]
    return times, first, errors


def warm_up(workload_cls, root: Path, seed: int) -> list[str]:
    """One pass at TINY sizes, so lazy imports and first-call costs are paid
    before timing."""
    tiny = workload_cls(root, seed, TINY)
    checker = Checker(tiny)
    tiny.setup(cli.main)
    return [e for _, e in run_pass(tiny, 0, checker).errors]


def measure(workload, checker, seconds: float, trace: bool, calibration) -> list[Pass]:
    """Closed loop; a trace run alternates untraced and traced passes."""
    tracer = Tracer() if trace else None
    passes = []
    start = time.perf_counter()
    minimum = 2 * MIN_PASSES if trace else MIN_PASSES
    while True:
        index = len(passes)
        passes.append(run_pass(workload, index, checker,
                               tracer if trace and index % 2 == 1 else None, calibration))
        elapsed = time.perf_counter() - start
        if len(passes) >= minimum and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def feature_increments(trial) -> dict[str, float]:
    """Median time of build_feature_sets at each level on one trial, as
    Set1 and the increments Set2-Set1, Set3-Set2, Set4-Set3."""
    medians = []
    for level in (1, 2, 3, 4):
        runs = []
        for _ in range(INCREMENT_REPEATS):
            start = time.perf_counter()
            build_feature_sets(trial, channels=default_channel_indices(), set_id=level)
            runs.append(time.perf_counter() - start)
        medians.append(statistics.median(runs))
    return dict(zip(INCREMENT_METRICS, [medians[0], *np.diff(medians)]))


def layer_summary(passes: list[Pass], increments: dict) -> dict[str, float]:
    """Counts and ratios from the first traced pass (they repeat exactly);
    times as the median over traced passes, each at its pass's speed."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    metrics = {}
    for name, first in traced[0].layers.items():
        metrics[name] = first if _unit(name) != "s" else statistics.median(
            p.speed * p.layers[name] for p in traced)
    metrics.update(increments)
    metrics["trace_overhead_s"] = (statistics.median(p.speed * p.total for p in traced)
                                   - statistics.median(p.speed * p.total for p in untraced))
    return metrics


def provenance(root: Path, seed: int, inputs: dict) -> dict:
    """Machine, toolchain and input identity of this run."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            caches[name.lower()] = os.sysconf(f"SC_{name}")
        except (ValueError, OSError):
            caches[name.lower()] = None
    sources = sorted((root / "src" / "aucmax").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{config.get('name')} {config.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(root),
        "source_sha256": {p.name: sha256_file(p) for p in sources},
        "aucmax_version": aucmax.__version__,
        "workload_seed": seed,
        "input_sha256": inputs,
    }


def _git_commit(root: Path):
    """HEAD's commit from the .git directory, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args, root: Path, import_s: float) -> int:
    scale = SCALES[args.scale]
    workload_cls = WORKLOADS[args.workload]
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{args.scale}"
    work = root / ".perfbench" / tag
    shutil.rmtree(work, ignore_errors=True)
    workload = workload_cls(work, args.seed, scale)
    checker = Checker(workload)
    calibration = Calibration()

    setup_times, inputs, setup_errors = set_up(workload, checker, calibration)
    start = time.perf_counter()
    setup_errors += warm_up(workload_cls, work / "warmup", args.seed)
    warmup_s = time.perf_counter() - start
    setup_wall_s = import_s + statistics.median(setup_times) + warmup_s
    calibration.sample()
    calibration.sample()
    setup_speed = calibration.factor()          # samples of the set-up phase only

    passes = measure(workload, checker, float(args.seconds), bool(args.trace), calibration)
    untraced = [p for p in passes if not p.traced]
    increments = dict.fromkeys(INCREMENT_METRICS, 0.0)
    if args.trace and workload.name == "eeg-set4-extract":
        increments = feature_increments(workload.first_trial)
    speed = calibration.factor()

    # Set-up (its repeats and the warm-up) counts as one operation.
    attempted = 1 + sum(p.attempted for p in passes)
    failed = int(bool(setup_errors)) + sum(p.failed for p in passes)
    errors = setup_errors + [e for p in passes for _, e in p.errors]
    pipeline_wall_s = statistics.median(p.total for p in untraced)
    end_to_end = {
        "pipeline_s": (statistics.median(p.speed * p.total for p in untraced), "s"),
        "setup_s": (setup_speed * setup_wall_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    command_times = {
        metric: statistics.median(p.speed * p.seconds[kind] for p in untraced)
        for kind, metric in COMMAND_METRICS.items() if kind in untraced[0].seconds
    }
    report = {
        "workload": args.workload,
        "scale": args.scale,
        "trace": args.trace,
        "end_to_end": {name: value for name, (value, _) in end_to_end.items()},
        "command_metrics": command_times,
        "auc_test": _auc_test(workload),
        "error_rate": failed / attempted,
        "errors": errors,
        "speed_factor": speed,
        "setup_speed_factor": setup_speed,
        "calibration_s": calibration.samples,
        "wall": {
            "pipeline_s": pipeline_wall_s,
            "setup_s": setup_wall_s,
            "import_s": import_s,
            "generate_s": setup_times,
            "warmup_s": warmup_s,
            "passes": [{"traced": p.traced, "speed": p.speed, **p.seconds} for p in passes],
        },
        "provenance": provenance(root, args.seed, inputs),
    }
    if args.trace:
        layers = layer_summary(passes, {k: speed * v for k, v in increments.items()})
        report["per_layer"] = layers
        report["design_split"] = {
            k: statistics.median(p.split[k] for p in passes if p.traced)
            for k in passes[1].split
        }
        metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    else:
        metrics = end_to_end

    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in end_to_end.items():
        print(f"{name} {value:.6g} {unit}")
    for name, value in command_times.items():
        print(f"{name} {value:.6g} s")
    if report["auc_test"] is not None:
        print(f"auc_test {report['auc_test']:.6g} 1")
    print(f"error_rate {report['error_rate']:.6g} 1")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    print(f"pipeline_wall_s {pipeline_wall_s:.6g} s (speed factor {speed:.4g}, "
          f"median of {len(untraced)} untraced passes)")
    for e in errors[:20]:
        print(f"error: {e}")
    if args.trace:
        for name, value in report["design_split"].items():
            print(f"{name} {value:.3f}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _auc_test(workload):
    """Test AUC of the converged Newton model of the last pass, if trained."""
    path = workload.out / "train-newton" / "report.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["test"]["auc"]


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "1"
    return "count"
