"""Seeded inputs and command sequences of the three benchmark workloads.

The benchmark's own numpy generator makes every input from the workload
seed; the program under test sees only the files written here.  Each
workload is a fixed sequence of ``aucmax`` CLI commands (one "pass"); the
runner repeats passes in a closed loop.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from aucmax.signals import TrialSignal, write_signal_binary, write_signal_csv

FS = 128.0
PRETRIAL_SECONDS = 3.0
N_CHANNELS = 32                  # >= 32 makes `extract --channels auto` pick the 14-channel montage
WINDOW_SECONDS, STRIDE_SECONDS = 2.0, 0.5      # the CLI's default windowing
SPLIT_SEEDS_PER_RUN = 3          # synth-protocol cycles its passes over this many split seeds


@dataclass(frozen=True)
class Scale:
    """Input sizes and iteration caps; FULL is the benchmark, TINY the self-test."""

    synth_n: int
    synth_dim: int
    trial_seconds: float
    set2_trials: int
    set4_trials: int
    gda_cap: int
    qn_cap: int
    baseline_cap: int

    @property
    def rows_per_trial(self) -> int:
        post = self.trial_seconds - PRETRIAL_SECONDS
        return int((post - WINDOW_SECONDS) / STRIDE_SECONDS) + 1


# baseline_cap stays below the ~4,800-7,400 iterations the SVM needs to meet its
# default tolerance on 3000x20 data, so every seed does the same baseline work.
FULL = Scale(synth_n=3000, synth_dim=20, trial_seconds=63.0, set2_trials=10,
             set4_trials=2, gda_cap=100, qn_cap=8, baseline_cap=3000)
TINY = Scale(synth_n=300, synth_dim=5, trial_seconds=9.0, set2_trials=4,
             set4_trials=2, gda_cap=20, qn_cap=3, baseline_cap=200)


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``out`` is the directory it writes."""

    kind: str
    argv: tuple[str, ...]
    out: Path
    params: dict


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Synthetic multichannel trials

def _shaped_noise(rng, shape, fs, low=None, high=None, pink=False):
    """White noise shaped in the frequency domain: 1/sqrt(f) (pink) and/or
    restricted to [low, high) Hz."""
    n = shape[-1]
    spectrum = np.fft.rfft(rng.standard_normal(shape), axis=-1)
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    gain = np.ones_like(freqs)
    if pink:
        gain[1:] = 1.0 / np.sqrt(freqs[1:])
        gain[0] = 0.0
    if low is not None:
        gain *= (freqs >= low) & (freqs < high)
    out = np.fft.irfft(spectrum * gain, n=n, axis=-1)
    return out / out.std(axis=-1, keepdims=True)


def make_trial(seed: int, index: int, label: int, seconds: float) -> TrialSignal:
    """One 32-channel trial: mixed pink sources, white sensor noise and an
    alpha rhythm that is 12% stronger on a few montage channels in positive
    trials.  Every trial of a class is drawn from the same stationary
    process, so windows overlap between classes and the test AUC stays
    below 1."""
    rng = np.random.default_rng([seed, index])
    n = int(round(seconds * FS))
    mixing = np.random.default_rng([seed, 10**6]).standard_normal((N_CHANNELS, 8)) / np.sqrt(8)
    sources = _shaped_noise(rng, (8, n), FS, pink=True)
    alpha = _shaped_noise(rng, (N_CHANNELS, n), FS, low=8.0, high=13.0)
    gain = np.full(N_CHANNELS, 0.6)
    if label == 1:
        gain[[0, 2, 10, 18, 24]] *= 1.12        # 0-based rows of five montage channels
    samples = mixing @ sources + 0.5 * rng.standard_normal((N_CHANNELS, n)) + gain[:, None] * alpha
    return TrialSignal(samples, FS, PRETRIAL_SECONDS)


def trial_labels(count: int) -> list[int]:
    """About one positive trial in three (2:1 imbalance), at least one of each."""
    positives = max(1, round(count / 3))
    return [1 if i % 3 == 0 and i // 3 < positives else -1 for i in range(count)]


def write_trials(directory: Path, seed: int, count: int, seconds: float,
                 csv_every: int) -> tuple[dict[str, str], TrialSignal]:
    """Write ``count`` trials plus ``labels.csv``; every ``csv_every``-th trial
    (starting with the first) is a signal CSV, the rest binary.  Returns the
    files' sha256 and the first trial's signal."""
    directory.mkdir(parents=True, exist_ok=True)
    sig_dir = directory / "signals"
    sig_dir.mkdir(exist_ok=True)
    rows = ["trial,label"]
    first = None
    for i, label in enumerate(trial_labels(count)):
        trial = make_trial(seed, i, label, seconds)
        first = first if first is not None else trial
        stem = f"trial{i:03d}"
        if csv_every and i % csv_every == 0:
            write_signal_csv(trial, sig_dir / f"{stem}.csv")
        else:
            write_signal_binary(trial, sig_dir / f"{stem}.bin")
        rows.append(f"{stem},{'+1' if label == 1 else '-1'}")
    (directory / "labels.csv").write_text("\n".join(rows) + "\n")
    hashes = {str(p.relative_to(directory)): sha256_file(p)
              for p in sorted(directory.rglob("*")) if p.is_file()}
    return hashes, first


# ---------------------------------------------------------------------------
# Workloads

class Workload:
    """Inputs under ``root/inputs``; pass outputs under ``root/out``."""

    name = ""

    def __init__(self, root: Path, seed: int, scale: Scale):
        self.root = Path(root)
        self.seed = int(seed)
        self.scale = scale
        self.inputs = self.root / "inputs"
        self.out = self.root / "out"
        self.first_trial: TrialSignal | None = None

    def setup(self, cli_main) -> dict[str, str]:
        """Generate the inputs; returns sha256 per generated file."""
        raise NotImplementedError

    def commands(self, pass_index: int) -> list[Command]:
        raise NotImplementedError

    def _cmd(self, kind, out, *args, **params) -> Command:
        argv = (kind, *[str(a) for a in args], "--out", str(out))
        return Command(kind, argv, Path(out), params)


class SynthProtocol(Workload):
    name = "synth-protocol"

    def setup(self, cli_main):
        self.inputs.mkdir(parents=True, exist_ok=True)
        return {}

    def commands(self, pass_index):
        s = self.scale
        table = self.out / "synth" / "features.csv"
        split_seed = 1000 * self.seed + pass_index % SPLIT_SEEDS_PER_RUN
        cmds = [self._cmd("synth", table.parent, "--n", s.synth_n, "--dim", s.synth_dim,
                          "--pos-frac", 0.333, "--sep", 2, "--seed", self.seed,
                          n=s.synth_n, dim=s.synth_dim, pos_frac=0.333)]
        for solver in ("sim-gda", "alt-gda", "extragradient", "newton", "qn-broyden"):
            cmds.append(self._cmd("train", self.out / f"train-{solver}", "--features", table,
                                  "--solver", solver, "--seed", split_seed,
                                  table=table, solver=solver, seed=split_seed,
                                  tol=1e-3, cap=50_000))
        cmds.append(self._cmd("eval", self.out / "eval", "--features", table,
                              "--model", self.out / "train-newton" / "model.json",
                              table=table, model=self.out / "train-newton" / "model.json"))
        cmds.append(self._cmd("compare", self.out / "compare", "--features", table,
                              "--seed", split_seed, "--baseline-max-iter", s.baseline_cap,
                              table=table, seed=split_seed, tol=1e-3, cap=50_000))
        return cmds


class EegSet2Train(Workload):
    name = "eeg-set2-train"

    def setup(self, cli_main):
        s = self.scale
        hashes, self.first_trial = write_trials(self.inputs, self.seed, s.set2_trials,
                                                s.trial_seconds, csv_every=0)
        table_dir = self.inputs / "set2"
        rc = cli_main(["extract", "--signals", str(self.inputs / "signals"),
                       "--labels", str(self.inputs / "labels.csv"), "--set", "2",
                       "--out", str(table_dir)])
        if rc != 0:
            raise RuntimeError(f"set-up extract exited {rc}")
        hashes["set2/features.csv"] = sha256_file(table_dir / "features.csv")
        return hashes

    def commands(self, pass_index):
        s = self.scale
        table = self.inputs / "set2" / "features.csv"
        seed = 1000 * self.seed
        runs = (("newton", ()), ("alt-gda", ("--max-iter", s.gda_cap)),
                ("qn-broyden", ("--max-iter", s.qn_cap)))
        cmds = []
        for solver, extra in runs:
            cap = int(extra[1]) if extra else 50_000
            cmds.append(self._cmd("train", self.out / f"train-{solver}", "--features", table,
                                  "--solver", solver, "--seed", seed, *extra,
                                  table=table, solver=solver, seed=seed, tol=1e-3, cap=cap))
        model = self.out / "train-newton" / "model.json"
        cmds.append(self._cmd("eval", self.out / "eval", "--features", table,
                              "--model", model, table=table, model=model))
        return cmds


class EegSet4Extract(Workload):
    name = "eeg-set4-extract"

    def setup(self, cli_main):
        s = self.scale
        hashes, self.first_trial = write_trials(self.inputs, self.seed, s.set4_trials,
                                                s.trial_seconds, csv_every=2)
        return hashes

    def commands(self, pass_index):
        return [self._cmd("extract", self.out / "extract",
                          "--signals", self.inputs / "signals",
                          "--labels", self.inputs / "labels.csv", "--set", 4,
                          trials=self.scale.set4_trials, set=4)]


WORKLOADS = {cls.name: cls for cls in (SynthProtocol, EegSet2Train, EegSet4Extract)}
