#!/usr/bin/env python3
"""Walk through the signal feature pipeline on a synthetic trial.

Builds a 63-second, 14-channel recording with a 3-second pre-trial
stretch, plants band-limited rhythms and one phase-locked channel pair,
then extracts the four cumulative feature sets and inspects what the
individual operations report.
"""

import numpy as np

from aucmax import (
    DEFAULT_BANDS,
    TrialSignal,
    WindowSpec,
    band_power_psd,
    build_feature_sets,
    butterworth_bandpass,
    differential_entropy,
    lagged_correlation,
    plv,
    segment,
)

fs = 128.0
rng = np.random.default_rng(3)
t = np.arange(int(63 * fs)) / fs

# 14 channels of pink-ish noise with per-channel rhythms; channels 0 and 1
# share a 10 Hz alpha oscillation at a fixed phase lag (they should show a
# high PLV), channel 2 is channel 0 delayed by 32 samples (high lagged
# correlation at tau = 32).
data = 0.8 * rng.standard_normal((14, t.size))
alpha_osc = np.sin(2 * np.pi * 10.0 * t)
data[0] += alpha_osc
data[1] += np.sin(2 * np.pi * 10.0 * t + np.pi / 4)
data[2, 32:] += alpha_osc[:-32]
for c in range(3, 14):
    data[c] += 0.5 * np.sin(2 * np.pi * (4 + c) * t)

trial = TrialSignal(data, fs, pretrial_seconds=3.0)
spec = WindowSpec(window_seconds=2.0, stride_seconds=0.5)

windows, starts = segment(trial, spec)
print(f"trial: {trial.n_channels} channels x {trial.n_samples} samples at {fs:g} Hz")
print(f"windows: {windows.shape[0]} of {windows.shape[2]} samples "
      f"(first starts at sample {starts[0]})")

# Band power of one window of the alpha-driven channel.
powers = band_power_psd(windows[0, 0], fs, DEFAULT_BANDS)
print("\nchannel 0, window 0 band power:")
for band, value in zip(DEFAULT_BANDS, powers):
    print(f"  {band.name:6s} ({band.low_hz:>4.0f}-{band.high_hz:<4.0f} Hz): {value:10.2f}")

# Differential entropy of the alpha-filtered channel, windowed.
alpha = DEFAULT_BANDS[1]
filtered = butterworth_bandpass(trial.post_pretrial()[0], fs, alpha, order=4)
print(f"\ndifferential entropy of alpha-filtered channel 0, window 0: "
      f"{differential_entropy(filtered[:256]):.4f}")

# Cross-channel synchrony.
f0 = butterworth_bandpass(trial.post_pretrial()[0], fs, alpha, 4)[:256]
f1 = butterworth_bandpass(trial.post_pretrial()[1], fs, alpha, 4)[:256]
f5 = butterworth_bandpass(trial.post_pretrial()[5], fs, alpha, 4)[:256]
print(f"alpha PLV(ch0, ch1) [locked pair]  : {plv(f0, f1):.3f}")
print(f"alpha PLV(ch0, ch5) [unrelated]    : {plv(f0, f5):.3f}")
raw = windows[10]
print(f"corr(ch0, ch2, lag 32) [delayed]   : {lagged_correlation(raw[0], raw[2], 32):.3f}")
print(f"corr(ch0, ch2, lag 0)  [misaligned]: {lagged_correlation(raw[0], raw[2], 0):.3f}")

# The four cumulative sets, with the realized layout the manifest records.
print("\ncumulative feature sets (rows x columns):")
for level in (1, 2, 3, 4):
    fm = build_feature_sets(trial, channels=range(14), spec=spec, set_id=level)
    blocks = ", ".join(f"{k}={v}" for k, v in fm.layout["block_columns"].items())
    print(f"  Set{level}: {fm.n_rows} x {fm.n_features:4d}  ({blocks})")
