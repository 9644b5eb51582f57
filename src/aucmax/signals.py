"""Time-series primitives for multichannel trials: sliding-window
segmentation, one-sided band power, zero-phase Butterworth band
decomposition, entropy and moment statistics, and cross-channel synchrony
(phase locking, lagged Pearson correlation).  The phase-locking value's
analytic signal is computed here on ``scipy.fft``, bit-equal to
``scipy.signal.hilbert``.

Trial files come in two interchangeable formats: a text CSV whose first
line is ``fs=<Hz>,pretrial=<s>,channels=<C>`` followed by one
comma-separated row per channel, and a raw little-endian binary with a
(u32 channels, u32 samples, f64 fs, f64 pretrial) header followed by
row-major f64 samples.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.fft

from ._rowblocks import row_chunks, text_floats, write_rows
from .rules import (FILTER_ORDER, MAX_FILTER_ORDER, NONNEGATIVE, NONNEGATIVE_INTEGER, POSITIVE,
                    POSITIVE_INTEGER, require)

__all__ = [
    "DEFAULT_BANDS",
    "DEFAULT_FILTER_ORDER",
    "MAX_FILTER_ORDER",
    "BandDef",
    "TrialSignal",
    "WindowSpec",
    "Stats",
    "ChannelStats",
    "segment",
    "power_spectrum",
    "band_power_psd",
    "butterworth_gain_squared",
    "butterworth_highpass_gain_squared",
    "butterworth_bandpass",
    "moment_stats",
    "pairwise_plv",
    "pairwise_lagged_correlation",
    "differential_entropy",
    "segment_stats",
    "segment_diff",
    "channel_stats",
    "plv",
    "lagged_correlation",
    "read_signal_csv",
    "write_signal_csv",
    "read_signal_binary",
    "write_signal_binary",
]

DEFAULT_FILTER_ORDER = 4


@dataclass(frozen=True)
class BandDef:
    """Named frequency band [low_hz, high_hz]."""

    name: str
    low_hz: float
    high_hz: float

    def __post_init__(self):
        if not 0.0 < self.low_hz < self.high_hz:
            raise ValueError(f"band {self.name!r} needs 0 < low < high")


DEFAULT_BANDS = (
    BandDef("theta", 4.0, 8.0),
    BandDef("alpha", 8.0, 13.0),
    BandDef("beta", 13.0, 30.0),
    BandDef("gamma", 30.0, 45.0),
)


@dataclass
class TrialSignal:
    """Channels x time samples at a fixed sampling rate, with an optional
    pre-trial stretch that feature extraction discards."""

    samples: np.ndarray
    sampling_rate: float
    pretrial_seconds: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2:
            raise ValueError("samples must be a channels x time 2-D array")
        if self.n_channels == 0:
            raise ValueError("samples must hold at least one channel")
        if not np.isfinite(self.samples).all():
            raise ValueError("samples contain NaN or Inf")
        require("sampling_rate", self.sampling_rate, POSITIVE)
        require("pretrial_seconds", self.pretrial_seconds, NONNEGATIVE)
        if self.n_samples <= self.pretrial_samples:
            raise ValueError("signal is not longer than its pre-trial stretch")

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def pretrial_samples(self) -> int:
        """The columns of the pre-trial stretch: pretrial_seconds * fs, rounded."""
        return round(self.pretrial_seconds * self.sampling_rate)

    def post_pretrial(self) -> np.ndarray:
        """Samples with the first ``pretrial_samples`` columns dropped."""
        return self.samples[:, self.pretrial_samples:]


@dataclass(frozen=True)
class WindowSpec:
    window_seconds: float = 2.0
    stride_seconds: float = 0.5

    def __post_init__(self):
        require("window", self.window_seconds, POSITIVE)
        require("stride", self.stride_seconds, POSITIVE)

    def window_samples(self, sampling_rate: float) -> int:
        return _whole_samples(self.window_seconds, sampling_rate, "window")

    def stride_samples(self, sampling_rate: float) -> int:
        return _whole_samples(self.stride_seconds, sampling_rate, "stride")


def _whole_samples(seconds: float, sampling_rate: float, what: str) -> int:
    n = seconds * sampling_rate
    r = round(n)
    if r <= 0 or abs(n - r) > 1e-9 * max(1.0, abs(n)):
        raise ValueError(f"{what} of {seconds} s is not a whole number of samples at {sampling_rate} Hz")
    return int(r)


def segment(signal: TrialSignal, spec: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """Slide a window along every channel after dropping the pre-trial part.

    Returns ``(segments, starts)``: segments of shape
    (n_windows, channels, window_samples) and each window's first sample
    index in the original recording.  The window count is
    floor((T' - W) / S) + 1 over the post-drop length T'.
    """
    fs = signal.sampling_rate
    w = spec.window_samples(fs)
    s = spec.stride_samples(fs)
    data = signal.post_pretrial()
    t = data.shape[1]
    if w > t:
        raise ValueError(f"window of {w} samples exceeds the {t}-sample post-pretrial signal")
    count = (t - w) // s + 1
    drop = signal.n_samples - t
    starts = drop + s * np.arange(count)
    window_idx = s * np.arange(count)[:, None] + np.arange(w)[None, :]
    segments = data[:, window_idx]              # (channels, windows, w)
    return np.ascontiguousarray(np.swapaxes(segments, 0, 1)), starts


def power_spectrum(segment, sampling_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """One-sided power spectrum along the last axis.

    Scaled so the total power equals the time-domain energy (W times the
    mean square), i.e. Parseval holds bin-for-bin.
    """
    x = np.asarray(segment, dtype=float)
    w = x.shape[-1]
    if w < 2:
        raise ValueError("need at least two samples")
    spectrum = np.fft.rfft(x, axis=-1)
    power = np.abs(spectrum) ** 2 / w
    if w % 2 == 0:
        power[..., 1:-1] *= 2.0                 # interior bins carry both halves
    else:
        power[..., 1:] *= 2.0
    freqs = np.fft.rfftfreq(w, d=1.0 / sampling_rate)
    return freqs, power


def band_power_psd(segment, sampling_rate: float, bands=DEFAULT_BANDS) -> np.ndarray:
    """Total one-sided power per band, stacked along a new last axis.

    Band edges are [low, high) except the topmost band, whose upper edge is
    inclusive, so adjacent bands never double-count a shared edge bin.
    """
    freqs, power = power_spectrum(segment, sampling_rate)
    nyquist = sampling_rate / 2.0
    for band in bands:
        if band.high_hz >= nyquist:
            raise ValueError(f"band {band.name!r} ({band.low_hz}-{band.high_hz} Hz) outside Nyquist")
    top = max(band.high_hz for band in bands)
    out = []
    for band in bands:
        if band.high_hz == top:
            mask = (freqs >= band.low_hz) & (freqs <= band.high_hz)
        else:
            mask = (freqs >= band.low_hz) & (freqs < band.high_hz)
        out.append(power[..., mask].sum(axis=-1))
    return np.stack(out, axis=-1)


def butterworth_gain_squared(freq, cutoff: float, order: int):
    """Low-pass prototype |H|^2 = 1 / (1 + (f/fc)^(2n)); 1/2 at the cutoff."""
    require("order", order, FILTER_ORDER)
    f = np.asarray(freq, dtype=float)
    return 1.0 / (1.0 + (f / cutoff) ** (2 * order))


def butterworth_highpass_gain_squared(freq, cutoff: float, order: int):
    """High-pass prototype |H|^2 = 1 / (1 + (fc/f)^(2n)); zero at DC."""
    require("order", order, FILTER_ORDER)
    f = np.atleast_1d(np.asarray(freq, dtype=float))
    out = np.zeros_like(f)
    nonzero = f > 0
    out[nonzero] = 1.0 / (1.0 + (cutoff / f[nonzero]) ** (2 * order))
    return out if np.ndim(freq) else out[0]


def butterworth_bandpass(channel, sampling_rate: float, band: BandDef,
                         order: int = DEFAULT_FILTER_ORDER) -> np.ndarray:
    """Zero-phase band-pass along the last axis.

    Each DFT bin is scaled by the product of the low-pass magnitude at
    ``band.high_hz`` and the high-pass magnitude at ``band.low_hz``, then
    the transform is inverted; no phase is introduced.
    """
    require("order", order, FILTER_ORDER)
    x = np.asarray(channel, dtype=float)
    t = x.shape[-1]
    if t < 2:
        raise ValueError("need at least two samples")
    if band.high_hz >= sampling_rate / 2.0:
        raise ValueError(f"band {band.name!r} ({band.low_hz}-{band.high_hz} Hz) outside Nyquist")
    freqs = np.fft.rfftfreq(t, d=1.0 / sampling_rate)
    gain = np.sqrt(
        butterworth_gain_squared(freqs, band.high_hz, order)
        * butterworth_highpass_gain_squared(freqs, band.low_hz, order)
    )
    return np.fft.irfft(np.fft.rfft(x, axis=-1) * gain, n=t, axis=-1)


def differential_entropy(segment) -> float:
    """Gaussian closed form 0.5 * ln(2*pi*e*var) with unbiased variance."""
    x = np.asarray(segment, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two samples")
    var = segment_stats(x.ravel()).variance
    if var <= 0.0:
        raise ValueError("degenerate segment (zero variance)")
    return float(0.5 * np.log(2.0 * np.pi * np.e * var))


class Stats(NamedTuple):
    min: float
    max: float
    range: float
    mean: float
    variance: float
    skewness: float
    kurtosis: float


# Stats' fields, then the extremes' positions as fractions of the channel
ChannelStats = NamedTuple("ChannelStats",
                          [(name, float) for name in Stats._fields + ("argmin", "argmax")])


# One batched kernel per statistic; the scalar ops are wrappers over them.
def moment_stats(x) -> np.ndarray:
    """``segment_stats`` over the last axis, stacked along a new last axis."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    lo = x.min(axis=-1)
    hi = x.max(axis=-1)
    mean = x.mean(axis=-1)
    centered = x - mean[..., None]
    c2 = centered * centered
    # Both variances from one sum of squares, as ``np.var`` computes each.
    ss = np.add.reduce(c2, axis=-1)
    variance = ss / (n - 1)
    m2 = ss / n                                 # biased moments for the standardized forms
    m3 = np.einsum("...w,...w->...", c2, centered) / n
    m4 = np.einsum("...w,...w->...", c2, c2) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        skewness = np.where(m2 > 0, m3 / m2**1.5, 0.0)
        kurtosis = np.where(m2 > 0, m4 / m2**2, 0.0)
    return np.stack([lo, hi, hi - lo, mean, variance, skewness, kurtosis], axis=-1)


def _analytic_signal(x: np.ndarray) -> np.ndarray:
    """Analytic signal over the last axis, as ``scipy.signal.hilbert``
    computes it: keep bin 0 (and the Nyquist bin of an even length), double
    the positive frequencies, zero the negative ones.  ``scipy.fft`` keeps
    the bits of ``hilbert``; ``np.fft`` does not."""
    n = x.shape[-1]
    spectrum = scipy.fft.fft(x, n, axis=-1)
    spectrum[..., 1:(n + 1) // 2] *= 2.0
    spectrum[..., n // 2 + 1:] = 0.0
    return scipy.fft.ifft(spectrum, axis=-1)


def pairwise_plv(band_windows: np.ndarray) -> np.ndarray:
    """|mean unit phasor of the phase difference| for every channel pair
    (a zero of the analytic signal has phase 0).

    Input (windows, channels, bands, w); output (windows, pairs, bands)
    with pairs in row-major upper-triangular order.
    """
    m, c, nbands, w = band_windows.shape
    analytic = _analytic_signal(band_windows.transpose(0, 2, 1, 3))
    flat = analytic.reshape(m * nbands, c, w)
    amp = np.abs(flat)
    live = amp > 0
    np.divide(flat, amp, out=flat, where=live)  # unit phasors, in place
    flat[~live] = 1.0
    gram = flat @ flat.conj().transpose(0, 2, 1) / w
    plv_all = np.abs(gram).reshape(m, nbands, c, c)
    iu, ju = np.triu_indices(c, k=1)
    return plv_all[:, :, iu, ju].transpose(0, 2, 1)     # (m, pairs, bands)


def pairwise_lagged_correlation(windows: np.ndarray, lags) -> np.ndarray:
    """``lagged_correlation`` for every pair i < j and lag: deviations from
    each window's full mean, channel i's leading stretch against channel j
    shifted by tau.  Output (windows, pairs, lags), NaN at zero variance.
    """
    m, c, w = windows.shape
    means = windows.mean(axis=-1)
    iu, ju = np.triu_indices(c, k=1)
    out = np.empty((m, iu.size, len(lags)))
    for k, tau in enumerate(lags):
        if not 0 <= tau < w - 1:
            raise ValueError(f"correlation lag {tau} incompatible with {w}-sample windows")
        da = windows[:, :, : w - tau] - means[..., None]
        db = windows[:, :, tau:] - means[..., None]
        ssa = np.sum(da * da, axis=-1)
        ssb = np.sum(db * db, axis=-1)
        numer = np.einsum("mcw,mdw->mcd", da, db)
        denom = np.sqrt(ssa[:, :, None] * ssb[:, None, :])
        corr = np.divide(numer, denom, out=np.full_like(numer, np.nan), where=denom > 0)
        out[:, :, k] = corr[:, iu, ju]
    return out


def segment_stats(segment) -> Stats:
    """Extrema, range, mean, unbiased variance, and standardized third/
    fourth moments (zero-variance segments report skewness = kurtosis = 0)."""
    x = np.asarray(segment, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a vector of at least two samples")
    return Stats(*moment_stats(x).tolist())


def segment_diff(segment_a, segment_b) -> Stats:
    """Per-stat change from one segment to the next: stats(b) - stats(a)."""
    a = np.asarray(segment_a, dtype=float)
    b = np.asarray(segment_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("mismatched segments")
    sa = segment_stats(a)
    sb = segment_stats(b)
    return Stats(*(vb - va for va, vb in zip(sa, sb)))


def channel_stats(channel) -> ChannelStats:
    """Segment statistics plus extremum positions normalized to [0, 1]
    (ties resolve to the lowest index)."""
    x = np.asarray(channel, dtype=float)
    base = segment_stats(x)
    denom = x.size - 1
    return ChannelStats(*base, float(np.argmin(x)) / denom, float(np.argmax(x)) / denom)


def plv(x, y) -> float:
    """Phase-locking value in [0, 1] from analytic-signal phases."""
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.shape != b.shape:
        raise ValueError("length mismatch")
    if a.ndim != 1 or a.size < 4:
        raise ValueError("need vectors of at least four samples")
    return float(pairwise_plv(np.stack([a, b])[None, :, None, :])[0, 0, 0])


def lagged_correlation(x, y, tau: int) -> float:
    """Pearson correlation of ``x(t)`` with ``y(t + tau)`` over the overlap.

    Deviations are taken from the full-series means, not from means
    recomputed on the overlapping windows; at ``tau = 0`` this is the
    ordinary Pearson coefficient.
    """
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise ValueError("x and y must be equal-length vectors")
    require("lag", tau, NONNEGATIVE_INTEGER)
    tau = int(tau)
    if tau >= a.size:
        raise ValueError("lag must be smaller than the series length")
    overlap = a.size - tau
    if overlap < 2:
        raise ValueError("overlap too short")
    r = float(pairwise_lagged_correlation(np.stack([a, b])[None], [tau])[0, 0, 0])
    if np.isnan(r):
        raise ValueError("zero variance in a windowed series")
    return r


# ---------------------------------------------------------------------------
# Trial file formats

_BIN_HEADER = struct.Struct("<IIdd")


def write_signal_csv(trial: TrialSignal, path):
    """The signal CSV of ``trial``: its header line, then one row of samples
    per channel at 17 significant digits, formatted on every CPU this
    process may use (see :mod:`aucmax._rowblocks`)."""
    write_rows(path, f"fs={trial.sampling_rate:.17g},pretrial={trial.pretrial_seconds:.17g},"
                     f"channels={trial.n_channels}", trial.samples)


def _header_field(line: str, index: int, key: str, path) -> float:
    """Field ``index`` of the header ``line``, ``<key>=<value>``, as a finite number
    (``channels``: a positive integer); a refusal names the field's byte offset,
    or the line's end if the field is missing."""
    fields = line.split(",")
    offset = min(sum(len(f) + 1 for f in fields[:index]), len(line))
    if index >= len(fields) or not fields[index].startswith(key + "="):
        raise ValueError(
            f"{path}: corrupt signal header at byte {offset}: expected '{key}=<value>'"
        )
    text = fields[index][len(key) + 1:]
    try:
        value = float(text_floats([text])[0, 0]) if text else math.nan
    except ValueError:
        value = math.nan                        # refused below with nan and inf
    if not math.isfinite(value):
        raise ValueError(f"{path}: corrupt signal header at byte {offset}: bad {key} value {text!r}")
    if key == "channels" and not POSITIVE_INTEGER.test(value):
        raise ValueError(f"{path}: corrupt signal header at byte {offset}: "
                         f"channel count must be {POSITIVE_INTEGER.what}")
    return value


def _trial(path, samples: np.ndarray, fs: float, pretrial: float) -> TrialSignal:
    """The trial read from ``path``; a ``TrialSignal`` refusal names the file."""
    try:
        return TrialSignal(samples, fs, pretrial)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_signal_csv(path) -> TrialSignal:
    """The trial of a signal CSV.  Samples and header values are numbers by
    :func:`aucmax._rowblocks.text_floats`, the rule of every CSV format; blank
    lines are skipped.  The rows are parsed on every CPU this process may
    use (see :mod:`aucmax._rowblocks`), and the first non-numeric line is
    refused before a row count or row lengths are."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}: corrupt signal header at byte 0: empty file")
    fs, pretrial, channels = (_header_field(lines[0], index, key, path)
                              for index, key in enumerate(("fs", "pretrial", "channels")))
    channels = int(channels)
    data = [(i, line) for i, line in enumerate(lines[1:], start=2) if line]

    def parse(start, stop):
        for i, line in data[start:stop]:
            try:
                row = text_floats([line])
            except ValueError:
                raise ValueError(f"{path}: malformed signal file at line {i}: non-numeric sample") from None
            yield row.tobytes()

    n_values = sum(line.count(",") + 1 for _, line in data)
    with row_chunks(len(data), n_values, parse) as chunks:
        rows = [np.frombuffer(chunk) for chunk in chunks]
    if len(rows) != channels:
        raise ValueError(
            f"{path}: malformed signal file: header declares {channels} channels, found {len(rows)} rows"
        )
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise ValueError(f"{path}: malformed signal file: channel rows have unequal lengths {sorted(lengths)}")
    return _trial(path, np.stack(rows), fs, pretrial)


def write_signal_binary(trial: TrialSignal, path):
    with open(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(trial.n_channels, trial.n_samples,
                                  trial.sampling_rate, trial.pretrial_seconds))
        fh.write(np.ascontiguousarray(trial.samples, dtype="<f8").tobytes())


def read_signal_binary(path) -> TrialSignal:
    raw = Path(path).read_bytes()
    if len(raw) < _BIN_HEADER.size:
        raise ValueError(
            f"{path}: corrupt signal header at byte {len(raw)}: need {_BIN_HEADER.size} header bytes"
        )
    channels, samples, fs, pretrial = _BIN_HEADER.unpack_from(raw)
    if channels == 0:
        raise ValueError(f"{path}: corrupt signal header at byte 0: "
                         f"channel count must be {POSITIVE_INTEGER.what}")
    for key, value, offset in (("fs", fs, 8), ("pretrial", pretrial, 16)):
        if not math.isfinite(value):
            raise ValueError(f"{path}: corrupt signal header at byte {offset}: bad {key} value {value!r}")
    expected = _BIN_HEADER.size + channels * samples * 8
    if len(raw) != expected:
        raise ValueError(
            f"{path}: malformed signal file: expected {expected} bytes for "
            f"{channels}x{samples} samples, found {len(raw)}"
        )
    data = np.frombuffer(raw, dtype="<f8", offset=_BIN_HEADER.size).reshape(channels, samples)
    return _trial(path, data.copy(), fs, pretrial)
