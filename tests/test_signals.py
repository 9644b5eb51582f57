import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import hilbert

from aucmax import signals
from aucmax.signals import (
    DEFAULT_BANDS,
    BandDef,
    TrialSignal,
    WindowSpec,
    band_power_psd,
    butterworth_bandpass,
    butterworth_gain_squared,
    butterworth_highpass_gain_squared,
    channel_stats,
    differential_entropy,
    lagged_correlation,
    moment_stats,
    pairwise_lagged_correlation,
    pairwise_plv,
    plv,
    power_spectrum,
    read_signal_binary,
    read_signal_csv,
    segment,
    segment_diff,
    segment_stats,
    write_signal_binary,
    write_signal_csv,
)

FS = 128.0
ALPHA = DEFAULT_BANDS[1]
GAMMA = DEFAULT_BANDS[3]


def sine(freq, seconds=2.0, fs=FS, phase=0.0):
    t = np.arange(int(seconds * fs)) / fs
    return np.sin(2 * np.pi * freq * t + phase)


# --- segmentation

def test_segment_standard_trial():
    rng = np.random.default_rng(0)
    trial = TrialSignal(rng.standard_normal((2, 8064)), FS, pretrial_seconds=3.0)
    segments, starts = segment(trial, WindowSpec(2.0, 0.5))
    assert segments.shape == (117, 2, 256)      # (7680 - 256) / 64 + 1
    assert starts[0] == 384 and starts[1] == 448


def test_segment_fine_windows():
    rng = np.random.default_rng(1)
    trial = TrialSignal(rng.standard_normal((1, 8064)), FS, pretrial_seconds=3.0)
    segments, _ = segment(trial, WindowSpec(0.5, 0.125))
    assert segments.shape[0] == 477             # (7680 - 64) / 16 + 1


def test_segment_single_window_boundary():
    trial = TrialSignal(np.arange(256, dtype=float)[None, :], FS)
    segments, starts = segment(trial, WindowSpec(2.0, 0.5))
    assert segments.shape == (1, 1, 256) and starts[0] == 0


def test_segment_window_too_long():
    trial = TrialSignal(np.zeros((1, 200)), FS)
    with pytest.raises(ValueError, match="exceeds"):
        segment(trial, WindowSpec(2.0, 0.5))


def test_segment_count_formula_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        w = int(rng.integers(1, 40))
        s = int(rng.integers(1, 40))
        t = int(rng.integers(w, 400))
        trial = TrialSignal(rng.standard_normal((1, t)), 1.0)
        segments, _ = segment(trial, WindowSpec(float(w), float(s)))
        assert segments.shape[0] == (t - w) // s + 1


def test_segment_nonintegral_window_rejected():
    trial = TrialSignal(np.zeros((1, 300)), 100.0)
    with pytest.raises(ValueError, match="whole number"):
        segment(trial, WindowSpec(0.505, 0.1))


# --- spectra and band power

def test_parseval_identity():
    rng = np.random.default_rng(3)
    for n in (64, 255, 256, 1001):
        x = rng.standard_normal(n)
        _, power = power_spectrum(x, FS)
        energy = float(np.sum(x * x))
        assert abs(power.sum() - energy) <= 1e-9 * energy


def test_band_power_pure_alpha_tone():
    powers = band_power_psd(sine(10.0), FS)
    assert powers[1] / powers.sum() >= 0.99


def test_band_power_zero_segment():
    assert np.all(band_power_psd(np.zeros(256), FS) == 0.0)


def test_band_power_edge_convention():
    # 8 Hz sits on the theta/alpha edge: half-open bands assign it to alpha only
    powers = band_power_psd(sine(8.0), FS)
    assert powers[1] > 100 * powers[0]
    # 45 Hz is the topmost edge and stays inside gamma (inclusive upper edge)
    powers = band_power_psd(sine(45.0), FS)
    assert powers[3] / powers.sum() >= 0.99


def test_band_power_nyquist_guard():
    with pytest.raises(ValueError, match="Nyquist"):
        band_power_psd(np.ones(64), FS, bands=(BandDef("hf", 30.0, 70.0),))


# --- butterworth

def test_butterworth_cutoff_half_power_all_orders():
    for order in range(1, 21):
        assert abs(float(butterworth_gain_squared(13.0, 13.0, order)) - 0.5) <= 1e-12


def test_butterworth_lowpass_monotone():
    # at order 20 the gain saturates to exactly 1.0 in float64 near DC, so
    # strictness is asserted where the decrease is representable
    freqs = np.linspace(0.0, 64.0, 257)
    for order in (1, 4, 12, 20):
        gains = np.asarray(butterworth_gain_squared(freqs, 13.0, order))
        assert np.all(np.diff(gains) <= 0.0)
        resolved = freqs >= 13.0 / 2
        assert np.all(np.diff(gains[resolved]) < 0.0)


def test_butterworth_band_gains_match_magnitude_formula():
    x = sine(10.0)
    expected = np.sqrt(
        float(butterworth_gain_squared(10.0, ALPHA.high_hz, 4))
        * float(butterworth_highpass_gain_squared(10.0, ALPHA.low_hz, 4))
    )
    out = butterworth_bandpass(x, FS, ALPHA, order=4)
    rms = lambda v: float(np.sqrt(np.mean(v * v)))
    ratio = rms(out) / rms(x)
    # tone sits exactly on a DFT bin, so the ratio equals the bin gain
    assert ratio == pytest.approx(expected, rel=1e-9)
    assert 0.85 <= ratio <= 0.90                 # order-4 passband sag at 10 Hz
    out_gamma = butterworth_bandpass(x, FS, GAMMA, order=4)
    assert rms(out_gamma) / rms(x) <= 0.05


def test_butterworth_rejects_dc():
    dc = np.ones(256)
    out = butterworth_bandpass(dc, FS, ALPHA, order=4)
    assert np.linalg.norm(out) <= 1e-9 * np.linalg.norm(dc)


def test_butterworth_order_limits():
    with pytest.raises(ValueError, match="order"):
        butterworth_bandpass(np.ones(64), FS, ALPHA, order=21)
    with pytest.raises(ValueError, match="order"):
        butterworth_gain_squared(1.0, 2.0, 0)
    with pytest.raises(ValueError, match="Nyquist"):
        butterworth_bandpass(np.ones(64), FS, BandDef("x", 50.0, 70.0), order=4)


def test_butterworth_zero_phase():
    # symmetric input stays symmetric: pure magnitude filtering adds no phase
    x = np.exp(-0.5 * ((np.arange(257) - 128) / 10.0) ** 2) * np.cos(
        2 * np.pi * 10 * (np.arange(257) - 128) / FS
    )
    out = butterworth_bandpass(x, FS, ALPHA, order=4)
    assert np.allclose(out, out[::-1], atol=1e-12)


# --- differential entropy

def test_differential_entropy_unit_variance():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(4096)
    x = x / x.std(ddof=1)
    assert differential_entropy(x) == pytest.approx(0.5 * np.log(2 * np.pi * np.e), abs=1e-12)


def test_differential_entropy_log_scaling():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(512)
    assert differential_entropy(np.e * x) == pytest.approx(differential_entropy(x) + 1.0, abs=1e-12)


def test_differential_entropy_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        differential_entropy(np.full(100, 3.3))


# --- segment statistics

def test_segment_stats_hand_case():
    stats = segment_stats([1.0, 2.0, 3.0])
    assert stats.mean == 2.0 and stats.range == 2.0 and stats.variance == 1.0
    assert stats.min == 1.0 and stats.max == 3.0


def test_segment_stats_constant_convention():
    stats = segment_stats([5.0, 5.0, 5.0])
    assert stats.range == 0.0 and stats.variance == 0.0
    assert stats.skewness == 0.0 and stats.kurtosis == 0.0


def test_segment_stats_negation_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.standard_normal(100)
        s_pos = segment_stats(x)
        s_neg = segment_stats(-x)
        assert s_neg.variance == pytest.approx(s_pos.variance, rel=1e-12)
        assert s_neg.kurtosis == pytest.approx(s_pos.kurtosis, rel=1e-12)
        assert s_neg.skewness == pytest.approx(-s_pos.skewness, rel=1e-9)


def test_segment_diff_cases():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([3.0, 4.0, 5.0])
    zero = segment_diff(a, a)
    assert all(v == 0.0 for v in zero)
    diff = segment_diff(a, b)
    assert diff.mean == 2.0
    flipped = segment_diff(b, a)
    assert all(x == -y for x, y in zip(diff, flipped))
    with pytest.raises(ValueError, match="mismatched"):
        segment_diff(a, b[:2])


def test_channel_stats_argpositions():
    stats = channel_stats([0.0, 5.0, 0.0])
    assert stats.argmax == 0.5
    ramp = channel_stats(np.linspace(0, 1, 11))
    assert ramp.argmin == 0.0 and ramp.argmax == 1.0
    ties = channel_stats([1.0, 9.0, 2.0, 9.0])
    assert ties.argmax == pytest.approx(1 / 3)   # lower index wins


# --- phase locking value

def test_plv_identical_signals():
    x = sine(8.0)
    assert plv(x, x) == pytest.approx(1.0, abs=1e-12)


def test_plv_constant_lag_sinusoids():
    assert plv(sine(8.0), sine(8.0, phase=np.pi / 3)) >= 0.99


def test_plv_phase_offset_invariance():
    base = plv(sine(8.0), sine(8.0, phase=np.pi / 3))
    shifted = plv(sine(8.0, phase=0.7), sine(8.0, phase=np.pi / 3 + 0.7))
    assert abs(base - shifted) <= 1e-3


def test_plv_independent_noise_small():
    values = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        values.append(plv(rng.standard_normal(256), rng.standard_normal(256)))
    mean = float(np.mean(values))
    assert mean <= 0.15                          # concentrates near 1/sqrt(N) = 0.0625
    assert all(0.0 <= v <= 1.0 for v in values)


def test_plv_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        plv(np.ones(8), np.ones(9))


@pytest.mark.parametrize("w", [1, 2, 3, 4, 5, 64, 65, 127, 128])
def test_analytic_signal_bit_equal_to_scipy_hilbert(w):
    rng = np.random.default_rng(w)
    band_windows = rng.standard_normal((3, 5, 4, w))        # (m, c, bands, w)
    band_windows[1, 2] = 0.0                                 # all-zero rows
    view = band_windows.transpose(0, 2, 1, 3)                # what pairwise_plv passes
    assert not view.flags.c_contiguous
    got = signals._analytic_signal(view)
    want = hilbert(view, axis=-1)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(signals._analytic_signal(np.zeros((2, w))), hilbert(np.zeros((2, w))))
    assert np.array_equal(signals._analytic_signal(band_windows[0, 0, 0]),
                          hilbert(band_windows[0, 0, 0]))


@pytest.mark.parametrize("w", [2, 63, 64])
def test_pairwise_plv_bit_equal_with_scipy_hilbert(monkeypatch, w):
    rng = np.random.default_rng(w)
    band_windows = rng.standard_normal((4, 5, 3, w))
    band_windows[2, 1] = 0.0                                 # a silent channel: phase 0
    got = pairwise_plv(band_windows)
    monkeypatch.setattr(signals, "_analytic_signal", lambda x: hilbert(x, axis=-1))
    assert np.array_equal(got, pairwise_plv(band_windows))


# --- lagged correlation

def test_lagged_correlation_identities():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(256)
    assert lagged_correlation(x, x, 0) == pytest.approx(1.0, abs=1e-12)
    assert lagged_correlation(x, -x, 0) == pytest.approx(-1.0, abs=1e-12)


def test_lagged_correlation_recovers_shift():
    rng = np.random.default_rng(10)
    raw = rng.standard_normal(259)
    x = raw[3:]
    y = np.empty(256)
    y[3:] = x[:-3]                               # y(t) = x(t - 3)
    y[:3] = raw[:3]
    assert lagged_correlation(x, y, 3) >= 0.99


def test_lagged_correlation_matches_pearson_at_zero():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.standard_normal(128)
        y = 0.5 * x + rng.standard_normal(128)
        ours = lagged_correlation(x, y, 0)
        # independent direct implementation of the textbook coefficient
        dx, dy = x - x.mean(), y - y.mean()
        direct = float(np.sum(dx * dy) / np.sqrt(np.sum(dx * dx) * np.sum(dy * dy)))
        assert ours == pytest.approx(direct, rel=1e-12)


def test_lagged_correlation_errors():
    x = np.arange(8, dtype=float)
    for tau in (1.7, -1, np.float64(0.5)):       # refused, not truncated to an integer
        with pytest.raises(ValueError, match="^lag must be a nonnegative integer$"):
            lagged_correlation(x, x, tau)
    with pytest.raises(ValueError, match="smaller"):
        lagged_correlation(x, x, 8)
    with pytest.raises(ValueError, match="overlap"):
        lagged_correlation(x, x, 7)
    with pytest.raises(ValueError, match="zero variance"):
        lagged_correlation(np.ones(8), np.arange(8, dtype=float), 0)


# --- kernels and scalar ops against the implementations they replaced
#
# Reference implementations: the scalar bodies and the batched feature
# kernels from before each statistic had one implementation.  The kernels
# reorder the moment sums and build unit phasors by division rather than
# through the phase angle, so agreement is to rounding, not bit for bit.

def reference_differential_entropy(segment):
    x = np.asarray(segment, dtype=float)
    var = float(np.var(x, ddof=1))
    if var <= 0.0:
        raise ValueError("degenerate segment (zero variance)")
    return float(0.5 * np.log(2.0 * np.pi * np.e * var))


def reference_segment_stats(segment):
    x = np.asarray(segment, dtype=float)
    lo = float(x.min())
    hi = float(x.max())
    mean = float(x.mean())
    variance = float(np.var(x, ddof=1))
    m2 = float(np.var(x))
    if m2 > 0.0:
        centered = x - mean
        skewness = float(np.mean(centered**3) / m2**1.5)
        kurtosis = float(np.mean(centered**4) / m2**2)
    else:
        skewness = kurtosis = 0.0
    return (lo, hi, hi - lo, mean, variance, skewness, kurtosis)


def reference_channel_stats(channel):
    x = np.asarray(channel, dtype=float)
    denom = x.size - 1
    return reference_segment_stats(x) + (float(np.argmin(x)) / denom, float(np.argmax(x)) / denom)


def reference_plv(x, y):
    phase_a = np.angle(hilbert(np.asarray(x, dtype=float)))
    phase_b = np.angle(hilbert(np.asarray(y, dtype=float)))
    return float(np.abs(np.mean(np.exp(1j * (phase_a - phase_b)))))


def reference_lagged_correlation(x, y, tau):
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    overlap = a.size - tau
    da = a[:overlap] - float(np.mean(a))
    db = b[tau:] - float(np.mean(b))
    denom = float(np.sqrt(np.sum(da * da) * np.sum(db * db)))
    if denom == 0.0:
        raise ValueError("zero variance in a windowed series")
    return float(np.sum(da * db) / denom)


def reference_vector_stats(windows):
    lo = windows.min(axis=-1)
    hi = windows.max(axis=-1)
    mean = windows.mean(axis=-1)
    variance = windows.var(axis=-1, ddof=1)
    m2 = windows.var(axis=-1)
    centered = windows - mean[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        skewness = np.where(m2 > 0, np.mean(centered**3, axis=-1) / m2**1.5, 0.0)
        kurtosis = np.where(m2 > 0, np.mean(centered**4, axis=-1) / m2**2, 0.0)
    return np.stack([lo, hi, hi - lo, mean, variance, skewness, kurtosis], axis=-1)


def reference_pairwise_plv(band_windows):
    phases = np.angle(hilbert(band_windows, axis=-1))
    phasors = np.exp(1j * phases)
    m, c, nbands, w = phasors.shape
    flat = np.ascontiguousarray(phasors.transpose(0, 2, 1, 3)).reshape(m * nbands, c, w)
    gram = flat @ flat.conj().transpose(0, 2, 1) / w
    plv_all = np.abs(gram).reshape(m, nbands, c, c)
    iu, ju = np.triu_indices(c, k=1)
    return plv_all[:, :, iu, ju].transpose(0, 2, 1)


def close(got, want):
    return got == pytest.approx(want, rel=1e-12, abs=1e-12)


@st.composite
def channel_batches(draw):
    """2-4 channels of 4-48 samples: noise at scales 1e-3..1e3 with an
    offset, exact constants, all zeros, half zeros, or small integers
    (ties for argmin and argmax)."""
    w = draw(st.integers(4, 48))
    kinds = draw(st.lists(st.sampled_from(["noise", "constant", "zero", "half_zero", "ties"]),
                          min_size=2, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in kinds:
        if kind == "noise":
            scale = 10.0 ** draw(st.integers(-3, 3))
            rows.append(scale * rng.standard_normal(w) + draw(st.sampled_from([0.0, 1.0, -50.0])))
        elif kind == "constant":
            rows.append(np.full(w, draw(st.sampled_from([1.0, -2.5, 3.0, 1024.0]))))
        elif kind == "zero":
            rows.append(np.zeros(w))
        elif kind == "half_zero":
            row = rng.standard_normal(w)
            row[w // 2:] = 0.0
            rows.append(row)
        else:
            rows.append(rng.integers(-2, 3, w).astype(float))
    return np.array(rows)


def same_outcome(call, reference):
    """Both raise ValueError, or both return values that are close."""
    try:
        want = reference()
    except ValueError:
        with pytest.raises(ValueError):
            call()
        return True
    return close(call(), want)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(channel_batches())
def test_kernels_and_scalar_ops_match_references(batch):
    c, w = batch.shape
    kernel = moment_stats(batch)
    assert close(kernel, reference_vector_stats(batch))
    assert close(moment_stats(np.stack([batch, -batch])),
                 reference_vector_stats(np.stack([batch, -batch])))
    for row, stats in zip(batch, kernel):
        want = reference_segment_stats(row)
        assert close(stats, want)
        assert close(tuple(segment_stats(row)), want)
        assert close(tuple(channel_stats(row)), reference_channel_stats(row))
        if row.min() == row.max():
            assert stats[5] == stats[6] == 0.0 and segment_stats(row).skewness == 0.0
        assert same_outcome(lambda: differential_entropy(row),
                            lambda: reference_differential_entropy(row))
    assert same_outcome(lambda: differential_entropy(batch),
                        lambda: reference_differential_entropy(batch))
    diff = segment_diff(batch[0], batch[1])
    assert close(tuple(diff), tuple(np.subtract(reference_segment_stats(batch[1]),
                                                reference_segment_stats(batch[0]))))

    band_windows = batch[None, :, None, :]
    assert close(pairwise_plv(band_windows), reference_pairwise_plv(band_windows))
    lags = sorted({0, w // 3, w - 2})
    corr = pairwise_lagged_correlation(batch[None], lags)[0]     # (pairs, lags)
    for p, (i, j) in enumerate(zip(*np.triu_indices(c, k=1))):
        assert close(plv(batch[i], batch[j]), reference_plv(batch[i], batch[j]))
        assert close(plv(batch[j], batch[i]), reference_plv(batch[j], batch[i]))
        for k, tau in enumerate(lags):
            try:
                want = reference_lagged_correlation(batch[i], batch[j], tau)
            except ValueError:
                assert np.isnan(corr[p, k])
            else:
                assert close(corr[p, k], want)
            assert same_outcome(
                lambda: lagged_correlation(batch[i], batch[j], tau),
                lambda: reference_lagged_correlation(batch[i], batch[j], tau))


# --- trial file formats

def test_signal_csv_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    samples = rng.standard_normal((3, 50)) * 10.0 ** rng.integers(-300, 300, (3, 50))
    samples[0, :6] = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1]
    trial = TrialSignal(samples, 128.0, pretrial_seconds=0.25)
    path = tmp_path / "trial.csv"
    write_signal_csv(trial, path)
    loaded = read_signal_csv(path)
    assert loaded.samples.dtype == np.float64 and loaded.samples.flags.c_contiguous
    assert loaded.samples.tobytes() == samples.tobytes()     # -0.0 keeps its sign bit
    assert loaded.sampling_rate == trial.sampling_rate
    assert loaded.pretrial_seconds == trial.pretrial_seconds


def test_signal_binary_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    trial = TrialSignal(rng.standard_normal((4, 33)), 256.0, pretrial_seconds=0.0)
    path = tmp_path / "trial.bin"
    write_signal_binary(trial, path)
    loaded = read_signal_binary(path)
    assert np.array_equal(loaded.samples, trial.samples)
    assert loaded.sampling_rate == 256.0


def test_signal_csv_corrupt_header_names_offset(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("fs=128,bogus=3,channels=1\n1.0,2.0\n")
    with pytest.raises(ValueError, match="byte 7"):
        read_signal_csv(path)


def test_signal_csv_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("fs=128,pretrial=0,channels=1\n1.0,xyz\n")
    with pytest.raises(ValueError, match="line 2"):
        read_signal_csv(path)


@pytest.mark.parametrize("body, message", [
    ("1.0,2.0,3.0\n4.0,abc,6.0\n", "{path}: malformed signal file at line 3: non-numeric sample"),
    ("1.0,,3.0\n4.0,5.0,6.0\n", "{path}: malformed signal file at line 2: non-numeric sample"),
    ("1.0,2.0,3.0\n\n4.0,5.0,6.0,\n", "{path}: malformed signal file at line 4: non-numeric sample"),
    ("1.0,2.0,3.0\n4.0,5.0\n", "{path}: malformed signal file: channel rows have unequal lengths [2, 3]"),
    ("1.0,2.0,3.0\n", "{path}: malformed signal file: header declares 2 channels, found 1 rows"),
    ("1.0,nan,3.0\n4.0,5.0,6.0\n", "{path}: samples contain NaN or Inf"),
])
def test_signal_csv_malformed_rows_named(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("fs=128,pretrial=0,channels=2\n" + body)
    with pytest.raises(ValueError) as excinfo:
        read_signal_csv(path)
    assert str(excinfo.value) == message.format(path=path)


@pytest.mark.parametrize("header, body, message", [
    ("fs=128,pretrial=0,channels=2", "1.0,2.0\n3.0,1_0\n",
     "malformed signal file at line 3: non-numeric sample"),
    ("fs=128,pretrial=0,channels=2", "1.0,\u0662.0\n3.0,4.0\n",
     "malformed signal file at line 2: non-numeric sample"),
    ("fs=1_28,pretrial=0,channels=2", "1.0,2.0\n3.0,4.0\n",
     "corrupt signal header at byte 0: bad fs value '1_28'"),
    ("fs=128,pretrial=0,channels=\uff12", "1.0,2.0\n3.0,4.0\n",
     "corrupt signal header at byte 18: bad channels value '\uff12'"),
    ("fs=128,pretrial=,channels=2", "1.0,2.0\n3.0,4.0\n",
     "corrupt signal header at byte 7: bad pretrial value ''"),
], ids=["underscore-sample", "arabic-digit-sample", "underscore-fs", "fullwidth-channels",
        "empty-pretrial"])
def test_signal_csv_numbers_follow_the_feature_csv_rule(tmp_path, header, body, message):
    # float() takes '1_0' and non-ASCII digits; numpy's text reader, as for feature CSVs, does not
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n" + body, encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        read_signal_csv(path)
    assert str(excinfo.value) == f"{path}: {message}"


def test_signal_csv_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"fs=128,pretrial=0,channels=1\n1.0,2.0\n\xff")
    with pytest.raises(ValueError) as excinfo:
        read_signal_csv(path)
    assert str(excinfo.value) == f"{path}: not utf-8 text: invalid start byte at byte 37"


def test_signal_csv_numbers_keep_spaces_signs_and_exponents(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text("fs= 2 ,pretrial=+0.5e0,channels=1\n -1.5 ,+2,3e-1,-0\n")
    trial = read_signal_csv(path)
    assert (trial.sampling_rate, trial.pretrial_seconds) == (2.0, 0.5)
    assert trial.samples.tolist() == [[-1.5, 2.0, 0.3, -0.0]]


def test_signal_binary_truncated(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x01\x00")
    with pytest.raises(ValueError, match="byte"):
        read_signal_binary(path)


@pytest.mark.parametrize("rate, pretrial, message", [
    (math.nan, 0.0, "sampling_rate must be a positive finite number"),
    (math.inf, 0.0, "sampling_rate must be a positive finite number"),
    (0.0, 0.0, "sampling_rate must be a positive finite number"),
    (128.0, math.nan, "pretrial_seconds must be a nonnegative finite number"),
    (128.0, math.inf, "pretrial_seconds must be a nonnegative finite number"),
    (128.0, -1.0, "pretrial_seconds must be a nonnegative finite number"),
])
def test_trial_signal_refuses_non_finite_rate_or_pretrial(rate, pretrial, message):
    with pytest.raises(ValueError) as excinfo:
        TrialSignal(np.zeros((1, 8)), rate, pretrial_seconds=pretrial)
    assert str(excinfo.value) == message


def test_trial_signal_refuses_an_empty_channel_axis(tmp_path):
    with pytest.raises(ValueError, match="^samples must hold at least one channel$"):
        TrialSignal(np.zeros((0, 1000)), FS)
    path = tmp_path / "none.bin"
    path.write_bytes(struct.pack("<IIdd", 0, 1000, FS, 0.0))
    with pytest.raises(ValueError) as excinfo:
        read_signal_binary(path)
    assert str(excinfo.value) == (
        f"{path}: corrupt signal header at byte 0: channel count must be a positive integer")


def test_pretrial_stretch_is_counted_in_rounded_samples():
    # 384.6 samples of pre-trial round to 385: a 385-sample trial keeps none of them
    with pytest.raises(ValueError, match="^signal is not longer than its pre-trial stretch$"):
        TrialSignal(np.ones((2, 385)), FS, pretrial_seconds=384.6 / FS)
    trial = TrialSignal(np.ones((2, 386)), FS, pretrial_seconds=384.6 / FS)
    assert trial.pretrial_samples == 385
    assert trial.post_pretrial().shape == (2, 1)


@pytest.mark.parametrize("header, offset, key, text", [
    ("fs=nan,pretrial=0,channels=1", 0, "fs", "nan"),
    ("fs=inf,pretrial=0,channels=1", 0, "fs", "inf"),
    ("fs=128,pretrial=nan,channels=1", 7, "pretrial", "nan"),
    ("fs=128,pretrial=0,channels=nan", 18, "channels", "nan"),
    ("fs=128,pretrial=0,channels=inf", 18, "channels", "inf"),
])
def test_signal_csv_non_finite_header_value_names_the_file(tmp_path, header, offset, key, text):
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n1.0,2.0,3.0\n")
    with pytest.raises(ValueError) as excinfo:
        read_signal_csv(path)
    assert str(excinfo.value) == (
        f"{path}: corrupt signal header at byte {offset}: bad {key} value {text!r}")


@pytest.mark.parametrize("rate, pretrial, offset, key", [
    (math.nan, 0.0, 8, "fs"), (math.inf, 0.0, 8, "fs"), (128.0, math.nan, 16, "pretrial"),
])
def test_signal_binary_non_finite_header_value_names_the_file(tmp_path, rate, pretrial,
                                                              offset, key):
    path = tmp_path / "bad.bin"
    path.write_bytes(struct.pack("<IIdd", 1, 3, rate, pretrial) + np.ones(3).tobytes())
    with pytest.raises(ValueError) as excinfo:
        read_signal_binary(path)
    value = rate if key == "fs" else pretrial
    assert str(excinfo.value) == (
        f"{path}: corrupt signal header at byte {offset}: bad {key} value {value!r}")
