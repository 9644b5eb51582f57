import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import COUNTS, assert_no_child_left

from aucmax import features
from aucmax.cli import main
from aucmax.features import (
    DEFAULT_CHANNELS_1BASED,
    WINDOW_BLOCK,
    FeatureMatrix,
    build_feature_sets,
    default_channel_indices,
    feature_layout,
    layout_manifest,
    read_trial_labels,
    set_level,
)
from aucmax.signals import (
    DEFAULT_BANDS,
    TrialSignal,
    WindowSpec,
    band_power_psd,
    butterworth_bandpass,
    channel_stats,
    differential_entropy,
    lagged_correlation,
    pairwise_lagged_correlation,
    pairwise_plv,
    plv,
    segment,
    write_signal_binary,
)

FS = 128.0


def make_trial(n_channels=14, seconds=63.0, seed=0, pretrial=3.0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * FS)) / FS
    data = rng.standard_normal((n_channels, t.size))
    for c in range(n_channels):                  # add band-limited structure per channel
        data[c] += 0.5 * np.sin(2 * np.pi * (6 + c % 8) * t + 0.3 * c)
    return TrialSignal(data, FS, pretrial_seconds=pretrial)


def test_set_level_parsing():
    assert set_level("Set1") == 1 and set_level(4) == 4
    with pytest.raises(ValueError):
        set_level("Set5")


def test_default_channels():
    assert default_channel_indices() == [c - 1 for c in DEFAULT_CHANNELS_1BASED]
    assert len(default_channel_indices()) == 14


def test_set1_has_112_columns():
    trial = make_trial()
    fm = build_feature_sets(trial, channels=range(14), set_id="Set1")
    assert fm.n_features == 14 * 4 * 2 == 112
    assert fm.n_rows == 117
    assert fm.set_id == "Set1"


def test_sets_strictly_nested():
    trial = make_trial(seed=1)
    matrices = {
        level: build_feature_sets(trial, channels=range(14), set_id=level)
        for level in (1, 2, 3, 4)
    }
    widths = [matrices[level].n_features for level in (1, 2, 3, 4)]
    assert widths == [112, 1008, 1134, 1680]
    for level in (2, 3, 4):
        prev = matrices[level - 1]
        cur = matrices[level]
        assert cur.feature_names[: prev.n_features] == prev.feature_names
        assert np.array_equal(cur.values[:, : prev.n_features], prev.values)


def test_manifest_counts_match_matrix():
    trial = make_trial(seed=2)
    spec = WindowSpec()
    channels = list(range(14))
    corr_lags = (0, 32)
    fm = build_feature_sets(trial, channels=channels, spec=spec, set_id="Set4",
                            corr_lags=corr_lags)
    manifest = layout_manifest(channels, spec, DEFAULT_BANDS, "Set4", corr_lags)
    assert manifest["n_features"] == fm.n_features
    blocks = manifest["block_columns"]
    assert blocks["psd"] == blocks["de"] == 56
    assert blocks["segment_stats"] == 392 and blocks["segment_diff"] == 504
    assert blocks["channel_stats"] == 126
    assert blocks["plv"] == 91 * 4 and blocks["corr"] == 91 * 2
    layout = feature_layout(channels, DEFAULT_BANDS, "Set4", corr_lags)
    assert [n for cols in layout.values() for n in cols] == fm.feature_names


def test_feature_determinism():
    trial = make_trial(seed=3)
    a = build_feature_sets(trial, channels=range(14), set_id="Set2")
    b = build_feature_sets(trial, channels=range(14), set_id="Set2")
    assert np.array_equal(a.values, b.values)


def test_channel_index_out_of_range():
    trial = make_trial(n_channels=4, seconds=10.0, pretrial=0.0)
    with pytest.raises(ValueError, match="out of range"):
        build_feature_sets(trial, channels=[0, 7], set_id="Set1")


def test_default_channels_are_the_montage_from_32_channels_else_all():
    few = make_trial(n_channels=4, seconds=10.0, pretrial=0.0)
    default = build_feature_sets(few, set_id="Set4")
    given = build_feature_sets(few, channels=range(4), set_id="Set4")
    assert default.values.tobytes() == given.values.tobytes()
    assert default.feature_names == given.feature_names
    assert default.layout == given.layout
    assert default.layout["channels"] == [0, 1, 2, 3]
    montage = build_feature_sets(make_trial(n_channels=32, seconds=4.0, pretrial=0.0))
    assert montage.layout["channels"] == default_channel_indices()


def test_layout_is_the_manifest_of_the_resolved_channels_and_lags():
    trial = make_trial(n_channels=3, seconds=10.0, pretrial=0.0)
    spec = WindowSpec(1.0, 0.25)
    fm = build_feature_sets(trial, spec=spec, set_id=4, filter_order=3)
    assert fm.layout == layout_manifest([0, 1, 2], spec, DEFAULT_BANDS, "Set4", [0, 32],
                                        filter_order=3)
    assert fm.layout["n_features"] == fm.n_features


def test_layout_records_correlation_lags_only_from_set4():
    # only Set4 builds correlation columns, so only its layout names lags;
    # below it neither the fs/4 default nor given lags reach the layout
    trial = make_trial(n_channels=3, seconds=10.0, pretrial=0.0)
    spec = WindowSpec()
    for level in (1, 2, 3, 4):
        for lags, set4_lags in ((None, [0, 32]), ([0, 4], [0, 4])):
            fm = build_feature_sets(trial, spec=spec, set_id=level, corr_lags=lags)
            assert fm.layout["corr_lags"] == (set4_lags if level == 4 else [])
            assert fm.layout == layout_manifest([0, 1, 2], spec, DEFAULT_BANDS, level, set4_lags)


@pytest.mark.parametrize("level", [1, 4])
@pytest.mark.parametrize("lags", [[0, 32.0], [np.int64(0), np.int64(32)]])
def test_integral_correlation_lags_of_any_type_build_the_int_lag_set(level, lags):
    trial = make_trial(n_channels=3, seconds=10.0, pretrial=0.0)
    want = build_feature_sets(trial, set_id=level, corr_lags=[0, 32])
    got = build_feature_sets(trial, set_id=level, corr_lags=lags)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.feature_names == want.feature_names
    assert json.dumps(got.layout) == json.dumps(want.layout)


def test_empty_channel_list_refused():
    trial = make_trial(n_channels=4, seconds=10.0, pretrial=0.0)
    for level in (1, 2, 3, 4):
        with pytest.raises(ValueError, match="^channels must name at least one channel$"):
            build_feature_sets(trial, channels=[], set_id=level)


@pytest.mark.parametrize("lags", [[1.7], [0, -1], [np.float64(0.5)]])
def test_correlation_lag_not_a_nonnegative_integer_refused(lags):
    # at every level: a Set1 table has no correlation columns, but a refused
    # lag is never built into one under a truncated name such as lag1
    trial = make_trial(n_channels=3, seconds=10.0, pretrial=0.0)
    for level in (1, 4):
        with pytest.raises(ValueError, match="^correlation lag must be a nonnegative integer$"):
            build_feature_sets(trial, channels=[0, 1, 2], set_id=level, corr_lags=lags)


def test_repeated_correlation_lag_refused():
    # at every level, as a repeated channel is: Set4 would build two columns
    # under one name, and Set1-3 would echo a lag list Set4 cannot use
    trial = make_trial(n_channels=3, seconds=10.0, pretrial=0.0)
    for level in (1, 2, 3, 4):
        for lags in ([0, 0], [4, 0, 4.0]):
            with pytest.raises(ValueError, match="^duplicate correlation lags$"):
                build_feature_sets(trial, channels=[0, 1, 2], set_id=level, corr_lags=lags)


def test_trial_too_short_for_one_window():
    trial = TrialSignal(np.random.default_rng(0).standard_normal((2, 200)), FS)
    with pytest.raises(ValueError, match="exceeds"):
        build_feature_sets(trial, channels=[0, 1], set_id="Set1")


def test_values_match_scalar_ops_spot_check():
    # the vectorized builder must agree with the per-segment operations
    trial = make_trial(n_channels=3, seconds=12.0, seed=4)
    channels = [0, 1, 2]
    spec = WindowSpec()
    fm = build_feature_sets(trial, channels=channels, spec=spec, set_id="Set4",
                            corr_lags=(0, 32))
    segments, _ = segment(trial, spec)
    names = fm.feature_names
    m = 5                                        # arbitrary interior window
    raw = segments[m]

    psd = band_power_psd(raw[1], FS, DEFAULT_BANDS)
    col = names.index("psd_ch01_beta")
    assert fm.values[m, col] == pytest.approx(psd[2], rel=1e-12)

    alpha = DEFAULT_BANDS[1]
    filtered = butterworth_bandpass(trial.post_pretrial()[2], FS, alpha, 4)
    window = filtered[m * 64 : m * 64 + 256]
    col = names.index("de_ch02_alpha")
    assert fm.values[m, col] == pytest.approx(differential_entropy(window), rel=1e-12)

    theta = DEFAULT_BANDS[0]
    f0 = butterworth_bandpass(trial.post_pretrial()[0], FS, theta, 4)[m * 64 : m * 64 + 256]
    f1 = butterworth_bandpass(trial.post_pretrial()[1], FS, theta, 4)[m * 64 : m * 64 + 256]
    col = names.index("plv_ch00_ch01_theta")
    assert fm.values[m, col] == pytest.approx(plv(f0, f1), abs=1e-9)

    col = names.index("corr_ch00_ch02_lag32")
    assert fm.values[m, col] == pytest.approx(lagged_correlation(raw[0], raw[2], 32), rel=1e-9)


def test_silent_raw_window_refused_by_correlation_block():
    # band filtering leaks into a silent stretch, so only the raw-window
    # correlation sees the zero variance
    trial = make_trial(n_channels=3, seconds=12.0, seed=6, pretrial=0.0)
    samples = trial.samples.copy()
    samples[1, : int(4 * FS)] = 0.0
    silent = TrialSignal(samples, FS)
    assert build_feature_sets(silent, channels=[0, 1, 2], set_id="Set3").n_rows > 0
    with pytest.raises(ValueError, match="^zero variance segment in correlation block$"):
        build_feature_sets(silent, channels=[0, 1, 2], set_id="Set4")


def test_diff_block_first_window_zero_then_differences():
    trial = make_trial(n_channels=2, seconds=10.0, seed=5)
    fm = build_feature_sets(trial, channels=[0, 1], set_id="Set2")
    names = fm.feature_names
    col = names.index("diff_ch00_theta_mean")
    assert fm.values[0, col] == 0.0
    mean_col = names.index("seg_ch00_theta_mean")
    expected = fm.values[3, mean_col] - fm.values[2, mean_col]
    assert fm.values[3, col] == pytest.approx(expected, rel=1e-12)
    psd_diff = names.index("diff_ch00_theta_psd")
    psd_col = names.index("psd_ch00_theta")
    expected = fm.values[3, psd_col] - fm.values[2, psd_col]
    assert fm.values[3, psd_diff] == pytest.approx(expected, rel=1e-12)


def test_channel_block_repeats_per_row():
    trial = make_trial(n_channels=2, seconds=10.0, seed=6)
    fm = build_feature_sets(trial, channels=[0, 1], set_id="Set3")
    col = fm.feature_names.index("chan_ch00_mean")
    assert np.all(fm.values[:, col] == fm.values[0, col])


def test_feature_matrix_validation():
    layout = layout_manifest([0], WindowSpec(), DEFAULT_BANDS, "Set1", [0])
    with pytest.raises(ValueError, match="unique"):
        FeatureMatrix(np.zeros((2, 2)), ["a", "a"], "Set1", layout)
    with pytest.raises(ValueError, match="NaN"):
        FeatureMatrix(np.array([[np.nan]]), ["a"], "Set1", layout)


def test_read_trial_labels(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("trial,label\nt01,+1\nt02,-1\n")
    assert read_trial_labels(path) == {"t01": 1, "t02": -1}
    path.write_text("trial,label\nt01,0\n")
    with pytest.raises(ValueError, match="line 2"):
        read_trial_labels(path)
    path.write_text("id,label\n")
    with pytest.raises(ValueError, match="header"):
        read_trial_labels(path)


# --- windows in blocks: bit-equal to one pass over the whole trial

def reference_moment_stats(x):
    """Moment statistics with a separate variance call per moment."""
    n = x.shape[-1]
    lo, hi, mean = x.min(axis=-1), x.max(axis=-1), x.mean(axis=-1)
    variance = x.var(axis=-1, ddof=1)
    m2 = x.var(axis=-1)
    centered = x - mean[..., None]
    c2 = centered * centered
    m3 = np.einsum("...w,...w->...", c2, centered) / n
    m4 = np.einsum("...w,...w->...", c2, c2) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        skewness = np.where(m2 > 0, m3 / m2**1.5, 0.0)
        kurtosis = np.where(m2 > 0, m4 / m2**2, 0.0)
    return np.stack([lo, hi, hi - lo, mean, variance, skewness, kurtosis], axis=-1)


def reference_set4_values(trial, channels, spec, corr_lags):
    """Set4 columns from every window of the trial at once."""
    sub = TrialSignal(trial.samples[channels], FS, trial.pretrial_seconds)
    windows, _ = segment(sub, spec)
    m = windows.shape[0]
    data = sub.post_pretrial()
    psd = band_power_psd(windows, FS, DEFAULT_BANDS)
    filtered = np.stack([butterworth_bandpass(data, FS, band, 4) for band in DEFAULT_BANDS], axis=1)
    w, s = spec.window_samples(FS), spec.stride_samples(FS)
    window_idx = s * np.arange(m)[:, None] + np.arange(w)[None, :]
    band_windows = filtered[:, :, window_idx].transpose(2, 0, 1, 3)
    band_var = band_windows.var(axis=-1, ddof=1)
    if np.any(band_var <= 0.0):
        raise ValueError("degenerate segment (zero variance) in a band-filtered window")
    de = 0.5 * np.log(2.0 * np.pi * np.e * band_var)
    stats = reference_moment_stats(band_windows)
    stream = np.concatenate([stats, psd[..., None], de[..., None]], axis=-1)
    diffs = np.zeros_like(stream)
    diffs[1:] = stream[1:] - stream[:-1]
    chan = np.array([channel_stats(row) for row in data])
    corr = pairwise_lagged_correlation(windows, corr_lags)
    if np.isnan(corr).any():
        raise ValueError("zero variance segment in correlation block")
    return np.hstack([psd.reshape(m, -1), de.reshape(m, -1), stats.reshape(m, -1),
                      diffs.reshape(m, -1), np.broadcast_to(chan.reshape(1, -1), (m, chan.size)),
                      pairwise_plv(band_windows).reshape(m, -1), corr.reshape(m, -1)])


def trial_with_windows(count, spec, seed, n_channels=14, pretrial=3.0):
    """A trial whose post-pretrial part holds exactly ``count`` windows."""
    w, s = spec.window_samples(FS), spec.stride_samples(FS)
    return make_trial(n_channels, pretrial + (w + s * (count - 1)) / FS, seed, pretrial)


@pytest.mark.parametrize("count, window, stride", [
    (1, 2.0, 0.5), (WINDOW_BLOCK, 2.0, 0.5), (WINDOW_BLOCK + 1, 2.0, 0.5), (16, 2.0, 0.5),
    (17, 2.0, 0.5), (117, 2.0, 0.5), (477, 0.5, 0.125),
])
def test_blocked_windows_bit_equal_to_whole_trial(count, window, stride):
    spec = WindowSpec(window, stride)
    trial = trial_with_windows(count, spec, seed=count)
    channels, lags = list(range(14)), (0, int(0.25 * spec.window_samples(FS)))
    want = reference_set4_values(trial, channels, spec, lags)
    assert want.shape == (count, 1680)
    for level in (1, 2, 3, 4):
        got = build_feature_sets(trial, channels=channels, spec=spec, set_id=level,
                                 corr_lags=lags).values
        assert np.array_equal(got, want[:, : got.shape[1]]), level


@pytest.mark.parametrize("count", [1, WINDOW_BLOCK + 1, 17])
def test_zero_variance_band_window_refused_at_every_level(count):
    trial = trial_with_windows(count, WindowSpec(), seed=8, n_channels=3)
    samples = trial.samples.copy()
    samples[2] = 0.0                             # every window, raw and filtered, is flat
    silent = TrialSignal(samples, FS, trial.pretrial_seconds)
    message = "^degenerate segment \\(zero variance\\) in a band-filtered window$"
    with pytest.raises(ValueError, match=message):
        reference_set4_values(silent, [0, 1, 2], WindowSpec(), (0, 32))
    for level in (1, 2, 3, 4):
        with pytest.raises(ValueError, match=message):
            build_feature_sets(silent, channels=[0, 1, 2], set_id=level)


def test_zero_variance_raw_window_in_a_later_block_refused():
    # the silent raw window lies in the second block; band filtering leaks
    # into it, so only the correlation block sees the zero variance
    spec = WindowSpec()
    trial = trial_with_windows(WINDOW_BLOCK + 5, spec, seed=9, n_channels=3, pretrial=0.0)
    start = (WINDOW_BLOCK + 2) * spec.stride_samples(FS)
    samples = trial.samples.copy()
    samples[1, start: start + spec.window_samples(FS)] = 0.0
    silent = TrialSignal(samples, FS)
    message = "^zero variance segment in correlation block$"
    with pytest.raises(ValueError, match=message):
        reference_set4_values(silent, [0, 1, 2], spec, (0, 32))
    assert build_feature_sets(silent, channels=[0, 1, 2], set_id="Set3").n_rows == WINDOW_BLOCK + 5
    with pytest.raises(ValueError, match=message):
        build_feature_sets(silent, channels=[0, 1, 2], set_id="Set4")


def test_set4_trial_memory_bounded_by_the_window_block():
    # a 63 s, 32-channel trial: one pass over all 117 windows peaks near 93 MB
    trial = make_trial(n_channels=32, seconds=63.0, seed=10)
    tracemalloc.start()
    try:
        fm = build_feature_sets(trial, set_id=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fm.values.shape == (117, 1680)
    assert peak < 32e6, f"traced peak {peak / 1e6:.1f} MB"


# --- windows on every CPU: blocks filled in place on threads, bit-equal to one pass


@pytest.mark.parametrize("count, window, stride", [(117, 2.0, 0.5), (477, 0.5, 0.125)])
def test_threaded_windows_bit_equal_to_whole_trial(force, count, window, stride):
    spec = WindowSpec(window, stride)
    trial = trial_with_windows(count, spec, seed=count)
    channels, lags = list(range(14)), (0, int(0.25 * spec.window_samples(FS)))
    want = reference_set4_values(trial, channels, spec, lags)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)                 # threads switch often: a lost row would show
    try:
        for workers in COUNTS:
            force(workers)
            for level in (1, 2, 3, 4):
                got = build_feature_sets(trial, channels=channels, spec=spec, set_id=level,
                                         corr_lags=lags).values
                assert np.array_equal(got, want[:, : got.shape[1]]), (workers, level)
                assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("n_channels, lags", [(1, (0, 64)), (14, ())])
def test_threaded_windows_with_zero_width_pair_blocks(force, workers, n_channels, lags):
    # one channel has no pairs, no lags no correlations: plv or corr rows are zero-width
    force(workers)
    spec = WindowSpec()
    trial = trial_with_windows(117, spec, seed=5, n_channels=n_channels)
    channels = list(range(n_channels))
    fm = build_feature_sets(trial, channels=channels, spec=spec, set_id="Set4", corr_lags=lags)
    assert np.array_equal(fm.values, reference_set4_values(trial, channels, spec, lags))


def forty_window_trial(seed):
    """Three channels, exactly 40 default windows, no pre-trial part."""
    return trial_with_windows(40, WindowSpec(), seed=seed, n_channels=3, pretrial=0.0)


@pytest.fixture
def flat_last_band_window(monkeypatch):
    """Band filtering that leaves channel 0 flat over the last of 40 default
    windows: a window of the last block, which a pool thread works from two
    workers up."""
    real = features.butterworth_bandpass
    spec = WindowSpec()
    start = 39 * spec.stride_samples(FS)

    def bandpass(data, fs, band, order):
        out = real(data, fs, band, order)
        out[0, start: start + spec.window_samples(FS)] = 1.0
        return out

    monkeypatch.setattr(features, "butterworth_bandpass", bandpass)


@pytest.mark.parametrize("workers", COUNTS)
def test_flat_band_window_in_a_child_block_refused(force, flat_last_band_window, workers):
    force(workers)
    trial = forty_window_trial(seed=11)
    message = "^degenerate segment \\(zero variance\\) in a band-filtered window$"
    threads = threading.active_count()
    for level in (1, 2, 3, 4):
        with pytest.raises(ValueError, match=message):
            build_feature_sets(trial, set_id=level)
        assert threading.active_count() == threads


def silent_raw_window(trial, window):
    """``trial`` with channel 1 all zeros over default window ``window``."""
    spec = WindowSpec()
    start = window * spec.stride_samples(FS)
    samples = trial.samples.copy()
    samples[1, start: start + spec.window_samples(FS)] = 0.0
    return TrialSignal(samples, FS)


@pytest.mark.parametrize("workers", COUNTS)
def test_silent_raw_window_in_a_child_block_refused(force, workers):
    force(workers)
    silent = silent_raw_window(forty_window_trial(seed=12), 38)
    threads = threading.active_count()
    assert build_feature_sets(silent, set_id="Set3").n_rows == 40
    with pytest.raises(ValueError, match="^zero variance segment in correlation block$"):
        build_feature_sets(silent, set_id="Set4")
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers", COUNTS)
def test_silent_raw_window_before_a_later_flat_band_window_refused_first(
        force, flat_last_band_window, workers):
    # the first block's correlation refusal comes before the last block's band refusal
    force(workers)
    silent = silent_raw_window(forty_window_trial(seed=14), 2)
    with pytest.raises(ValueError, match="^zero variance segment in correlation block$"):
        build_feature_sets(silent, set_id="Set4")
    with pytest.raises(ValueError, match="^degenerate segment \\(zero variance\\) in a band"):
        build_feature_sets(silent, set_id="Set3")


def test_extract_names_the_trial_of_a_child_block_refusal(tmp_path, capsys, force,
                                                          flat_last_band_window):
    force(2)
    sig_dir = tmp_path / "signals"
    sig_dir.mkdir()
    write_signal_binary(forty_window_trial(seed=13), sig_dir / "trial0.bin")
    labels = tmp_path / "labels.csv"
    labels.write_text("trial,label\ntrial0,+1\n")
    out = tmp_path / "ext"
    assert main(["extract", "--signals", str(sig_dir), "--labels", str(labels), "--set", "2",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {sig_dir / 'trial0.bin'}: degenerate segment "
                                       "(zero variance) in a band-filtered window\n")
    assert not out.exists()
    assert_no_child_left()
