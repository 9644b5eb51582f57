"""Cumulative feature-set assembly for multichannel trials.

Set1 holds per-band power and differential entropy per channel window;
Set2 appends per-window band statistics and their consecutive-window
differences; Set3 appends whole-channel statistics (repeated on every
row of the trial); Set4 appends pairwise phase locking per band and
lagged correlations.  Each level extends the previous one's columns, so
the sets are strictly nested.

On the standard 14-channel montage with four bands the realized widths
are 112 / 1008 / 1134 / 1680 columns.  ``build_feature_sets`` resolves a
trial's defaults (channels: the standard montage on 32 or more, else all;
Set4's lags: 0 and fs/4) and records the ``layout_manifest`` it used on the
matrix; only Set4 builds correlation columns, so only its layout records lags.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._rowblocks import label_of, worker_count
from .rules import NONNEGATIVE_INTEGER, require
from .signals import (
    DEFAULT_BANDS,
    DEFAULT_FILTER_ORDER,
    ChannelStats,
    Stats,
    TrialSignal,
    WindowSpec,
    band_power_psd,
    butterworth_bandpass,
    channel_stats,
    moment_stats,
    pairwise_lagged_correlation,
    pairwise_plv,
    segment,
)

__all__ = [
    "DEFAULT_CHANNELS_1BASED",
    "SET_IDS",
    "STAT_FIELDS",
    "CHANNEL_STAT_FIELDS",
    "DIFF_FIELDS",
    "FeatureMatrix",
    "default_channel_indices",
    "set_level",
    "feature_layout",
    "layout_manifest",
    "build_feature_sets",
    "read_trial_labels",
]

# Standard montage, numbered as printed in hardware channel tables (1-based).
DEFAULT_CHANNELS_1BASED = (1, 2, 3, 4, 6, 11, 13, 17, 19, 20, 21, 25, 29, 31)

SET_IDS = ("Set1", "Set2", "Set3", "Set4")

STAT_FIELDS = Stats._fields
CHANNEL_STAT_FIELDS = ChannelStats._fields
DIFF_FIELDS = STAT_FIELDS + ("psd", "de")      # per-stream quantities differenced per window

# Windows whose band-filtered features are evaluated together: a trial's
# transient memory grows with this block (once per thread), not with the
# trial's length.
WINDOW_BLOCK = 4


def default_channel_indices() -> list[int]:
    """0-based rows of the standard montage (requires >= 32 channels)."""
    return [c - 1 for c in DEFAULT_CHANNELS_1BASED]


def set_level(set_id) -> int:
    if isinstance(set_id, str) and set_id in SET_IDS:
        return SET_IDS.index(set_id) + 1
    if set_id in (1, 2, 3, 4):
        return int(set_id)
    raise ValueError(f"unknown feature set {set_id!r}; expected one of {SET_IDS} or 1-4")


@dataclass
class FeatureMatrix:
    """Rows = windows, columns = named features of one cumulative set;
    ``layout`` is the ``layout_manifest`` of the channels and lags used."""

    values: np.ndarray
    feature_names: list[str]
    set_id: str
    layout: dict

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D array")
        if self.values.shape[1] != len(self.feature_names):
            raise ValueError("feature_names length does not match the column count")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValueError("feature names must be unique")
        if np.isnan(self.values).any():
            raise ValueError("feature values contain NaN")
        set_level(self.set_id)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


def feature_layout(channel_ids, bands, set_id, corr_lags) -> dict[str, list[str]]:
    """Ordered column names per block for the requested set level.

    ``channel_ids`` are the absolute trial rows used in the names, in
    extraction order.
    """
    level = set_level(set_id)
    chs = [int(c) for c in channel_ids]
    blocks: dict[str, list[str]] = {}
    blocks["psd"] = [f"psd_ch{c:02d}_{b.name}" for c in chs for b in bands]
    blocks["de"] = [f"de_ch{c:02d}_{b.name}" for c in chs for b in bands]
    if level >= 2:
        blocks["segment_stats"] = [
            f"seg_ch{c:02d}_{b.name}_{s}" for c in chs for b in bands for s in STAT_FIELDS
        ]
        blocks["segment_diff"] = [
            f"diff_ch{c:02d}_{b.name}_{s}" for c in chs for b in bands for s in DIFF_FIELDS
        ]
    if level >= 3:
        blocks["channel_stats"] = [
            f"chan_ch{c:02d}_{s}" for c in chs for s in CHANNEL_STAT_FIELDS
        ]
    if level >= 4:
        pairs = [(chs[i], chs[j]) for i in range(len(chs)) for j in range(i + 1, len(chs))]
        blocks["plv"] = [f"plv_ch{i:02d}_ch{j:02d}_{b.name}" for (i, j) in pairs for b in bands]
        blocks["corr"] = [
            f"corr_ch{i:02d}_ch{j:02d}_lag{tau}" for (i, j) in pairs for tau in corr_lags
        ]
    return blocks


def layout_manifest(channel_ids, spec: WindowSpec, bands, set_id, corr_lags,
                    filter_order=DEFAULT_FILTER_ORDER) -> dict:
    """Layout constants plus realized per-block column counts; ``corr_lags``
    is recorded from Set4 up and ``[]`` below, where no column uses it."""
    blocks = feature_layout(channel_ids, bands, set_id, corr_lags)
    return _manifest(blocks, channel_ids, spec, bands, set_id, corr_lags, filter_order)


def _manifest(blocks, channel_ids, spec, bands, set_id, corr_lags, filter_order) -> dict:
    return {
        "set_id": SET_IDS[set_level(set_id) - 1],
        "channels": [int(c) for c in channel_ids],
        "window_seconds": spec.window_seconds,
        "stride_seconds": spec.stride_seconds,
        "bands": [
            {"name": b.name, "low_hz": b.low_hz, "high_hz": b.high_hz} for b in bands
        ],
        "filter_order": filter_order,
        "corr_lags": [int(t) for t in corr_lags] if "corr" in blocks else [],
        "block_columns": {name: len(cols) for name, cols in blocks.items()},
        "n_features": sum(len(cols) for cols in blocks.values()),
    }


def build_feature_sets(trial: TrialSignal, channels=None, spec: WindowSpec | None = None,
                       set_id="Set1", bands=DEFAULT_BANDS,
                       filter_order: int = DEFAULT_FILTER_ORDER,
                       corr_lags=None) -> FeatureMatrix:
    """Extract one cumulative feature set, one row per sliding window.

    Windowed features vary per row; whole-channel statistics repeat across
    all rows of the trial.  ``channels`` indexes rows of ``trial.samples``;
    None is the standard montage on a trial of 32 or more channels, else all
    of them, and ``corr_lags`` None is 0 and fs/4 at Set4; ``layout`` records
    both, the lags from Set4 up (given lags are checked at every level).
    Band-domain features are computed on the zero-phase band-filtered
    channels; PSD is taken from the raw window's spectrum.  The diff block
    holds per-stream changes versus the previous window (zeros on the
    first window).  Band-window features are evaluated ``WINDOW_BLOCK``
    windows at a time, with the correlations of the same windows, each block
    filling its rows of the outputs in place, bit-equal to evaluating every
    window at once.  The blocks run in window order on threads, one per CPU
    of the affinity mask, once the loop's output holds about 50,000 values
    per CPU (``aucmax._rowblocks.worker_count``): 116,000 for a 14-channel
    Set4 trial of 117 windows, at most 52,000 (the calling thread alone) for
    Set1-3.  Everything else runs on the calling thread; the values, and the
    first error in window order, never depend on the CPU count, and every
    thread is joined before the call returns or raises.
    """
    level = set_level(set_id)
    fs = trial.sampling_rate
    spec = spec if spec is not None else WindowSpec()
    if channels is None:
        n = trial.n_channels
        channels = default_channel_indices() if n >= 32 else range(n)
    channels = [int(c) for c in channels]
    if not channels:
        raise ValueError("channels must name at least one channel")
    if len(set(channels)) != len(channels):
        raise ValueError("duplicate channel indices")
    for c in channels:
        if not 0 <= c < trial.n_channels:
            raise ValueError(f"channel index {c} out of range for {trial.n_channels}-channel trial")
    if corr_lags is None:                       # Set4's default: 0 and a quarter second
        corr_lags = [0, round(fs / 4.0)] if level >= 4 else []
    for tau in corr_lags:
        require("correlation lag", tau, NONNEGATIVE_INTEGER)
    corr_lags = [int(t) for t in corr_lags]
    if len(set(corr_lags)) != len(corr_lags):
        raise ValueError("duplicate correlation lags")

    sub = TrialSignal(trial.samples[channels], fs, trial.pretrial_seconds)
    windows, _ = segment(sub, spec)             # (m, c, w)
    m, c, w = windows.shape
    data = sub.post_pretrial()                  # (c, t')

    psd = band_power_psd(windows, fs, bands)    # (m, c, nbands)

    # Band decomposition once per full channel, then windowed with the same grid.
    filtered = np.stack(
        [butterworth_bandpass(data, fs, band, filter_order) for band in bands], axis=1
    )                                           # (c, nbands, t')
    starts = spec.stride_samples(fs) * np.arange(m)
    # The loop's outputs, each filled in place a block of rows at a time.
    de = np.empty(psd.shape)
    outputs = [de]
    if level >= 2:
        stats = np.empty(psd.shape + (len(STAT_FIELDS),))
        outputs.append(stats)
    if level >= 4:
        plv = np.empty((m, c * (c - 1) // 2, len(bands)))
        corr = np.empty((m, c * (c - 1) // 2, len(corr_lags)))
        outputs += [plv, corr]

    def work(lo):
        """Fill the rows of windows ``[lo, lo + WINDOW_BLOCK)`` of every output."""
        block = slice(lo, lo + WINDOW_BLOCK)
        window_idx = starts[block, None] + np.arange(w)
        # Kept in the (c, nbands, k, w) memory order of the fancy index: the
        # reductions below then sum in the same order at every block size.
        band_windows = filtered[:, :, window_idx].transpose(2, 0, 1, 3)  # (k, c, nbands, w)
        if level >= 2:
            stats[block] = moment_stats(band_windows)
            band_var = stats[block, ..., STAT_FIELDS.index("variance")]
        else:
            band_var = band_windows.var(axis=-1, ddof=1)
        if np.any(band_var <= 0.0):
            raise ValueError("degenerate segment (zero variance) in a band-filtered window")
        de[block] = 0.5 * np.log(2.0 * np.pi * np.e * band_var)
        if level >= 4:
            plv[block] = pairwise_plv(band_windows)
            corr[block] = pairwise_lagged_correlation(windows[block], corr_lags)
            if np.isnan(corr[block]).any():
                raise ValueError("zero variance segment in correlation block")

    n_workers = worker_count(sum(out.size for out in outputs))
    block_starts = range(0, m, WINDOW_BLOCK)
    if n_workers == 1:
        list(map(work, block_starts))
    else:
        with ThreadPoolExecutor(n_workers) as pool:     # joins every thread on leaving
            list(pool.map(work, block_starts))

    columns = [psd.reshape(m, -1), de.reshape(m, -1)]

    if level >= 2:
        stream = np.concatenate([stats, psd[..., None], de[..., None]], axis=-1)
        diffs = np.zeros_like(stream)
        diffs[1:] = stream[1:] - stream[:-1]
        columns += [stats.reshape(m, -1), diffs.reshape(m, -1)]

    if level >= 3:
        chan = np.array([channel_stats(row) for row in data])        # (c, 9)
        columns.append(np.broadcast_to(chan.reshape(1, -1), (m, chan.size)).copy())

    if level >= 4:
        columns += [plv.reshape(m, -1), corr.reshape(m, -1)]

    blocks = feature_layout(channels, bands, level, corr_lags)
    names = [name for cols in blocks.values() for name in cols]
    layout = _manifest(blocks, channels, spec, bands, level, corr_lags, filter_order)
    return FeatureMatrix(np.hstack(columns), names, SET_IDS[level - 1], layout)


def read_trial_labels(path) -> dict[str, int]:
    """Sidecar label CSV: header ``trial,label``, rows ``<id>,<+1|-1>``."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "trial,label":
        raise ValueError(f"{path}: line 1: expected header 'trial,label'")
    labels: dict[str, int] = {}
    for i, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        try:
            if len(fields) != 2:
                raise ValueError(f"expected 'trial,label', found {line!r}")
            trial_id, label = fields[0], label_of(fields[1])
            if trial_id in labels:
                raise ValueError(f"duplicate trial id {trial_id!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: line {i}: {exc}") from None
        labels[trial_id] = label
    return labels
