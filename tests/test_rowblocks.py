"""The forked row blocks behind the CSV writers and the signal CSV reader.

Every test forces its process count, so the forked path runs on any machine,
one CPU included."""

import os

import numpy as np
import pytest
from conftest import COUNTS, assert_no_child_left

from aucmax import _rowblocks
from aucmax.data import read_feature_csv, table_path, write_feature_csv
from aucmax.signals import TrialSignal, read_signal_csv, write_signal_csv


def extreme_table(n_rows):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((n_rows, 6))
    x[:1] = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, np.nan, -np.inf]
    y = np.where(np.arange(n_rows) % 3 == 0, 1, -1)
    return x, y, [f"f{j}" for j in range(6)]


def written(tmp_path, name, x, y, names):
    path = tmp_path / name
    write_feature_csv(path, x, y, names)
    return path.read_bytes(), table_path(path).read_bytes()


@pytest.mark.parametrize("n_rows", [0, 2, 11], ids=["header-only", "fewer-rows", "rows"])
@pytest.mark.parametrize("max_block_values", [None, 6], ids=["one-round", "round-robin"])
def test_feature_csv_bytes_do_not_depend_on_the_process_count(tmp_path, force, n_rows,
                                                              max_block_values):
    x, y, names = extreme_table(n_rows)
    outputs = []
    for processes in COUNTS:
        force(processes, max_block_values)
        outputs.append(written(tmp_path, f"p{processes}.csv", x, y, names))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    if n_rows:
        assert b"\n+1,-0,4.9406564584124654e-324,1.7976931348623157e+308," in outputs[0][0]
    features, labels, _ = read_feature_csv(tmp_path / "p3.csv")
    assert labels.tolist() == y.tolist()
    assert np.array_equal(features, x, equal_nan=True)
    assert_no_child_left()


@pytest.mark.parametrize("max_block_values", [None, 40], ids=["one-round", "round-robin"])
def test_signal_csv_bytes_and_samples_do_not_depend_on_the_process_count(
        tmp_path, force, max_block_values):
    samples = np.random.default_rng(4).standard_normal((7, 50))
    samples[0, :3] = [-0.0, 5e-324, -1.7976931348623157e308]
    trial = TrialSignal(samples, 128.0, pretrial_seconds=0.25)
    texts = []
    for processes in COUNTS:
        force(processes, max_block_values)
        path = tmp_path / f"p{processes}.csv"
        write_signal_csv(trial, path)
        texts.append(path.read_bytes())
        loaded = read_signal_csv(path)
        assert np.array_equal(loaded.samples, samples)
        assert np.signbit(loaded.samples[0, 0])
    assert texts[1] == texts[0] and texts[2] == texts[0]
    assert_no_child_left()


def bad_signal(tmp_path, bad_rows, unequal=False):
    """Four channels, one per line 2..5; rows in ``bad_rows`` hold a non-numeric sample."""
    rows = [[str(float(10 * r + k)) for k in range(3)] for r in range(4)]
    for r in bad_rows:
        rows[r][1] = "x"
    if unequal:
        rows[0].append("1.0")
    path = tmp_path / "bad.csv"
    path.write_text("fs=128,pretrial=0,channels=4\n" + "".join(",".join(r) + "\n" for r in rows))
    return path


# With two processes and two blocks, rows 0-1 are the caller's and rows 2-3 the
# child's; with one row per block, blocks alternate: rows 0 and 2 are the
# caller's, rows 1 and 3 the child's.
@pytest.mark.parametrize("max_block_values, bad_rows, line", [
    (None, [3], 5),                             # in the child's block only
    (None, [1], 3),                             # in the caller's block only
    (None, [1, 3], 3),                          # in both: the caller's comes first in the file
    (1, [1, 2], 3),                             # the child's block comes first in the file
    (1, [2, 3], 4),                             # the caller's block comes first in the file
])
def test_signal_csv_bad_sample_is_the_first_in_the_file(tmp_path, force, max_block_values,
                                                        bad_rows, line):
    force(2, max_block_values)
    path = bad_signal(tmp_path, bad_rows)
    with pytest.raises(ValueError) as excinfo:
        read_signal_csv(path)
    assert str(excinfo.value) == f"{path}: malformed signal file at line {line}: non-numeric sample"
    assert_no_child_left()


@pytest.mark.parametrize("processes", COUNTS)
def test_signal_csv_bad_sample_comes_before_unequal_rows(tmp_path, force, processes):
    force(processes)
    path = bad_signal(tmp_path, [3], unequal=True)
    with pytest.raises(ValueError) as excinfo:
        read_signal_csv(path)
    assert str(excinfo.value) == f"{path}: malformed signal file at line 5: non-numeric sample"
    assert_no_child_left()


def test_child_that_dies_raises_and_is_reaped(force, capfd):
    force(2)

    def work(start, stop):
        if start:
            raise KeyError("lost")              # not a refusal: the child exits nonzero
        yield b"row"

    with pytest.raises(RuntimeError, match="exited with status 1"):
        with _rowblocks.row_chunks(2, 2, work) as chunks:
            list(chunks)
    assert "KeyError: 'lost'" in capfd.readouterr().err
    assert_no_child_left()


def test_process_count_floor_and_platform(monkeypatch):
    assert _rowblocks.worker_count(0) == 1
    assert _rowblocks.worker_count(60_000) == 1         # a 3000x20 table stays in place
    assert 1 <= _rowblocks.worker_count(10**7) <= len(os.sched_getaffinity(0))
    monkeypatch.setattr(_rowblocks, "worker_count", lambda n_values: 2)
    monkeypatch.delattr(os, "fork")                     # threads need no fork; processes do

    def work(start, stop):
        yield f"{start}-{stop} in {os.getpid()}".encode()

    with _rowblocks.row_chunks(2, 10**7, work) as chunks:       # one block, in place
        assert list(chunks) == [f"0-2 in {os.getpid()}".encode()]


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    assert _rowblocks.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert _rowblocks.usable_cpus() == 5
    assert _rowblocks.worker_count(10**7) == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _rowblocks.usable_cpus() == 1


@pytest.mark.parametrize("n_rows, n_values, processes, count", [
    (5, 10, 1, 1), (0, 0, 1, 0), (5, 10**6, 2, 4), (3, 10**6, 2, 3), (9, 10, 3, 3),
])
def test_bounds_cover_the_rows_in_order(monkeypatch, n_rows, n_values, processes, count):
    monkeypatch.setattr(_rowblocks, "MAX_BLOCK_VALUES", 300_000)
    bounds = _rowblocks._bounds(n_rows, n_values, processes)
    assert len(bounds) == count
    assert all(start < stop for start, stop in bounds)
    assert [start for start, _ in bounds[1:]] == [stop for _, stop in bounds[:-1]]
    assert not bounds or (bounds[0][0], bounds[-1][1]) == (0, n_rows)
