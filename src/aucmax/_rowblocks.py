"""Rows of CSV text, formatted or parsed on every CPU.

The CSV writers format, and the signal CSV reader parses, one row of text at
a time.  On a large table that loop is the cost, and it has no faster
single-core form.  A row is a line of text, and a chunk is bytes: a line's
text, or the values parsed from it.  :func:`row_chunks` splits the rows into
contiguous blocks and hands them out round-robin.  The calling process works
its own blocks in place, streaming.  Each other process is a child made with
``os.fork()``: it works one block at a time into memory, then sends it down a
pipe as length-framed chunks.  The caller sees every chunk in row order, so
the output never depends on the number of processes.  Plain pipes keep the
parent's heap flat: a child's chunks are copied out one at a time, never
pickled.  The CPU count :func:`usable_cpus` also sizes :mod:`aucmax.data`'s
hashing threads, and the split rule :func:`worker_count` the threads of
``build_feature_sets``' window loop.

It also holds, once, the text rules that every CSV format shares: the
number rule :func:`text_floats` (written by :func:`write_rows` at 17
significant digits), the label tags ``LABEL_TAGS`` that :func:`label_of`
reads, and the encoding :func:`text_encoding`.  Each format's header, field
counts and messages stay in :mod:`aucmax.data`, :mod:`aucmax.signals` or
:mod:`aucmax.features`.
"""

from __future__ import annotations

import itertools
import locale
import math
import os
import signal
import struct
import sys
import traceback
import warnings
from contextlib import contextmanager

import numpy as np

__all__ = ["MIN_BLOCK_VALUES", "MAX_BLOCK_VALUES", "LABEL_TAGS", "LABEL_RULE", "usable_cpus",
           "worker_count", "row_chunks", "write_rows", "text_floats", "label_of", "text_encoding"]

# A fork and its reaping cost about 4 ms at 150 MB RSS; below this many values
# a block is done sooner in place.  ``build_feature_sets`` splits its window
# loop among threads by the same rule.
MIN_BLOCK_VALUES = 50_000
# About 8 MB of text at 17 significant digits, or 2.8 MB of raw float64
# values: the most one process holds.
MAX_BLOCK_VALUES = 350_000

LABEL_TAGS = ("+1", "-1", "1")  # written for +1 and -1; readers also take 1 for +1
LABEL_RULE = "+1 or -1"         # how a refusal names the labels

_FRAME = struct.Struct("<cQ")                   # kind, payload length
_CHUNK, _ERROR, _END = b"c", b"e", b"."


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                      # no affinity mask on this platform
        return os.cpu_count() or 1


def worker_count(n_values: int) -> int:
    """How many workers share a task of ``n_values``: at most
    :func:`usable_cpus`, and no more than gives each at least
    ``MIN_BLOCK_VALUES``."""
    return max(1, min(usable_cpus(), n_values // MIN_BLOCK_VALUES))


def _bounds(n_rows: int, n_values: int, processes: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` row blocks, a multiple of ``processes`` of
    them (one when there is one process) unless rows run out, each of about
    ``MAX_BLOCK_VALUES`` values or fewer."""
    if processes == 1:
        return [(0, n_rows)] if n_rows else []
    rounds = math.ceil(n_values / (processes * MAX_BLOCK_VALUES))
    n_blocks = min(n_rows, processes * max(1, rounds))
    return [(n_rows * k // n_blocks, n_rows * (k + 1) // n_blocks) for k in range(n_blocks)]


class _Child:
    """A forked worker: its pid and the read end of its pipe."""

    def __init__(self, blocks, work, siblings):
        read_fd, write_fd = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12 warns on forking with threads alive (e.g. BLAS workers).
                # The child only works its rows of text, then leaves by os._exit.
                warnings.filterwarnings("ignore", ".*fork", DeprecationWarning)
                self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            _serve(blocks, work, read_fd, write_fd, siblings)      # never returns
        os.close(write_fd)
        self.pipe = open(read_fd, "rb")
        self.status = None

    def chunks(self):
        """The chunks of this child's next block; a ValueError it met there is raised."""
        while True:
            kind, payload = self._frame()
            if kind == _END:
                return
            if kind == _ERROR:
                raise ValueError(payload.decode("utf-8", "surrogateescape"))
            yield payload

    def _frame(self):
        header = self.pipe.read(_FRAME.size)
        if len(header) == _FRAME.size:
            kind, size = _FRAME.unpack(header)
            payload = self.pipe.read(size)
            if len(payload) == size:
                return kind, payload
        self.wait()                             # the pipe closed mid-block: the child died
        raise self.failure()

    def wait(self):
        """Reap the child.  Its pipe is closed first, so a child left with
        frames to send dies of the broken pipe rather than block forever."""
        if self.status is None:
            self.pipe.close()
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])

    def failure(self) -> RuntimeError:
        return RuntimeError(f"row block worker {self.pid} exited with status {self.status}")


def _serve(blocks, work, read_fd, write_fd, siblings):
    """The child's whole life: each block worked into memory, then written
    as frames; a ValueError is sent in place of its block and ends the work."""
    status = 1
    try:
        os.close(read_fd)
        for sibling in siblings:
            sibling.pipe.close()
        with open(write_fd, "wb") as out:
            for start, stop in blocks:
                try:
                    frames = []
                    for chunk in work(start, stop):
                        frames += (_FRAME.pack(_CHUNK, len(chunk)), chunk)
                    frames.append(_FRAME.pack(_END, 0))
                except ValueError as exc:
                    message = str(exc).encode("utf-8", "surrogateescape")
                    out.writelines((_FRAME.pack(_ERROR, len(message)), message))
                    break
                out.writelines(frames)
        status = 0
    except BaseException:                       # reported here: os._exit flushes nothing
        traceback.print_exc()
        sys.stderr.flush()
        raise
    finally:
        os._exit(status)


@contextmanager
def row_chunks(n_rows: int, n_values: int, work):
    """Yield an iterator over the bytes chunks that ``work(start, stop)``
    yields for every block of the rows ``range(n_rows)``, in row order.

    ``n_values`` (the table's value count, or an estimate) sets the number
    of processes through :func:`worker_count`, one where ``os.fork`` is
    missing.  The children are forked on entry, so open an output file
    inside the ``with``.  A ValueError that ``work`` raises in a child is
    raised again when the iterator reaches its block, so errors come in row
    order.  On leaving, children still running
    are killed and every child is waited for; a child that exited nonzero
    after a clean pass raises RuntimeError.
    """
    processes = max(1, min(worker_count(n_values), n_rows)) if hasattr(os, "fork") else 1
    bounds = _bounds(n_rows, n_values, processes)
    children = []
    try:
        for owner in range(1, processes):
            children.append(_Child(bounds[owner::processes], work, children))

        def in_order():
            for k, (start, stop) in enumerate(bounds):
                owner = k % processes
                yield from work(start, stop) if owner == 0 else children[owner - 1].chunks()

        yield in_order()
        for child in children:
            child.wait()
            if child.status != 0:
                raise child.failure()
    finally:
        for child in children:
            if child.status is None:
                os.kill(child.pid, signal.SIGKILL)
                child.wait()


def write_rows(path, head: str, values: np.ndarray, labels=None, digest=None) -> None:
    """Write the line ``head`` to ``path``, then each row of ``values`` at 17
    significant digits, after its label tag when ``labels`` are given, through
    :func:`row_chunks`; every byte also goes to ``digest`` when one is given."""
    encoding = text_encoding()
    row_format = ",".join(["%.17g"] * values.shape[1])

    def encode(start, stop):
        for k in range(start, stop):
            # one row at a time: a whole-matrix tolist() holds every value as a Python float
            line = row_format % tuple(values[k].tolist())
            if labels is not None:
                line = (LABEL_TAGS[0] if labels[k] == 1 else LABEL_TAGS[1]) + "," + line
            yield (line + "\n").encode(encoding)

    with row_chunks(values.shape[0], values.size, encode) as chunks, open(path, "wb") as fh:
        for chunk in itertools.chain([(head + "\n").encode(encoding)], chunks):
            if digest is not None:
                digest.update(chunk)
            fh.write(chunk)


def text_floats(lines, usecols=None) -> np.ndarray:
    """The comma-separated numbers of ``lines``, one row per line, by numpy's text reader:
    ValueError on an empty field, ``1_0``, non-ASCII digits or a ``#`` (no comments).
    Fields past the last of ``usecols`` are ignored; blank lines are skipped."""
    return np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2, usecols=usecols)


def label_of(tag: str) -> int:
    """The label of a tag of ``LABEL_TAGS``; ValueError naming any other tag."""
    if tag not in LABEL_TAGS:
        raise ValueError(f"label must be {LABEL_RULE}, found {tag!r}")
    return -1 if tag == LABEL_TAGS[1] else 1


def text_encoding() -> str:
    """The encoding of every CSV file read or written: that of ``Path.read_text``."""
    return locale.getpreferredencoding(False)
