"""Rows of CSV text, formatted or parsed on every CPU.

The CSV writers turn float64 rows into text with a vectorized number kernel,
:func:`_csv_text`, and write exactly the bytes of ``'%.17g' % v``.  Dekker's
exact product scales each value by a power of ten held as two doubles, to a
17-digit integer plus a fraction within about 2**-47 of the true one, so
rounding it is exact wherever the fraction is not within 2**-30 of one half.
Python formats every other value, and its text is spliced in: NaN, the
infinities, magnitudes outside 1e-280 to 1e280 and the fractions near one
half, which take in every exact tie.  The kernel fills a NUL-padded array one
character position at a time for up to ``_BATCH_VALUES`` values, about 400 KB
of it; one transposed copy and ``bytes.translate`` give the text.  The signal
CSV reader parses each line apart, in the forked blocks: on one core a single
parse of a trial's lines is a little faster, but this form measured faster
end to end.

A chunk is bytes: the text of a batch of values, or the values parsed from a
line of text (none if the line is not numbers).  :func:`row_chunks` splits
the rows into contiguous blocks and hands them out round-robin.  The calling
process works its own blocks in place, streaming.  Each other process is a
child made with ``os.fork()``: it works one block at a time into memory, then
sends it down a pipe as length-framed chunks.  The caller sees every chunk in row order, so
the output never depends on the number of processes.  Plain pipes keep the
parent's heap flat: a child's chunks are copied out one at a time, never
pickled.  The CPU count :func:`usable_cpus` also sizes :mod:`aucmax.data`'s
hashing threads, and the split rule :func:`worker_count` the threads of
``build_feature_sets``' window loop.

It also holds, once, the text rules that every CSV format shares: the
number rule :func:`text_floats` (written by :func:`write_rows` at 17
significant digits), the label tags ``LABEL_TAGS`` that :func:`label_of`
reads, and ``ENCODING``, the encoding of every file aucmax reads or writes,
whatever the locale; :func:`read_text` reads by it.  Each format's header,
field counts and messages stay in :mod:`aucmax.data`, :mod:`aucmax.signals` or
:mod:`aucmax.features`.
"""

from __future__ import annotations

import itertools
import math
import os
import signal
import struct
import sys
import traceback
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = ["ENCODING", "MIN_BLOCK_VALUES", "MAX_BLOCK_VALUES", "LABEL_TAGS", "LABEL_RULE", "usable_cpus",
           "worker_count", "row_chunks", "write_rows", "text_floats", "label_of", "read_text"]

# A fork and its reaping cost about 4 ms at 150 MB RSS; below this many values
# a block is done sooner in place.  ``build_feature_sets`` splits its window
# loop among threads by the same rule.
MIN_BLOCK_VALUES = 50_000
# About 8 MB of text at 17 significant digits, or 2.8 MB of raw float64
# values: the most one process holds.
MAX_BLOCK_VALUES = 350_000

LABEL_TAGS = ("+1", "-1", "1")  # written for +1 and -1; readers also take 1 for +1
LABEL_RULE = "+1 or -1"         # how a refusal names the labels
ENCODING = "utf-8"              # of every file read or written, whatever the locale

# The number kernel :func:`_csv_text` formats at most this many values at once:
# the text of a batch is about 400 KB, and its other arrays 64 KB or less.
_BATCH_VALUES = 8192
# Its fast path takes |x| in [_FAST_MIN, _FAST_MAX]: there x and every
# 10**(16 - k) it needs (k within one of floor(log10 |x|)) are below 2**996,
# where Dekker's split would overflow, and the low double of each power is normal.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_K_MIN = -282                                   # the least such k; the greatest is 281
_SPLIT = 2.0**27 + 1                            # splits a double into two 26-bit halves
# The rows of its text array: a value's characters in order, NUL where absent.
_TAG = 0                                        # the label tag and its comma
_SIGN = 3
_LEAD = 4                                       # "0." and up to three zeros
_DIGIT = 9                                      # digit j at _DIGIT + 2j, then its point
_EXP = _DIGIT + 33                              # "e", the sign, up to three digits
_SEP = _EXP + 5                                 # "," or a line break
_FIELDS = _SEP + 1
_DIGIT_INDEX = np.arange(17, dtype=np.uint8)[:, None]
_DIGIT_COUNT = _DIGIT_INDEX + np.uint8(1)
_LEAD_INDEX = np.arange(5)[:, None]
_LEAD_TEXT = np.frombuffer(b"0.000", np.uint8)[:, None]
_TAG_TEXT = np.array([list(tag.encode("ascii")) for tag in LABEL_TAGS[:2]], np.uint8).T

_FRAME = struct.Struct("<cQ")                   # kind, payload length
_CHUNK, _END = b"c", b"."


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
        """The chunks of this child's next block."""
        while (frame := self._frame())[0] != _END:
            yield frame[1]

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
    as frames.  Whatever ``work`` raises is a crash: reported, exit status 1."""
    status = 1
    try:
        os.close(read_fd)
        for sibling in siblings:
            sibling.pipe.close()
        with open(write_fd, "wb") as out:
            for start, stop in blocks:
                frames = []
                for chunk in work(start, stop):
                    frames += (_FRAME.pack(_CHUNK, len(chunk)), chunk)
                out.writelines(frames + [_FRAME.pack(_END, 0)])
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
    inside the ``with``.  A child that dies, whatever ``work`` raised there,
    raises RuntimeError when the iterator reaches its block; so a worker
    passes a refusal on as a chunk for the caller to raise.  On leaving,
    children still running are killed and every child is waited for; a
    child that exited nonzero after a clean pass raises RuntimeError.
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
    """Write the line ``head`` to ``path``, then each row of the float64 array
    ``values`` as ``'%.17g' % v`` joined by commas, after its label tag when
    ``labels`` are given, through :func:`row_chunks`; every byte also goes
    to ``digest`` when one is given.

    Each block's rows are formatted by :func:`_csv_text`, one chunk per
    batch of at most ``_BATCH_VALUES`` values taken in row-major order, so a
    batch may start or end inside a row."""
    n_cols = values.shape[1]

    def encode(start, stop):
        for first in range(start * n_cols, stop * n_cols, _BATCH_VALUES):
            last = min(first + _BATCH_VALUES, stop * n_cols)
            top = first // n_cols
            rows = values[top:-(-last // n_cols)].reshape(-1)  # copies only a non-C-order table
            yield _csv_text(rows[first - top * n_cols:last - top * n_cols], first, n_cols, labels)

    with row_chunks(values.shape[0], values.size, encode) as chunks, open(path, "wb") as fh:
        for chunk in itertools.chain([(head + "\n").encode(ENCODING)], chunks):
            if digest is not None:
                digest.update(chunk)
            fh.write(chunk)


def _powers_of_ten():
    """``10**(16 - k)`` for each k of ``range(_K_MIN, -_K_MIN)`` as a pair of
    doubles ``hi + lo``: ``hi`` is the nearest double, ``lo`` the nearest to
    the remainder.  Both come from exact integer ratios, which ``int / int``
    rounds correctly, so the pair is within 2**-106 of the power."""
    hi, lo = [], []
    for k in range(_K_MIN, -_K_MIN):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    return np.array(hi), np.array(lo)


_POWER_HI, _POWER_LO = _powers_of_ten()


def _scaled(ax, k):
    """``floor(y)`` as int64 and ``y - floor(y)`` for ``y = ax * 10**(16 - k)``.

    ``y`` is the double-double ``p + e``: ``p = fl(ax * hi)``, ``e`` the exact
    error of that product by Dekker's split and TwoProduct, plus ``ax * lo``.
    For y in [1e16, 1e17), ``p`` is an integer and |e| < 20, and the computed
    fraction is within about 2**-47 of the true one."""
    hi = _POWER_HI.take(k - _K_MIN)
    lo = _POWER_LO.take(k - _K_MIN)
    p = ax * hi
    c = ax * _SPLIT
    ah = c - (c - ax)
    al = ax - ah
    c = hi * _SPLIT
    hh = c - (c - hi)
    hl = hi - hh
    e = ((ah * hh - p) + ah * hl + al * hh) + al * hl + ax * lo
    f = np.floor(e)
    return p.astype(np.int64) + f.astype(np.int64), e - f


def _significand(ax):
    """``(d, k, sure)`` for positive ``ax`` in the fast range: the 17
    significant digits ``d`` as an integer in [1e16, 1e17) and the decimal
    exponent ``k``, ``ax ~ d * 10**(k - 16)``, rounded to nearest; ``sure``
    is false where ``d`` may not be the correctly rounded one: the fraction
    lies within 2**-30 of one half (every exact tie does), or ``d`` is still
    out of range after one retry of the exponent that log10 gave."""
    k = np.floor(np.log10(ax)).astype(np.intp)
    whole, frac = _scaled(ax, k)
    shift = (whole >= 10**17).astype(np.intp) - (whole < 10**16)   # log10 was one off
    redo = np.flatnonzero(shift)
    if redo.size:
        k[redo] += shift[redo]
        whole[redo], frac[redo] = _scaled(ax[redo], k[redo])
    sure = (np.abs(frac - 0.5) > 2.0**-30) & (whole >= 10**16) & (whole < 10**17)
    d = whole + (frac > 0.5)
    carry = d == 10**17                         # 99999999999999999.7 rounds to 1e17
    d[carry] = 10**16
    k += carry
    return d, k, sure


def _csv_text(x, first, n_cols, labels) -> bytes:
    """The ASCII CSV text of the float64 values ``x``, which continue a
    row-major table of ``n_cols`` columns at flat position ``first``: each
    value as ``'%.17g' % v``, then ``,``, or a line break at the end of a
    row; a row's first value follows its tag of ``LABEL_TAGS`` when
    ``labels`` are given.

    Each value gets one column of a NUL-padded (``_FIELDS`` x values) byte
    array, whose rows are written at once for every value.  The rows that
    hold a character of some value are kept, and one transposed copy and
    ``translate`` deleting the NULs give the text.  Zero is written as
    ``0``.  Python formats NaN, the infinities, magnitudes outside
    [``_FAST_MIN``, ``_FAST_MAX``] and every value :func:`_significand` is
    not sure of, and its text is spliced in."""
    n = x.size
    ax = np.abs(x)
    with np.errstate(invalid="ignore"):         # NaN compares false: Python formats it
        fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)
    digits, exponent, sure = _significand(np.where(fast, ax, 1.0))
    digits *= fast                              # zero: the digit 0 at exponent 0
    exponent *= fast
    slow = np.flatnonzero(~(fast & sure) & (ax != 0))

    text = np.zeros((_FIELDS, n), np.uint8)
    text[_SIGN] = np.signbit(x) * np.uint8(ord("-"))
    digit = text[_DIGIT:_DIGIT + 33:2]          # digit j of each value, most significant first
    high = digits // 10**8
    halves = np.stack([high, digits - high * 10**8]).astype(np.uint32)
    for j in range(8, 0, -1):                   # digits j and j + 8
        tens = halves // 10
        digit[j::8] = halves - tens * 10
        halves = tens
    digit[0] = halves[0]
    sci = (exponent < -4) | (exponent > 16)
    whole = np.where(sci, 1, exponent + 1)      # digits before the point: none below 1
    # %g drops trailing zeros after the point, not before it
    kept = np.maximum(((digit != 0) * _DIGIT_COUNT).max(axis=0), whole)
    digit += ord("0")
    digit *= _DIGIT_INDEX < kept
    point = np.flatnonzero((whole > 0) & (kept > whole))
    text[_DIGIT + 2 * whole[point] - 1, point] = ord(".")
    lead = np.where(whole > 0, 0, 2 - whole)    # "0." and a zero per place below 0.1
    text[_LEAD:_LEAD + 5] = _LEAD_TEXT * (_LEAD_INDEX < lead)
    at = np.flatnonzero(sci)
    if at.size:
        e = exponent[at]
        text[_EXP, at] = ord("e")
        text[_EXP + 1, at] = np.where(e < 0, ord("-"), ord("+"))
        e = np.abs(e)
        text[_EXP + 2, at] = np.where(e >= 100, ord("0") + e // 100, 0)
        text[_EXP + 3, at] = ord("0") + e // 10 % 10
        text[_EXP + 4, at] = ord("0") + e % 10
    if slow.size:
        width = _SEP - _SIGN
        words = "".join(("%.17g" % v).ljust(width, "\0") for v in x[slow].tolist())
        text[_SIGN:_SEP, slow] = np.frombuffer(words.encode("ascii"), np.uint8).reshape(-1, width).T
    text[_SEP] = ord(",")
    text[_SEP, (n_cols - 1 - first) % n_cols::n_cols] = ord("\n")
    if labels is not None:
        starts = slice(-first % n_cols, None, n_cols)
        row_labels = labels[-(-first // n_cols):-(-(first + n) // n_cols)]
        text[_TAG:_TAG + 2, starts] = _TAG_TEXT[:, (row_labels != 1).astype(np.intp)]
        text[_TAG + 2, starts] = ord(",")
    text = text[text.any(axis=1)]               # the copy and translate cost per byte
    return text.T.tobytes().translate(None, b"\0")


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


def read_text(path) -> str:
    """The text of the file ``path`` by ``ENCODING``; ValueError naming the
    file and the first byte that is not."""
    try:
        return Path(path).read_bytes().decode(ENCODING)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not {ENCODING} text: {exc.reason} at byte {exc.start}") from None
