"""Trial datasets and their CSV text format.

A :class:`TrialDataset` holds a trial as int64 columns: each cluster's id,
arm and size, and every subject's outcome, cluster by cluster.
:func:`zipcrt.simulate.generate_trial` draws one, :func:`read_dataset`
ingests one, and :func:`zipcrt.gee.fit_zip` fits one from each cluster's
outcome sum (:meth:`TrialDataset.cluster_sums`) and zero count
(:meth:`TrialDataset.cluster_zeros`).

A dataset's text form is a CSV of one ``cluster_id,arm,y`` row per subject.
:func:`write_dataset` builds it in chunks of whole clusters, each a uint64
matrix with a row per subject: the words of the cluster's
``cluster_id,arm,`` prefix, built once by numpy digit passes and repeated
over its rows, then the words of the outcome's digits and LF.  The NUL
padding between them is dropped by ``bytes.translate``.
:func:`read_dataset` parses that plain form by numpy byte passes over
chunks cut at line ends, and leaves every other form, a negative cluster id
included, to numpy's reader.
"""

from __future__ import annotations

import csv
import io
import os
import re
import stat
import warnings
from dataclasses import dataclass
from typing import NoReturn, Optional

import numpy as np

from .errors import ConfigError, DomainError

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1  # the range of the int64 columns
_PLAIN_INT = re.compile(r"\s*[+-]?[0-9]+\s*")  # what numpy's reader takes as an integer

_COLUMNS = ("cluster_id", "arm", "size", "outcomes")


@dataclass(eq=False)
class TrialDataset:
    """A simulated or ingested cluster-randomized trial, stored as columns.

    ``cluster_id``, ``arm`` and ``size`` hold one entry per cluster, and
    ``outcomes`` holds every subject's count, cluster by cluster: the first
    ``size[0]`` outcomes are cluster ``cluster_id[0]``'s, and so on.  All
    four are int64 arrays.
    """

    cluster_id: np.ndarray
    arm: np.ndarray
    size: np.ndarray
    outcomes: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        for name in _COLUMNS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        n = self.cluster_id.size
        if n < 1:
            raise DomainError("a dataset needs at least one cluster")
        if not self.cluster_id.shape == self.arm.shape == self.size.shape == (n,):
            raise DomainError("cluster_id, arm and size need one entry per cluster")
        if ((self.arm != 0) & (self.arm != 1)).any():
            raise DomainError(f"every arm must be 0 or 1, got {np.unique(self.arm)}")
        if self.size.min() < 1:
            raise DomainError("each cluster needs at least one outcome")
        if self.outcomes.ndim != 1 or self.size.sum() != self.outcomes.size:
            raise DomainError("cluster sizes must sum to the number of outcomes")
        if self.outcomes.min() < 0:
            raise DomainError("outcomes must be nonnegative integers")
        if np.unique(self.cluster_id).size != n:
            raise DomainError("cluster ids must be distinct")

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_id)

    @property
    def n_subjects(self) -> int:
        return len(self.outcomes)

    def cluster_sums(self, values: np.ndarray, dtype: type = np.int64) -> np.ndarray:
        """Per-cluster sums of an integer column aligned with ``outcomes``,
        added in ``dtype``."""
        starts = np.cumsum(self.size) - self.size
        return np.add.reduceat(values, starts, dtype=dtype)

    def cluster_zeros(self) -> np.ndarray:
        """Each cluster's number of zero outcomes, as int64.

        The byte mask of zeros is summed in the narrowest unsigned type that
        holds the largest cluster's size, a view of the mask when that is
        uint8: ``np.add.reduceat`` first copies a column to its sum's type,
        and an int64 copy would be the largest temporary of a fit.
        """
        narrow = np.min_scalar_type(self.size.max())
        mask = (self.outcomes == 0).view(np.uint8).astype(narrow, copy=False)
        return self.cluster_sums(mask, narrow).astype(np.int64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrialDataset):
            return NotImplemented
        return self.seed == other.seed and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS
        )


DATASET_HEADER = ("cluster_id", "arm", "y")

# The plain form, as write_dataset writes it: the header line, then lines
# of three fields of 1 to 18 digits, each line ended by a LF.  18 digits
# stay below 2**63, so no field overflows the int64 columns.
_PLAIN_HEADER = (",".join(DATASET_HEADER) + "\n").encode("ascii")
_PLAIN_DIGITS = 18
# _ZERO_DIGITS[k - 1] = 48 * (10**k - 1) / 9, what k places add when each
# byte counts as its code rather than its digit
_ZERO_DIGITS = np.cumsum(ord("0") * 10 ** np.arange(_PLAIN_DIGITS, dtype=np.int64))


# The CSV is written and read in bounded chunks: numpy temporaries of a whole
# large file pass glibc's mmap threshold and are page-faulted in again on
# every call, while a chunk's stay in the heap.  On a 2,000-cluster DU(10,80)
# file of 757 KB, a whole-file write took 1,073 minor faults a call and a
# whole-file parse 1,729; these chunks took none.  A write chunk is whole
# clusters of about this many subjects; a read chunk about this many bytes,
# cut at a line end.
_WRITE_CHUNK_SUBJECTS = 8192
_READ_CHUNK_BYTES = 64 * 1024
_WORD = 8  # bytes in a uint64 word


def _put_digits(columns: np.ndarray, values: np.ndarray) -> None:
    """Write the decimal digits of the nonnegative ``values`` right-aligned
    in the uint8 matrix ``columns``, a row each, with NUL for leading zeros."""
    rest = values
    units = columns.shape[1] - 1
    for column in range(units, -1, -1):
        quotient = rest // 10
        # np.divmod is slower than a floor division and a multiply-subtract
        # (32 against 13 us on 8,192 int64 values, 2-core x86_64)
        digit = (rest - quotient * 10).astype(np.uint8)
        digit += ord("0")
        if column < units:
            digit *= rest > 0  # a leading zero stays NUL
        columns[:, column] = digit
        rest = quotient


def _prefix_words(cluster_id: np.ndarray, arm: np.ndarray) -> np.ndarray:
    """Each cluster's ``cluster_id,arm,`` bytes as a row of uint64 words,
    right-aligned with NUL in front: a ``-`` column when any id is negative,
    then the id's digits, then ``,``, the arm and ``,``."""
    negative = cluster_id < 0
    # |id| in uint64 by two's complement, 2**63 for the int64 minimum included
    magnitude = cluster_id.view(np.uint64).copy()
    np.negative(magnitude, out=magnitude, where=negative)
    digits = len(str(int(magnitude.max())))
    signed = bool(negative.any())
    words = -(-(signed + digits + 3) // _WORD)
    prefix = np.zeros((cluster_id.size, words * _WORD), dtype=np.uint8)
    _put_digits(prefix[:, -3 - digits:-3], magnitude)
    if signed:
        prefix[:, -4 - digits] = np.where(negative, ord("-"), 0)
    prefix[:, -3] = prefix[:, -1] = ord(",")
    prefix[:, -2] = arm + ord("0")
    return prefix.view(np.uint64)


def write_dataset(dataset: TrialDataset, path: str) -> None:
    """Write one row per subject as ``cluster_id,arm,y`` (UTF-8, LF).

    Each chunk of whole clusters is built as one uint64 matrix with a row
    per subject: the words of the cluster's ``cluster_id,arm,`` prefix
    (:func:`_prefix_words`, built once per call by numpy digit passes), then
    the words of the outcome's decimal digits, one numpy pass a place, and a
    line feed, with NUL in the unused bytes.  No byte of a row is NUL, so
    dropping the NULs with ``bytes.translate`` leaves the file's bytes in
    order.  The words are only copied, never computed on, so byte order does
    not matter.
    """
    prefixes = _prefix_words(dataset.cluster_id, dataset.arm)
    head = prefixes.shape[1]  # the words of a prefix
    digits = len(str(int(dataset.outcomes.max())))
    tail = -(-(digits + 1) // _WORD)  # the words of an outcome and its LF
    first_row = np.concatenate(([0], np.cumsum(dataset.size)))  # and the end of the last cluster
    # a chunk starts at the first cluster at or after a multiple of its size
    cuts = np.unique(np.append(
        np.searchsorted(first_row, np.arange(0, dataset.n_subjects, _WRITE_CHUNK_SUBJECTS)),
        dataset.n_clusters,
    )).tolist()
    with open(path, "wb") as handle:
        handle.write(_PLAIN_HEADER)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            y = dataset.outcomes[first_row[lo]:first_row[hi]]
            rows = np.empty((y.size, head + tail), dtype=np.uint64)
            rows[:, :head] = np.repeat(prefixes[lo:hi], dataset.size[lo:hi], axis=0)
            # zeroed as words: as a byte matrix the same NULs took 15 times as long
            rows[:, head:] = 0
            text = rows[:, head:].view(np.uint8)
            _put_digits(text[:, -1 - digits:-1], y)
            text[:, -1] = ord("\n")
            handle.write(rows.tobytes().translate(None, b"\0"))


def _parse_plain(data: bytes) -> Optional[np.ndarray]:
    """The ``(3, rows)`` int64 columns of a file in the plain form, else None.

    Each chunk takes one pass for its delimiters (the bytes below ``0``), a
    check that they repeat as ``, , LF``, and per column one gather per digit
    place, most significant first, by Horner's rule.  A field shorter than
    the column's longest reads as ``0`` at the places it lacks.  A ``-`` is
    a delimiter there, so a file with a negative id fails the check and is
    left to numpy's reader.
    """
    start, row = len(_PLAIN_HEADER), 0
    if len(data) == start or not (data.startswith(_PLAIN_HEADER) and data.endswith(b"\n")):
        return None
    text = np.frombuffer(data, dtype=np.uint8)
    # one block: once freed it lifts glibc's mmap threshold above the other
    # temporaries of a simulate-and-fit round trip, which three separate
    # columns did not (910 minor faults a 2,000-cluster round trip against 1)
    columns = np.empty((3, data.count(b"\n") - 1), dtype=np.int64)
    while start < len(data):
        stop = data.index(b"\n", min(start + _READ_CHUNK_BYTES, len(data)) - 1) + 1
        chunk = text[start:stop]
        if chunk.max() > ord("9"):
            return None
        delimiters = np.flatnonzero(chunk < ord("0"))
        rows = delimiters.size // 3
        if chunk[delimiters].tobytes() != b",,\n" * rows:
            return None
        lengths = np.empty_like(delimiters)
        lengths[0] = delimiters[0] + 1
        np.subtract(delimiters[1:], delimiters[:-1], out=lengths[1:])
        lengths -= 1
        # each field's units digit: text[start - place:][units] is the digit
        # `place` places to its left, and as place < 18 the 17-byte header
        # keeps start - place >= 0
        units = delimiters - 1
        for j in range(3):
            length, at = lengths[j::3], units[j::3]
            lo, hi = int(length.min()), int(length.max())
            if lo < 1 or hi > _PLAIN_DIGITS:
                return None
            value = columns[j, row:row + rows]
            value[...] = 0
            for place in range(hi - 1, -1, -1):
                digit = text[start - place:stop - place][at]
                if place >= lo:
                    np.copyto(digit, ord("0"), where=length <= place)
                value *= 10
                value += digit
            value -= _ZERO_DIGITS[hi - 1]
        start, row = stop, row + rows
    return columns


# numpy's loadtxt opens a path by its extension, so a file named with one of
# these would be decompressed; such a file is read through its open handle
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def read_dataset(path: str) -> TrialDataset:
    """Read a dataset written by :func:`write_dataset`.

    Rows may appear in any order; each cluster id must map to a single arm.
    Clusters keep the order in which they first appear and each cluster's
    outcomes keep their file order.  The stored seed is unknown for ingested
    data and left unset.

    The file's bytes are read once.  A file in the plain form that
    :func:`write_dataset` writes is parsed by numpy byte passes, chunk by
    chunk; every other form (CR or CRLF line ends, blank lines, spaces,
    quotes, signs, a byte-order mark, 19-digit fields) by numpy's C reader.
    The checks (three columns, at least one row, arms 0 or 1, nonnegative
    outcomes, one arm per cluster) run on the parsed columns.  Only when the
    parse or a check fails are the bytes scanned line by line, to name the
    first bad line in the error.  The file is plain UTF-8 text whatever its
    name; a byte that is not names its line in the error.
    """
    with open(path, "rb") as handle:
        data = handle.read()
        regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
    columns = _parse_plain(data)
    if columns is None:
        try:
            columns = _load_text(path, data, regular)
        except UnicodeDecodeError:
            _raise_undecodable_line(path, data)
    cid, arm, y = columns
    # runs of equal consecutive ids: a cluster's rows are usually one run
    starts = np.flatnonzero(np.concatenate(([True], cid[1:] != cid[:-1])))
    lengths = np.diff(np.append(starts, cid.size))
    ids, first, inverse = np.unique(cid[starts], return_index=True, return_inverse=True)
    run_arm = arm[starts]
    # arms of 0 and 1 only, so a run's arm sum is its length times its first
    # arm exactly when all of its rows share that arm
    if (
        arm.min() < 0 or arm.max() > 1 or y.min() < 0
        or (np.add.reduceat(arm, starts) != run_arm * lengths).any()
        or (run_arm != run_arm[first][inverse]).any()  # each run has its cluster's first arm
    ):
        _raise_first_bad_line(path, data, "a row failed the array checks")
    if ids.size == starts.size:  # each cluster is one run, as write_dataset writes them
        # a copy, so that the dataset does not keep the id and arm columns alive
        return TrialDataset(cid[starts], run_arm, lengths, y.copy())
    order = np.argsort(first)  # clusters in order of first appearance
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    key = np.repeat(rank[inverse], lengths)  # each row's cluster index
    return TrialDataset(
        cluster_id=ids[order],
        arm=run_arm[first[order]],
        size=np.bincount(key),
        # a stable sort groups the rows by cluster and keeps file order within each
        outcomes=y[np.argsort(key, kind="stable")],
    )


def _text(data: bytes) -> io.TextIOWrapper:
    """A file's bytes as the text handle ``open(path, encoding="utf-8-sig", newline="")`` gives."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")


def _load_text(path: str, data: bytes, regular: bool) -> np.ndarray:
    """The ``(3, rows)`` int64 columns of a file in any accepted form, by numpy's C reader."""
    handle = _text(data)
    reader = csv.reader(handle)
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != DATASET_HEADER:
        raise ConfigError(f"{path}: expected header {','.join(DATASET_HEADER)!r}, got {header}")
    if regular and os.path.splitext(path)[1] not in _COMPRESSED_SUFFIXES:
        # numpy reads a path in C chunks but a handle line by line; an
        # absolute path is never taken for a URL
        source, skiprows = os.path.abspath(path), reader.line_num
    else:  # a pipe, read to its end, cannot be opened again
        source, skiprows = handle, 0
    try:
        with warnings.catch_warnings():
            # "input contained no data", and numpy < 2's deprecated parse of
            # an integer through a float, must fail rather than give rows
            warnings.simplefilter("error")
            rows = np.loadtxt(
                source, delimiter=",", dtype=np.int64, ndmin=2, skiprows=skiprows,
                quotechar='"', comments=None, encoding="utf-8-sig",
            )
    except (ValueError, Warning) as exc:
        _raise_first_bad_line(path, data, str(exc))
    if rows.shape[0] < 1 or rows.shape[1] != 3:
        _raise_first_bad_line(path, data, f"parsed rows of shape {rows.shape}")
    return rows.T


def _raise_first_bad_line(path: str, data: bytes, reason: str) -> NoReturn:
    """Raise the ConfigError that names the first bad line of the file ``data`` holds.

    Used only after the parse of :func:`read_dataset` or its checks have
    failed.  Line numbers are physical lines, blank ones included; a row that
    a quoted line break spreads over several lines is named by its last.  If
    no line is at fault, the error carries ``reason``, the parse's own message.
    """
    arm_of: dict[int, int] = {}
    reader = csv.reader(_text(data))
    next(reader)  # the header, already checked
    for row in reader:
        lineno = reader.line_num
        if not row:
            continue
        if len(row) != 3 or not all(_PLAIN_INT.fullmatch(v) for v in row):
            raise ConfigError(f"{path}:{lineno}: malformed row {row}")
        cid, arm, y = (int(v) for v in row)
        if cid not in arm_of:  # a new cluster: check the id and arm once
            if not _INT64_MIN <= cid <= _INT64_MAX:
                raise ConfigError(f"{path}:{lineno}: cluster id {cid} outside the int64 range")
            if arm not in (0, 1):
                raise ConfigError(f"{path}:{lineno}: arm must be 0 or 1, got {arm}")
            arm_of[cid] = arm
        elif arm_of[cid] != arm:
            raise ConfigError(f"{path}:{lineno}: cluster {cid} changes arm")
        if not 0 <= y <= _INT64_MAX:
            if y < 0:
                raise ConfigError(f"{path}:{lineno}: negative outcome {y}")
            raise ConfigError(f"{path}:{lineno}: outcome {y} outside the int64 range")
    if not arm_of:
        raise ConfigError(f"{path}: no data rows")
    raise ConfigError(f"{path}: malformed rows ({reason})")


def _raise_undecodable_line(path: str, data: bytes) -> NoReturn:
    """Raise the ConfigError that names the first line of the file ``data`` holds that is not UTF-8.

    Lines are physical lines, as :func:`_raise_first_bad_line` counts them.
    """
    for lineno, line in enumerate(data.splitlines(), 1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"{path}:{lineno}: not UTF-8 text (byte 0x{line[exc.start]:02x})"
            ) from None
    raise ConfigError(f"{path}: not UTF-8 text") from None
