"""Content integrity: checksums, typed corruption errors, tamper helpers.

The paper's fault model — and PRs 1-9 of this reproduction — is
fail-stop: components crash, writes tear, disks die, but surviving bits
are trusted.  Real stable media also rots silently: a latent sector
error or a firmware bug flips bits *in place* and the first reader pays
for it.  Replay-heavy restarts (the redo-only and command-logging
designs re-read long log suffixes) make one undetected bad record fatal
to every architecture in the shoot-out.

This package is the **detection** half of the integrity story:

* :func:`page_checksum` / :func:`record_checksum` — CRC32 content sums
  over page images and log records (:func:`canonical_bytes` gives
  records a deterministic byte form first);
* :class:`PageIntegrityError` / :class:`RecordIntegrityError` — the
  typed failures every verified read raises on a mismatch, so replay
  surfaces corruption instead of silently trusting it;
* :func:`split_torn_tail` — the log stop rule: a *contiguous corrupt
  suffix* is indistinguishable from a torn final flush and truncates;
  corruption strictly *inside* the clean prefix is rot and must raise;
* :func:`tamper_bytes` / :func:`tamper_record` — the deterministic
  corruption model (what a ``corrupt.*`` fault does to a stored value).

The **repair** half lives above: ``repro.storage`` managers repair
single pages from the archive (``repair_page_from_archive``) or escalate
to full archive+log media recovery, and ``repro.resilience.scrubber``
patrols the simulated mirrored disks.  ``docs/INTEGRITY.md`` has the
design and the scrubtest oracles.

This module sits *below* the storage layer (API02 layer 0) so both the
storage managers and the hardware models can import it.
"""

from __future__ import annotations

import math
import zlib
from typing import Any, Callable, Iterable, Optional, Sequence, Tuple

__all__ = [
    "IntegrityError",
    "PageIntegrityError",
    "RecordIntegrityError",
    "canonical_bytes",
    "page_checksum",
    "record_checksum",
    "split_torn_tail",
    "tamper_bytes",
    "tamper_record",
]


class IntegrityError(Exception):
    """A stored value failed its content checksum (silent corruption)."""


class PageIntegrityError(IntegrityError):
    """A stable page image no longer matches its checksum envelope."""

    def __init__(self, page: int, message: str = "checksum mismatch"):
        super().__init__(f"page {page}: {message}")
        self.page = page


class RecordIntegrityError(IntegrityError):
    """A stable log/file record no longer matches its checksum envelope,
    or its byte encoding no longer decodes (surfaced from the codec)."""

    def __init__(self, file: str, index: int, message: str = "checksum mismatch"):
        super().__init__(f"record {file}[{index}]: {message}")
        self.file = file
        self.index = index


# -- checksums ---------------------------------------------------------------

def page_checksum(data: bytes) -> int:
    """The checksum envelope of a page image (CRC32 over the raw bytes)."""
    return zlib.crc32(data) & 0xFFFFFFFF


def canonical_bytes(value: Any) -> bytes:
    """A deterministic byte form of a record value, for checksumming.

    Records are plain Python values (tuples of scalars, possibly nested;
    NamedTuple instances; ``(name, [records])`` archive pairs).  The
    encoding is type-tagged so values that compare equal across types
    (``1``/``1.0``/``True``) still sum differently:

    ========================  ==========================================
    ``None``                  ``N``
    ``True`` / ``False``      ``T`` / ``F``
    ``int``                   ``I<str(value)>;``
    ``float``                 ``D<repr(value)>;``
    ``str``                   ``S<len(utf-8)>:<utf-8 bytes>``
    ``bytes``                 ``B<len>:<bytes>``
    ``tuple`` / ``list``      ``(<each item>)``
    ========================  ==========================================

    The encoder makes one pass: every piece is appended to one list that
    is joined once, and nested sequences are the only recursion.  Values
    of exactly ``int``, ``bytes``, ``str``, ``tuple`` or ``list`` take
    fast paths (a top-level ``int`` or ``bytes`` is encoded without the
    list); ``None``, ``bool``, ``float`` and subclasses (NamedTuple
    records, ``IntEnum``) go through the ``isinstance`` chain.  Both
    paths give the same bytes for the same value.  Anything else raises
    :class:`TypeError`.
    """
    kind = type(value)
    if kind is int:
        return b"I%d;" % value
    if kind is bytes:
        return b"B%d:" % len(value) + value
    if kind is tuple or kind is list:
        out = [b"("]
        _encode_items(value, out.append)
        out.append(b")")
    else:
        out = []
        _encode_items((value,), out.append)
    return b"".join(out)


def _encode_items(items: Iterable[Any], append: Callable[[bytes], Any]) -> None:
    """Append the canonical pieces of each of ``items`` (see
    :func:`canonical_bytes`)."""
    for item in items:
        kind = type(item)
        if kind is int:
            append(b"I%d;" % item)
        elif kind is str:
            raw = item.encode("utf-8")
            append(b"S%d:" % len(raw))
            append(raw)
        elif kind is tuple or kind is list:
            append(b"(")
            _encode_items(item, append)
            append(b")")
        elif kind is bytes:
            append(b"B%d:" % len(item))
            append(item)
        elif item is None:
            append(b"N")
        elif isinstance(item, bool):
            append(b"T" if item else b"F")
        elif isinstance(item, int):
            append(b"I" + str(item).encode("ascii") + b";")
        elif isinstance(item, float):
            append(b"D" + repr(item).encode("ascii") + b";")
        elif isinstance(item, str):
            raw = item.encode("utf-8")
            append(b"S%d:" % len(raw))
            append(raw)
        elif isinstance(item, bytes):
            append(b"B%d:" % len(item))
            append(item)
        elif isinstance(item, (tuple, list)):
            append(b"(")
            _encode_items(item, append)
            append(b")")
        else:
            raise TypeError(
                f"cannot canonicalize {type(item).__name__!r} for checksumming"
            )


def record_checksum(record: Any) -> int:
    """The checksum envelope of one log/file record."""
    return zlib.crc32(canonical_bytes(record)) & 0xFFFFFFFF


# -- the log stop rule -------------------------------------------------------

def split_torn_tail(ok: Sequence[bool]) -> Tuple[int, Optional[int]]:
    """Apply the log stop rule to per-record verification flags.

    Returns ``(keep, interior)``: ``keep`` is the length of the clean
    prefix replay may trust, and ``interior`` is the index of the first
    corrupt record *inside* that prefix's shadow — i.e. a corrupt record
    with a clean record after it — or ``None``.

    A contiguous corrupt *suffix* is the torn-tail case (the final flush
    never fully landed; dropping it loses nothing a crash would not have
    lost anyway).  A corrupt record *followed by clean ones* cannot be a
    tear — later appends landed fine — so it is rot inside committed
    history and the caller must raise, not truncate.
    """
    keep = len(ok)
    while keep and not ok[keep - 1]:
        keep -= 1
    for index in range(keep):
        if not ok[index]:
            return keep, index
    return keep, None


# -- the corruption model ----------------------------------------------------

def tamper_bytes(data: bytes, position: int = 0) -> bytes:
    """Flip one byte of ``data`` (the latent-sector-error bit flip).

    Empty images get a single junk byte so the tamper is never a no-op.
    """
    if not data:
        return b"\xff"
    position %= len(data)
    flipped = data[position] ^ 0xFF
    return data[:position] + bytes([flipped]) + data[position + 1 :]


def tamper_record(record: Any) -> Any:
    """Deterministically mutate a record value without touching its sum.

    The mutated value keeps the record's shape (same arity for tuples)
    so downstream decoders fail on *content*, not on unpacking — the
    realistic silent-corruption mode.
    """
    if isinstance(record, tuple):
        if not record:
            return ("\x00rot",)
        items = (tamper_record(record[0]),) + tuple(record[1:])
        if hasattr(record, "_fields"):  # NamedTuple: positional constructor
            return type(record)(*items)
        return items
    if isinstance(record, list):
        return [tamper_record(record[0])] + list(record[1:]) if record else ["\x00rot"]
    if isinstance(record, bool):
        return not record
    if isinstance(record, int):
        return record ^ 0x2A
    if isinstance(record, float):
        if record != record:
            return 0.0
        bumped = record + 1.0
        # Adding one is absorbed at large magnitudes and at +-inf: step to
        # the next float toward zero instead, so the tamper always shows.
        return bumped if bumped != record else math.nextafter(record, 0.0)
    if isinstance(record, str):
        if not record:
            return "\x00"
        # A second marker for a string the first one already leads, so
        # re-tampering a tampered record still changes it.
        marker = "\x01" if record[0] == "\x00" else "\x00"
        return marker + record[1:]
    if isinstance(record, bytes):
        return tamper_bytes(record)
    if record is None:
        return "\x00rot"
    return record
