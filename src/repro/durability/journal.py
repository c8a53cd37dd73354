"""The append-only audit journal: segmented JSONL with per-record CRC.

The journal is the durable half of the paper's no-false-negatives
guarantee (Claim 3.6). The engine appends an **intent** record — the
query's ACCESSED map plus the session metadata its trigger actions read —
synchronously inside ``Database.execute`` *before* results are returned,
and a matching **commit** record once the AFTER-timing actions complete.
An intent with no commit is a firing the process lost (crash, dead
worker, dropped batch); :func:`repro.durability.recovery.recover_database`
re-fires it.

On-disk format, chosen so a journal is greppable and a torn tail is
detectable without framing metadata:

* a journal is a *directory* of segments ``audit-NNNNNN.jsonl``;
* each record is one line: ``<crc32:08x> <compact-json>\n``, the CRC
  taken over the JSON bytes;
* segments rotate at :data:`DEFAULT_SEGMENT_BYTES`; sequence numbers are
  global and strictly increasing across segments.

Durability knob (``fsync``):

* ``'always'`` — flush + ``os.fsync`` after every append (group-0 loss);
* ``'batch'``  — flush every append, fsync every
  :data:`DEFAULT_BATCH_INTERVAL` appends and on close (bounded loss,
  near-``off`` throughput — the default);
* ``'off'``    — flush only; the OS decides when bytes reach the platter.

:func:`scan_journal` is the read side shared by recovery, verification,
and the tests: it validates every CRC, tolerates a torn final line of the
*final* segment (the expected artifact of a crash mid-append), and treats
corruption anywhere else as :class:`~repro.errors.JournalCorruptionError`
(or skips it when ``strict=False``).
"""

from __future__ import annotations

import datetime
import decimal
import json
import os
import pathlib
import threading
import zlib
from dataclasses import dataclass

from repro.errors import DurabilityError, JournalCorruptionError
from repro.testing.faults import NO_FAULTS, FaultInjector

SEGMENT_PREFIX = "audit-"
SEGMENT_SUFFIX = ".jsonl"

#: rotate segments at ~1 MiB so recovery never holds one huge file
DEFAULT_SEGMENT_BYTES = 1 << 20

#: ``fsync='batch'``: appends between fsyncs
DEFAULT_BATCH_INTERVAL = 32

FSYNC_POLICIES = ("always", "batch", "off")


@dataclass(frozen=True)
class JournalRecord:
    """One decoded journal line."""

    seq: int
    kind: str  # 'intent' | 'commit' | 'gap' | 'dead-letter'
    data: dict
    segment: str = ""
    line: int = 0


@dataclass
class ScanResult:
    """Outcome of a full journal scan."""

    records: list[JournalRecord]
    segments: int = 0
    #: torn (undecodable) lines dropped from the tail of the last segment
    torn_tail: int = 0
    #: corrupt interior records skipped (``strict=False`` only)
    corrupt: int = 0


#: one shared encoder: ``json.dumps`` with options builds a new one per call
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def encode_record(payload: dict) -> bytes:
    """One journal line: crc32 of the compact JSON, then the JSON.

    The payload must be JSON-native; anything else raises
    :class:`DurabilityError` so the append fails loudly into the
    ``fail_open``/``fail_closed`` policy instead of silently journaling a
    lossy stand-in. Rich partition-ID types go through
    :func:`encode_id` first.
    """
    return _frame(_encode_json(payload))


def _encode_json(value: object) -> str:
    try:
        return _ENCODER.encode(value)
    except (TypeError, ValueError) as error:
        raise DurabilityError(
            f"journal payload is not JSON-serializable: {error}"
        ) from error


def _frame(text: str) -> bytes:
    data = text.encode("utf-8")
    return b"%08x " % zlib.crc32(data) + data + b"\n"


def _record_line(seq: int, kind: str, data_json: str) -> bytes:
    """``encode_record({"seq": seq, "kind": kind, "data": data})`` given
    ``data`` already encoded: the keys in sorted order, as the encoder
    writes them, so the bytes are identical."""
    return _frame(
        '{"data":%s,"kind":%s,"seq":%d}'
        % (data_json, _ENCODER.encode(kind), seq)
    )


#: tag key marking a non-JSON-native partition ID in a journal payload
ID_TAG = "$id"


def encode_id(value: object) -> object:
    """JSON-safe encoding of one partition ID, round-trippable.

    JSON-native scalars pass through untouched; dates, datetimes,
    Decimals, and composite (tuple/list) keys become ``{"$id": tag,
    "v": ...}`` wrappers that :func:`decode_id` inverts exactly. Any
    other type raises :class:`DurabilityError` — recovery replaying a
    lossy stand-in would corrupt the reconstructed trail.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, datetime.datetime):  # before date: a subclass
        return {ID_TAG: "datetime", "v": value.isoformat()}
    if isinstance(value, datetime.date):
        return {ID_TAG: "date", "v": value.isoformat()}
    if isinstance(value, decimal.Decimal):
        return {ID_TAG: "decimal", "v": str(value)}
    if isinstance(value, (tuple, list)):
        return {ID_TAG: "tuple", "v": [encode_id(item) for item in value]}
    raise DurabilityError(
        f"partition ID of type {type(value).__name__} cannot be "
        f"journaled losslessly: {value!r}"
    )


def decode_id(value: object) -> object:
    """Inverse of :func:`encode_id`."""
    if isinstance(value, dict) and ID_TAG in value:
        tag, raw = value[ID_TAG], value.get("v")
        if tag == "datetime":
            return datetime.datetime.fromisoformat(raw)
        if tag == "date":
            return datetime.date.fromisoformat(raw)
        if tag == "decimal":
            return decimal.Decimal(raw)
        if tag == "tuple":
            return tuple(decode_id(item) for item in raw)
        raise JournalCorruptionError(f"unknown partition-ID tag {tag!r}")
    return value


def decode_line(line: bytes) -> dict:
    """Inverse of :func:`encode_record`; raises ``ValueError`` on damage."""
    crc_hex, _, data = line.rstrip(b"\n").partition(b" ")
    if not data:
        raise ValueError("truncated journal line")
    if int(crc_hex, 16) != zlib.crc32(data):
        raise ValueError("journal line CRC mismatch")
    return json.loads(data)


def _segment_name(index: int) -> str:
    return f"{SEGMENT_PREFIX}{index:06d}{SEGMENT_SUFFIX}"


def repair_torn_tail(path: os.PathLike | str) -> int:
    """Truncate a crash's torn tail off one journal file; return bytes cut.

    A torn tail is the trailing run of undecodable lines left by a crash
    mid-append. Reopening such a file in append mode would glue the next
    record onto the partial line — silently losing that record and turning
    the journal corrupt once another follows — so writers call this before
    opening for append. Only the *trailing* invalid run is cut: a bad line
    with a good one after it is interior corruption and is left in place
    for :func:`scan_journal` to report. A final line whose record decodes
    but lost its newline is repaired in place rather than dropped.
    """
    segment = pathlib.Path(path)
    if not segment.exists():
        return 0
    raw = segment.read_bytes()
    valid_end = 0  # offset just past the last decodable record
    pending_bad = False
    needs_newline = False
    offset = 0
    for line in raw.splitlines(keepends=True):
        offset += len(line)
        if not line.strip():
            if not pending_bad:
                valid_end = offset
            continue
        try:
            decode_line(line)
        except ValueError:
            pending_bad = True
            continue
        pending_bad = False
        valid_end = offset
        needs_newline = not line.endswith(b"\n")
    dropped = len(raw) - valid_end
    if dropped or needs_newline:
        with open(segment, "r+b") as handle:
            handle.truncate(valid_end)
            if needs_newline:
                handle.seek(0, os.SEEK_END)
                handle.write(b"\n")
            handle.flush()
            os.fsync(handle.fileno())
    return dropped


def segment_paths(path: os.PathLike | str) -> list[pathlib.Path]:
    """The journal directory's segment files, in rotation order."""
    directory = pathlib.Path(path)
    if not directory.exists():
        return []
    return sorted(
        entry
        for entry in directory.iterdir()
        if entry.name.startswith(SEGMENT_PREFIX)
        and entry.name.endswith(SEGMENT_SUFFIX)
    )


def scan_journal(path: os.PathLike | str, strict: bool = True) -> ScanResult:
    """Read and verify every record of the journal at ``path``.

    A run of undecodable lines at the very end of the *last* segment is a
    torn write (crash mid-append): those lines are dropped and counted in
    ``torn_tail``. A bad line anywhere else — or a bad line *followed by
    a good one* in the last segment — is corruption:
    :class:`JournalCorruptionError` under ``strict`` (the default), else
    skipped and counted in ``corrupt``.
    """
    segments = segment_paths(path)
    result = ScanResult(records=[], segments=len(segments))
    for position, segment in enumerate(segments):
        last_segment = position == len(segments) - 1
        pending_bad: list[tuple[int, ValueError]] = []
        with open(segment, "rb") as handle:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    payload = decode_line(line)
                except ValueError as error:
                    if last_segment:
                        # may be the torn tail — decided once we know
                        # whether any good record follows
                        pending_bad.append((line_no, error))
                        continue
                    if strict:
                        raise JournalCorruptionError(
                            f"{segment.name}:{line_no}: {error}"
                        ) from error
                    result.corrupt += 1
                    continue
                if pending_bad:
                    # a good record after a bad one: not a torn tail
                    bad_line, bad_error = pending_bad[0]
                    if strict:
                        raise JournalCorruptionError(
                            f"{segment.name}:{bad_line}: {bad_error}"
                        ) from bad_error
                    result.corrupt += len(pending_bad)
                    pending_bad.clear()
                result.records.append(
                    JournalRecord(
                        seq=payload.get("seq", -1),
                        kind=payload.get("kind", ""),
                        data=payload.get("data", {}),
                        segment=segment.name,
                        line=line_no,
                    )
                )
        result.torn_tail += len(pending_bad)
    return result


class JournalCursor:
    """Incremental, restartable reader over a live journal directory.

    Where :func:`scan_journal` reads everything in one pass, a cursor
    remembers its position (segment + byte offset) and each
    :meth:`poll` returns only the records appended since the last call
    — the streaming read side replication tails. Semantics match the
    scanner's crash model:

    * a *partial* final line (no newline yet) or an undecodable final
      line of the last segment is an append in progress or a torn tail:
      the cursor stops short of it and re-reads it next poll;
    * an undecodable line **followed by more data** — or in any segment
      but the last — is interior corruption and raises
      :class:`~repro.errors.JournalCorruptionError`;
    * segment rotation is followed transparently.

    ``from_seq`` skips records below it, so a replica resuming from a
    known position does not replay history it already applied.
    """

    def __init__(self, path: os.PathLike | str, from_seq: int = 0) -> None:
        self.path = pathlib.Path(path)
        self.from_seq = from_seq
        self._segment_pos = 0  # index into segment_paths(self.path)
        self._offset = 0       # byte offset within the current segment
        #: highest sequence number this cursor has returned (or -1)
        self.last_seq = from_seq - 1

    def poll(self, max_records: int = 512) -> list[JournalRecord]:
        """Records appended since the last poll (may be empty)."""
        out: list[JournalRecord] = []
        while len(out) < max_records:
            segments = segment_paths(self.path)
            if self._segment_pos >= len(segments):
                break
            segment = segments[self._segment_pos]
            last_segment = self._segment_pos == len(segments) - 1
            with open(segment, "rb") as handle:
                handle.seek(self._offset)
                data = handle.read()
            if not data:
                if last_segment:
                    break  # caught up; wait for the writer
                self._segment_pos += 1
                self._offset = 0
                continue
            lines = data.splitlines(keepends=True)
            consumed = 0
            stalled = False
            for index, line in enumerate(lines):
                if not line.endswith(b"\n"):
                    stalled = True  # append in progress; retry next poll
                    break
                if not line.strip():
                    consumed += len(line)
                    continue
                try:
                    payload = decode_line(line)
                except ValueError as error:
                    trailing = last_segment and all(
                        not later.strip() for later in lines[index + 1:]
                    )
                    if trailing:
                        # torn tail of a crashed (or crashing) writer:
                        # stop here; the writer's restart repairs it
                        stalled = True
                        break
                    raise JournalCorruptionError(
                        f"{segment.name}: {error}"
                    ) from error
                consumed += len(line)
                seq = payload.get("seq", -1)
                if seq >= self.from_seq:
                    out.append(
                        JournalRecord(
                            seq=seq,
                            kind=payload.get("kind", ""),
                            data=payload.get("data", {}),
                            segment=segment.name,
                        )
                    )
                    self.last_seq = max(self.last_seq, seq)
                    if len(out) >= max_records:
                        break
            self._offset += consumed
            if stalled or len(out) >= max_records:
                break
            if last_segment:
                break  # consumed everything currently on disk
            self._segment_pos += 1
            self._offset = 0
        return out


class AuditJournal:
    """Thread-safe append side of a segmented audit journal."""

    def __init__(
        self,
        path: os.PathLike | str,
        fsync: str = "batch",
        segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
        batch_interval: int = DEFAULT_BATCH_INTERVAL,
        faults: FaultInjector = NO_FAULTS,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise DurabilityError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.path = pathlib.Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self._segment_max_bytes = max(1, segment_max_bytes)
        self._batch_interval = max(1, batch_interval)
        self._faults = faults
        self._lock = threading.Lock()
        self._unsynced = 0
        #: owed ``'batch'`` fsyncs running outside the lock
        self._syncing = 0
        self._closed = False
        #: appends that reached the file (telemetry for benchmarks)
        self.appended = 0
        self.fsyncs = 0
        #: torn-tail bytes truncated off the last segment at open
        self.repaired_tail_bytes = 0

        existing = segment_paths(self.path)
        if existing:
            # a crash mid-append leaves a torn tail on the last segment;
            # cut it before opening for append, or the first post-restart
            # record glues onto the partial line and is lost
            self.repaired_tail_bytes = repair_torn_tail(existing[-1])
            # continue the global sequence after the last decodable record
            scan = scan_journal(self.path, strict=True)
            self._next_seq = max(
                (record.seq for record in scan.records), default=-1
            ) + 1
            self._segment_index = int(
                existing[-1].name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
            )
            self._segment_path = existing[-1]
        else:
            self._next_seq = 0
            self._segment_index = 0
            self._segment_path = self.path / _segment_name(0)
        self._open_segment()

    # ------------------------------------------------------------------
    # append side

    def _open_segment(self) -> None:
        """Open the current segment for append and learn its size.

        The size is tracked in Python from here on (``_offset``), so an
        append costs no ``tell()`` system call on the serving thread. It
        only decides when to rotate: a write that fails part-way leaves
        it off by at most one line, which moves a rotation, not a record.
        """
        self._handle = open(self._segment_path, "ab")
        self._offset = os.fstat(self._handle.fileno()).st_size

    def append(self, kind: str, data: dict) -> int:
        """Durably append one record; returns its sequence number.

        The lock covers only sequencing and the copy into the file
        buffer. The payload is encoded before it; the flush that hands
        the line to the OS, and under ``'batch'`` the fsync this append
        owes, run after it. Both release the GIL, and holding the lock
        across them would queue every concurrent appender behind the
        system call. The policy is unchanged: the flush — and the owed
        fsync, which covers every earlier line — completes before
        ``append`` returns, by this thread or by a rotation or close
        that flushed and synced the segment first. ``'always'`` syncs
        under the lock.
        """
        body = _encode_json(data)
        with self._lock:
            if self._closed:
                raise DurabilityError("audit journal is closed")
            self._faults.fire("journal-write")
            seq = self._next_seq
            line = _record_line(seq, kind, body)
            if self._offset + len(line) > self._segment_max_bytes \
                    and self._offset > 0:
                self._rotate()
            handle = self._handle
            handle.write(line)
            self._offset += len(line)
            self._next_seq = seq + 1
            self.appended += 1
            if self.fsync == "always":
                self._sync()
                return seq
            owes_sync = False
            if self.fsync == "batch":
                self._unsynced += 1
                if self._unsynced >= self._batch_interval:
                    self._unsynced = 0
                    self._syncing += 1
                    owes_sync = True
        synced = False
        try:
            if owes_sync:
                self._fsync(handle)
                synced = True
            else:
                handle.flush()
        except ValueError:
            if not handle.closed:
                raise
            # rotated or closed meanwhile: that flushed and synced it
        finally:
            if owes_sync:
                with self._lock:
                    self._syncing -= 1
                    if synced:
                        self.fsyncs += 1
                    elif not handle.closed:
                        # failed: the next append owes the sync again
                        self._unsynced = self._batch_interval
        return seq

    def _rotate(self) -> None:
        if self.fsync != "off":
            self._sync()
        self._handle.close()
        self._segment_index += 1
        self._segment_path = self.path / _segment_name(self._segment_index)
        self._open_segment()

    def _sync(self) -> None:
        """Flush and fsync the current segment (journal lock held)."""
        self._fsync(self._handle)
        self.fsyncs += 1
        self._unsynced = 0

    def _fsync(self, handle) -> None:
        handle.flush()
        self._faults.fire("journal-fsync")
        os.fsync(handle.fileno())

    def flush(self) -> None:
        """Flush buffers; fsync unless the policy is ``'off'``."""
        with self._lock:
            if self._closed:
                return
            if self.fsync != "off":
                self._sync()
            else:
                self._handle.flush()

    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._handle.flush()
            # an append's owed fsync may still be in flight outside the
            # lock; closing the file makes it a no-op, so sync here
            if self.fsync != "off" and (self._unsynced or self._syncing):
                try:
                    self._sync()
                except BaseException:  # noqa: BLE001 — best-effort close
                    pass
            self._closed = True
            self._handle.close()

    # ------------------------------------------------------------------
    # read side

    def scan(self, strict: bool = True) -> ScanResult:
        with self._lock:
            if not self._closed:
                self._handle.flush()
        return scan_journal(self.path, strict=strict)


__all__ = [
    "AuditJournal",
    "JournalCursor",
    "JournalRecord",
    "ScanResult",
    "scan_journal",
    "segment_paths",
    "repair_torn_tail",
    "encode_record",
    "decode_line",
    "encode_id",
    "decode_id",
    "DEFAULT_SEGMENT_BYTES",
    "DEFAULT_BATCH_INTERVAL",
    "FSYNC_POLICIES",
]
