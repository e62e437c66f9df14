"""Segmented append-only record store backing the result cache.

One ``SegmentStore`` manages a directory of segment files plus a side
index.  Records append to single-file **segments** instead of one file
per digest, trading filesystem metadata traffic (``open``/``stat``/
``unlink`` per record) for sequential bandwidth — the same
streamed-over-random access bargain the paper's memory vectorization
makes.

On-disk format
--------------

Segment files are named ``seg-NNNNNN.seg`` and start with an 8-byte
magic.  Every record is a length-prefixed frame::

    <II>  payload length, crc32(digest + payload)
    64s   spec digest (ascii sha256 hex)
    ...   compact-JSON payload

The digest lives in the frame header (not only in the payload) so index
rebuilds and tail scans never JSON-parse payloads they don't need.  A
segment is **sealed** by a footer record — an ordinary frame whose
digest field is the reserved all-zero digest and whose payload records
the segment's record count.  Sealed segments are immutable; unsealed
segments only ever grow at the tail, and only under the process that
created them (creation uses ``O_CREAT | O_EXCL``, so two processes can
never interleave appends into one file — each writer claims its own
active segment).

The side index (``index.json``) maps ``digest -> (segment, offset,
payload length)`` and caches per-segment sizes.  It is advisory: on
open the store trusts it only up to each segment's recorded size and
**tail-scans** anything that grew past it (or full-scans segments the
index has never seen), so a crash between appends and an index flush
loses nothing.  A torn tail — a partial frame from a crashed writer —
fails its length/CRC check and scanning stops there; every complete
record before it survives.

Duplicate admission is first-writer-wins: appends for a digest already
in the index are dropped, and when independent writers raced the same
digest into different segments, rebuilds keep the record from the
lowest ``(segment, offset)``.  Duplicates and torn bytes stay on disk
(dead weight only) until :meth:`SegmentStore.compact` rewrites live
records into a fresh sealed segment, which it does only when that
drops a record or reclaims a real share of the store.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import threading
import zlib
from pathlib import Path

class CorruptFrameError(RuntimeError):
    """Compaction found live frames whose stored CRC no longer
    matches their bytes (disk bit-rot, or an external writer).

    The offending frames are quarantined to ``<digest>.corrupt``
    sidecar files and dropped from the index *before* this is raised,
    so the store is left compacted and consistent — the error exists
    to make the loss loud (``repro cache gc`` exits non-zero) instead
    of silently laundering corrupt bytes into a fresh segment with a
    recomputed CRC.
    """

    def __init__(self, quarantined: list[tuple[str, str]],
                 dead: int, reclaimed: int):
        #: ``(digest, sidecar path)`` per quarantined frame
        self.quarantined = quarantined
        self.dead = dead
        self.reclaimed = reclaimed
        digests = ", ".join(d[:12] for d, _ in quarantined)
        super().__init__(
            f"{len(quarantined)} live frame(s) failed their CRC "
            f"during compaction and were quarantined to .corrupt "
            f"sidecars (digests: {digests}); the records are lost "
            "and must be recomputed")


MAGIC = b"RSEG0001"
INDEX_NAME = "index.json"
_INDEX_SCHEMA = 1
_HEADER = struct.Struct("<II")
_DIGEST_LEN = 64
_FRAME_OVERHEAD = _HEADER.size + _DIGEST_LEN
FOOTER_DIGEST = "0" * _DIGEST_LEN
SEGMENT_SUFFIX = ".seg"
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024
#: with no dead record, compaction rewrites the store only to reclaim
#: more than this share of its bytes (torn tails, the magic and footer
#: of each segment beyond the first): full 4 MiB segments never
#: qualify, a pile of tiny ones does
MIN_RECLAIM_SHARE = 0.01


def _dumps(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _frame(digest: str, raw: bytes) -> bytes:
    dig = digest.encode("ascii")
    return _HEADER.pack(len(raw), zlib.crc32(dig + raw)) + dig + raw


def _footer_frame(records: int) -> bytes:
    return _frame(FOOTER_DIGEST, _dumps({"footer": {"records": records}}))


class SegmentStore:
    """Digest-keyed record store over append-only segment files.

    Payloads are plain dicts (compact JSON on disk).  All methods are
    thread-safe; reads use ``pread`` on cached descriptors so they
    never seek a shared file position.
    """

    def __init__(self, directory, *,
                 max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 index_flush_min: int = 512, fault_plan=None):
        self.directory = Path(directory)
        self.max_segment_bytes = max_segment_bytes
        self.index_flush_min = index_flush_min
        if fault_plan is None:
            # lazy: the engine package must not import the service
            # package at module load (the service imports us)
            from repro.service.faults import resolve_plan
            fault_plan = resolve_plan(None)
        self._faults = fault_plan
        #: digest -> (segment name, frame offset, payload length)
        self.index: dict[str, tuple[str, int, int]] = {}
        # segment name -> {"size": validated frontier, "sealed": bool,
        #                  "records": frames scanned/appended (footer
        #                  excluded)}
        self._segments: dict[str, dict] = {}
        self._active_name: str | None = None
        self._active_fh = None
        self._active_size = 0
        self._read_fds: dict[str, int] = {}
        self._dirty = 0  # index mutations since last flush
        self._lock = threading.RLock()
        self._load()

    # -- open / recovery ---------------------------------------------------

    def _load(self) -> None:
        """Build the in-memory index: persisted index + disk scans."""
        persisted_entries: dict[str, tuple[str, int, int]] = {}
        persisted_segments: dict[str, dict] = {}
        try:
            with open(self.directory / INDEX_NAME, encoding="utf-8") as fh:
                doc = json.load(fh)
            if doc.get("schema") == _INDEX_SCHEMA:
                for name, meta in doc.get("segments", {}).items():
                    persisted_segments[str(name)] = {
                        "size": int(meta["size"]),
                        "sealed": bool(meta["sealed"]),
                        "records": int(meta["records"]),
                    }
                for digest, ref in doc.get("entries", {}).items():
                    persisted_entries[str(digest)] = (
                        str(ref[0]), int(ref[1]), int(ref[2]))
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            persisted_entries = {}
            persisted_segments = {}

        try:
            on_disk = sorted(
                p.name for p in self.directory.iterdir()
                if p.is_file() and p.suffix == SEGMENT_SUFFIX)
        except OSError:
            on_disk = []

        self.index = {}
        self._segments = {}
        trusted: dict[str, int] = {}  # name -> trusted prefix length
        rescan: list[str] = []
        for name in on_disk:
            path = self.directory / name
            try:
                actual = path.stat().st_size
            except OSError:
                continue
            meta = persisted_segments.get(name)
            if meta is not None and actual >= meta["size"]:
                self._segments[name] = dict(meta)
                trusted[name] = meta["size"]
            else:
                # unknown segment, or shrunk below the recorded
                # frontier (external truncation): rescan from scratch
                self._segments[name] = {"size": len(MAGIC), "sealed": False,
                                        "records": 0}
                rescan.append(name)
        # one pass over the persisted entries covers every trusted
        # prefix; segment name order decides first-writer ties
        for digest, ref in sorted(persisted_entries.items(),
                                  key=lambda kv: kv[1]):
            frontier = trusted.get(ref[0])
            if frontier is not None and ref[1] < frontier:
                self.index.setdefault(digest, ref)
        for name in rescan:
            if not self._scan_segment(self.directory / name, name, start=0):
                del self._segments[name]  # foreign file: never touch it
        for name, frontier in trusted.items():
            meta = self._segments[name]
            if not meta["sealed"]:
                # trust the persisted prefix, scan only the tail
                self._scan_segment(self.directory / name, name,
                                   start=frontier)
        self._dirty = 0

    def _scan_segment(self, path: Path, name: str, start: int) -> bool:
        """Stream frames from ``start``, stopping at the first torn or
        invalid frame (always the true end of an append-only file).
        Returns False only for files that are not segments at all."""
        meta = self._segments[name]
        try:
            with open(path, "rb") as fh:
                if start == 0:
                    if fh.read(len(MAGIC)) != MAGIC:
                        return False  # not one of ours; leave it alone
                    pos = len(MAGIC)
                else:
                    fh.seek(start)
                    pos = start
                while True:
                    header = fh.read(_HEADER.size)
                    if len(header) < _HEADER.size:
                        break
                    length, crc = _HEADER.unpack(header)
                    rest = fh.read(_DIGEST_LEN + length)
                    if len(rest) < _DIGEST_LEN + length:
                        break
                    digest_raw = rest[:_DIGEST_LEN]
                    if zlib.crc32(digest_raw + rest[_DIGEST_LEN:]) != crc:
                        break
                    frame_off = pos
                    pos += _FRAME_OVERHEAD + length
                    meta["size"] = pos
                    digest = digest_raw.decode("ascii", "replace")
                    if digest == FOOTER_DIGEST:
                        meta["sealed"] = True
                        continue
                    meta["records"] += 1
                    self.index.setdefault(digest, (name, frame_off, length))
        except OSError:
            pass
        return True

    def refresh(self) -> None:
        """Re-validate against the directory (other writers' appends,
        external compaction or deletion)."""
        with self._lock:
            self._close_read_fds()
            self._load()
            if self._active_name is not None:
                # our own active segment survived only if still on disk
                if self._active_name in self._segments:
                    meta = self._segments[self._active_name]
                    meta["size"] = max(meta["size"], self._active_size)
                else:
                    self._close_active()

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, digest: str) -> bool:
        return digest in self.index

    def digests(self):
        return self.index.keys()

    def _fd(self, name: str) -> int | None:
        fd = self._read_fds.get(name)
        if fd is None:
            try:
                fd = os.open(self.directory / name, os.O_RDONLY)
            except OSError:
                return None
            self._read_fds[name] = fd
        return fd

    def _read_frame(self, ref: tuple[str, int, int]) -> bytes | None:
        name, offset, length = ref
        fd = self._fd(name)
        if fd is None:
            return None
        try:
            frame = os.pread(fd, _FRAME_OVERHEAD + length, offset)
        except OSError:
            return None
        if len(frame) < _FRAME_OVERHEAD + length:
            return None
        return frame[_FRAME_OVERHEAD:]

    def get_raw(self, digest: str) -> bytes | None:
        """Raw payload bytes for one digest (None on a miss)."""
        with self._lock:
            ref = self.index.get(digest)
            if ref is None:
                return None
            return self._read_frame(ref)

    def get(self, digest: str) -> dict | None:
        raw = self.get_raw(digest)
        if raw is None:
            return None
        try:
            payload = json.loads(raw)
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    def fetch_raw_many(self, digests) -> dict[str, bytes]:
        """Bulk hit-resolution: one index probe per digest, then reads
        grouped per segment in offset order (sequential within each
        file instead of scattered ``open`` calls)."""
        with self._lock:
            by_segment: dict[str, list[tuple[int, int, str]]] = {}
            for digest in digests:
                ref = self.index.get(digest)
                if ref is not None:
                    by_segment.setdefault(ref[0], []).append(
                        (ref[1], ref[2], digest))
            out: dict[str, bytes] = {}
            for name in sorted(by_segment):
                fd = self._fd(name)
                if fd is None:
                    continue
                for offset, length, digest in sorted(by_segment[name]):
                    try:
                        frame = os.pread(
                            fd, _FRAME_OVERHEAD + length, offset)
                    except OSError:
                        continue
                    if len(frame) == _FRAME_OVERHEAD + length:
                        out[digest] = frame[_FRAME_OVERHEAD:]
            return out

    def get_many(self, digests) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for digest, raw in self.fetch_raw_many(digests).items():
            try:
                payload = json.loads(raw)
            except ValueError:
                continue
            if isinstance(payload, dict):
                out[digest] = payload
        return out

    def scan(self):
        """Yield ``(digest, payload dict)`` for every live record.

        Streams segments in name order; only the record the index
        points at is yielded for each digest (duplicates and torn
        bytes are skipped).
        """
        with self._lock:
            refs = sorted(self.index.items(), key=lambda kv: kv[1])
        for digest, ref in refs:
            raw = self._read_frame(ref)
            if raw is None:
                continue
            try:
                payload = json.loads(raw)
            except ValueError:
                continue
            if isinstance(payload, dict):
                yield digest, payload

    def record_sizes(self) -> dict[str, int]:
        """Digest -> on-disk frame size, straight from the index."""
        with self._lock:
            return {digest: _FRAME_OVERHEAD + ref[2]
                    for digest, ref in self.index.items()}

    def stat(self) -> dict:
        """O(1) store metrics from in-memory state (no record opens)."""
        with self._lock:
            return {
                "records": len(self.index),
                "segments": len(self._segments),
                "bytes": sum(m["size"] for m in self._segments.values()),
                "sealed": sum(1 for m in self._segments.values()
                              if m["sealed"]),
            }

    # -- writes ------------------------------------------------------------

    def _next_segment_name(self) -> int:
        highest = -1
        for name in self._segments:
            stem = name[len("seg-"):-len(SEGMENT_SUFFIX)]
            if stem.isdigit():
                highest = max(highest, int(stem))
        return highest + 1

    def _open_active(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        number = self._next_segment_name()
        while True:
            name = f"seg-{number:06d}{SEGMENT_SUFFIX}"
            try:
                fd = os.open(self.directory / name,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                number += 1  # another writer claimed it
                continue
            break
        self._active_fh = os.fdopen(fd, "wb")
        self._active_fh.write(MAGIC)
        self._active_fh.flush()
        self._active_name = name
        self._active_size = len(MAGIC)
        self._segments[name] = {"size": len(MAGIC), "sealed": False,
                                "records": 0}

    def _close_active(self) -> None:
        if self._active_fh is not None:
            try:
                self._active_fh.close()
            except OSError:
                pass
        self._active_fh = None
        self._active_name = None
        self._active_size = 0

    def _seal_active(self) -> None:
        """Write the footer, fsync and close the active segment."""
        if self._active_fh is None:
            return
        meta = self._segments[self._active_name]
        footer = _footer_frame(meta["records"])
        self._active_fh.write(footer)
        self._active_fh.flush()
        os.fsync(self._active_fh.fileno())
        self._active_size += len(footer)
        meta["size"] = self._active_size
        meta["sealed"] = True
        self._close_active()

    def append_many(self, items) -> list[str]:
        """Append ``(digest, payload dict)`` pairs; returns the digests
        actually written (first-writer-wins drops the rest)."""
        fresh: list[str] = []
        with self._lock:
            for digest, payload in items:
                if digest in self.index or digest == FOOTER_DIGEST:
                    continue
                if self._active_fh is None:
                    self._open_active()
                raw = _dumps(payload)
                frame = _frame(digest, raw)
                offset = self._active_size
                rule = self._faults.fire("store.write")
                if rule is not None:
                    # injected I/O failure: behave exactly like a
                    # crashed writer — a torn write leaves a partial
                    # frame on disk (recovery's tail scan stops
                    # there), and the abandoned segment is closed so
                    # later appends claim a fresh one
                    if rule.action == "torn":
                        self._active_fh.write(frame[:len(frame) // 2])
                        self._active_fh.flush()
                    self._close_active()
                    from repro.service.faults import InjectedFault
                    raise InjectedFault("store.write", rule.action)
                self._active_fh.write(frame)
                self._active_size += len(frame)
                meta = self._segments[self._active_name]
                meta["size"] = self._active_size
                meta["records"] += 1
                self.index[digest] = (self._active_name, offset, len(raw))
                fresh.append(digest)
                self._dirty += 1
                if self._active_size >= self.max_segment_bytes:
                    self._seal_active()
            if self._active_fh is not None:
                self._active_fh.flush()
            if self._dirty >= self._flush_threshold():
                self._flush_index()
        return fresh

    def append(self, digest: str, payload: dict) -> bool:
        return bool(self.append_many([(digest, payload)]))

    # -- index persistence -------------------------------------------------

    def _flush_threshold(self) -> int:
        # rewrite cost is O(index), so flush geometrically: always
        # after index_flush_min mutations, sooner only while small
        return max(self.index_flush_min, len(self.index) // 4)

    def _flush_index(self) -> None:
        doc = {
            "schema": _INDEX_SCHEMA,
            "segments": {name: meta for name, meta
                         in sorted(self._segments.items())},
            "entries": {digest: list(ref)
                        for digest, ref in self.index.items()},
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, separators=(",", ":"))
            os.replace(tmp, self.directory / INDEX_NAME)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._dirty = 0

    def flush(self) -> None:
        """Persist the index now (appends flush it lazily)."""
        with self._lock:
            if self._dirty:
                self._flush_index()

    # -- compaction --------------------------------------------------------

    def compact(self, dry_run: bool = False) -> tuple[int, int]:
        """Rewrite live records into one fresh sealed segment.

        Drops duplicate frames, torn tails and footers of superseded
        segments.  Returns ``(dead records, bytes reclaimed)``; with
        ``dry_run=True`` nothing is rewritten and the same totals are
        computed from the index alone.  The rewrite costs every live
        byte, so it runs only when it drops a dead record or reclaims
        more than :data:`MIN_RECLAIM_SHARE` of the store; otherwise
        (say, a store of full segments and nothing dead) this returns
        ``(0, 0)`` without touching a file.
        """
        with self._lock:
            live = dict(self.index)
            total_records = sum(m["records"]
                                for m in self._segments.values())
            dead_records = total_records - len(live)
            bytes_before = 0
            for name in self._segments:
                try:
                    bytes_before += (
                        self.directory / name).stat().st_size
                except OSError:
                    pass
            if live:
                bytes_after = (len(MAGIC)
                               + sum(_FRAME_OVERHEAD + ref[2]
                                     for ref in live.values())
                               + len(_footer_frame(len(live))))
            else:
                bytes_after = 0
            reclaimed = max(0, bytes_before - bytes_after)
            if (dead_records == 0
                    and reclaimed <= MIN_RECLAIM_SHARE * bytes_before):
                return 0, 0
            if dry_run:
                return dead_records, reclaimed

            # stream live frames (verbatim, CRCs preserved) into a
            # fresh segment claimed the same O_EXCL way; every frame
            # is CRC-verified on the way through — carrying a rotted
            # frame into the new segment would recompute its CRC and
            # launder the corruption into a "valid" record
            old_segments = list(self._segments)
            self._close_active()
            new_index: dict[str, tuple[str, int, int]] = {}
            quarantined: list[tuple[str, str]] = []
            if live:
                self._open_active()
                name = self._active_name
                for digest, ref in sorted(live.items(),
                                          key=lambda kv: kv[1]):
                    frame = self._read_whole_frame(ref)
                    if frame is None:
                        continue  # lost to a concurrent deletion
                    _length, crc = _HEADER.unpack(frame[:_HEADER.size])
                    if zlib.crc32(frame[_HEADER.size:]) != crc:
                        quarantined.append(
                            (digest, self._quarantine(digest, frame)))
                        continue
                    raw = frame[_FRAME_OVERHEAD:]
                    new_index[digest] = (name, self._active_size,
                                         len(raw))
                    self._active_fh.write(frame)
                    self._active_size += len(frame)
                    self._segments[name]["size"] = self._active_size
                    self._segments[name]["records"] += 1
                self._seal_active()
            self._close_read_fds()
            for name in old_segments:
                try:
                    os.unlink(self.directory / name)
                except OSError:
                    pass
                self._segments.pop(name, None)
            self.index = new_index
            self._flush_index()
            if quarantined:
                raise CorruptFrameError(quarantined, dead_records,
                                        reclaimed)
            return dead_records, reclaimed

    def _read_whole_frame(self, ref: tuple[str, int, int]
                          ) -> bytes | None:
        """One frame including its header (for CRC re-verification)."""
        name, offset, length = ref
        fd = self._fd(name)
        if fd is None:
            return None
        try:
            frame = os.pread(fd, _FRAME_OVERHEAD + length, offset)
        except OSError:
            return None
        if len(frame) < _FRAME_OVERHEAD + length:
            return None
        return frame

    def _quarantine(self, digest: str, frame: bytes) -> str:
        """Preserve a CRC-failing frame as a ``.corrupt`` sidecar."""
        path = self.directory / f"{digest}.corrupt"
        try:
            path.write_bytes(frame)
        except OSError:
            pass  # quarantine is best-effort; the drop still happens
        return str(path)

    # -- teardown ----------------------------------------------------------

    def _close_read_fds(self) -> None:
        for fd in self._read_fds.values():
            try:
                os.close(fd)
            except OSError:
                pass
        self._read_fds = {}

    def close(self) -> None:
        """Flush the index and drop descriptors (reopen-safe)."""
        with self._lock:
            if self._dirty:
                self._flush_index()
            self._close_active()
            self._close_read_fds()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
