"""Segmented append-only record store backing the result cache.

One ``SegmentStore`` manages a directory of segment files, and the
segments are its only on-disk state.  Records append to single-file
**segments** instead of one file per digest, trading filesystem
metadata traffic (``open``/``stat``/``unlink`` per record) for
sequential bandwidth — the same streamed-over-random access bargain
the paper's memory vectorization makes.

On-disk format
--------------

Segment files are named ``seg-NNNNNN.seg`` and start with an 8-byte
magic.  Every record is a length-prefixed frame::

    <II>  payload length, crc32(digest + payload)
    64s   spec digest (ascii sha256 hex)
    ...   compact-JSON payload

The digest lives in the frame header (not only in the payload) so the
scan that opens a store never JSON-parses a payload.  Segments only
ever grow at the tail, and only under the process that created them
(creation uses ``O_CREAT | O_EXCL``, so two processes can never
interleave appends into one file — each writer claims its own active
segment).  A segment that reaches ``max_segment_bytes`` is synced to
disk (``fsync``) and closed, and the next append claims a fresh one.

Opening
-------

Every open scans every frame of every segment, in name and offset
order, and checks its CRC to build the in-memory index ``digest ->
(segment, offset, payload length)``; when a digest has two frames, the
newer one wins.  A frame cut short by the end of its file is a **torn
tail** (a crashed writer): scanning that segment stops there, and
every record before it survives.  A whole frame that fails its CRC is
**rotted** (bit rot, or an external writer): the scan sets it aside,
so reads miss it, and goes on past it.  When the rotted frame's digest
field is not 64 hex characters, its length field is suspect too, so
scanning that segment stops there.

Within one process the first append for a digest wins: appends for a
digest already in the index are dropped.  A record its reader cannot
decode is dropped from the index (:meth:`SegmentStore.discard`), so
the next append for its digest is admitted; that frame is the newer
one, so it also wins when the store reopens.  Duplicates, discarded
records, rotted frames and torn bytes stay on disk (dead weight only)
until :meth:`SegmentStore.compact` rewrites the live records into a
fresh segment, quarantining each rotted frame to a ``.corrupt``
sidecar on the way.  It rewrites only when that drops a record or
reclaims a real share of the store.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from pathlib import Path


class CorruptFrameError(RuntimeError):
    """Compaction found frames whose stored CRC no longer matches their
    bytes (disk bit-rot, or an external writer).

    The offending frames are quarantined to ``.corrupt`` sidecar files
    and the store is compacted without them *before* this is raised,
    so it is left compacted and consistent — the error exists to make
    the loss loud (``repro cache gc`` exits non-zero) instead of
    silently dropping the records or laundering corrupt bytes into a
    fresh segment with a recomputed CRC.
    """

    def __init__(self, quarantined: list[tuple[str, str | None]],
                 dead: int, reclaimed: int):
        #: ``(digest, sidecar path)`` per quarantined frame; a frame
        #: whose digest field is mangled is named ``<segment>-<offset>``
        #: instead, and the path is None when the sidecar write failed
        self.quarantined = quarantined
        self.dead = dead
        self.reclaimed = reclaimed
        digests = ", ".join(d[:12] for d, _ in quarantined)
        super().__init__(
            f"{len(quarantined)} frame(s) failed their CRC check and "
            f"were quarantined to .corrupt sidecars (digests: "
            f"{digests}); the records are lost and must be recomputed")


MAGIC = b"RSEG0001"
_HEADER = struct.Struct("<II")
_DIGEST_LEN = 64
_FRAME_OVERHEAD = _HEADER.size + _DIGEST_LEN
_HEX = frozenset(b"0123456789abcdefABCDEF")
SEGMENT_SUFFIX = ".seg"
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024
#: with no dead record, compaction rewrites the store only to reclaim
#: more than this share of its bytes (torn tails, the magic of each
#: segment beyond the first): full 4 MiB segments never qualify, a
#: pile of tiny ones does
MIN_RECLAIM_SHARE = 0.01


def _dumps(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _frame(digest: str, raw: bytes) -> bytes:
    dig = digest.encode("ascii")
    return _HEADER.pack(len(raw), zlib.crc32(dig + raw)) + dig + raw


def _is_digest(field: bytes) -> bool:
    return len(field) == _DIGEST_LEN and _HEX.issuperset(field)


class SegmentStore:
    """Digest-keyed record store over append-only segment files.

    Payloads are plain dicts (compact JSON on disk).  All methods are
    thread-safe; reads use ``pread`` on cached descriptors so they
    never seek a shared file position.
    """

    def __init__(self, directory, *,
                 max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 fault_plan=None):
        self.directory = Path(directory)
        self.max_segment_bytes = max_segment_bytes
        if fault_plan is None:
            # lazy: the engine package must not import the service
            # package at module load (the service imports us)
            from repro.service.faults import resolve_plan
            fault_plan = resolve_plan(None)
        self._faults = fault_plan
        #: digest -> (segment name, frame offset, payload length)
        self.index: dict[str, tuple[str, int, int]] = {}
        # segment name -> {"size": scanned/appended bytes (a torn tail
        #                  excluded), "records": whole frames in it}
        self._segments: dict[str, dict] = {}
        #: (segment name, frame offset, payload length) per whole
        #: frame that failed its CRC when scanned
        self._rotted: list[tuple[str, int, int]] = []
        self._active_name: str | None = None
        self._active_fh = None
        self._active_size = 0
        self._read_fds: dict[str, int] = {}
        self._lock = threading.RLock()
        self._load()

    # -- open / recovery ---------------------------------------------------

    def _load(self) -> None:
        """Build the in-memory index by scanning every segment."""
        self.index = {}
        self._segments = {}
        self._rotted = []
        try:
            names = sorted(p.name for p in self.directory.iterdir()
                           if p.suffix == SEGMENT_SUFFIX and p.is_file())
        except OSError:
            names = []
        for name in names:
            self._scan_segment(name)

    def _scan_segment(self, name: str) -> None:
        """Index one segment's frames, newer frames replacing older
        ones.  A file without the magic is not a segment: it is never
        indexed, compacted or deleted."""
        try:
            with open(self.directory / name, "rb") as fh:
                data = fh.read()
        except OSError:
            return
        if not data.startswith(MAGIC):
            return
        view = memoryview(data)
        index = self.index
        unpack = _HEADER.unpack_from
        crc32 = zlib.crc32
        end = len(data)
        pos = len(MAGIC)
        records = 0
        while pos + _FRAME_OVERHEAD <= end:
            length, crc = unpack(data, pos)
            body = pos + _HEADER.size
            stop = pos + _FRAME_OVERHEAD + length
            if stop > end:
                break  # torn tail
            records += 1
            digest = data[body:body + _DIGEST_LEN]
            if crc32(view[body:stop]) == crc:
                index[digest.decode("ascii", "replace")] = \
                    (name, pos, length)
                pos = stop
                continue
            self._rotted.append((name, pos, length))
            pos = stop
            if not _is_digest(digest):
                break  # a mangled header frames nothing after it
        self._segments[name] = {"size": pos, "records": records}

    def refresh(self) -> None:
        """Re-scan the directory (other writers' appends, external
        compaction or deletion)."""
        with self._lock:
            self._close_read_fds()
            self._load()
            if self._active_name not in self._segments:
                # our own active segment was deleted under us
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
        """One whole frame, header included (None if it cannot be read
        in full)."""
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

    def get(self, digest: str) -> dict | None:
        """The payload stored for ``digest`` (None on a miss, or when
        the record does not decode)."""
        with self._lock:
            ref = self.index.get(digest)
            frame = None if ref is None else self._read_frame(ref)
        if frame is None:
            return None
        try:
            payload = json.loads(frame[_FRAME_OVERHEAD:])
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
        points at is yielded for each digest (duplicates, rotted
        frames and torn bytes are skipped).
        """
        with self._lock:
            refs = sorted(self.index.items(), key=lambda kv: kv[1])
        for digest, ref in refs:
            frame = self._read_frame(ref)
            if frame is None:
                continue
            try:
                payload = json.loads(frame[_FRAME_OVERHEAD:])
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
        """Store metrics from in-memory state (no record opens)."""
        with self._lock:
            return {
                "records": len(self.index),
                "segments": len(self._segments),
                "bytes": sum(m["size"] for m in self._segments.values()),
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
                # 0o666 less the umask, as for any regular file
                fd = os.open(self.directory / name,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            except FileExistsError:
                number += 1  # another writer claimed it
                continue
            break
        self._active_fh = os.fdopen(fd, "wb")
        self._active_fh.write(MAGIC)
        self._active_fh.flush()
        self._active_name = name
        self._active_size = len(MAGIC)
        self._segments[name] = {"size": len(MAGIC), "records": 0}

    def _close_active(self) -> None:
        if self._active_fh is not None:
            try:
                self._active_fh.close()
            except OSError:
                pass
        self._active_fh = None
        self._active_name = None
        self._active_size = 0

    def _retire_active(self) -> None:
        """``fsync`` and close the active segment; the next append
        claims a fresh one."""
        if self._active_fh is None:
            return
        self._active_fh.flush()
        os.fsync(self._active_fh.fileno())
        self._close_active()

    def append_many(self, items) -> list[str]:
        """Append ``(digest, payload dict)`` pairs; returns the digests
        actually written (first-writer-wins drops the rest)."""
        fresh: list[str] = []
        with self._lock:
            for digest, payload in items:
                if digest in self.index:
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
                    # frame on disk (the next open's scan stops
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
                if self._active_size >= self.max_segment_bytes:
                    self._retire_active()
            if self._active_fh is not None:
                self._active_fh.flush()
        return fresh

    def append(self, digest: str, payload: dict) -> bool:
        return bool(self.append_many([(digest, payload)]))

    def discard(self, digest: str) -> None:
        """Drop a record its reader could not decode from the index.

        The next append for ``digest`` is then admitted; its frame is
        newer than the dropped one, so it also wins when the store
        reopens.  The dropped frame is dead weight until
        :meth:`compact`.
        """
        with self._lock:
            self.index.pop(digest, None)

    # -- compaction --------------------------------------------------------

    def compact(self, dry_run: bool = False) -> tuple[int, int]:
        """Rewrite live records into one fresh segment.

        Drops duplicate frames, discarded records, rotted frames and
        torn tails.  Returns ``(dead records, bytes reclaimed)``; with
        ``dry_run=True`` nothing is rewritten and the same totals are
        computed from the in-memory index alone.  The rewrite costs
        every live byte, so it runs only when it drops a dead record
        or reclaims more than :data:`MIN_RECLAIM_SHARE` of the store;
        otherwise (say, a store of full segments and nothing dead)
        this returns ``(0, 0)`` without touching a file.

        Every rotted frame, and every live frame that fails its CRC on
        the way through, is quarantined to a ``.corrupt`` sidecar; the
        store is compacted without them, then :class:`CorruptFrameError`
        names them.
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
                                     for ref in live.values()))
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
            quarantined = [self._quarantine(ref) for ref in self._rotted]
            new_index: dict[str, tuple[str, int, int]] = {}
            if live:
                self._open_active()
                name = self._active_name
                meta = self._segments[name]
                for digest, ref in sorted(live.items(),
                                          key=lambda kv: kv[1]):
                    frame = self._read_frame(ref)
                    if frame is None:
                        continue  # lost to a concurrent deletion
                    _length, crc = _HEADER.unpack_from(frame)
                    if zlib.crc32(frame[_HEADER.size:]) != crc:
                        quarantined.append(self._quarantine(ref, frame))
                        continue
                    new_index[digest] = (name, self._active_size,
                                         ref[2])
                    self._active_fh.write(frame)
                    self._active_size += len(frame)
                    meta["size"] = self._active_size
                    meta["records"] += 1
                self._retire_active()
            self._close_read_fds()
            for name in old_segments:
                try:
                    os.unlink(self.directory / name)
                except OSError:
                    pass
                self._segments.pop(name, None)
            self.index = new_index
            self._rotted = []
            if quarantined:
                raise CorruptFrameError(quarantined, dead_records,
                                        reclaimed)
            return dead_records, reclaimed

    def _quarantine(self, ref: tuple[str, int, int],
                    frame: bytes | None = None
                    ) -> tuple[str, str | None]:
        """Preserve a CRC-failing frame as a ``.corrupt`` sidecar.

        The sidecar is named by the frame's digest field when that is
        64 hex characters, else by its segment and offset.  Returns
        that name and the sidecar's path (None if it was not written:
        quarantine is best-effort, the frame is dropped either way).
        """
        name, offset, _length = ref
        if frame is None:
            frame = self._read_frame(ref)
        field = b"" if frame is None else \
            frame[_HEADER.size:_FRAME_OVERHEAD]
        label = (field.decode("ascii") if _is_digest(field)
                 else f"{Path(name).stem}-{offset}")
        if frame is None:
            return label, None
        path = self.directory / f"{label}.corrupt"
        try:
            path.write_bytes(frame)
        except OSError:
            return label, None
        return label, str(path)

    # -- teardown ----------------------------------------------------------

    def _close_read_fds(self) -> None:
        for fd in self._read_fds.values():
            try:
                os.close(fd)
            except OSError:
                pass
        self._read_fds = {}

    def close(self) -> None:
        """Close the active segment and the read descriptors; the
        store reopens them on its next read or write."""
        with self._lock:
            self._close_active()
            self._close_read_fds()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
