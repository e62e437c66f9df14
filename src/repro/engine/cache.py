"""Persistent, content-addressed result cache for simulation runs.

Layout::

    <cache root>/<code version>/seg-NNNNNN.seg ... index.json

* **cache root** — ``$REPRO_CACHE_DIR``, or ``~/.cache/repro`` when the
  variable is unset; ``--cache-dir`` overrides both from the CLI.
* **code version** — a hash over every ``repro`` source file (plus the
  Python/numpy versions), so editing the simulator automatically
  invalidates stale results instead of serving them.
* **spec digest** — :meth:`repro.engine.keys.RunSpec.digest`.

Each version namespace is one :class:`repro.engine.store.SegmentStore`:
append-only segment files plus a side index, so bulk lookups cost one
index probe per digest, and ``stat``/``gc`` never walk per-record
files.  See ``docs/store.md``.  A record's payload is the spec (for
inspection) and the run statistics in the lossless
``RunStats.to_dict`` form.

Namespaces written before the segment store kept one
``<spec digest>.json`` file per entry.  Their code version is
superseded, so they are never read; ``ls`` lists them and ``gc``
deletes them whole.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.engine.keys import RunSpec
from repro.engine.store import (
    SEGMENT_SUFFIX,
    CorruptFrameError,
    SegmentStore,
)
from repro.timing.stats import RunStats

_ENTRY_SCHEMA = 1


@dataclass(frozen=True)
class CacheEntry:
    """One stored result, as seen by ``repro cache {ls,stat,gc}``."""

    version: str
    digest: str
    #: the segment file holding the record
    path: Path
    #: bytes the record's frame occupies on disk
    size: int
    mtime: float
    #: spec label recovered from the stored payload ("?" if unreadable)
    label: str


def default_cache_root() -> Path:
    """Resolve the cache root from the environment."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def numpy_version() -> str:
    """numpy's installed version, found without importing numpy.

    An install records the version in the name of one
    ``numpy-<version>.dist-info`` (or ``.egg-info``) entry beside the
    package that ``importlib.util.find_spec`` locates, so listing that
    directory is enough.  Only without exactly one such entry (an
    editable install, say) does this ask ``importlib.metadata``, which
    loads some 30 stdlib modules (``email``, ``csv``, ``socket``, ...).
    """
    import importlib.util

    spec = importlib.util.find_spec("numpy")
    if spec is not None and spec.origin:
        site = Path(spec.origin).parent.parent
        try:
            names = os.listdir(site)
        except OSError:
            names = []
        found = [name for name in names if name.startswith("numpy-")
                 and name.endswith((".dist-info", ".egg-info"))]
        if len(found) == 1:
            # numpy-2.4.6.dist-info, numpy-1.26.4-py3.11.egg-info
            return found[0][len("numpy-"):].rsplit(".", 1)[0] \
                .split("-")[0]
    from importlib import metadata

    return metadata.version("numpy")


@functools.lru_cache(maxsize=1)
def code_version() -> str:
    """Fingerprint of the simulator's source code.

    Hashes every ``*.py`` file under the installed ``repro`` package in
    a deterministic order, together with the interpreter and numpy
    versions.  Any change to the simulation code, or another numpy
    release, yields a new cache namespace.  :func:`numpy_version`
    reads numpy's version from its install record, so a cache hit
    imports neither numpy nor ``importlib.metadata``.
    """
    import repro

    hasher = hashlib.sha256()
    hasher.update(f"py{sys.version_info.major}.{sys.version_info.minor}"
                  f";numpy{numpy_version()}"
                  f";schema{_ENTRY_SCHEMA}".encode())
    root = Path(repro.__file__).resolve().parent
    for path in sorted(root.rglob("*.py")):
        hasher.update(str(path.relative_to(root)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def _entry_payload(version: str, spec: RunSpec, stats: RunStats) -> dict:
    return {
        "schema": _ENTRY_SCHEMA,
        "version": version,
        "spec": spec.to_dict(),
        "stats": stats.to_dict(),
    }


def _decode_stats(payload) -> RunStats | None:
    try:
        return RunStats.from_dict(payload["stats"])
    except (ValueError, KeyError, TypeError):
        return None


def _decode_record(raw: bytes) -> RunStats | None:
    """The stats one stored payload holds (None if it does not decode)."""
    try:
        return _decode_stats(json.loads(raw))
    except ValueError:
        return None


def _files(directory: Path):
    """``(path, bytes)`` for every file in a namespace directory."""
    try:
        paths = sorted(directory.iterdir())
    except OSError:
        return
    for path in paths:
        try:
            yield path, path.stat().st_size
        except OSError:
            continue


def _label(payload) -> str:
    try:
        return RunSpec.from_dict(payload["spec"]).label()
    except Exception:
        return "?"


class ResultCache:
    """On-disk store of ``RunSpec.digest() -> RunStats`` entries.

    Hit/miss/store accounting lives in the owning
    :class:`~repro.engine.EngineStats`, not here.  The active version's
    segment store opens on first use and stays open; management
    commands (``entries``, ``stat``, ``gc``, ``query``) open another
    version's namespace only for the duration of the call.
    """

    def __init__(self, root: str | Path | None = None,
                 version: str | None = None):
        self.root = Path(root) if root is not None else default_cache_root()
        self.version = version if version is not None else code_version()
        self.dir = self.root / self.version
        # store I/O failures absorbed instead of failing the job —
        # while the disk misbehaves the cache degrades to memo-only
        # (the engine's memo keeps serving results; only persistence
        # is lost) and these count how much was not stored/readable
        self._degraded_writes = 0
        self._degraded_reads = 0
        self._degraded_lock = threading.Lock()
        self._store: SegmentStore | None = None
        self._store_lock = threading.Lock()

    def store(self) -> SegmentStore:
        """The active version's segment store."""
        with self._store_lock:
            if self._store is None:
                self._store = SegmentStore(self.dir)
            return self._store

    @contextlib.contextmanager
    def _open(self, version: str):
        """The store of one version: the active store, or one opened
        over a superseded namespace and closed on exit.  Yields None
        when ``version`` names no namespace under the root, so a
        query for an unknown version opens nothing."""
        if version == self.version:
            yield self.store()
            return
        directory = self.root / version
        if not self._is_namespace(directory):
            yield None
            return
        store = SegmentStore(directory)
        try:
            yield store
        finally:
            store.close()

    def flush(self) -> None:
        """Persist any lazily-buffered index state."""
        if self._store is not None:
            self._store.flush()

    def close(self) -> None:
        """Flush the index and close the active store's files.  The
        store reopens them on its next read or write."""
        with self._store_lock:
            if self._store is not None:
                self._store.close()

    # -- single-spec reads/writes ------------------------------------------

    def get(self, spec: RunSpec) -> RunStats | None:
        """Load the cached stats for ``spec``, or None on a miss.

        A record that does not decode counts as a miss, so the engine
        re-simulates the spec, and is dropped from the store's index
        (:meth:`~repro.engine.store.SegmentStore.discard`), so the
        fresh result is persisted in its place.  A store that raises
        outright counts as a degraded read (see
        :meth:`degraded_counters`).
        """
        digest = spec.digest()
        try:
            raw = self.store().get_raw(digest)
        except OSError:
            self._note_degraded(reads=1)
            return None
        if raw is None:
            return None
        stats = _decode_record(raw)
        if stats is None:
            self._discard(digest)
        return stats

    def put(self, spec: RunSpec, stats: RunStats) -> None:
        """Persist one result (first writer wins on its digest).

        A store that raises an I/O error does **not** fail the job:
        the failure is absorbed and counted (the cache degrades to
        memo-only — the engine's memo still serves the result, only
        persistence is lost until the disk recovers).
        """
        try:
            self.store().append_many(
                [(spec.digest(),
                  _entry_payload(self.version, spec, stats))])
        except OSError:
            self._note_degraded(writes=1)

    # -- bulk paths --------------------------------------------------------

    def get_many(self, specs) -> dict[RunSpec, RunStats]:
        """Bulk hit-resolution for a grid: one index probe per digest,
        then reads grouped per segment.

        Returns only the hits; misses are simply absent.  Records that
        do not decode are misses and are discarded, as in :meth:`get`.
        """
        by_digest = {spec.digest(): spec for spec in specs}
        try:
            raw = self.store().fetch_raw_many(by_digest)
        except OSError:
            self._note_degraded(reads=1)
            return {}
        out: dict[RunSpec, RunStats] = {}
        for digest, spec in by_digest.items():
            blob = raw.get(digest)
            if blob is None:
                continue
            stats = _decode_record(blob)
            if stats is None:
                self._discard(digest)
            else:
                out[spec] = stats
        return out

    def _discard(self, digest: str) -> None:
        """Let a fresh result supersede an undecodable record."""
        try:
            self.store().discard(digest)
        except OSError:
            self._note_degraded(writes=1)

    def put_many(self, pairs) -> int:
        """Persist many results in one append batch; returns how many
        were fresh (first writer wins on the rest)."""
        items = [(spec.digest(),
                  _entry_payload(self.version, spec, stats))
                 for spec, stats in pairs]
        try:
            return len(self.store().append_many(items))
        except OSError:
            # the batch may have landed partially; everything the
            # store did not index is memo-only until re-simulated
            self._note_degraded(writes=len(items))
            return 0

    # -- degraded-mode accounting ------------------------------------------

    def _note_degraded(self, writes: int = 0, reads: int = 0) -> None:
        with self._degraded_lock:
            self._degraded_writes += writes
            self._degraded_reads += reads

    def degraded_counters(self) -> dict:
        """Store I/O failures absorbed so far (memo-only degradation).

        ``writes`` counts results that may not have been persisted;
        ``reads`` counts lookup batches the store failed outright
        (normal misses are not degradation).  Surfaced on
        ``/v1/metrics`` as the ``repro_degraded_*`` series.
        """
        with self._degraded_lock:
            return {"writes": self._degraded_writes,
                    "reads": self._degraded_reads}

    def query(self, benchmark: str | None = None,
              coding: str | None = None, memsys: str | None = None,
              l2_latency: int | None = None, warm: bool | None = None,
              seed: int | None = None, version: str | None = None,
              limit: int | None = None
              ) -> list[tuple[RunSpec, RunStats]]:
        """Bulk analytics scan: every stored result matching the given
        spec fields, in digest order.

        Filters compare against the stored spec dict before anything
        is decoded, so a selective query over a large store only pays
        full decode for its matches.  ``version`` defaults to the
        active namespace; unreadable records are skipped.
        """
        want = {"benchmark": benchmark, "coding": coding,
                "memsys": memsys, "l2_latency": l2_latency,
                "warm": warm, "seed": seed}
        want = {k: v for k, v in want.items() if v is not None}
        out: list[tuple[RunSpec, RunStats]] = []
        with self._open(self.version if version is None
                        else version) as store:
            if store is None:
                return out
            for digest in sorted(store.record_sizes()):
                payload = store.get(digest)
                if payload is None:
                    continue
                spec_dict = payload.get("spec")
                if not isinstance(spec_dict, dict):
                    continue
                if any(spec_dict.get(k) != v for k, v in want.items()):
                    continue
                try:
                    spec = RunSpec.from_dict(spec_dict)
                except (ValueError, KeyError, TypeError):
                    continue
                stats = _decode_stats(payload)
                if stats is None:
                    continue
                out.append((spec, stats))
                if limit is not None and len(out) >= limit:
                    break
        return out

    # -- counting ----------------------------------------------------------

    def __len__(self) -> int:
        """Number of records stored for the current code version,
        answered from the store index (other processes' appends show
        after :meth:`refresh_count`)."""
        return len(self.store())

    def refresh_count(self) -> int:
        """Re-scan the namespace (picks up other writers' records)."""
        self.store().refresh()
        return len(self)

    def store_metrics(self) -> dict:
        """Cheap on-disk footprint numbers for gauges/``/v1/stats``."""
        stat = self.store().stat()
        return {"bytes": stat["bytes"], "segments": stat["segments"]}

    # -- management (the ``repro cache`` subcommand) -----------------------

    def versions(self) -> list[str]:
        """Code-version namespaces present under the cache root.

        Only directories that actually look like cache namespaces
        (nothing but entry/segment/index files inside — the same
        predicate :meth:`gc` deletes by) are listed, so ``ls``/``stat``
        and ``gc`` agree on what the cache contains even when the root
        is mispointed at a directory with unrelated content.  The
        active version sorts first; superseded ones follow in name
        order.
        """
        if not self.root.is_dir():
            return []
        found = sorted(p.name for p in self.root.iterdir()
                       if p.is_dir() and self._is_namespace(p))
        if self.version in found:
            found.remove(self.version)
            found.insert(0, self.version)
        return found

    def entries(self, version: str | None = None,
                labels: bool = True) -> list[CacheEntry]:
        """Stored records for one code version (default: the active one).

        Sizes and paths come from the store index.  Unreadable payloads
        still list (with a ``"?"`` label) so ``gc`` and ``ls`` account
        for every record occupying space.  Pass ``labels=False`` to
        skip reading the payloads.
        """
        version = self.version if version is None else version
        directory = self.root / version
        mtimes: dict[str | None, float] = {}
        out: list[CacheEntry] = []
        with self._open(version) as store:
            if store is None:
                return out
            for digest, size in sorted(store.record_sizes().items()):
                name = store.index.get(digest, (None,))[0]
                path = directory / name if name else directory
                if name not in mtimes:
                    try:
                        mtimes[name] = path.stat().st_mtime
                    except OSError:
                        mtimes[name] = 0.0
                out.append(CacheEntry(
                    version=version, digest=digest, path=path, size=size,
                    mtime=mtimes[name],
                    label=_label(store.get(digest)) if labels else ""))
        return out

    def stat(self, version: str | None = None) -> dict:
        """Record count and on-disk bytes for one version — from the
        store index, without opening any record.

        The active version's ``bytes`` are its segments.  A superseded
        version's are every file ``gc`` would delete, so a namespace
        from before the segment store (0 entries: its per-digest
        ``.json`` files are never read) still shows its disk use.
        """
        version = self.version if version is None else version
        with self._open(version) as store:
            s = (store.stat() if store is not None else
                 {"records": 0, "bytes": 0, "segments": 0, "sealed": 0})
        if version != self.version:
            s["bytes"] = sum(size for _, size in
                             _files(self.root / version))
        return {"version": version, "entries": s["records"],
                "bytes": s["bytes"], "segments": s["segments"],
                "sealed": s["sealed"]}

    @staticmethod
    def _is_namespace(directory: Path) -> bool:
        """True when a directory holds nothing but cache entries.

        ``gc`` must never destroy unrelated data when the cache root
        is mispointed (``--cache-dir ~/data``), so only directories
        whose entire content is segment/index/temp/quarantine files
        qualify as deletable namespaces.  ``.json`` also covers the
        per-digest entry files of namespaces written before the
        segment store, so those stay collectable.
        """
        try:
            children = list(directory.iterdir())
        except OSError:
            return False
        # an empty directory proves nothing about ownership: skip it
        return bool(children) and all(
            child.is_file()
            and child.suffix in (".json", ".tmp", ".corrupt",
                                 SEGMENT_SUFFIX)
            for child in children)

    def gc(self, dry_run: bool = False) -> tuple[int, int]:
        """Collect garbage: superseded code-version namespaces, plus
        dead weight inside the active segment store.

        Returns ``(records removed, bytes reclaimed)``.  Superseded
        namespaces are deleted whole (their live record count is what
        ``removed`` reports; a namespace from before the segment store
        reports its bytes but no records); the active version's
        records are never dropped, and its segments are compacted
        when :meth:`~repro.engine.store.SegmentStore.compact` finds
        dead weight worth a rewrite.  Directories that do not look
        like cache namespaces are left alone.

        With ``dry_run=True`` nothing is touched: the returned totals
        describe what a real ``gc`` *would* do (files that vanish or
        appear between the two calls can shift the numbers).

        Compaction CRC-verifies every live frame it carries over.  A
        frame that fails is quarantined to a ``.corrupt`` sidecar and
        dropped, and after the store is left compacted and consistent
        this method re-raises the store's
        :class:`~repro.engine.store.CorruptFrameError` so callers
        (``repro cache gc``) can report the loss loudly instead of
        pretending the record survived.
        """
        removed = reclaimed = 0
        corrupt: CorruptFrameError | None = None
        for version in self.versions():
            if version == self.version:
                continue
            directory = self.root / version
            with self._open(version) as store:
                removed += len(store) if store is not None else 0
            for path, size in _files(directory):
                reclaimed += size
                if not dry_run:
                    try:
                        path.unlink()
                    except OSError:
                        pass
            if not dry_run:
                try:
                    directory.rmdir()
                except OSError:
                    pass
        try:
            dead, compacted = self.store().compact(dry_run=dry_run)
        except CorruptFrameError as err:
            corrupt = err
            dead, compacted = err.dead, err.reclaimed
        removed += dead
        reclaimed += compacted
        if not dry_run:
            # resync the index with what gc (or any external writer)
            # actually left on disk
            self.refresh_count()
        if corrupt is not None:
            raise corrupt
        return removed, reclaimed
