"""Persistent, content-addressed result cache for simulation runs.

Layout::

    <cache root>/<code version>/...

* **cache root** — ``$REPRO_CACHE_DIR``, or ``~/.cache/repro`` when the
  variable is unset; ``--cache-dir`` overrides both from the CLI.
* **code version** — a hash over every ``repro`` source file (plus the
  Python/numpy versions), so editing the simulator automatically
  invalidates stale results instead of serving them.
* **spec digest** — :meth:`repro.engine.keys.RunSpec.digest`.

Each version namespace stores its entries in one of two **layouts**:

``segment`` (default for new caches)
    A :class:`repro.engine.store.SegmentStore` — append-only segment
    files plus a side index, so bulk lookups cost one index probe per
    digest instead of one ``open`` per digest, and ``stat``/``gc``
    never walk per-record files.  See ``docs/store.md``.

``file`` (the historical layout)
    One ``<spec digest>.json`` file per entry, written through a temp
    file and ``os.replace``.  Still fully supported: existing caches
    are autodetected and keep working, and ``repro cache migrate``
    converts either direction.

Entries carry the same payload in both layouts — the spec (for
inspection) and the run statistics in the lossless
``RunStats.to_dict`` form — which is what makes migration and the
file-vs-segment differential tests byte-exact.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.engine.keys import RunSpec
from repro.engine.store import (
    INDEX_NAME,
    SEGMENT_SUFFIX,
    CorruptFrameError,
    SegmentStore,
)
from repro.timing.stats import RunStats

_ENTRY_SCHEMA = 1

#: accepted ``layout=`` / ``--cache-layout`` values
CACHE_LAYOUTS = ("auto", "file", "segment")
#: what ``auto`` picks for a directory with no existing entries
DEFAULT_LAYOUT = "segment"


@dataclass(frozen=True)
class CacheEntry:
    """One stored result, as seen by ``repro cache {ls,stat,gc}``."""

    version: str
    digest: str
    #: the entry's own file (file layout) or its segment (segment layout)
    path: Path
    #: bytes this entry occupies on disk (file size, or record frame size)
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


@functools.lru_cache(maxsize=1)
def code_version() -> str:
    """Fingerprint of the simulator's source code.

    Hashes every ``*.py`` file under the installed ``repro`` package in
    a deterministic order, together with the interpreter and numpy
    versions.  Any change to the simulation code yields a new cache
    namespace.  numpy's version is read from its installed metadata,
    so a cache hit never imports numpy.
    """
    from importlib import metadata

    import repro

    hasher = hashlib.sha256()
    hasher.update(f"py{sys.version_info.major}.{sys.version_info.minor}"
                  f";numpy{metadata.version('numpy')}"
                  f";schema{_ENTRY_SCHEMA}".encode())
    root = Path(repro.__file__).resolve().parent
    for path in sorted(root.rglob("*.py")):
        hasher.update(str(path.relative_to(root)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def detect_layout(directory: Path) -> str | None:
    """Which layout a version directory already uses (None if empty)."""
    try:
        names = os.listdir(directory)
    except OSError:
        return None
    if any(n.endswith(SEGMENT_SUFFIX) or n == INDEX_NAME for n in names):
        return "segment"
    if any(n.endswith(".json") for n in names):
        return "file"
    return None


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


class ResultCache:
    """On-disk store of ``RunSpec.digest() -> RunStats`` entries.

    Hit/miss/store accounting lives in the owning
    :class:`~repro.engine.EngineStats`, not here.

    ``layout`` selects the backing store for the *active* version:
    ``"auto"`` (default) keeps whatever the directory already uses and
    picks the segment store for fresh directories; ``"file"`` /
    ``"segment"`` force one.  Management commands (``entries``,
    ``stat``, ``gc``, ``query``, ``migrate``) detect each version
    directory's layout independently, so mixed roots — e.g. an old
    file-layout namespace beside a new segmented one — behave.
    """

    def __init__(self, root: str | Path | None = None,
                 version: str | None = None, layout: str = "auto"):
        if layout not in CACHE_LAYOUTS:
            raise ValueError(
                f"unknown cache layout {layout!r}; expected one of "
                f"{CACHE_LAYOUTS}")
        self.root = Path(root) if root is not None else default_cache_root()
        self.version = version if version is not None else code_version()
        self.dir = self.root / self.version
        if layout == "auto":
            layout = detect_layout(self.dir) or DEFAULT_LAYOUT
        self.layout = layout
        # entry count/bytes for the active version (file layout),
        # maintained incrementally: one directory scan on first use,
        # then updated per fresh `put`.  `/v1/stats` and the metrics
        # scraper read `len(cache)` on every poll, so re-globbing the
        # directory each time would be O(entries) stat traffic per
        # scrape.  The segment layout answers both from its in-memory
        # index instead.
        self._count: int | None = None
        self._bytes: int | None = None
        self._count_lock = threading.Lock()
        # store I/O failures absorbed instead of failing the job —
        # while the disk misbehaves the cache degrades to memo-only
        # (the engine's memo keeps serving results; only persistence
        # is lost) and these count how much was not stored/readable
        self._degraded_writes = 0
        self._degraded_reads = 0
        self._store: SegmentStore | None = None
        self._version_stores: dict[str, SegmentStore] = {}
        self._store_lock = threading.Lock()
        # digests present as loose per-digest files inside a
        # segment-layout directory (mid-migration leftovers, or
        # foreign writers) — scanned lazily, refreshed on demand
        self._loose: dict[str, str] | None = None  # digest -> filename

    # -- layout plumbing ---------------------------------------------------

    def store(self) -> SegmentStore:
        """The active version's segment store (segment layout only)."""
        with self._store_lock:
            if self._store is None:
                self._store = SegmentStore(self.dir)
            return self._store

    def _store_for(self, version: str) -> SegmentStore:
        if version == self.version:
            return self.store()
        with self._store_lock:
            store = self._version_stores.get(version)
            if store is None:
                store = SegmentStore(self.root / version)
                self._version_stores[version] = store
            return store

    def _layout_of(self, version: str) -> str:
        if version == self.version:
            return self.layout
        return detect_layout(self.root / version) or "file"

    def _loose_digests(self) -> dict[str, str]:
        if self._loose is None:
            loose: dict[str, str] = {}
            try:
                for name in os.listdir(self.dir):
                    if name.endswith(".json") and name != INDEX_NAME:
                        loose[name[:-len(".json")]] = name
            except OSError:
                pass
            self._loose = loose
        return self._loose

    def _loose_payload(self, digest: str) -> dict | None:
        name = self._loose_digests().get(digest)
        if name is None:
            return None
        try:
            with open(self.dir / name, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def path_for(self, spec: RunSpec) -> Path:
        """Where the file layout keeps (or would keep) this entry."""
        return self.dir / f"{spec.digest()}.json"

    def flush(self) -> None:
        """Persist any lazily-buffered index state."""
        if self.layout == "segment" and self._store is not None:
            self._store.flush()

    # -- single-spec reads/writes ------------------------------------------

    def get(self, spec: RunSpec) -> RunStats | None:
        """Load the cached stats for ``spec``, or None on a miss.

        Unreadable/corrupt entries count as misses (they are simply
        re-simulated and overwritten); a store that raises outright
        counts as a degraded read (see :meth:`degraded_counters`).
        """
        if self.layout == "segment":
            try:
                payload = self.store().get(spec.digest())
            except OSError:
                self._note_degraded(reads=1)
                payload = None
            if payload is None:
                payload = self._loose_payload(spec.digest())
            if payload is None:
                return None
            return _decode_stats(payload)
        path = self.path_for(spec)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            stats = RunStats.from_dict(payload["stats"])
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return stats

    def put(self, spec: RunSpec, stats: RunStats) -> Path:
        """Persist one result (atomically, in either layout).

        A store that raises an I/O error does **not** fail the job:
        the failure is absorbed and counted (the cache degrades to
        memo-only — the engine's memo still serves the result, only
        persistence is lost until the disk recovers).
        """
        if self.layout == "segment":
            digest = spec.digest()
            try:
                store = self.store()
                store.append_many(
                    [(digest,
                      _entry_payload(self.version, spec, stats))])
                ref = store.index.get(digest)
            except OSError:
                self._note_degraded(writes=1)
                ref = None
            return self.dir / (ref[0] if ref else f"{digest}.json")
        payload = _entry_payload(self.version, spec, stats)
        path = self.path_for(spec)
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
        except OSError:
            self._note_degraded(writes=1)
            return path
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            fresh = not path.exists()
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            self._note_degraded(writes=1)
            return path
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with self._count_lock:
            if self._count is not None and fresh:
                self._count += 1
            if self._bytes is not None and fresh:
                self._bytes += path.stat().st_size
        return path

    # -- bulk paths --------------------------------------------------------

    def get_many(self, specs) -> dict[RunSpec, RunStats]:
        """Bulk hit-resolution for a grid: one lookup pass instead of
        N per-spec ``open`` calls on the segment layout.

        Returns only the hits; misses are simply absent.
        """
        specs = list(specs)
        if self.layout != "segment":
            out: dict[RunSpec, RunStats] = {}
            for spec in specs:
                stats = self.get(spec)
                if stats is not None:
                    out[spec] = stats
            return out
        by_digest = {spec.digest(): spec for spec in specs}
        out = {}
        try:
            raw = self.store().fetch_raw_many(by_digest)
        except OSError:
            self._note_degraded(reads=1)
            raw = {}
        for digest, spec in by_digest.items():
            blob = raw.get(digest)
            if blob is not None:
                try:
                    payload = json.loads(blob)
                except ValueError:
                    continue
            else:
                payload = self._loose_payload(digest)
                if payload is None:
                    continue
            stats = _decode_stats(payload)
            if stats is not None:
                out[spec] = stats
        return out

    def put_many(self, pairs) -> int:
        """Persist many results in one append batch; returns how many
        were fresh (first writer wins on the rest)."""
        pairs = list(pairs)
        if self.layout != "segment":
            before = len(self) if pairs else 0
            for spec, stats in pairs:
                self.put(spec, stats)
            return max(0, len(self) - before)
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
        with self._count_lock:
            self._degraded_writes += writes
            self._degraded_reads += reads

    def degraded_counters(self) -> dict:
        """Store I/O failures absorbed so far (memo-only degradation).

        ``writes`` counts results that may not have been persisted;
        ``reads`` counts lookup batches the store failed outright
        (normal misses are not degradation).  Surfaced on
        ``/v1/metrics`` as the ``repro_degraded_*`` series.
        """
        with self._count_lock:
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
        for _digest, payload, _size, _path, _mtime in \
                self._iter_payloads(version):
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

    def _iter_payloads(self, version: str | None = None):
        """Yield ``(digest, payload|None, size, path, mtime)`` for every
        entry of one version, in digest order, either layout."""
        version = self.version if version is None else version
        directory = self.root / version
        layout = self._layout_of(version)
        if layout == "segment":
            store = self._store_for(version)
            sizes = store.record_sizes()
            loose = (self._loose_digests() if version == self.version
                     else _scan_loose(directory))
            merged = sorted(set(sizes) | set(loose))
            for digest in merged:
                if digest in sizes:
                    payload = store.get(digest)
                    name = store.index.get(digest, (None,))[0]
                    path = directory / name if name else directory
                    try:
                        mtime = path.stat().st_mtime
                    except OSError:
                        mtime = 0.0
                    yield digest, payload, sizes[digest], path, mtime
                else:
                    path = directory / loose[digest]
                    try:
                        stat = path.stat()
                    except OSError:
                        continue
                    try:
                        with open(path, "r", encoding="utf-8") as fh:
                            payload = json.load(fh)
                        if not isinstance(payload, dict):
                            payload = None
                    except (OSError, ValueError):
                        payload = None
                    yield (digest, payload, stat.st_size, path,
                           stat.st_mtime)
            return
        if not directory.is_dir():
            return
        for path in sorted(directory.glob("*.json")):
            if path.name == INDEX_NAME:
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
                if not isinstance(payload, dict):
                    payload = None
            except (OSError, ValueError):
                payload = None
            yield path.stem, payload, stat.st_size, path, stat.st_mtime

    # -- counting ----------------------------------------------------------

    def __len__(self) -> int:
        """Number of entries stored for the current code version.

        The segment layout answers from the store index (O(1) after
        the open scan).  The file layout scans the directory once,
        then tracks fresh ``put`` calls incrementally — entries
        written by *other* processes sharing the directory are picked
        up by the next :meth:`refresh_count` (or a new
        ``ResultCache``), not on every ``len``.
        """
        if self.layout == "segment":
            store = self.store()
            extra = sum(1 for d in self._loose_digests()
                        if d not in store.index)
            return len(store.index) + extra
        with self._count_lock:
            if self._count is None:
                self._count = self._scan_count()
            return self._count

    def _scan_count(self) -> int:
        if not self.dir.is_dir():
            return 0
        return sum(1 for p in self.dir.glob("*.json")
                   if p.name != INDEX_NAME)

    def refresh_count(self) -> int:
        """Re-scan the directory (picks up other writers' entries)."""
        if self.layout == "segment":
            self.store().refresh()
            self._loose = None
            return len(self)
        with self._count_lock:
            self._count = self._scan_count()
            self._bytes = None
            return self._count

    def store_metrics(self) -> dict:
        """Cheap on-disk footprint numbers for gauges/``/v1/stats``."""
        if self.layout == "segment":
            stat = self.store().stat()
            return {"layout": "segment", "bytes": stat["bytes"],
                    "segments": stat["segments"]}
        with self._count_lock:
            if self._bytes is None:
                total = 0
                if self.dir.is_dir():
                    for path in self.dir.glob("*.json"):
                        try:
                            total += path.stat().st_size
                        except OSError:
                            continue
                self._bytes = total
            return {"layout": "file", "bytes": self._bytes, "segments": 0}

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
        """Stored entries for one code version (default: the active one).

        Unreadable payloads still list (with a ``"?"`` label) so ``gc``
        and ``ls`` account for every record occupying space.  Pass
        ``labels=False`` to skip decoding the payloads (``cache ls``'s
        sizes come from the store index / ``os.stat``).
        """
        version = self.version if version is None else version
        out: list[CacheEntry] = []
        if labels:
            for digest, payload, size, path, mtime in \
                    self._iter_payloads(version):
                label = "?"
                if payload is not None:
                    try:
                        label = RunSpec.from_dict(payload["spec"]).label()
                    except Exception:
                        label = "?"
                out.append(CacheEntry(version=version, digest=digest,
                                      path=path, size=size, mtime=mtime,
                                      label=label))
            return out
        directory = self.root / version
        if self._layout_of(version) == "segment":
            store = self._store_for(version)
            sizes = store.record_sizes()
            loose = (self._loose_digests() if version == self.version
                     else _scan_loose(directory))
            seg_mtimes: dict[str, float] = {}
            for digest in sorted(set(sizes) | set(loose)):
                if digest in sizes:
                    name = store.index.get(digest, (None,))[0]
                    path = directory / name if name else directory
                    if name not in seg_mtimes:
                        try:
                            seg_mtimes[name] = path.stat().st_mtime
                        except OSError:
                            seg_mtimes[name] = 0.0
                    out.append(CacheEntry(
                        version=version, digest=digest, path=path,
                        size=sizes[digest], mtime=seg_mtimes[name],
                        label=""))
                else:
                    path = directory / loose[digest]
                    try:
                        stat = path.stat()
                    except OSError:
                        continue
                    out.append(CacheEntry(
                        version=version, digest=digest, path=path,
                        size=stat.st_size, mtime=stat.st_mtime, label=""))
            return out
        if not directory.is_dir():
            return out
        for path in sorted(directory.glob("*.json")):
            if path.name == INDEX_NAME:
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            out.append(CacheEntry(version=version, digest=path.stem,
                                  path=path, size=stat.st_size,
                                  mtime=stat.st_mtime, label=""))
        return out

    def stat(self, version: str | None = None) -> dict:
        """Record count and on-disk bytes for one version — from the
        store index / directory stats, without opening any record."""
        version = self.version if version is None else version
        directory = self.root / version
        layout = self._layout_of(version)
        if layout == "segment":
            store = self._store_for(version)
            s = store.stat()
            loose = (self._loose_digests() if version == self.version
                     else _scan_loose(directory))
            loose_extra = [d for d in loose if d not in store.index]
            bytes_ = s["bytes"]
            for digest in loose_extra:
                try:
                    bytes_ += (directory / loose[digest]).stat().st_size
                except OSError:
                    pass
            return {"version": version, "layout": "segment",
                    "entries": s["records"] + len(loose_extra),
                    "bytes": bytes_, "segments": s["segments"],
                    "sealed": s["sealed"]}
        entries = bytes_ = 0
        if directory.is_dir():
            for path in directory.glob("*.json"):
                if path.name == INDEX_NAME:
                    continue
                try:
                    bytes_ += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        return {"version": version, "layout": "file", "entries": entries,
                "bytes": bytes_, "segments": 0, "sealed": 0}

    @staticmethod
    def _is_namespace(directory: Path) -> bool:
        """True when a directory holds nothing but cache entries.

        ``gc`` must never destroy unrelated data when the cache root
        is mispointed (``--cache-dir ~/data``), so only directories
        whose entire content is entry/segment/index/temp files
        qualify as deletable namespaces.
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

    def migrate(self, to: str = "segment",
                version: str | None = None) -> dict:
        """Convert one version namespace between layouts, in place.

        Copies every readable entry into the target layout first, then
        removes the originals, so a crash mid-migration leaves a mixed
        directory that both layouts' read paths still resolve
        (autodetection prefers segments; loose per-digest files remain
        readable behind them).  Unreadable records are left in place
        and counted as ``skipped``.  Returns a summary dict.
        """
        if to not in ("file", "segment"):
            raise ValueError(
                f"unknown target layout {to!r}; expected 'file' or "
                "'segment'")
        version = self.version if version is None else version
        directory = self.root / version
        source = detect_layout(directory)
        migrated = skipped = 0
        if to == "segment":
            store = self._store_for(version)
            loose = _scan_loose(directory)
            moved: list[Path] = []
            items: list[tuple[str, dict]] = []
            for digest, name in sorted(loose.items()):
                path = directory / name
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        payload = json.load(fh)
                    if not isinstance(payload, dict):
                        raise ValueError("not a cache entry")
                except (OSError, ValueError):
                    skipped += 1
                    continue
                items.append((digest, payload))
                moved.append(path)
            store.append_many(items)
            store.flush()
            for path in moved:
                try:
                    path.unlink()
                except OSError:
                    pass
            migrated = len(items)
        else:
            store = self._store_for(version)
            seg_files = [directory / name
                         for name in list(store._segments)]
            for digest, payload in store.scan():
                target = directory / f"{digest}.json"
                if target.exists():
                    continue
                fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as fh:
                        json.dump(payload, fh, sort_keys=True)
                    os.replace(tmp, target)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
                migrated += 1
            store.close()
            for path in seg_files:
                try:
                    path.unlink()
                except OSError:
                    pass
            try:
                (directory / INDEX_NAME).unlink()
            except OSError:
                pass
            with self._store_lock:
                self._version_stores.pop(version, None)
                if version == self.version:
                    self._store = None
        if version == self.version:
            self.layout = to
            with self._count_lock:
                self._count = None
                self._bytes = None
            self._loose = None
        return {"version": version, "from": source or to, "to": to,
                "migrated": migrated, "skipped": skipped}

    def gc(self, dry_run: bool = False) -> tuple[int, int]:
        """Collect garbage: superseded code-version namespaces, plus
        dead weight inside the active segment store.

        Returns ``(records removed, bytes reclaimed)``.  Superseded
        namespaces are deleted whole (their live record count is what
        ``removed`` reports); the active version's entries are never
        dropped, but on the segment layout its segments are compacted
        — duplicate frames, torn tails and superseded-segment
        overhead rewrite into one fresh sealed segment.  Directories
        that do not look like cache namespaces are left alone.

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
            if not self._is_namespace(directory):
                continue
            if self._layout_of(version) == "segment":
                store = self._store_for(version)
                loose = _scan_loose(directory)
                removed += len(store.index)
                removed += sum(1 for d in loose
                               if d not in store.index)
                store.close()
                with self._store_lock:
                    self._version_stores.pop(version, None)
                for path in sorted(directory.iterdir()):
                    try:
                        reclaimed += path.stat().st_size
                        if not dry_run:
                            path.unlink()
                    except OSError:
                        continue
            else:
                for path in sorted(directory.iterdir()):
                    try:
                        size = path.stat().st_size
                        if not dry_run:
                            path.unlink()
                    except OSError:
                        continue
                    removed += 1
                    reclaimed += size
            if not dry_run:
                try:
                    directory.rmdir()
                except OSError:
                    pass
        if self.layout == "segment":
            try:
                dead, compacted = self.store().compact(dry_run=dry_run)
            except CorruptFrameError as err:
                corrupt = err
                dead, compacted = err.dead, err.reclaimed
            removed += dead
            reclaimed += compacted
        if not dry_run:
            # resync the incremental counters with what gc (or any
            # external writer) actually left on disk
            self.refresh_count()
        if corrupt is not None:
            raise corrupt
        return removed, reclaimed


def _scan_loose(directory: Path) -> dict[str, str]:
    """Loose per-digest entry files in a directory (digest -> name)."""
    loose: dict[str, str] = {}
    try:
        for name in os.listdir(directory):
            if name.endswith(".json") and name != INDEX_NAME:
                loose[name[:-len(".json")]] = name
    except OSError:
        pass
    return loose
