"""Result-store benchmark: the segment store vs JSON-per-digest.

Fills a :class:`~repro.engine.cache.ResultCache` and a JSON-per-digest
baseline (:class:`JsonPerDigest`, one ``<digest>.json`` file per
record, the way namespaces were stored before the segment store) with
identical synthetic result grids and times the paths the engine
actually exercises:

* ``cold_write`` — persisting the full grid (``put_many``);
* ``warm_lookup`` — store-level bulk record retrieval: one
  ``fetch_raw_many`` pass over the segment index against one
  ``open``+``read`` per baseline file.  This is the layout-bound
  number (no JSON decode), and carries the 5x soft gate;
* ``warm_run_many`` — end-to-end ``get_many`` including JSON decode
  and ``RunStats`` reconstruction, segment store only;
* ``gc`` — a whole ``repro cache gc``: collecting a superseded
  version namespace of the same size (N unlinks vs a handful of
  segment unlinks) plus the active store's compaction pass, 5x soft
  gate;
* ``query`` — a filtered bulk scan (``cache.query``), segment store
  only.

Every row reports the segment store's throughput as
``segment_records_per_s``; the compared rows add the baseline's
seconds and the ratio.

``BENCH_STORE_RECORDS`` scales the grid: the ``bench-store`` CI job
runs the full 100k records; plain test runs default to a few thousand
so tier-1 stays fast.  The soft gates emit ``::warning`` annotations
(not failures) when the measured ratio falls short at full size; the
hard assertions only enforce conservative never-lose floors, because
loaded CI runners are noisy.

Run directly (``python benchmarks/bench_store.py``) or via pytest.
"""

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.engine import RunSpec
from repro.engine.cache import ResultCache, _entry_payload
from repro.timing.stats import RunStats

BENCH_OUT = Path(__file__).resolve().parent.parent / "BENCH_store.json"
#: records in the synthetic grid (CI's bench-store job sets 100000)
RECORDS = int(os.environ.get("BENCH_STORE_RECORDS", "4000"))
#: best-of-N for the repeatable warm rows (min defeats noise; the
#: destructive rows — cold write, gc — are necessarily single-shot)
ROUNDS = 3
#: soft gates at full size: warm store-level lookup and namespace gc
MIN_WARM_SPEEDUP = 5.0
MIN_GC_SPEEDUP = 5.0
#: cold writes must never lose to one-file-per-record
MIN_COLD_RATIO = 1.0
#: the soft gates only mean anything at the size they were set for
GATED_RECORDS = 100_000


class JsonPerDigest:
    """Baseline store: one ``<digest>.json`` file per record."""

    def __init__(self, directory: Path, version: str):
        self.dir = directory
        self.version = version

    def put_many(self, pairs) -> int:
        """One ``mkstemp`` + ``json.dump`` + ``os.replace`` per record."""
        self.dir.mkdir(parents=True, exist_ok=True)
        for spec, stats in pairs:
            fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(_entry_payload(self.version, spec, stats), fh,
                          sort_keys=True)
            os.replace(tmp, self.dir / f"{spec.digest()}.json")
        return len(pairs)

    def fetch_raw_many(self, digests) -> int:
        """One ``open`` + read per digest; returns the hits."""
        hits = 0
        for digest in digests:
            with open(self.dir / f"{digest}.json", "rb") as fh:
                fh.read()
            hits += 1
        return hits

    def gc(self) -> int:
        """One unlink per file, then the directory."""
        removed = 0
        for path in self.dir.iterdir():
            path.unlink()
            removed += 1
        self.dir.rmdir()
        return removed


def _grid(count: int) -> list[tuple[RunSpec, RunStats]]:
    """Synthetic spec/stats pairs: spec validation is lazy (build
    time), so invented benchmark names exercise the store without
    running any simulation."""
    pairs = []
    for i in range(count):
        spec = RunSpec(benchmark=f"synth{i % 16:02d}", coding="mom3d",
                       memsys="vector", l2_latency=10 + i % 5,
                       warm=bool(i % 2), seed=i // 80)
        stats = RunStats(name=spec.label(), cycles=100_000 + i,
                         instructions=80_000 + i, rf3d_words=i * 7,
                         rf3d_reads=i * 3, rf3d_writes=i,
                         l2_hit_rate=0.5 + (i % 100) / 200.0,
                         coherence_events=i % 11)
        pairs.append((spec, stats))
    return pairs


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def _best_of(fn, *args):
    """Best-of-ROUNDS wall clock (and the last round's result)."""
    best, result = _timed(fn, *args)
    for _ in range(ROUNDS - 1):
        seconds, result = _timed(fn, *args)
        best = min(best, seconds)
    return best, result


def _row(segment: float, baseline: float | None = None, **extra) -> dict:
    row = {}
    if baseline is not None:
        row["file_seconds"] = round(baseline, 4)
    row["segment_seconds"] = round(segment, 4)
    row["segment_records_per_s"] = round(RECORDS / segment)
    if baseline is not None:
        row["ratio"] = round(baseline / segment, 2)
    row.update(extra)
    return row


def run_benchmark() -> dict:
    pairs = _grid(RECORDS)
    specs = [spec for spec, _ in pairs]
    # spec digests are store-independent engine work: hash them once
    # outside the lookup rows so they measure the store
    digests = [spec.digest() for spec in specs]
    workdir = Path(tempfile.mkdtemp(prefix="bench-store-"))
    try:
        baseline = JsonPerDigest(workdir / "file" / "zz-active",
                                 "zz-active")
        file_cold, fresh = _timed(baseline.put_many, pairs)
        assert fresh == len(pairs)
        cache = ResultCache(workdir / "segment", version="zz-active")
        seg_cold, fresh = _timed(cache.put_many, pairs)
        assert fresh == len(pairs)

        # drop in-memory state so lookups run against a reopened cache;
        # the open's scan of every segment is a one-time cost, reported
        # separately rather than smeared into the per-lookup row
        cache = ResultCache(workdir / "segment", version="zz-active")
        open_seconds, store = _timed(cache.store)
        file_warm, hits = _best_of(baseline.fetch_raw_many, digests)
        assert hits == len(digests)
        seg_warm, raw = _best_of(store.fetch_raw_many, digests)
        assert len(raw) == len(digests)
        del raw

        run_many, found = _best_of(cache.get_many, specs)
        assert len(found) == len(specs)
        del found
        query, rows = _best_of(cache.query, "synth00")
        assert len(rows) == RECORDS // 16

        # gc: a superseded namespace of the same size beside the
        # active one — N unlinks vs a handful of segment unlinks (the
        # segment side's ``gc`` also runs the active store's
        # compaction pass, as ``repro cache gc`` does)
        old = JsonPerDigest(workdir / "file" / "aa-old", "aa-old")
        old.put_many(pairs)
        file_gc, removed = _timed(old.gc)
        assert removed == len(pairs)
        old = ResultCache(workdir / "segment", version="aa-old")
        old.put_many(pairs)
        seg_gc, (removed, _bytes) = _timed(cache.gc)
        assert removed == len(pairs)

        payload = {
            "grid": ("synthetic result grid, segment store vs a "
                     "JSON-per-digest baseline"),
            "records": RECORDS,
            "gated_records": GATED_RECORDS,
            "rounds": ROUNDS,
            "cold_write": _row(seg_cold, file_cold, floor=MIN_COLD_RATIO),
            "warm_lookup": _row(
                seg_warm, file_warm,
                segment_open_seconds=round(open_seconds, 4),
                soft_gate=MIN_WARM_SPEEDUP),
            "warm_run_many": _row(run_many),
            "gc": _row(seg_gc, file_gc, soft_gate=MIN_GC_SPEEDUP),
            "query": _row(query),
        }
        BENCH_OUT.write_text(json.dumps(payload, indent=2) + "\n",
                             encoding="utf-8")
        return payload
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_store_speedup():
    payload = run_benchmark()
    print()
    print(json.dumps(payload, indent=2))
    # Hard floors: conservative never-lose bounds that hold on noisy
    # runners at any size.  The 5x targets are soft CI gates below.
    assert payload["warm_lookup"]["ratio"] >= 1.5, payload
    assert payload["gc"]["ratio"] >= 1.0, payload
    assert payload["cold_write"]["ratio"] >= MIN_COLD_RATIO, payload
    if payload["records"] >= GATED_RECORDS:
        for row, gate in (("warm_lookup", MIN_WARM_SPEEDUP),
                          ("gc", MIN_GC_SPEEDUP)):
            if payload[row]["ratio"] < gate:
                print(f"::warning title=bench-store::{row} ratio "
                      f"{payload[row]['ratio']}x is below the {gate}x "
                      f"target on this runner")


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
