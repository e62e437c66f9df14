"""Segment-store tests: format, recovery, concurrency, cache facade.

Covers the storage engine directly (round-trips, rollover, rebuilds
by scan, torn-tail crash recovery, rotted frames set aside and
quarantined, two-process admission, compaction) and the
:class:`ResultCache` behaviors layered on it
(bulk round-trips, stray per-digest files ignored, query filters,
stat, ``gc`` of superseded namespaces, and the ``__len__``-after-``gc``
resync).
"""

import json
import multiprocessing
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.engine import RunSpec
from repro.engine.cache import ResultCache
from repro.engine.store import (
    MAGIC,
    CorruptFrameError,
    SegmentStore,
    _dumps,
    _frame,
)
from repro.timing.stats import RunStats

BENCH = "gsm_encode"


def _digest(i: int) -> str:
    return "%064x" % i


def _payload(i: int) -> dict:
    return {"value": i, "tag": f"record-{i}"}


def _fill(store: SegmentStore, count: int, start: int = 0) -> None:
    store.append_many((_digest(i), _payload(i))
                      for i in range(start, start + count))


# --- round trips & persistence -----------------------------------------------


def test_store_round_trip_and_reopen(tmp_path):
    with SegmentStore(tmp_path) as store:
        _fill(store, 20)
        assert len(store) == 20
        assert _digest(3) in store
        assert store.get(_digest(3)) == _payload(3)
        assert store.get("f" * 64) is None
        many = store.get_many([_digest(i) for i in range(0, 25, 5)])
        assert many == {_digest(i): _payload(i) for i in range(0, 20, 5)}
    with SegmentStore(tmp_path) as reopened:
        assert len(reopened) == 20
        assert dict(reopened.scan()) == \
            {_digest(i): _payload(i) for i in range(20)}


def test_store_first_writer_wins_in_process(tmp_path):
    with SegmentStore(tmp_path) as store:
        assert store.append(_digest(0), {"v": "first"})
        assert not store.append(_digest(0), {"v": "second"})
        assert store.get(_digest(0)) == {"v": "first"}
        assert store.append_many(
            [(_digest(1), {"v": 1}), (_digest(1), {"v": "dup"}),
             (_digest(2), {"v": 2})]) == [_digest(1), _digest(2)]


def test_store_rollover_seals_segments(tmp_path):
    with SegmentStore(tmp_path, max_segment_bytes=512) as store:
        _fill(store, 30)
        stat = store.stat()
        assert stat["records"] == 30
        assert stat["segments"] > 1
    # the segments are the store: nothing else is written
    assert sorted(p.suffix for p in tmp_path.iterdir()) == \
        [".seg"] * stat["segments"]
    with SegmentStore(tmp_path) as reopened:
        assert len(reopened) == 30
        assert reopened.get(_digest(29)) == _payload(29)


def test_store_index_rebuild_after_deletion(tmp_path):
    """The index is rebuilt from the segments alone: deleting one
    segment file deletes exactly the records it held."""
    with SegmentStore(tmp_path, max_segment_bytes=512) as store:
        _fill(store, 30)
        doomed = store.index[_digest(0)][0]
        gone = {d for d, ref in store.index.items() if ref[0] == doomed}
    (tmp_path / doomed).unlink()
    with SegmentStore(tmp_path) as rebuilt:
        assert set(rebuilt.digests()) == \
            {_digest(i) for i in range(30)} - gone
        assert rebuilt.get(_digest(17)) == _payload(17)


def test_store_dropped_without_close_loses_nothing(tmp_path):
    store = SegmentStore(tmp_path)
    _fill(store, 5)
    store.close()
    _fill(store, 5, start=5)  # a second session, not closed
    # a crash never closes it: the data was written through, so an
    # open beside the unclosed writer finds every record
    with SegmentStore(tmp_path) as recovered:
        assert len(recovered) == 10
        assert recovered.get(_digest(7)) == _payload(7)
    store.close()


def test_store_torn_tail_recovery(tmp_path):
    with SegmentStore(tmp_path) as store:
        _fill(store, 8)
        (name,) = [n for n in store._segments]
    path = tmp_path / name
    with open(path, "ab") as fh:  # a partial frame from a dead writer
        fh.write(b"\xff\x00\x01torn-frame-gibberish")
    with SegmentStore(tmp_path) as recovered:
        assert len(recovered) == 8  # everything before the tear
        assert recovered.get(_digest(7)) == _payload(7)
        # appends after recovery land in a fresh segment and survive
        recovered.append(_digest(100), _payload(100))
    with SegmentStore(tmp_path) as again:
        assert len(again) == 9


def test_store_truncated_mid_record_drops_only_the_tail(tmp_path):
    with SegmentStore(tmp_path) as store:
        _fill(store, 4)
        ref = store.index[_digest(3)]
    path = tmp_path / ref[0]
    os.truncate(path, ref[1] + 10)  # cut into the last record
    with SegmentStore(tmp_path) as recovered:
        assert sorted(recovered.digests()) == \
            sorted(_digest(i) for i in range(3))


def _rot(tmp_path, i: int, at: int, value: int) -> tuple[str, int, bytes]:
    """Write ``value`` over the byte ``at`` bytes into record ``i``'s
    frame, in a one-segment store of five records; returns the
    segment name, the frame's offset and the rotted frame."""
    with SegmentStore(tmp_path) as store:
        _fill(store, 5)
        name, offset, length = store.index[_digest(i)]
    assert os.listdir(tmp_path) == [name]
    path = tmp_path / name
    data = bytearray(path.read_bytes())
    assert data[offset + at] != value
    data[offset + at] = value
    path.write_bytes(bytes(data))
    return name, offset, bytes(data[offset:offset + 72 + length])


def test_store_rotted_middle_frame_is_set_aside_and_quarantined(tmp_path):
    """A whole frame that fails its CRC is not a torn tail: the scan
    sets it aside and reads on, and compaction quarantines it."""
    # a payload byte: '{"tag":' becomes '{"tbg":'
    _name, _offset, frame = _rot(tmp_path, 2, at=72 + 3, value=ord("b"))
    healthy = {_digest(i): _payload(i) for i in (0, 1, 3, 4)}
    with SegmentStore(tmp_path) as store:
        assert _digest(2) not in store
        assert store.get(_digest(2)) is None
        assert store.get_many([_digest(i) for i in range(5)]) == healthy
        assert store.compact(dry_run=True)[0] == 1
        with pytest.raises(CorruptFrameError) as info:
            store.compact()
        sidecar = tmp_path / f"{_digest(2)}.corrupt"
        assert info.value.quarantined == [(_digest(2), str(sidecar))]
        assert sidecar.read_bytes() == frame
        assert dict(store.scan()) == healthy
    with SegmentStore(tmp_path) as reopened:
        # the records after the rotted one survived the compaction
        assert dict(reopened.scan()) == healthy
        assert reopened.compact() == (0, 0)


def test_store_mangled_digest_field_stops_its_segment(tmp_path):
    """A rotted frame whose digest field is not a digest frames
    nothing after it: its sidecar is named by segment and offset, and
    the records before it survive."""
    name, offset, frame = _rot(tmp_path, 2, at=8, value=ord("z"))
    with SegmentStore(tmp_path) as store:
        assert sorted(store.digests()) == [_digest(0), _digest(1)]
        with pytest.raises(CorruptFrameError) as info:
            store.compact()
    label = f"{name[:-len('.seg')]}-{offset}"
    sidecar = tmp_path / f"{label}.corrupt"
    assert info.value.quarantined == [(label, str(sidecar))]
    assert sidecar.read_bytes() == frame


def test_store_foreign_files_left_alone(tmp_path):
    foreign = tmp_path / "seg-999999.seg"
    foreign.write_bytes(b"NOTASEGM" + b"x" * 100)
    with SegmentStore(tmp_path) as store:
        _fill(store, 3)
        assert len(store) == 3
        store.append(_digest(50), _payload(50))  # forces dead weight? no
        dead, _ = store.compact()
    assert foreign.read_bytes().startswith(b"NOTASEGM")
    with SegmentStore(tmp_path) as reopened:
        assert len(reopened) == 4


def test_store_compact_drops_duplicates_dry_run_matches(tmp_path):
    with SegmentStore(tmp_path, max_segment_bytes=512) as store:
        _fill(store, 20)
    # a second writer re-appends overlapping digests into its own
    # segment (as after a racy dual-process run)
    with open(tmp_path / "seg-900000.seg", "wb") as fh:
        fh.write(MAGIC)
        for i in range(5):
            fh.write(_frame(_digest(i), _dumps({"v": "newer"})))
    expected = {_digest(i): _payload(i) for i in range(20)}
    expected.update({_digest(i): {"v": "newer"} for i in range(5)})
    with SegmentStore(tmp_path) as store:
        assert len(store) == 20
        # a rebuild keeps the newest frame of a digest: the later
        # segment wins the tie
        assert store.get(_digest(0)) == {"v": "newer"}
        assert store.get(_digest(5)) == _payload(5)
        dry = store.compact(dry_run=True)
        real = store.compact()
        assert dry == real
        assert real[0] == 5  # five superseded frames dropped
        assert real[1] > 0
        stat = store.stat()
        assert stat == {"records": 20, "segments": 1, "bytes": stat["bytes"]}
        assert dict(store.scan()) == expected
        assert store.compact() == (0, 0)  # already tight: no-op
    with SegmentStore(tmp_path) as reopened:
        assert dict(reopened.scan()) == expected


def test_store_compact_leaves_full_segments_alone(tmp_path, closes):
    """Nothing dead and only per-segment overhead to gain: ``compact``
    (and so ``gc``) must not rewrite a store of full segments."""
    directory = tmp_path / "v1"
    with SegmentStore(directory, max_segment_bytes=64 * 1024) as store:
        _fill(store, 2000)

    def files():
        return {p.name: (p.stat().st_ino, p.stat().st_size)
                for p in directory.iterdir()}

    before = files()
    with SegmentStore(directory, max_segment_bytes=64 * 1024) as store:
        assert store.stat()["segments"] >= 3
        assert store.compact(dry_run=True) == (0, 0)
        assert store.compact() == (0, 0)
    assert files() == before
    assert closes(ResultCache(tmp_path, version="v1")).gc() == (0, 0)
    assert files() == before


def test_store_compact_merges_many_tiny_segments(tmp_path):
    """Every writer session claims its own segment; once their magic
    bytes add up to a real share of the store, compaction merges
    them even though no record is dead."""
    for i in range(40):
        with SegmentStore(tmp_path) as store:
            store.append(_digest(i), _payload(i))
    with SegmentStore(tmp_path) as store:
        assert store.stat()["segments"] == 40
        dry = store.compact(dry_run=True)
        assert dry[0] == 0 and dry[1] > 0
        assert store.compact() == dry
        assert store.stat()["segments"] == 1
        assert dict(store.scan()) == {_digest(i): _payload(i)
                                      for i in range(40)}


def test_store_segments_are_created_without_execute_bits(tmp_path):
    """A segment is data: appends and compaction both create it with
    mode ``0o666`` less the umask, as for any regular file."""
    umask = os.umask(0)
    os.umask(umask)
    expected = 0o666 & ~umask

    def modes():
        return {path.stat().st_mode & 0o777
                for path in tmp_path.glob("*.seg")}

    for i in range(3):
        with SegmentStore(tmp_path) as store:
            store.append(_digest(i), _payload(i))
    assert modes() == {expected}
    with SegmentStore(tmp_path) as store:
        assert store.compact()[1] > 0  # merged into a fresh segment
        assert store.stat()["segments"] == 1
    assert modes() == {expected}
    assert not expected & 0o111


def test_store_stat_counts_without_reads(tmp_path):
    with SegmentStore(tmp_path, max_segment_bytes=512) as store:
        _fill(store, 12)
        stat = store.stat()
        assert stat["records"] == 12
        on_disk = sum((tmp_path / n).stat().st_size
                      for n in store._segments)
        assert stat["bytes"] == on_disk
        assert store.record_sizes()[_digest(0)] > 72


# --- property: random interleavings vs a dict oracle -------------------------


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=st.lists(st.tuples(
    st.sampled_from(["put", "put_many", "reopen", "compact"]),
    st.lists(st.integers(min_value=0, max_value=40),
             min_size=1, max_size=6)), max_size=25))
def test_store_matches_dict_oracle(tmp_path, ops):
    # one fresh directory per hypothesis example (tmp_path is reused)
    import tempfile
    root = Path(tempfile.mkdtemp(dir=tmp_path)) / "store"
    serial = 0
    oracle: dict[str, dict] = {}
    store = SegmentStore(root, max_segment_bytes=2048)
    try:
        for op, keys in ops:
            if op == "put":
                digest = _digest(keys[0])
                payload = {"n": serial, "k": keys[0]}
                serial += 1
                wrote = store.append(digest, payload)
                assert wrote == (digest not in oracle)
                oracle.setdefault(digest, payload)
            elif op == "put_many":
                items = []
                for key in keys:
                    items.append((_digest(key), {"n": serial, "k": key}))
                    serial += 1
                fresh = store.append_many(items)
                expect_fresh = []
                for digest, payload in items:
                    if digest not in oracle and digest not in expect_fresh:
                        expect_fresh.append(digest)
                        oracle[digest] = payload
                assert fresh == expect_fresh
            elif op == "reopen":
                store.close()
                store = SegmentStore(root, max_segment_bytes=2048)
            else:
                store.compact()
            assert len(store) == len(oracle)
        assert store.get_many(list(oracle)) == oracle
        store.close()
        store = SegmentStore(root)
        assert dict(store.scan()) == oracle
    finally:
        store.close()


# --- two-process concurrent admission ----------------------------------------


def _writer_process(directory: str, start: int, count: int,
                    queue) -> None:
    with SegmentStore(directory) as store:
        fresh = store.append_many(
            (_digest(i), {"writer": start, "i": i})
            for i in range(start, start + count))
    queue.put((start, len(fresh)))


def test_store_two_process_writers_never_interleave(tmp_path):
    """Two processes write overlapping ranges into one directory; each
    claims its own ``O_EXCL`` segment, so every record lands exactly
    once per writer and a rebuild keeps one winner per digest."""
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    procs = [ctx.Process(target=_writer_process,
                         args=(str(tmp_path), start, 40, queue))
             for start in (0, 20)]  # digests 20..39 overlap
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    written = dict(queue.get(timeout=5) for _ in procs)
    # overlapping digests (20..39) may land twice — once per writer,
    # as duplicate frames in separate segments — or once, when the
    # slower writer happened to open after the faster one wrote them;
    # never fewer than each writer's 20 exclusive digests
    assert 20 <= written[0] <= 40 and 20 <= written[20] <= 40
    duplicates = written[0] + written[20] - 60
    assert duplicates >= 0
    with SegmentStore(tmp_path) as store:
        assert sorted(store.digests()) == \
            sorted(_digest(i) for i in range(60))
        for digest, payload in store.scan():
            assert _digest(payload["i"]) == digest
        # compaction squeezes out whatever duplicate frames the race
        # left behind (a no-op when the writers fully serialized)
        dead, reclaimed = store.compact()
        assert dead == duplicates
        assert (reclaimed > 0) == (duplicates > 0)
        assert len(store) == 60
        assert dict(store.scan())[_digest(25)]["i"] == 25


# --- ResultCache over the store ----------------------------------------------


def _spec(i: int) -> RunSpec:
    return RunSpec(benchmark=BENCH, coding=("mmx", "mom", "mom3d")[i % 3],
                   memsys="vector", l2_latency=10 + i, warm=bool(i % 2))


def _stats(i: int) -> RunStats:
    stats = RunStats(name=f"r{i}")
    stats.cycles = 1000 + i
    stats.instructions = 500 + i
    return stats


def test_cache_bulk_round_trip(tmp_path, closes):
    cache = closes(ResultCache(tmp_path, version="v1"))
    pairs = [(_spec(i), _stats(i)) for i in range(8)]
    assert cache.put_many(pairs) == 8
    assert cache.put_many(pairs[:3]) == 0  # first writer wins
    assert len(cache) == 8
    found = cache.get_many([spec for spec, _ in pairs] + [_spec(99)])
    assert set(found) == {spec for spec, _ in pairs}
    for spec, stats in pairs:
        assert found[spec].to_dict() == stats.to_dict()


def test_cache_stray_json_in_active_namespace_is_ignored(tmp_path, closes):
    """A per-digest ``.json`` file beside the segments is neither
    served nor counted: the segment index is the only source."""
    cache = closes(ResultCache(tmp_path, version="v1"))
    cache.put(_spec(1), _stats(1))
    stray = tmp_path / "v1" / f"{_spec(0).digest()}.json"
    stray.write_text(json.dumps({
        "schema": 1, "version": "v1", "spec": _spec(0).to_dict(),
        "stats": _stats(0).to_dict()}))
    for reader in (cache, closes(ResultCache(tmp_path, version="v1"))):
        assert reader.get(_spec(0)) is None
        assert reader.get_many([_spec(0), _spec(1)]).keys() == {_spec(1)}
        assert len(reader) == 1 == reader.refresh_count()
        assert reader.stat()["entries"] == 1
        assert [e.digest for e in reader.entries()] == [_spec(1).digest()]
        assert [spec for spec, _ in reader.query()] == [_spec(1)]
    assert stray.exists()  # and gc leaves it alone
    cache.gc()
    assert stray.exists()
    # a namespace from before the segment store answers no query
    legacy = tmp_path / "v0"
    legacy.mkdir()
    (legacy / stray.name).write_text(stray.read_text())
    assert cache.query(version="v0") == []
    assert cache.stat("v0")["entries"] == 0


def test_cache_query_filters(tmp_path, closes):
    cache = closes(ResultCache(tmp_path, version="v1"))
    cache.put_many([(_spec(i), _stats(i)) for i in range(9)])
    everything = cache.query()
    assert len(everything) == 9
    mom = cache.query(coding="mom")
    assert {spec.coding for spec, _ in mom} == {"mom"}
    assert len(cache.query(coding="mom", warm=True)) == \
        sum(1 for spec, _ in mom if spec.warm)
    assert cache.query(l2_latency=10)[0][0].l2_latency == 10
    assert cache.query(benchmark="nope") == []
    assert len(cache.query(limit=4)) == 4
    one = cache.query(coding="mom3d", limit=1)
    assert one[0][1].to_dict() == \
        dict(cache.query(coding="mom3d")[0][1].to_dict())


def test_cache_len_resyncs_after_gc(tmp_path, closes):
    """``len`` answers from the index, so after ``gc`` it must pick
    up what other writers appended meanwhile."""
    cache = closes(ResultCache(tmp_path, version="v-new"))
    cache.put_many([(_spec(i), _stats(i)) for i in range(4)])
    assert len(cache) == 4
    old = closes(ResultCache(tmp_path, version="v-old"))
    old.put_many([(_spec(i), _stats(i)) for i in range(3)])
    old.close()
    # external writer appears mid-session: len must resync after gc
    extra = closes(ResultCache(tmp_path, version="v-new"))
    extra.put(_spec(10), _stats(10))
    removed, reclaimed = cache.gc()
    assert removed >= 3 and reclaimed > 0
    assert not (tmp_path / "v-old").exists()
    assert len(cache) == 5 == cache.refresh_count()
    assert cache.stat()["entries"] == 5


def test_cache_gc_dry_run_reports_real_bytes(tmp_path, closes):
    cache = closes(ResultCache(tmp_path, version="v-new"))
    cache.put(_spec(0), _stats(0))
    old = closes(ResultCache(tmp_path, version="v-old"))
    old.put_many([(_spec(i), _stats(i)) for i in range(5)])
    old.close()
    dry = cache.gc(dry_run=True)
    assert (tmp_path / "v-old").is_dir()  # dry run touched nothing
    real = cache.gc()
    assert dry == real
    assert not (tmp_path / "v-old").exists()
    total = sum(entry.size for entry in cache.entries(labels=False))
    assert cache.stat()["bytes"] >= total


def test_cache_gc_collects_a_pre_segment_namespace_unread(
        tmp_path, monkeypatch, capsys, closes):
    """A superseded namespace written before the segment store (one
    ``<digest>.json`` per entry) is listed, and ``gc`` deletes it
    whole — dry-run totals equal to the real ones — without opening
    any of its files."""
    cache = closes(ResultCache(tmp_path, version="v-new"))
    cache.put(_spec(0), _stats(0))
    legacy = tmp_path / "v-legacy"
    legacy.mkdir()
    files = []
    for i in range(3):
        path = legacy / f"{_spec(i).digest()}.json"
        path.write_text(json.dumps({"spec": _spec(i).to_dict(),
                                    "stats": _stats(i).to_dict()}))
        files.append(path)
    size = sum(path.stat().st_size for path in files)
    assert cache.versions() == ["v-new", "v-legacy"]
    # stat shows the disk use gc would reclaim, with no entry read
    stat = cache.stat("v-legacy")
    assert (stat["entries"], stat["bytes"]) == (0, size)
    assert main(["--cache-dir", str(tmp_path), "cache", "ls"]) == 0
    assert "v-legacy" in capsys.readouterr().out

    opened = []

    def spy(real):
        def wrapper(file, *args, **kwargs):
            opened.append(Path(file))
            return real(file, *args, **kwargs)
        return wrapper

    monkeypatch.setattr("builtins.open", spy(open))
    monkeypatch.setattr(os, "open", spy(os.open))
    dry = cache.gc(dry_run=True)
    assert dry[1] == size
    assert all(path.exists() for path in files)
    assert cache.gc() == dry
    monkeypatch.undo()
    assert not set(opened) & set(files)
    assert not legacy.exists()
    assert cache.versions() == ["v-new"]
    assert cache.get(_spec(0)).to_dict() == _stats(0).to_dict()


def test_cache_entry_sizes_account_for_every_byte(tmp_path, closes):
    cache = closes(ResultCache(tmp_path, version="v1"))
    cache.put_many([(_spec(i), _stats(i)) for i in range(5)])
    entries = cache.entries(labels=False)
    assert len(entries) == 5
    assert all(entry.size > 72 for entry in entries)
    assert all(entry.path.suffix == ".seg" for entry in entries)
    labeled = cache.entries()
    assert all(entry.label.startswith(BENCH) for entry in labeled)


def test_cache_query_opens_a_superseded_store_only_while_scanning(
        tmp_path, monkeypatch, closes):
    """``query``/``stat``/``entries`` for another version open its
    store for the call and close it; a version that names no
    namespace opens nothing."""
    import repro.engine.cache as cache_module

    cache = closes(ResultCache(tmp_path, version="v1"))
    cache.put(_spec(0), _stats(0))
    old = closes(ResultCache(tmp_path, version="v0"))
    old.put(_spec(1), _stats(1))
    opened = []
    real = cache_module.SegmentStore

    def spy(directory, **kwargs):
        store = real(directory, **kwargs)
        opened.append(store)
        return store

    monkeypatch.setattr(cache_module, "SegmentStore", spy)
    for version in ("nope", "v0/..", "../v0"):
        assert cache.query(version=version) == []
        assert cache.entries(version) == []
        assert cache.stat(version)["entries"] == 0
    assert opened == []
    assert [spec for spec, _ in cache.query(version="v0")] == [_spec(1)]
    assert [e.digest for e in cache.entries("v0")] == [_spec(1).digest()]
    assert cache.stat("v0")["entries"] == 1
    assert len(opened) == 3
    assert all(store._read_fds == {} for store in opened)
