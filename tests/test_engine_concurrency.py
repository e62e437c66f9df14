"""Engine thread-safety stress tests.

One shared Engine serves the service scheduler's executor threads, so
the memo, the stats counters and cache admission must hold up under
concurrent use: counters never tear, admission is first-writer-wins,
and every thread observes the same memoized object per spec.
"""

import threading

from repro.engine import Engine, RunSpec, Sweep
from repro.timing.stats import RunStats

BENCH = "gsm_encode"
IDEAL = RunSpec(BENCH, "mom", "ideal")


def _fan_out(worker, count):
    barrier = threading.Barrier(count)
    errors = []

    def wrapped(index):
        try:
            barrier.wait()
            worker(index)
        except Exception as exc:  # pragma: no cover - fail loudly
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,))
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors


def test_counters_never_tear_under_memo_hammering():
    """Every run() bumps exactly one of memo_hits/simulations, so the
    sum must equal the call count exactly — torn ``+=`` updates under
    an unlocked engine would lose increments here."""
    engine = Engine(use_cache=False)
    engine.run(IDEAL)  # pre-warm: the hammering below is pure memo
    threads, per_thread = 8, 400
    results = [[] for _ in range(threads)]

    def worker(index):
        for _ in range(per_thread):
            results[index].append(engine.run(IDEAL))

    _fan_out(worker, threads)
    assert engine.stats.memo_hits + engine.stats.simulations == \
        threads * per_thread + 1
    # identity-preserving memoization survives concurrency
    first = results[0][0]
    assert all(r is first for chunk in results for r in chunk)


def test_cold_race_admits_one_object_per_spec(tmp_path):
    """Racing threads may each simulate a cold spec, but admission is
    first-writer-wins: one memo object, one disk store, and every
    caller is handed the winning object."""
    engine = Engine(cache_dir=tmp_path)
    threads = 6
    results = []
    lock = threading.Lock()

    def worker(_index):
        stats = engine.run(IDEAL)
        with lock:
            results.append(stats)

    _fan_out(worker, threads)
    assert len(results) == threads
    assert all(r is results[0] for r in results)
    assert engine.stats.stores == 1
    assert 1 <= engine.stats.simulations <= threads
    assert engine.stats.memo_hits + engine.stats.simulations == threads
    engine.close()


class RacingCache:
    """A result cache whose every read loses the race to a concurrent
    admit: the winner's object reaches the engine's memo before
    ``get``/``get_many`` returns the stored copy."""

    def __init__(self, engine):
        self.engine = engine
        self.winner = RunStats(name="winner")

    def _read(self, spec):
        self.engine._admit(spec, self.winner)
        return RunStats(name="stored copy")

    def get(self, spec):
        return self._read(spec)

    def get_many(self, specs):
        return {spec: self._read(spec) for spec in specs}

    def put(self, spec, stats):
        pass


def test_disk_read_losing_the_admit_race_counts_as_memo_hit():
    """The caller of a raced read gets the memo's object, so the read
    counts where that object came from: the memo, not the disk."""
    engine = Engine(use_cache=False)
    engine.cache = cache = RacingCache(engine)
    assert engine.run(IDEAL) is cache.winner
    other = RunSpec(BENCH, "mom", "vector")
    assert engine.run_many([other]) == {other: cache.winner}
    assert engine.stats.memo_hits == 2
    assert engine.stats.disk_hits == 0
    assert engine.stats.simulations == 0


def test_concurrent_run_many_grids_agree(tmp_path):
    """Two threads resolving overlapping grids against one engine get
    equal results; the shared cache stores each spec exactly once."""
    engine = Engine(cache_dir=tmp_path)
    specs = Sweep(benchmarks=(BENCH,), codings=("mom", "mom3d"),
                  memsystems=("vector", "ideal")).specs()
    unique = list(dict.fromkeys(specs))
    outcomes = {}
    lock = threading.Lock()

    def worker(index):
        grid = engine.run_many(specs)
        with lock:
            outcomes[index] = grid

    _fan_out(worker, 4)
    assert len(outcomes) == 4
    baseline = outcomes[0]
    for grid in outcomes.values():
        assert set(grid) == set(specs)
        for spec in specs:
            assert grid[spec] is baseline[spec]
    assert engine.stats.stores == len(unique)
    assert engine.stats.simulations <= 4 * len(unique)
    engine.close()
