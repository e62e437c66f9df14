"""End-to-end benchmark: four workloads against the real entry points.

    python3 benchmarks/e2e/run.py --seed S --out results.json [--trace]
        every workload; prints each metric by name with its unit,
        median, quartiles and sample count, writes them to --out, and
        exits non-zero if any output check fails
    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1
        one workload; the last stdout line is one JSON object with
        ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
        end-to-end metrics of BENCHMARK.json, or with ``--trace 1`` its
        per-layer metrics
    python3 benchmarks/e2e/run.py --grid-note --seed S --out note.json
        the one-off grid on/off timing recorded in baseline.json

Every program run is a fresh subprocess with its own empty cache
directory under ``.e2e-work/`` in the checkout (removed at exit); wall
times are host time measured from here.  Host times of whole steps
(rounds, set-ups, the cold grid job) are reported in reference
seconds: each step runs between two ``probe.py`` processes, and its
host time is scaled by ``PROBE_S`` over their mean, which cancels the
shared machine's drifting speed (README.md, "Noise").  Simulated
statistics are only used as exact fingerprints.  ``--trace`` adds one
more round of each
workload through ``traced.py`` and derives the per-layer metrics from
its spans; end-to-end metrics always come from the untraced rounds.
See README.md for the metric catalogue and the reasons behind each
workload.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PY = sys.executable

sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import loadgen  # noqa: E402
from child import sim_sums  # noqa: E402
from spans import covered, totals_by_name  # noqa: E402
from summary import summarize, tail  # noqa: E402

WORKLOADS = ("tables-cold", "tables-warm", "sweep-dse", "serve-mixed")

#: end-to-end metrics: name -> (unit, better, regression bound as a
#: share of the base median).  Every workload reports CONTRACT (the
#: BENCHMARK.json list); the rest exist on some workloads only and
#: appear in the one-command report and in compare.py.  Host-time
#: bounds are 25%: even in reference seconds, ten runs on a shared
#: 2-core box spread by up to a quarter of that (README.md, "Noise").
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "sim_kips": ("kinst/s", "higher", 0.25),
    "grid_job_s": ("s", "lower", 0.25),
    "job_tail_ms": ("ms", "lower", 0.25),
    "fail_frac": ("frac", "lower", 0.0),
}
CONTRACT = ("setup_s", "wall_s", "peak_rss_mb")

#: per-layer metrics of the traced run: name -> (unit, better)
PER_LAYER = {
    "cli.startup_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.exit_s": ("s", "lower"),
    "workloads.build_s": ("s", "lower"),
    "workloads.builds": ("count", "lower"),
    "workloads.memo_hit_ratio": ("ratio", "higher"),
    "compiler.analysis_s": ("s", "lower"),
    "timing.decode_s": ("s", "lower"),
    "timing.prime_s": ("s", "lower"),
    "timing.schedule_s": ("s", "lower"),
    "timing.sims": ("count", "lower"),
    "timing.grid_specs": ("count", "higher"),
    "timing.ns_per_inst": ("ns/inst", "lower"),
    "sim.instructions": ("count", "lower"),
    "sim.cycles": ("count", "lower"),
    "sim.l2_activity": ("count", "lower"),
    "sim.cache_words": ("count", "lower"),
    "engine.lookup_s": ("s", "lower"),
    "engine.admit_s": ("s", "lower"),
    "engine.execute_s": ("s", "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.simulations": ("count", "lower"),
    "engine.memo_hits": ("count", "higher"),
    "engine.disk_hits": ("count", "higher"),
    "engine.stores": ("count", "lower"),
    "engine.hit_ratio": ("ratio", "higher"),
    "engine.store_kib": ("KiB", "lower"),
    "harness.self_s": ("s", "lower"),
    "service.submit_ms_p50": ("ms", "lower"),
    "service.poll_ms_p50": ("ms", "lower"),
    "service.polls_per_job": ("count", "lower"),
    "service.query_ms_p50": ("ms", "lower"),
    "service.miss_p50_ms": ("ms", "lower"),
    "scheduler.resolve_ms_p50": ("ms", "lower"),
    "scheduler.batch_specs_mean": ("specs", "higher"),
    "worker.busy_s": ("s", "lower"),
    "workqueue.leases": ("count", "lower"),
    "server.handler_s": ("s", "lower"),
    "schema.codec_s": ("s", "lower"),
    "loadgen.late_ms_tail": ("ms", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.unattributed_frac": ("frac", "lower"),
}

#: reference seconds are host seconds times PROBE_S over the host time
#: of the probes around the step; PROBE_S is the probe's host time on
#: the machine baseline.json names while it is quiet, so reference
#: seconds read as host seconds on that machine at its fastest
PROBE_S = 0.14
#: timed set-up processes per run (after one unmeasured warm-up)
SETUP_SAMPLES = 5
#: measured rounds per CLI workload, whatever --seconds allows
MIN_ROUNDS = 3
#: serve-mixed phase A: fresh server + worker + cache per round
SERVE_ROUNDS = 3
#: serve-mixed latency limit on the tail percentile (milliseconds)
LATENCY_LIMIT_MS = 250.0
#: idle seconds after which a worker exits on its own (--max-idle)
WORKER_MAX_IDLE = 5.0
#: hard limit on any one program run (seconds)
RUN_TIMEOUT = 120.0


class WorkloadError(Exception):
    """A step failed in a way that ends the workload's run."""


# -- processes ------------------------------------------------------------


@dataclass
class Proc:
    """One finished program run, timed from spawn to reap."""

    code: int
    spawned: float
    ended: float
    rss_mib: float
    stdout: bytes
    stderr: str

    @property
    def wall(self) -> float:
        return self.ended - self.spawned


class Workspace:
    """Scratch files inside the checkout, the children's environment,
    and every child still running (stopped and reaped on close)."""

    def __init__(self):
        base = ROOT / ".e2e-work"
        base.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["REPRO_CACHE_DIR"] = str(self.dir / "default-cache")
        self._names = itertools.count()
        self.live: list[subprocess.Popen] = []

    def path(self, stem: str) -> Path:
        return self.dir / f"{next(self._names):04d}-{stem}"

    def tempdir(self) -> str:
        path = self.path("dir")
        path.mkdir()
        return str(path)

    def spawn(self, argv, stem: str) -> subprocess.Popen:
        out, err = self.path(f"{stem}.out"), self.path(f"{stem}.err")
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            spawned = time.perf_counter()
            proc = subprocess.Popen([str(arg) for arg in argv], cwd=ROOT,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=stdout, stderr=stderr)
        proc.spawned, proc.out_path, proc.err_path = spawned, out, err
        self.live.append(proc)
        return proc

    def run(self, argv, stem: str) -> Proc:
        """Run to completion; wall from spawn to reap, rusage peak RSS."""
        proc = self.spawn(argv, stem)
        watchdog = threading.Timer(RUN_TIMEOUT, _kill, (proc.pid,))
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        ended = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        return Proc(proc.returncode, proc.spawned, ended,
                    usage.ru_maxrss / 1024, proc.out_path.read_bytes(),
                    proc.err_path.read_text(errors="replace"))

    def stop(self, proc, sig=signal.SIGTERM, grace: float = 10.0) -> float:
        """Signal ``proc``, wait (killing it after ``grace``); returns
        the time it was reaped."""
        if proc.poll() is None:
            proc.send_signal(sig)
        try:
            proc.wait(grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc in self.live:
            self.live.remove(proc)
        return time.perf_counter()

    def close(self) -> None:
        for proc in list(self.live):
            self.stop(proc, signal.SIGKILL, 5.0)
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass  # another run is using it


def _kill(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def _last_lines(text: str, count: int = 3) -> str:
    return " | ".join(text.strip().splitlines()[-count:])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _engine_line(stderr: str) -> dict:
    """The ``[engine] key=value ...`` counters a command printed."""
    for line in stderr.splitlines():
        if line.startswith("[engine] "):
            return {key: int(value) for key, value in
                    (item.split("=") for item in line.split()[1:])}
    return {}


def _cache_sums(cache_dir: str) -> dict:
    """Result count and ``sim.*`` sums over a cache directory."""
    from repro.engine import ResultCache

    rows = ResultCache(cache_dir).query()
    return {"results": len(rows), **sim_sums(stats for _, stats in rows)}


# -- results ----------------------------------------------------------------


@dataclass
class Result:
    """One workload's samples, checks, fingerprint and layer metrics."""

    samples: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failures: list = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    layers: dict | None = None

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation or output check."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return not self.failures

    def metrics(self) -> dict:
        """Summaries of every end-to-end metric this workload sampled."""
        samples = dict(self.samples)
        samples["fail_frac"] = [len(self.failures) / max(1, self.attempted)]
        out = {}
        for name, (unit, better, bound) in END_TO_END.items():
            if samples.get(name):
                out[name] = {"unit": unit, "better": better, "bound": bound,
                             **summarize(samples[name]),
                             "samples": list(samples[name])}
        return out


class Speed:
    """Converts the host time of a step into reference seconds.

    ``probe()`` runs ``probe.py`` and returns its host time.  A probe
    runs first and after every step, and a step's host time is scaled
    by ``PROBE_S`` over the mean of the probes just before and after it:
    the machine's speed drifts by up to 1.9x for tens of seconds to
    minutes at a time, and the step and its probes see the same seconds
    of it.
    """

    def __init__(self, probe):
        self.probe = probe
        self.last = probe()

    def scale(self, seconds: float) -> float:
        """``seconds`` of the step that just ended, in reference seconds."""
        before, self.last = self.last, self.probe()
        return seconds * PROBE_S / ((before + self.last) / 2)


def _probe(ws: Workspace, result: Result) -> float:
    proc = ws.run([PY, HERE / "probe.py"], "probe")
    if not result.check(proc.code == 0, f"probe exited {proc.code}: "
                        f"{_last_lines(proc.stderr)}"):
        raise WorkloadError("probe failed")
    result.samples["probe_s"].append(proc.wall)
    return proc.wall


def _set_up(ws: Workspace, result: Result, setup_args) -> float:
    """One fresh ``child.py setup`` process; returns its host time."""
    proc = ws.run([PY, HERE / "child.py", "setup", *setup_args()], "setup")
    if not result.check(proc.code == 0, f"set-up exited {proc.code}: "
                        f"{_last_lines(proc.stderr)}"):
        raise WorkloadError("set-up failed")
    return proc.wall


def timed_rounds(ws: Workspace, result: Result, seconds: float, run_round,
                 setup_args) -> Speed:
    """Measure one CLI workload for ``seconds``; returns its ``Speed``.

    One unmeasured set-up process comes first; it imports, and so
    byte-compiles, every module the command loads, so no round is
    discarded.  Then ``run_round()`` runs while another round still
    fits, and at least ``MIN_ROUNDS`` times, with ``SETUP_SAMPLES``
    timed set-up processes spread evenly over the same period.  It
    returns the round's ``Proc`` and the simulated instructions of its
    fresh results (0 if none), and each round gives one sample of
    ``wall_s``, ``peak_rss_mb`` and, if it simulated, ``sim_kips``.
    """
    _set_up(ws, result, setup_args)
    speed = Speed(lambda: _probe(ws, result))

    def set_up() -> None:
        result.samples["setup_s"].append(
            speed.scale(_set_up(ws, result, setup_args)))

    started, rounds, last, set_ups = time.perf_counter(), 0, 0.0, 0
    spacing = seconds / SETUP_SAMPLES
    while rounds < MIN_ROUNDS or \
            time.perf_counter() - started + last <= seconds:
        if set_ups < SETUP_SAMPLES and \
                time.perf_counter() >= started + set_ups * spacing:
            set_up()
            set_ups += 1
        began = time.perf_counter()
        proc, instructions = run_round()
        wall = speed.scale(proc.wall)
        last = time.perf_counter() - began
        result.samples["wall_s"].append(wall)
        result.samples["peak_rss_mb"].append(proc.rss_mib)
        if instructions:
            result.samples["sim_kips"].append(instructions / wall / 1000)
        rounds += 1
    for _ in range(set_ups, SETUP_SAMPLES):
        set_up()
    return speed


def _tables_argv(seed: int, cache_dir: str, spans=None, extra=()) -> list:
    args = ["--backend", "inline", "--seed", seed, "--cache-dir", cache_dir,
            *extra, "tables"]
    if spans is not None:
        return [PY, HERE / "traced.py", "--spans", spans, "repro", *args]
    return [PY, "-m", "repro", *args]


def _sweep_argv(spec_file, out, spans=None, extra=()) -> list:
    args = ["sweep", "--specs", spec_file, "--out", out, *extra]
    if spans is not None:
        return [PY, HERE / "traced.py", "--spans", spans, "child", *args]
    return [PY, HERE / "child.py", *args]


# -- CLI workloads ----------------------------------------------------------


def _process_layers(result: Result, speed: Speed, proc: Proc,
                    spans) -> dict:
    """Per-layer metrics of one traced CLI process."""
    return layer_metrics(
        [(_load(spans), proc.spawned, proc.ended)],
        speed.scale(proc.wall) / statistics.median(result.samples["wall_s"])
        - 1)


def _tables_round(ws, result, seed, cache_dir, stem, spans=None):
    proc = ws.run(_tables_argv(seed, cache_dir, spans), stem)
    if not result.check(proc.code == 0, f"{stem} exited {proc.code}: "
                        f"{_last_lines(proc.stderr)}"):
        raise WorkloadError(f"{stem} failed")
    engine = _engine_line(proc.stderr)
    return proc, {"stdout_sha256": _sha256(proc.stdout),
                  "simulations": engine.get("simulations"),
                  "disk_hits": engine.get("disk-hits")}


def _same_as_first(result: Result, seen: dict, what: str) -> None:
    """The first round's outputs become the fingerprint; every later
    round must repeat them exactly."""
    if not result.fingerprint:
        result.fingerprint = seen
    result.check(seen == result.fingerprint,
                 f"{what} differs from the first round: {seen}")


def tables_cold(ws: Workspace, result: Result, seed: int,
                seconds: float, trace: bool) -> None:
    """Cold ``repro tables`` from scratch: one fresh empty cache per
    round."""

    def cold_round(stem, spans=None):
        cache_dir = ws.tempdir()
        proc, seen = _tables_round(ws, result, seed, cache_dir, stem, spans)
        seen.update(_cache_sums(cache_dir))
        _same_as_first(result, seen, stem)
        return proc, seen

    def measured_round():
        proc, seen = cold_round("tables-cold")
        return proc, seen["sim.instructions"]

    speed = timed_rounds(
        ws, result, seconds, measured_round,
        lambda: ["--seed", seed, "--cache-dir", ws.tempdir()])
    if trace:
        spans = ws.path("spans.json")
        proc, _seen = cold_round("tables-cold-traced", spans)
        result.layers = _process_layers(result, speed, proc, spans)


def tables_warm(ws: Workspace, result: Result, seed: int,
                seconds: float, trace: bool) -> None:
    """Warm ``repro tables``: every round on the cache one cold run
    filled, so nothing simulates and every result is a disk hit."""
    cache_dir = ws.tempdir()
    _proc, filled = _tables_round(ws, result, seed, cache_dir,
                                  "tables-fill")
    expected = {**filled, "simulations": 0,
                "disk_hits": filled["simulations"]}
    result.fingerprint = {**expected, **_cache_sums(cache_dir)}
    _tables_round(ws, result, seed, cache_dir, "tables-warm")  # warm-up

    def warm_round(stem, spans=None):
        proc, seen = _tables_round(ws, result, seed, cache_dir, stem, spans)
        result.check(seen == expected,
                     f"{stem} differs from the cold fill: {seen}")
        return proc

    speed = timed_rounds(
        ws, result, seconds, lambda: (warm_round("tables-warm"), 0),
        lambda: ["--seed", seed, "--cache-dir", cache_dir])
    if trace:
        spans = ws.path("spans.json")
        proc = warm_round("tables-warm-traced", spans)
        result.layers = _process_layers(result, speed, proc, spans)


def sweep_dse(ws: Workspace, result: Result, seed: int,
              seconds: float, trace: bool) -> None:
    """One fresh process resolving the 240-spec sweep on an uncached
    inline engine per round."""
    specs = inputs.sweep_specs(seed)
    spec_file = ws.path("sweep-specs.json")
    spec_file.write_text(json.dumps(specs))

    def sweep_round(stem, spans=None):
        out = ws.path(f"{stem}.json")
        proc = ws.run(_sweep_argv(spec_file, out, spans), stem)
        if not result.check(proc.code == 0, f"{stem} exited {proc.code}: "
                            f"{_last_lines(proc.stderr)}"):
            raise WorkloadError(f"{stem} failed")
        payload = json.loads(out.read_text())
        seen = {"results": payload["count"], **payload["sums"]}
        if not result.fingerprint:
            result.check(seen["results"] == len(specs),
                         f"sweep resolved {seen['results']} of {len(specs)}")
        _same_as_first(result, seen, stem)
        return proc, seen

    def measured_round():
        proc, seen = sweep_round("sweep")
        return proc, seen["sim.instructions"]

    speed = timed_rounds(ws, result, seconds, measured_round, lambda: [])
    if trace:
        spans = ws.path("spans.json")
        proc, _seen = sweep_round("sweep-traced", spans)
        result.layers = _process_layers(result, speed, proc, spans)
    check_reference(ws, result, seed, specs)


def _simulate_dump(ws: Workspace, spec_dicts) -> dict:
    """spec key -> ``RunStats.to_dict()`` from a fresh uncached engine."""
    spec_file, out = ws.path("check-specs.json"), ws.path("check.json")
    spec_file.write_text(json.dumps(spec_dicts))
    proc = ws.run(_sweep_argv(spec_file, out, extra=["--dump"]), "check")
    if proc.code != 0:
        raise WorkloadError(f"check run exited {proc.code}: "
                            f"{_last_lines(proc.stderr)}")
    return {inputs.spec_key(spec): stats for spec, stats in
            json.loads(out.read_text())["results"]}


def check_reference(ws: Workspace, result: Result, seed: int,
                    specs: list) -> None:
    """A seeded sample of the sweep must give identical statistics on
    the scalar reference pipeline."""
    sample = inputs.sweep_check_sample(seed, specs)
    dumped = _simulate_dump(
        ws, sample + [inputs.with_reference(spec) for spec in sample])
    for spec in sample:
        batched = dumped.get(inputs.spec_key(spec))
        reference = dumped.get(inputs.spec_key(inputs.with_reference(spec)))
        result.check(batched is not None and batched == reference,
                     f"reference pipeline disagrees on {spec}")


# -- serve-mixed ------------------------------------------------------------


def _wait_for(predicate, timeout: float, what: str, interval=0.005):
    deadline = time.perf_counter() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.perf_counter() > deadline:
            raise WorkloadError(f"timed out waiting for {what}")
        time.sleep(interval)


def _announced_url(proc) -> str | None:
    if proc.poll() is not None:
        raise WorkloadError(f"server exited {proc.returncode}: "
                            f"{_last_lines(proc.err_path.read_text())}")
    marker = "[service] listening on "
    for line in proc.err_path.read_text(errors="replace").splitlines():
        if line.startswith(marker):
            return line[len(marker):].strip()
    return None


def prometheus(text: str) -> dict:
    """Series (with labels) -> value from a text exposition."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            out[series] = float(value)
    return out


def histogram_quantile(series: dict, name: str, q: float) -> float:
    """Linear-interpolated quantile of a Prometheus histogram."""
    buckets = sorted(
        (float(key.split('le="')[1].rstrip('"}')), count)
        for key, count in series.items()
        if key.startswith(f"{name}_bucket{{"))
    total = series.get(f"{name}_count", 0.0)
    if not total:
        return 0.0
    rank, low, below = q * total, 0.0, 0.0
    for upper, count in buckets:
        if count >= rank:
            if upper == float("inf"):
                return low
            return low + (upper - low) * (rank - below) / (count - below)
        low, below = upper, count
    return low


def _vm_hwm_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise WorkloadError(f"no VmHWM for pid {pid}")


class Fleet:
    """One ``repro serve --backend remote`` plus one inline worker."""

    def __init__(self, ws: Workspace, seed: int, spans=None):
        from repro.service import ServiceClient

        self.ws = ws
        self.spans = spans
        launch = ([PY, HERE / "traced.py", "--spans", spans[0], "repro"]
                  if spans else [PY, "-m", "repro"])
        started = time.perf_counter()
        self.server = ws.spawn(
            [*launch, "--backend", "remote", "--seed", seed, "--cache-dir",
             ws.tempdir(), "serve", "--port", "0"], "server")
        self.url = _wait_for(lambda: _announced_url(self.server), 60,
                             "the server to listen")
        if spans:
            launch = [PY, HERE / "traced.py", "--spans", spans[1], "repro"]
        self.worker = ws.spawn(
            [*launch, "--backend", "inline", "--no-cache", "worker",
             "--url", self.url, "--max-idle", WORKER_MAX_IDLE], "worker")
        self.client = ServiceClient(self.url, timeout=10.0,
                                    poll_interval=loadgen.POLL_EVERY)
        _wait_for(self._ready, 60, "a live server and worker", 0.01)
        self.setup_s = time.perf_counter() - started

    def _ready(self) -> bool:
        if self.worker.poll() is not None:
            raise WorkloadError(f"worker exited {self.worker.returncode}")
        try:
            self.client.health()
            series = prometheus(self.client.metrics())
        except OSError:
            return False
        return series.get("repro_fleet_workers", 0) >= 1

    def peak_rss_mib(self) -> float:
        return _vm_hwm_mib(self.server.pid) + _vm_hwm_mib(self.worker.pid)

    def stop(self) -> tuple[float, float]:
        """SIGTERM-drain the server; a traced worker then runs out of
        ``--max-idle`` by itself (so it writes its spans), an untraced
        one is stopped.  Returns both reap times."""
        server_ended = self.ws.stop(self.server, grace=30.0)
        if self.spans:
            with contextlib.suppress(subprocess.TimeoutExpired):
                self.worker.wait(WORKER_MAX_IDLE + 10)
        return server_ended, self.ws.stop(self.worker)


def serve_mixed(ws: Workspace, result: Result, seed: int,
                seconds: float, trace: bool) -> None:
    """Phase A: SERVE_ROUNDS fresh fleets, each timed from spawn to ready
    and through one cold paper-grid job.  Phase B, on the last fleet: the
    open-loop mix of ``inputs.serve_plan`` for ``seconds``."""
    from repro.harness.experiments import paper_grids

    grid_specs = paper_grids(seed)
    grid = [spec.to_dict() for spec in grid_specs]
    plan = inputs.serve_plan(seed, grid, seconds)
    warm = ws.run([PY, "-c", "import repro.cli, repro.service"], "warm-up")
    result.check(warm.code == 0, f"import warm-up exited {warm.code}")
    speed = Speed(lambda: _probe(ws, result))

    def grid_job(fleet: Fleet) -> dict:
        started = time.perf_counter()
        results = fleet.client.run_many(grid_specs, timeout=60.0)
        result.samples["grid_job_s"].append(
            speed.scale(time.perf_counter() - started))
        result.check(len(results) == len(grid_specs),
                     f"paper-grid job returned {len(results)} results")
        return results

    outcomes, grid_results = [], {}
    for index in range(SERVE_ROUNDS):
        fleet = Fleet(ws, seed)
        try:
            result.check(True, "fleet set-up")
            result.samples["setup_s"].append(speed.scale(fleet.setup_s))
            grid_results = grid_job(fleet)
            if index == SERVE_ROUNDS - 1:
                outcomes = loadgen.run_open_loop(fleet.url, plan,
                                                 _service_client)
                result.samples["peak_rss_mb"].append(fleet.peak_rss_mib())
        finally:
            fleet.stop()
    jobs = _record_outcomes(result, outcomes)
    check_serve(ws, result, seed, grid, plan, outcomes,
                {inputs.spec_key(spec.to_dict()): stats
                 for spec, stats in grid_results.items()})
    result.fingerprint = {"requests": len(plan), "jobs": len(jobs),
                          "fresh_specs": sum(r.get("fresh", 0)
                                             for r in plan)}
    if trace:
        result.layers = traced_serve(ws, result, seed, plan, grid_specs)


def _service_client(url: str):
    from repro.service import ServiceClient

    return ServiceClient(url, timeout=10.0)


def _check_outcomes(result: Result, outcomes) -> None:
    """Count every request as one attempted operation."""
    for outcome in outcomes:
        request = outcome.request
        result.check(outcome.ok, f"{request['kind']} due at "
                     f"{request['due']:.3f}s: {outcome.error}")


def _record_outcomes(result: Result, outcomes) -> list:
    """Count every request; sample each finished job's latency as
    ``wall_s``, and take ``job_tail_ms`` over all jobs with a failed one
    counted as infinitely late."""
    _check_outcomes(result, outcomes)
    jobs = [o for o in outcomes if o.request["kind"] == "job"]
    result.samples["wall_s"].extend(o.latency for o in jobs if o.ok)
    found = tail([o.latency for o in jobs])
    if found is not None:
        result.samples["job_tail_ms"].append(found[1] * 1000)
    return jobs


def check_serve(ws, result, seed, grid, plan, outcomes,
                grid_results) -> None:
    """Wire results must equal an in-process engine's on a seeded grid
    sample plus every fresh spec, and queries must return what the
    paper-grid job produced."""
    sample = inputs.serve_check_sample(seed, grid, plan)
    wanted = {inputs.spec_key(spec) for spec in sample}
    seen, problems = loadgen.wire_results(outcomes, wanted)
    for problem in problems:
        result.check(False, problem)
    for key, stats in grid_results.items():
        seen.setdefault(key, stats)
    expected = _simulate_dump(ws, sample)
    for spec in sample:
        key = inputs.spec_key(spec)
        wire = seen.get(key)
        result.check(wire is not None and
                     json.loads(json.dumps(wire.to_dict())) == expected[key],
                     f"wire result differs from the engine for {spec}")
    for outcome in outcomes:
        if outcome.request["kind"] != "query" or not outcome.ok:
            continue
        benchmark = outcome.request["benchmark"]
        bad = [spec.label() for spec, stats in outcome.reply
               if spec.benchmark != benchmark or
               grid_results.get(inputs.spec_key(spec.to_dict()),
                                stats) != stats]
        result.check(not bad, f"query for {benchmark} returned {bad}")


def traced_serve(ws, result, seed, plan, grid_specs) -> dict:
    """One more fleet through ``traced.py``: paper-grid job, phase B,
    a scrape of the public metrics, then drain and collect the spans."""
    spans = (ws.path("server-spans.json"), ws.path("worker-spans.json"))
    fleet = Fleet(ws, seed, spans)
    try:
        fleet.client.run_many(grid_specs, timeout=60.0)
        outcomes = loadgen.run_open_loop(fleet.url, plan, _service_client)
        scraped = prometheus(fleet.client.metrics())
    finally:
        server_ended, worker_ended = fleet.stop()
    _check_outcomes(result, outcomes)
    jobs = [o for o in outcomes if o.request["kind"] == "job" and o.ok]
    traced_p50 = statistics.median(o.latency for o in jobs)
    processes = [(_load(spans[0]), fleet.server.spawned, server_ended),
                 (_load(spans[1]), fleet.worker.spawned, worker_ended)]
    layers = layer_metrics(
        processes, traced_p50 / statistics.median(result.samples["wall_s"])
        - 1)
    layers.update(client_metrics(outcomes))
    layers.update({
        "scheduler.resolve_ms_p50": 1000 * histogram_quantile(
            scraped, "repro_scheduler_job_latency_seconds", 0.5),
        "scheduler.batch_specs_mean":
            scraped.get("repro_scheduler_batch_size_specs_sum", 0.0)
            / max(1.0, scraped.get("repro_scheduler_batch_size_specs_count",
                                   0.0)),
        "worker.busy_s": scraped.get("repro_fleet_busy_seconds", 0.0),
        "workqueue.leases": scraped.get("repro_queue_leases_total", 0.0),
    })
    return layers


def client_metrics(outcomes) -> dict:
    """Client-side per-layer numbers of one phase B."""
    jobs = [o for o in outcomes if o.request["kind"] == "job" and o.ok]
    queries = [o for o in outcomes if o.request["kind"] == "query" and o.ok]
    misses = [o.latency for o in jobs if o.request["fresh"]]
    late = tail([o.sent - o.due for o in outcomes])
    return {
        "service.submit_ms_p50": 1000 * _median(o.submit_s for o in jobs),
        "service.poll_ms_p50": 1000 * _median(
            s for o in jobs for s in o.poll_s),
        "service.polls_per_job": sum(len(o.poll_s) for o in jobs)
        / max(1, len(jobs)),
        "service.query_ms_p50": 1000 * _median(o.submit_s for o in queries),
        "service.miss_p50_ms": 1000 * _median(misses),
        "loadgen.late_ms_tail": 1000 * late[1] if late else 0.0,
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# -- per-layer metrics ------------------------------------------------------


def _load(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def layer_metrics(processes, overhead_frac: float) -> dict:
    """Per-layer metrics from traced processes.

    ``processes`` holds ``(spans dump, spawned, reaped)`` per traced
    process.  ``cli.startup_s`` (spawn to launcher start) and
    ``cli.exit_s`` (end of the command to reap) are measured from
    outside; the unattributed share of the processes' wall time is what
    neither they nor any span on a main thread cover.
    """
    totals: dict = defaultdict(lambda: defaultdict(float))
    engines: dict = defaultdict(float)
    startup = finish = attributed = wall = 0.0
    for dump, spawned, reaped in processes:
        spans = dump["spans"]
        for name, entry in totals_by_name(spans).items():
            for key, value in entry.items():
                totals[name][key] += value
        main = [(span[3], span[4]) for span in spans
                if span[5] == dump["main_thread"]]
        ended = max((span[4] for span in spans if span[2] == "cli.main"),
                    default=reaped)
        startup += dump["started"] - spawned
        finish += reaped - ended
        attributed += (dump["started"] - spawned) + (reaped - ended) \
            + covered(main, dump["started"], ended)
        wall += reaped - spawned
        if dump["role"] != "worker":  # the server already counts those
            for key, value in dump["engines"].items():
                engines[key] += value

    def get(name, key="total"):
        return totals[name][key] if name in totals else 0.0

    lookups, builds = get("workloads.lookup", "count"), \
        get("workloads.build", "count")
    instructions = get("timing.schedule", "instructions")
    resolved = engines["memo_hits"] + engines["disk_hits"]
    layers = {
        "cli.startup_s": startup,
        "cli.import_s": get("cli.import"),
        "cli.self_s": get("cli.main", "self"),
        "cli.exit_s": finish,
        "workloads.build_s": get("workloads.build", "self"),
        "workloads.builds": builds,
        "workloads.memo_hit_ratio": 1 - builds / lookups if lookups
        else 0.0,
        "compiler.analysis_s": get("compiler.analysis"),
        "timing.decode_s": get("timing.decode"),
        "timing.prime_s": get("timing.prime"),
        "timing.schedule_s": get("timing.schedule", "self"),
        "timing.sims": get("timing.schedule", "sims"),
        "timing.grid_specs": get("timing.schedule", "grid_specs"),
        "timing.ns_per_inst": 1e9 * get("timing.schedule") / instructions
        if instructions else 0.0,
        **{f"sim.{field_name}": get("timing.schedule", field_name)
           for field_name in ("instructions", "cycles", "l2_activity",
                              "cache_words")},
        "engine.lookup_s": get("engine.lookup"),
        "engine.admit_s": get("engine.admit"),
        "engine.execute_s": get("engine.execute"),
        "engine.self_s": get("engine.run", "self")
        + get("engine.init", "self"),
        "engine.simulations": engines["simulations"],
        "engine.memo_hits": engines["memo_hits"],
        "engine.disk_hits": engines["disk_hits"],
        "engine.stores": engines["stores"],
        "engine.hit_ratio": resolved / (resolved + engines["simulations"])
        if resolved + engines["simulations"] else 0.0,
        "engine.store_kib": engines["store_bytes"] / 1024,
        "harness.self_s": get("harness.experiment", "self"),
        "server.handler_s": get("server.handler"),
        "schema.codec_s": get("schema.codec"),
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_frac": 1 - attributed / wall if wall else 0.0,
    }
    return {name: layers.get(name, 0.0) for name in PER_LAYER}


# -- entry point --------------------------------------------------------


MEASURE = {"tables-cold": tables_cold, "tables-warm": tables_warm,
           "sweep-dse": sweep_dse, "serve-mixed": serve_mixed}


def measure(workload: str, seed: int, seconds: float, trace: bool
            ) -> Result:
    """Run one workload; a step that cannot go on ends it as failed."""
    result = Result()
    ws = Workspace()
    try:
        MEASURE[workload](ws, result, seed, seconds, trace)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc(file=sys.stderr)
        result.check(False, f"{workload}: {exc!r}")
    finally:
        ws.close()
    return result


def grid_note(seed: int, pairs: int = 3) -> dict:
    """Wall time in reference seconds of one sweep-dse round
    (``Engine(grid_mode=...)`` in ``child.py``) and one cold ``repro
    tables`` round (``--grid-mode``) with the grid path on (``auto``,
    the default) and ``off``, in interleaved pairs after one warm-up of
    each."""
    ws = Workspace()
    try:
        spec_file = ws.path("sweep-specs.json")
        spec_file.write_text(json.dumps(inputs.sweep_specs(seed)))
        walls: dict = {"sweep-dse": defaultdict(list),
                       "tables-cold": defaultdict(list)}
        outputs = set()
        speed = Speed(lambda: _probe(ws, Result()))
        for index in range(pairs + 1):
            modes = ("auto", "off") if index % 2 else ("off", "auto")
            for mode in modes:
                sweep = ws.run(_sweep_argv(spec_file, ws.path("out.json"),
                                           extra=["--grid-mode", mode]),
                               "sweep")
                sweep_s = speed.scale(sweep.wall)
                tables = ws.run(
                    _tables_argv(seed, ws.tempdir(),
                                 extra=["--grid-mode", mode]), "tables")
                tables_s = speed.scale(tables.wall)
                if sweep.code or tables.code:
                    raise WorkloadError(f"grid-mode {mode} run failed")
                outputs.add(_sha256(tables.stdout))
                if index:
                    walls["sweep-dse"][mode].append(sweep_s)
                    walls["tables-cold"][mode].append(tables_s)
        return {"seed": seed, "pairs": pairs,
                "tables_stdout_identical": len(outputs) == 1,
                "wall_s": {workload: {mode: {"median": statistics.median(v),
                                             "samples": v}
                                      for mode, v in by_mode.items()}
                           for workload, by_mode in walls.items()}}
    finally:
        ws.close()


def _row(name: str, unit: str, summary: dict) -> str:
    quartiles = f"{summary['q1']:.4g}..{summary['q3']:.4g}"
    extra = (f"  tail p{summary['tail_pct']:.1f}={summary['tail']:.4g}"
             if summary.get("tail_pct", 0) >= 50 else "")
    return (f"  {name:22s} {summary['median']:>12.5g} {unit:8s} "
            f"q1..q3 {quartiles:22s} n={summary['n']}{extra}")


def report(workload: str, result: Result) -> dict:
    """Print one workload's metrics; return its results.json entry."""
    metrics = result.metrics()
    print(f"== {workload}: correct={result.correct} "
          f"attempted={result.attempted} failed={len(result.failures)}")
    for name, summary in metrics.items():
        print(_row(name, summary["unit"], summary))
    probe = summarize(result.samples["probe_s"]) \
        if result.samples.get("probe_s") else None
    if probe:
        print(_row("(probe host time)", "s", probe))
    if "job_tail_ms" in metrics:
        verdict = ("meets" if metrics["job_tail_ms"]["median"]
                   <= LATENCY_LIMIT_MS else "MISSES")
        print(f"  job tail {verdict} the {LATENCY_LIMIT_MS:.0f} ms limit")
    for name, value in (result.layers or {}).items():
        print(f"  {name:30s} {value:>14.6g} {PER_LAYER[name][0]}")
    for failure in result.failures[:20]:
        print(f"  FAILED: {failure}")
    return {"correct": result.correct, "attempted": result.attempted,
            "failed": len(result.failures), "metrics": metrics,
            "probe_s": probe,
            "fingerprint": result.fingerprint, "layers": result.layers,
            "failures": result.failures}


def contract_line(result: Result, trace: bool) -> dict:
    """The one-line JSON result of a single-workload run."""
    if trace:
        metrics = {name: {"value": (result.layers or {}).get(name, 0.0),
                          "unit": PER_LAYER[name][0]}
                   for name in PER_LAYER}
    else:
        metrics = {name: {"value": statistics.median(result.samples[name]),
                          "unit": END_TO_END[name][0]}
                   for name in CONTRACT if result.samples.get(name)}
    return {"correct": result.correct, "attempted": result.attempted,
            "failed": len(result.failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured seconds per workload (default 20)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run the traced round and report the "
                             "per-layer metrics")
    parser.add_argument("--out", default=None,
                        help="write every metric as JSON here")
    parser.add_argument("--grid-note", action="store_true",
                        help="time the grid path on vs off instead")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run this "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.grid_note:
        note = grid_note(args.seed)
        print(json.dumps(note, indent=2))
        if args.out:
            Path(args.out).write_text(json.dumps(note, indent=2) + "\n")
        return 0
    if args.workload is not None:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
        for failure in result.failures:
            print(f"FAILED: {failure}", file=sys.stderr)
        print(json.dumps(contract_line(result, bool(args.trace))))
        return 0 if result.correct else 1
    payload = {"seed": args.seed, "seconds": args.seconds,
               "trace": bool(args.trace), "nproc": os.cpu_count(),
               "python": sys.version.split()[0], "workloads": {}}
    for workload in WORKLOADS:
        result = measure(workload, args.seed, args.seconds,
                         bool(args.trace))
        payload["workloads"][workload] = report(workload, result)
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    correct = all(entry["correct"]
                  for entry in payload["workloads"].values())
    print(f"all outputs correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
