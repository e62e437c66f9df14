"""Autoscale supervisor for a ``repro worker`` fleet.

:class:`AutoscaleSupervisor` (the ``repro autoscale`` subcommand)
closes the loop the remote backend leaves open: the server's lease
queue publishes demand — ``pending_shards`` depth and
``oldest_lease_age`` on ``GET /v1/stats`` — and the supervisor steers a
fleet of ``repro worker`` subprocesses toward it:

* **scale up** one worker per sweep while the backlog exceeds
  ``high_water`` pending shards per live worker (or any backlog exists
  with no workers at all), up to ``max_workers``;
* **scale down** one worker per sweep only after ``idle_sweeps``
  consecutive sweeps with an empty queue (hysteresis — a momentary lull
  never thrashes the fleet), down to ``min_workers``;
* both directions honor a ``cooldown`` between scaling actions;
* **restart** any worker whose process exits without being asked to,
  under a per-slot capped exponential backoff (a worker crashing in a
  tight loop cannot fork-bomb the host);
* a ``oldest_lease_age`` stuck past ``stale_lease_age`` while backlog
  remains counts as demand too — the classic signature of a worker
  that died holding a shard (its lease must expire into a re-lease,
  and a fresh worker should be there to take it).

Every sweep pushes a cumulative self-report to
``POST /v1/supervisor/report`` so the server's ``repro_supervisor_*``
gauges expose the control loop on ``/v1/metrics``; the reply also
carries the server's ``draining`` flag, which the supervisor treats as
its own shutdown signal (drain the fleet, exit cleanly).

Workers are spawned through an injectable ``worker_factory`` —
subprocesses in production, fake handles in the fake-clock tests (see
``tests/test_supervisor.py``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass

from repro.service.client import ServiceClient, ServiceError


@dataclass
class SupervisorStats:
    """What the control loop did (mirrored in its report payload)."""

    #: control-loop sweeps executed
    sweeps: int = 0
    #: workers spawned, scale-ups and restarts together
    spawned: int = 0
    #: crashed workers restarted
    restarts: int = 0
    #: workers retired on scale-down
    retired: int = 0
    #: scale-up decisions taken
    scale_ups: int = 0
    #: scale-down decisions taken
    scale_downs: int = 0
    #: stats polls that failed (server restarting or unreachable)
    poll_errors: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


class _Slot:
    """One managed worker: its process handle and restart backoff."""

    __slots__ = ("handle", "index", "spawned_at", "backoff",
                 "next_restart", "retiring")

    def __init__(self, handle, index: int, now: float):
        self.handle = handle
        self.index = index
        self.spawned_at = now
        self.backoff = 0.0  # 0 = healthy, no restart pending
        self.next_restart = 0.0
        self.retiring = False


def _spawn_worker_process(url: str, index: int,
                          extra_args: tuple = ()):  # pragma: no cover
    """Default factory: one ``repro worker`` subprocess."""
    cmd = [sys.executable, "-m", "repro", "worker", "--url", url,
           "--id", f"auto-{os.getpid()}-{index}", *extra_args]
    return subprocess.Popen(cmd, stdin=subprocess.DEVNULL)


class AutoscaleSupervisor:
    """Steer a worker fleet from the server's queue-depth signals.

    ``worker_factory(url, index)`` returns a process-like handle with
    ``poll()`` (None while alive, else exit code), ``terminate()``,
    ``kill()`` and ``wait(timeout)``; ``clock`` is injectable so the
    hysteresis, cooldown and backoff logic is testable without real
    time.  ``stats_fn`` overrides how queue counters are fetched
    (default: ``GET /v1/stats`` through a :class:`ServiceClient`).
    """

    def __init__(self, url: str, *,
                 min_workers: int = 1, max_workers: int = 4,
                 high_water: int = 4, idle_sweeps: int = 3,
                 cooldown: float = 10.0, sweep_interval: float = 2.0,
                 stale_lease_age: float = 60.0,
                 restart_backoff: float = 1.0,
                 restart_backoff_max: float = 30.0,
                 worker_factory=None, stats_fn=None,
                 clock=time.monotonic,
                 worker_args: tuple = ()):
        if min_workers < 0:
            raise ValueError(
                f"min_workers cannot be negative, got {min_workers}")
        if max_workers < max(1, min_workers):
            raise ValueError(
                f"max_workers ({max_workers}) must be >= "
                f"min_workers ({min_workers}) and >= 1")
        if restart_backoff <= 0 or restart_backoff_max < restart_backoff:
            raise ValueError("restart backoff bounds must be positive "
                             "and ordered")
        self.url = url
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.high_water = max(1, high_water)
        self.idle_sweeps = max(1, idle_sweeps)
        self.cooldown = cooldown
        self.sweep_interval = sweep_interval
        self.stale_lease_age = stale_lease_age
        self.restart_backoff = restart_backoff
        self.restart_backoff_max = restart_backoff_max
        self.client = ServiceClient(url)
        self._factory = (worker_factory if worker_factory is not None
                         else lambda u, i: _spawn_worker_process(
                             u, i, worker_args))
        self._stats_fn = (stats_fn if stats_fn is not None
                          else self.client.stats)
        self._clock = clock
        self.stats = SupervisorStats()
        self.slots: list[_Slot] = []
        self._next_index = 0
        self._idle_streak = 0
        self._last_scale = float("-inf")
        self._stop = threading.Event()
        self.draining = False

    # -- fleet primitives --------------------------------------------------

    def live_workers(self) -> int:
        return sum(1 for slot in self.slots
                   if slot.handle is not None
                   and slot.handle.poll() is None)

    def _spawn(self, now: float, *, restart_of: _Slot | None = None
               ) -> None:
        index = self._next_index
        self._next_index += 1
        handle = self._factory(self.url, index)
        if restart_of is not None:
            restart_of.handle = handle
            restart_of.index = index
            restart_of.spawned_at = now
            self.stats.restarts += 1
        else:
            self.slots.append(_Slot(handle, index, now))
        self.stats.spawned += 1

    def _retire(self) -> None:
        """Scale down: terminate the youngest live worker."""
        for slot in reversed(self.slots):
            if slot.handle is not None and slot.handle.poll() is None:
                slot.retiring = True
                slot.handle.terminate()
                self.slots.remove(slot)
                self.stats.retired += 1
                return

    def _reap_and_restart(self, now: float) -> None:
        """Restart crashed workers under per-slot capped backoff."""
        for slot in self.slots:
            if slot.handle is None or slot.handle.poll() is None:
                continue
            # the process exited without being retired: a crash (or a
            # SIGKILL mid-shard — the chaos harness's favourite)
            if slot.backoff <= 0:
                code = slot.handle.poll()
                print(f"[autoscale] worker {slot.index} exited "
                      f"(code {code}); restarting",
                      file=sys.stderr, flush=True)
                slot.backoff = self.restart_backoff
                slot.next_restart = now  # first restart is immediate
            if now >= slot.next_restart:
                self._spawn(now, restart_of=slot)
                slot.next_restart = now + slot.backoff
                slot.backoff = min(self.restart_backoff_max,
                                   slot.backoff * 2)

    # -- the control loop --------------------------------------------------

    def _demand(self, counters: dict, live: int) -> bool:
        """True when the queue asks for more capacity than we run."""
        pending = int(counters.get("pending_shards", 0) or 0)
        oldest = float(counters.get("oldest_lease_age", 0.0) or 0.0)
        if pending > 0 and live == 0:
            return True
        if live > 0 and pending > self.high_water * live:
            return True
        # backlog plus a lease stuck past the stale horizon: a worker
        # died holding a shard; be ready for the re-lease
        return pending > 0 and oldest > self.stale_lease_age

    def sweep(self) -> None:
        """One control iteration: reap, read demand, scale, report."""
        now = self._clock()
        self.stats.sweeps += 1
        self._reap_and_restart(now)
        counters: dict = {}
        try:
            payload = self._stats_fn()
            counters = payload.get("backend", {})
            if payload.get("draining"):
                self.draining = True
        except (ServiceError, OSError, ValueError):
            self.stats.poll_errors += 1
        live = self.live_workers()
        if counters and not self.draining:
            pending = int(counters.get("pending_shards", 0) or 0)
            leased = int(counters.get("leased_shards", 0) or 0)
            self._idle_streak = (self._idle_streak + 1
                                 if pending == 0 and leased == 0
                                 else 0)
            in_cooldown = now - self._last_scale < self.cooldown
            # crashed slots awaiting their restart backoff still count
            # toward the floor — floor repair must not become a way to
            # respawn a crash-looping worker every sweep
            covered = live + sum(
                1 for slot in self.slots
                if slot.handle is not None
                and slot.handle.poll() is not None)
            if covered < self.min_workers:
                # floor repair ignores cooldown: min_workers is a
                # promise, not a preference
                self._spawn(now)
                self.stats.scale_ups += 1
                self._last_scale = now
            elif not in_cooldown and live < self.max_workers and \
                    self._demand(counters, live):
                self._spawn(now)
                self.stats.scale_ups += 1
                self._idle_streak = 0
                self._last_scale = now
            elif not in_cooldown and live > self.min_workers and \
                    self._idle_streak >= self.idle_sweeps:
                self._retire()
                self.stats.scale_downs += 1
                self._idle_streak = 0
                self._last_scale = now
        self._report()

    def _report(self) -> None:
        """Push this sweep's cumulative counters to the server."""
        report = {**self.stats.to_dict(),
                  "workers": self.live_workers(),
                  "target": self._target_hint(),
                  "pid": os.getpid()}
        try:
            reply = self.client.supervisor_report(report)
            if reply.get("draining"):
                self.draining = True
        except (ServiceError, OSError, ValueError):
            self.stats.poll_errors += 1

    def _target_hint(self) -> int:
        """The size the loop is steering toward (for dashboards)."""
        return max(self.min_workers,
                   min(self.max_workers, len(self.slots)))

    def run(self) -> SupervisorStats:
        """Sweep until stopped (or the server begins draining)."""
        try:
            while not self._stop.is_set():
                self.sweep()
                if self.draining:
                    break
                if self._wait(self.sweep_interval):
                    break
        finally:
            self.shutdown()
        return self.stats

    def stop(self) -> None:
        """Ask the loop to exit after its current sweep."""
        self._stop.set()

    def shutdown(self, grace: float = 10.0) -> None:
        """Terminate the fleet: TERM, wait ``grace``, then KILL."""
        for slot in self.slots:
            if slot.handle is not None and slot.handle.poll() is None:
                slot.handle.terminate()
        deadline = time.monotonic() + grace
        for slot in self.slots:
            if slot.handle is None:
                continue
            remaining = max(0.0, deadline - time.monotonic())
            try:
                slot.handle.wait(remaining)
            except Exception:  # noqa: BLE001 - best-effort teardown
                slot.handle.kill()
        self.slots.clear()

    def _wait(self, pause: float) -> bool:
        """Interruptible sleep; True when stop() was requested.

        Isolated so fake-clock tests can substitute a virtual wait.
        """
        return self._stop.wait(pause)


def autoscale(url: str, announce=None, **kwargs) -> SupervisorStats:
    """Blocking entry point (the ``repro autoscale`` subcommand)."""
    supervisor = AutoscaleSupervisor(url, **kwargs)
    if announce is not None:
        announce(url)
    try:
        return supervisor.run()
    except KeyboardInterrupt:
        supervisor.shutdown()
        return supervisor.stats
    finally:
        supervisor.client.close()
