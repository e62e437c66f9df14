"""CI chaos smoke: the fig3 grid through a fleet under injected faults.

Stands up the full production topology itself —

* ``repro serve --backend remote`` with ``store.write:torn@1`` in its
  environment (the server's first result-cache segment write is torn
  mid-frame: the cache must degrade to memo-only and keep serving);
* one ``repro worker`` started with ``worker.simulate:sigkill@1``
  (it is SIGKILLed mid-shard on its first lease and must exit by that
  signal; the orphaned lease must expire back into the queue);
* one healthy ``repro worker``, started once the first has died, that
  actually lands the grid —

then asserts what resilience promises:

* the fig3 results coming back over the wire are **byte-identical** to
  an in-process ``Engine.run_many`` (chaos may cost latency, never
  correctness);
* zero lost or duplicated shards (``completed_specs`` == grid size,
  ``duplicate_completions`` == 0, nothing left pending or leased) and
  at least one TTL re-lease (``releases >= 1``);
* the torn write shows up as ``repro_degraded_cache_writes_total >= 1``
  with the service still answering;
* ``SIGTERM`` drains the server cleanly: exit code 0 within the grace
  window.

Usage::

    python scripts/chaos_smoke.py --port 8742 --out chaos.json
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine import Engine  # noqa: E402
from repro.harness.experiments import fig3_sweep  # noqa: E402
from repro.service import ServiceClient, ServiceError  # noqa: E402

FAULT_SEED = "7"
SERVER_FAULTS = "store.write:torn@1"
WORKER_FAULTS = "worker.simulate:sigkill@1"


def _clean_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_FAULTS_SEED", None)
    return env


def _spawn(cmd, env, log_path):
    log = open(log_path, "w")
    return subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                            stdout=log, stderr=subprocess.STDOUT)


def _wait_health(client: ServiceClient, deadline: float) -> None:
    while True:
        try:
            client.health()
            return
        except (ServiceError, OSError):
            if time.monotonic() > deadline:
                raise
            time.sleep(0.2)


def _scrape(client: ServiceClient) -> dict:
    out = {}
    for line in client.metrics().splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        out[name] = float(value)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=8742)
    parser.add_argument("--out", default=None)
    parser.add_argument("--timeout", type=float, default=240.0,
                        help="overall budget for the chaotic cold grid")
    args = parser.parse_args(argv)

    url = f"http://127.0.0.1:{args.port}"
    python = sys.executable
    base = _clean_env()
    base.setdefault("PYTHONPATH", "src")
    root = Path.cwd()
    caches = {name: root / f".chaos-cache-{name}"
              for name in ("server", "doomed", "healthy")}

    server_env = dict(base, REPRO_FAULTS=SERVER_FAULTS,
                      REPRO_FAULTS_SEED=FAULT_SEED)
    doomed_env = dict(base, REPRO_FAULTS=WORKER_FAULTS,
                      REPRO_FAULTS_SEED=FAULT_SEED)

    procs = {}
    try:
        procs["server"] = _spawn(
            [python, "-m", "repro", "serve", "--port", str(args.port),
             "--backend", "remote", "--lease-ttl", "3",
             "--drain-grace", "20",
             "--cache-dir", str(caches["server"])],
            server_env, "chaos-serve.log")
        client = ServiceClient(url)
        _wait_health(client, time.monotonic() + 30)

        specs = fig3_sweep().specs()
        unique = list(dict.fromkeys(specs))
        print(f"[chaos] submitting the fig3 grid "
              f"({len(unique)} specs) into the storm")
        job = client.submit(specs)

        # with only the doomed worker attached, its first lease is
        # guaranteed to meet the SIGKILL
        procs["doomed"] = _spawn(
            [python, "-m", "repro", "worker", "--url", url,
             "--id", "chaos-doomed",
             "--cache-dir", str(caches["doomed"])],
            doomed_env, "chaos-doomed.log")
        code = procs["doomed"].wait(timeout=60)
        assert code == -signal.SIGKILL, (
            f"doomed worker exited {code}, wanted SIGKILL "
            f"({-signal.SIGKILL})")
        print("[chaos] worker SIGKILLed mid-shard")

        # now the healthy worker that actually lands the grid once
        # the doomed worker's lease expires back into the queue
        procs["worker"] = _spawn(
            [python, "-m", "repro", "worker", "--url", url,
             "--id", "chaos-healthy",
             "--cache-dir", str(caches["healthy"])],
            base, "chaos-worker.log")

        done = client.wait(job.job_id, timeout=args.timeout)
        remote = done.stats_by_spec()

        # correctness first: chaos may cost latency, never answers
        local = Engine(use_cache=False, jobs=2).run_many(specs)
        mismatched = [spec.label() for spec in unique
                      if remote[spec].to_dict() != local[spec].to_dict()]
        assert not mismatched, \
            f"chaos changed results: {mismatched}"
        print(f"[chaos] all {len(unique)} results byte-identical to "
              f"in-process Engine.run_many")

        # zero lost shards: everything completed exactly once
        stats = client.stats()
        backend = stats["backend"]
        assert backend["completed_specs"] == len(unique), backend
        assert backend["duplicate_completions"] == 0, backend
        assert backend["pending_shards"] == 0, backend
        assert backend["leased_shards"] == 0, backend
        assert backend["releases"] >= 1, (
            f"the SIGKILLed worker's lease should have expired back "
            f"into the queue: {backend}")
        print(f"[chaos] queue reconciled: {backend['completions']} "
              f"completions, {backend['releases']} TTL re-leases, "
              f"0 duplicates, 0 lost")

        series = _scrape(client)
        for name in ("repro_degraded_cache_writes_total",
                     "repro_degraded_cache"):
            assert name in series, f"/v1/metrics is missing {name}"
        # the torn segment write degraded the server cache to
        # memo-only — counted, not fatal
        assert series["repro_degraded_cache_writes_total"] >= 1, series
        assert series["repro_degraded_cache"] == 1.0, series
        print("[chaos] torn store write degraded the cache to "
              "memo-only and the service kept answering")

        if args.out:
            payload = {spec.digest(): remote[spec].to_dict()
                       for spec in unique}
            Path(args.out).write_text(
                json.dumps(payload, sort_keys=True, indent=1) + "\n")
            print(f"[chaos] wrote {args.out}")

        # graceful drain: SIGTERM must refuse new work, flush, exit 0
        procs["server"].send_signal(signal.SIGTERM)
        code = procs["server"].wait(timeout=40)
        assert code == 0, f"server drain exited {code}, wanted 0"
        print("[chaos] SIGTERM drain: server exited 0")
        return 0
    finally:
        for name, proc in procs.items():
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
        for log in ("chaos-serve.log", "chaos-doomed.log",
                    "chaos-worker.log"):
            if Path(log).exists():
                print(f"--- {log} ---")
                print(Path(log).read_text())


if __name__ == "__main__":
    sys.exit(main())
