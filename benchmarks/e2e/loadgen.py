"""Open-loop client for the serve-mixed workload.

One process, two threads, at most two connections: a *submitter* sends
each planned request when it falls due, never waiting on earlier
replies, and a *poller* polls each running job no more than every
``POLL_EVERY`` seconds until it resolves.  A job's latency runs from its
due time to the reply that shows it done, so a stall that delays later
sends is charged to those requests too.  A job that fails, is refused
or is still unresolved ``JOB_TIMEOUT`` seconds after it was due counts
as failed.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from inputs import spec_key

#: poll resolution per running job (seconds)
POLL_EVERY = 0.005
#: a job unresolved this long after its due time has failed
JOB_TIMEOUT = 10.0
#: rows a results query asks for
QUERY_LIMIT = 50


@dataclass
class Outcome:
    """What happened to one planned request (times are perf_counter)."""

    request: dict
    due: float
    sent: float = 0.0
    done: float | None = None
    error: str | None = None
    job_id: str | None = None
    #: seconds spent in the submit call and in each poll call
    submit_s: float = 0.0
    poll_s: list = field(default_factory=list)
    #: JobResult of a finished job, rows of a finished query
    reply: object = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.done is not None

    @property
    def latency(self) -> float:
        """Due-to-done seconds; infinite for a failed request."""
        return self.done - self.due if self.ok else float("inf")


def run_open_loop(url: str, plan: list[dict], client_factory,
                  clock=time.perf_counter, sleep=time.sleep
                  ) -> list[Outcome]:
    """Drive ``plan`` (see ``inputs.serve_plan``) against ``url``.

    ``client_factory(url)`` builds one ``ServiceClient`` per thread.
    Returns one :class:`Outcome` per planned request, in plan order.
    """
    from repro.engine import RunSpec
    from repro.service import ServiceError

    start = clock() + 0.05
    outcomes = [Outcome(request, start + request["due"])
                for request in plan]
    handoff: deque = deque()
    submitted = threading.Event()

    def submit_all() -> None:
        client = client_factory(url)
        try:
            for outcome in outcomes:
                wait = outcome.due - clock()
                if wait > 0:
                    sleep(wait)
                outcome.sent = clock()
                request = outcome.request
                try:
                    if request["kind"] == "query":
                        reply = client.query_results(
                            benchmark=request["benchmark"],
                            limit=QUERY_LIMIT)
                        outcome.submit_s = clock() - outcome.sent
                        outcome.reply, outcome.done = reply.results, clock()
                        continue
                    job = client.submit([RunSpec.from_dict(spec)
                                         for spec in request["specs"]])
                except (ServiceError, OSError) as exc:
                    outcome.error = f"{type(exc).__name__}: {exc}"
                    continue
                outcome.submit_s = clock() - outcome.sent
                outcome.job_id = job.job_id
                if job.status == "done":
                    outcome.reply, outcome.done = job, clock()
                elif job.status == "running":
                    handoff.append(outcome)
                else:
                    outcome.error = f"job {job.status}: {job.error}"
        finally:
            submitted.set()

    def poll_all() -> None:
        client = client_factory(url)
        running: dict[int, tuple[Outcome, float]] = {}
        while not (submitted.is_set() and not handoff and not running):
            while handoff:
                outcome = handoff.popleft()
                running[id(outcome)] = (outcome, outcome.sent)
            now = clock()
            due_next = now + POLL_EVERY
            for key, (outcome, last) in list(running.items()):
                if now - outcome.due > JOB_TIMEOUT:
                    outcome.error = "timed out"
                    del running[key]
                    continue
                if now < last + POLL_EVERY:
                    due_next = min(due_next, last + POLL_EVERY)
                    continue
                polled = clock()
                try:
                    job = client.poll(outcome.job_id)
                except (ServiceError, OSError) as exc:
                    outcome.error = f"{type(exc).__name__}: {exc}"
                    del running[key]
                    continue
                now = clock()
                outcome.poll_s.append(now - polled)
                if job.status == "running":
                    running[key] = (outcome, polled)
                    due_next = min(due_next, polled + POLL_EVERY)
                    continue
                del running[key]
                if job.status == "done":
                    outcome.reply, outcome.done = job, now
                else:
                    outcome.error = f"job {job.status}: {job.error}"
            wait = due_next - clock()
            if wait > 0:
                sleep(min(wait, POLL_EVERY))

    threads = [threading.Thread(target=submit_all, name="e2e-submit"),
               threading.Thread(target=poll_all, name="e2e-poll")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def wire_results(outcomes, wanted) -> tuple[dict, list[str]]:
    """First wire result per wanted spec key, plus every disagreement
    between later copies of the same spec."""
    seen: dict = {}
    problems: list[str] = []
    for outcome in outcomes:
        if outcome.request["kind"] != "job" or not outcome.ok:
            continue
        for spec, stats in outcome.reply.stats_by_spec().items():
            key = spec_key(spec.to_dict())
            if key not in wanted:
                continue
            first = seen.setdefault(key, stats)
            if first != stats:
                problems.append(f"{spec.label()}: two wire results differ")
    return seen, problems
