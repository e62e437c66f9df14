"""Deterministic, seedable fault injection for chaos testing.

Production hardening is only believable when the failure modes it
claims to survive are *reproducible*: a worker SIGKILLed mid-shard, a
store write torn halfway through a frame, a completion dropped or
duplicated by a flaky network.  This module turns those scenarios into
data — a :class:`FaultPlan` is a set of rules saying *which* seam
misbehaves, *how*, and on *which hit* — so a chaos scenario is an
ordinary pytest case (construct a plan, inject it, assert the fleet
converges) and the ``chaos-smoke`` CI job is a one-line environment
variable rather than a hand-rolled harness.

Four seams consult a plan (all optional, all default to the process
plan parsed from ``REPRO_FAULTS``):

* **transport** — :class:`~repro.service.client.ServiceClient` fires
  ``transport.lease`` / ``transport.complete`` / ``transport.request``
  before each HTTP call: ``drop`` raises :class:`InjectedFault` (an
  ``OSError``, so retry paths treat it like a real network failure),
  ``dup`` issues the request twice (duplicated completion), ``delay``
  sleeps a jittered ``arg`` seconds (slow-network jitter).
* **lease** — :class:`~repro.engine.backends.workqueue.WorkQueue`
  fires ``lease.grant`` when granting: ``drop`` pretends the queue is
  idle, ``expire`` issues the lease pre-expired so it is immediately
  re-leasable (forcing the TTL re-lease race).
* **store-write** — :class:`~repro.engine.store.SegmentStore` fires
  ``store.write`` per frame: ``torn`` writes a truncated frame then
  raises, ``error`` raises before writing anything.
* **worker-simulate** — :class:`~repro.service.worker.ServiceWorker`
  fires ``worker.simulate`` before simulating a leased shard:
  ``crash`` raises (exercising the crash guard), ``sigkill`` kills
  the worker process outright (its lease expires back into the
  queue for another worker).

Rule syntax (also accepted by ``REPRO_FAULTS``)::

    site:action[@N[,M...]][%prob][*arg][;more rules]

``@N`` fires on the N-th hit of that site (1-based, exact); ``%p``
fires each hit with probability ``p`` from a per-site RNG seeded by
``(seed, site)`` — deterministic across runs and independent across
sites; ``*x`` attaches a numeric argument (seconds for ``delay``).
Examples::

    worker.simulate:sigkill@2          # die on the 2nd leased shard
    store.write:torn@1                 # first frame write is torn
    transport.complete:dup%0.5         # half of completions duplicated
    transport.request:delay*0.05%0.3   # 30% of requests +50ms jitter

Plans are cheap, thread-safe and immutable once built; ``fire`` is a
dict lookup plus a counter bump on the hot path and returns ``None``
for sites with no rules.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass, field

from repro.errors import ReproError


#: Seams that consult a plan, with the actions each one understands.
FAULT_SITES = {
    "transport.lease": ("drop", "dup", "delay"),
    "transport.complete": ("drop", "dup", "delay"),
    "transport.request": ("drop", "dup", "delay"),
    "lease.grant": ("drop", "expire"),
    "store.write": ("torn", "error"),
    "worker.simulate": ("crash", "sigkill", "delay"),
}

#: Environment variables the process-wide plan is parsed from.
ENV_PLAN = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULTS_SEED"


class FaultSpecError(ReproError):
    """A fault-rule string failed to parse."""


class InjectedFault(OSError):
    """An injected failure.

    Subclasses ``OSError`` deliberately: every seam that injects one
    already handles real I/O errors on the same path, so injected
    faults exercise *production* recovery code, not test-only
    branches.
    """

    def __init__(self, site: str, action: str):
        self.site = site
        self.action = action
        super().__init__(f"injected fault: {site}:{action}")


@dataclass(frozen=True)
class FaultRule:
    """One seam misbehaving: ``site`` does ``action`` on chosen hits."""

    site: str
    action: str
    #: exact 1-based hit indices to fire on (empty -> use ``prob``)
    hits: tuple[int, ...] = ()
    #: per-hit firing probability when ``hits`` is empty (0 disables)
    prob: float = 0.0
    #: numeric argument (e.g. delay seconds)
    arg: float = 0.0

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise FaultSpecError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{sorted(FAULT_SITES)}")
        if self.action not in FAULT_SITES[self.site]:
            raise FaultSpecError(
                f"site {self.site!r} does not support action "
                f"{self.action!r}; expected one of "
                f"{FAULT_SITES[self.site]}")
        if not self.hits and not self.prob:
            raise FaultSpecError(
                f"rule {self.site}:{self.action} never fires "
                "(no @hits and no %probability)")
        if not 0.0 <= self.prob <= 1.0:
            raise FaultSpecError(
                f"probability {self.prob} outside [0, 1]")
        if any(h < 1 for h in self.hits):
            raise FaultSpecError(f"hit indices are 1-based: {self.hits}")

    def to_string(self) -> str:
        """Round-trippable rule string (the ``REPRO_FAULTS`` syntax)."""
        text = f"{self.site}:{self.action}"
        if self.hits:
            text += "@" + ",".join(str(h) for h in sorted(self.hits))
        if self.prob:
            text += f"%{self.prob}"
        if self.arg:
            text += f"*{self.arg}"
        return text


def _parse_rule(text: str) -> FaultRule:
    head, sep, rest = text.partition(":")
    if not sep:
        raise FaultSpecError(
            f"bad fault rule {text!r}: expected site:action[...]")
    site = head.strip()
    action = rest.strip()
    hits: tuple[int, ...] = ()
    prob = 0.0
    arg = 0.0
    # peel suffixes right-to-left by position; each marker at most once
    while True:
        cut = max(action.rfind(m) for m in "@%*")
        if cut < 0:
            break
        marker, value = action[cut], action[cut + 1:].strip()
        action = action[:cut]
        try:
            if marker == "@":
                hits = tuple(int(v) for v in value.split(","))
            elif marker == "%":
                prob = float(value)
            else:
                arg = float(value)
        except ValueError:
            raise FaultSpecError(
                f"bad {marker!r} value {value!r} in fault rule "
                f"{text!r}") from None
    return FaultRule(site=site, action=action.strip(), hits=hits,
                     prob=prob, arg=arg)


@dataclass
class FaultPlan:
    """A seeded, immutable set of fault rules with per-site hit state.

    ``fire(site)`` counts the hit and returns the first matching rule
    (or ``None``).  Hit counters and per-site RNGs are internal state,
    so two plans built from the same rules + seed produce identical
    firing sequences — the determinism the chaos CI job relies on.
    """

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0
    _counts: dict = field(default_factory=dict, repr=False)
    _rngs: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def __post_init__(self):
        self.rules = tuple(self.rules)
        self._by_site: dict[str, list[FaultRule]] = {}
        for rule in self.rules:
            self._by_site.setdefault(rule.site, []).append(rule)

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from the ``;``-separated rule syntax."""
        rules = tuple(_parse_rule(part.strip())
                      for part in text.split(";") if part.strip())
        return cls(rules=rules, seed=seed)

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan":
        """The plan described by ``REPRO_FAULTS`` (empty when unset)."""
        env = os.environ if environ is None else environ
        text = env.get(ENV_PLAN, "")
        try:
            seed = int(env.get(ENV_SEED, "0"))
        except ValueError:
            raise FaultSpecError(
                f"bad {ENV_SEED}={env.get(ENV_SEED)!r}: expected an "
                "integer") from None
        return cls.parse(text, seed=seed)

    def to_string(self) -> str:
        """Round-trippable ``REPRO_FAULTS`` value for subprocesses."""
        return ";".join(rule.to_string() for rule in self.rules)

    def fire(self, site: str) -> FaultRule | None:
        """Count one hit at ``site``; return the rule to apply, if any."""
        rules = self._by_site.get(site)
        if rules is None:  # fast path: site has no rules at all
            if site not in FAULT_SITES:
                raise FaultSpecError(f"unknown fault site {site!r}")
            return None
        with self._lock:
            count = self._counts.get(site, 0) + 1
            self._counts[site] = count
            for rule in rules:
                if rule.hits:
                    if count in rule.hits:
                        return rule
                elif rule.prob:
                    rng = self._rngs.get(site)
                    if rng is None:
                        # seeded per (plan seed, site): deterministic
                        # across runs, independent across sites
                        rng = random.Random(f"{self.seed}:{site}")
                        self._rngs[site] = rng
                    if rng.random() < rule.prob:
                        return rule
        return None

    def counts(self) -> dict[str, int]:
        """Hits observed per site (observability for tests/smoke)."""
        with self._lock:
            return dict(self._counts)

    def __bool__(self) -> bool:
        return bool(self.rules)


#: Shared do-nothing plan: the default when no ``REPRO_FAULTS`` is set.
NO_FAULTS = FaultPlan()

_process_plan: FaultPlan | None = None
_process_lock = threading.Lock()


def process_plan() -> FaultPlan:
    """The process-wide plan parsed once from ``REPRO_FAULTS``.

    This is how the chaos-smoke job reaches seams inside ``repro
    serve`` / ``repro worker`` subprocesses it cannot hand an object
    to.  Returns :data:`NO_FAULTS` when the variable is unset.
    """
    global _process_plan
    with _process_lock:
        if _process_plan is None:
            plan = FaultPlan.from_env()
            _process_plan = plan if plan else NO_FAULTS
        return _process_plan


def resolve_plan(plan: FaultPlan | None) -> FaultPlan:
    """The plan a seam should consult: explicit, else process-wide."""
    return plan if plan is not None else process_plan()


__all__ = [
    "ENV_PLAN", "ENV_SEED", "FAULT_SITES", "FaultPlan", "FaultRule",
    "FaultSpecError", "InjectedFault", "NO_FAULTS", "process_plan",
    "resolve_plan",
]
