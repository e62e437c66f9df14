"""Chaos harness: FaultPlan semantics and the production seams.

The plan itself must be deterministic (same rules + seed -> same
firing sequence) or the chaos-smoke job could never assert anything;
the seam tests then drive each injection point through the *production*
recovery path it claims to exercise: the lease queue, the segment
store's torn-write recovery, the client transport, and the worker
loop's crash guard.
"""

import pytest

from repro.engine import Engine, RunSpec, WorkQueue
from repro.engine.store import SegmentStore
from repro.service import ServiceWorker, WorkLeaseGrant
from repro.service.faults import (
    FAULT_SITES,
    FaultPlan,
    FaultSpecError,
    InjectedFault,
    NO_FAULTS,
)

BENCH = "gsm_encode"


def _digest(i: int) -> str:
    return f"{i:064x}"


# --- plan semantics ----------------------------------------------------------


def test_plan_parse_round_trip():
    text = ("worker.simulate:sigkill@2;store.write:torn@1,3;"
            "transport.complete:dup%0.5;"
            "transport.request:delay*0.05%0.3")
    plan = FaultPlan.parse(text, seed=7)
    again = FaultPlan.parse(plan.to_string(), seed=7)
    assert again.rules == plan.rules
    by_site = {rule.site: rule for rule in plan.rules}
    assert by_site["worker.simulate"].hits == (2,)
    assert by_site["store.write"].hits == (1, 3)
    assert by_site["transport.complete"].prob == 0.5
    assert by_site["transport.request"].arg == 0.05
    assert by_site["transport.request"].prob == 0.3


def test_hit_rules_fire_on_exact_hits():
    plan = FaultPlan.parse("store.write:torn@2")
    assert plan.fire("store.write") is None
    rule = plan.fire("store.write")
    assert rule is not None and rule.action == "torn"
    assert plan.fire("store.write") is None
    assert plan.counts() == {"store.write": 3}


def test_probability_rules_are_seed_deterministic():
    text = "transport.request:drop%0.5"
    plan_a = FaultPlan.parse(text, seed=11)
    plan_b = FaultPlan.parse(text, seed=11)
    plan_c = FaultPlan.parse(text, seed=12)
    fires_a = [plan_a.fire("transport.request") is not None
               for _ in range(64)]
    fires_b = [plan_b.fire("transport.request") is not None
               for _ in range(64)]
    fires_c = [plan_c.fire("transport.request") is not None
               for _ in range(64)]
    assert fires_a == fires_b  # same seed: identical chaos
    assert fires_c != fires_a  # different seed: different chaos
    assert any(fires_a) and not all(fires_a)


def test_sites_are_independent_under_one_seed():
    plan = FaultPlan.parse(
        "transport.lease:drop%0.5;transport.complete:drop%0.5", seed=3)
    lease = [plan.fire("transport.lease") is not None
             for _ in range(64)]
    complete = [plan.fire("transport.complete") is not None
                for _ in range(64)]
    assert lease != complete


def test_bad_rules_rejected():
    with pytest.raises(FaultSpecError, match="unknown fault site"):
        FaultPlan.parse("nonsense.site:drop@1")
    with pytest.raises(FaultSpecError, match="does not support"):
        FaultPlan.parse("store.write:dup@1")
    with pytest.raises(FaultSpecError, match="never fires"):
        FaultPlan.parse("store.write:torn")
    with pytest.raises(FaultSpecError, match="1-based"):
        FaultPlan.parse("store.write:torn@0")
    with pytest.raises(FaultSpecError, match="outside"):
        FaultPlan.parse("store.write:torn%1.5")
    with pytest.raises(FaultSpecError, match="expected site:action"):
        FaultPlan.parse("store.write.torn")


def test_firing_an_unknown_site_is_a_programming_error():
    assert NO_FAULTS.fire("store.write") is None  # known site: fine
    with pytest.raises(FaultSpecError, match="unknown fault site"):
        NO_FAULTS.fire("no.such.seam")


def test_env_plan_round_trip():
    plan = FaultPlan.from_env({"REPRO_FAULTS":
                               "worker.simulate:sigkill@1",
                               "REPRO_FAULTS_SEED": "9"})
    assert plan and plan.seed == 9
    assert not FaultPlan.from_env({})  # unset -> empty, falsy plan
    with pytest.raises(FaultSpecError, match="REPRO_FAULTS_SEED"):
        FaultPlan.from_env({"REPRO_FAULTS_SEED": "not-a-number"})


def test_every_documented_site_parses():
    for site, actions in FAULT_SITES.items():
        for action in actions:
            plan = FaultPlan.parse(f"{site}:{action}@1")
            assert plan.fire(site).action == action


# --- the lease seam ----------------------------------------------------------


def test_lease_grant_drop_pretends_idle():
    plan = FaultPlan.parse("lease.grant:drop@1")
    queue = WorkQueue(lease_ttl=10.0, fault_plan=plan)
    spec = RunSpec(BENCH, "mom", "ideal")
    queue.enqueue([(spec,)])
    assert queue.lease("w1") is None  # injected: queue plays idle
    lease = queue.lease("w1")  # next poll gets the shard
    assert lease is not None and lease.shard.specs == (spec,)


def test_lease_grant_expire_forces_the_ttl_race():
    now = [0.0]
    plan = FaultPlan.parse("lease.grant:expire@1")
    queue = WorkQueue(lease_ttl=10.0, clock=lambda: now[0],
                      fault_plan=plan)
    spec = RunSpec(BENCH, "mom", "ideal")
    (shard_id,) = queue.enqueue([(spec,)])
    doomed = queue.lease("w-doomed")
    assert doomed is not None
    # born expired: re-leasable immediately, no clock advance needed
    second = queue.lease("w-live")
    assert second is not None and second.shard.shard_id == shard_id
    assert second.lease_id != doomed.lease_id


# --- the store-write seam ----------------------------------------------------


def test_store_torn_write_is_recovered_on_reopen(tmp_path, closes):
    plan = FaultPlan.parse("store.write:torn@1")
    store = closes(SegmentStore(tmp_path, fault_plan=plan))
    with pytest.raises(InjectedFault):
        store.append_many([(_digest(1), {"v": 1})])
    assert store.get(_digest(1)) is None  # nothing admitted

    # reopen: recovery's tail scan stops at the torn frame and the
    # store works normally afterwards
    fresh = closes(SegmentStore(tmp_path))
    assert fresh.get(_digest(1)) is None
    fresh.append_many([(_digest(1), {"v": 1})])
    assert fresh.get(_digest(1)) == {"v": 1}


def test_store_survives_its_own_torn_write(tmp_path, closes):
    """The *same* store object keeps working after the injected tear
    (the abandoned segment is closed; appends claim a fresh one)."""
    plan = FaultPlan.parse("store.write:torn@1")
    store = closes(SegmentStore(tmp_path, fault_plan=plan))
    with pytest.raises(InjectedFault):
        store.append_many([(_digest(1), {"v": 1})])
    written = store.append_many([(_digest(1), {"v": 1})])
    assert written == [_digest(1)]
    assert store.get(_digest(1)) == {"v": 1}
    # and the torn half-frame on disk does not confuse a reopen
    assert closes(SegmentStore(tmp_path)).get(_digest(1)) == {"v": 1}


def test_store_error_write_leaves_nothing(tmp_path):
    plan = FaultPlan.parse("store.write:error@1")
    store = SegmentStore(tmp_path, fault_plan=plan)
    with pytest.raises(InjectedFault):
        store.append_many([(_digest(2), {"v": 2})])
    assert SegmentStore(tmp_path).get(_digest(2)) is None


# --- the transport seam ------------------------------------------------------


def _recording_client(plan, **kwargs):
    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:1", fault_plan=plan,
                           **kwargs)
    calls = []

    def send(method, path, payload=None):
        calls.append(path)
        return {"ok": len(calls)}

    client._send = send
    return client, calls


def test_transport_dup_sends_twice_returns_second_reply():
    plan = FaultPlan.parse("transport.request:dup@1")
    client, calls = _recording_client(plan)
    reply = client._request("GET", "/v1/health")
    assert calls == ["/v1/health", "/v1/health"]
    assert reply == {"ok": 2}  # the second (surviving) reply wins


def test_transport_drop_is_retried_within_budget():
    plan = FaultPlan.parse("transport.lease:drop@1")
    slept = []
    client, calls = _recording_client(plan, retry_budget=10.0,
                                      sleep=slept.append)
    reply = client._request("POST", "/v1/work/lease", {})
    assert reply == {"ok": 1}
    assert slept  # the drop cost one backoff pause
    assert calls == ["/v1/work/lease"]  # dropped pre-send, then sent


def test_transport_drop_without_budget_raises():
    plan = FaultPlan.parse("transport.complete:drop@1")
    client, _calls = _recording_client(plan)
    with pytest.raises(InjectedFault):
        client._request("POST", "/v1/work/complete", {})


def test_transport_sites_route_by_path():
    plan = FaultPlan.parse("transport.lease:drop@1")
    client, calls = _recording_client(plan)
    # only the lease path consults transport.lease
    assert client._request("GET", "/v1/health") == {"ok": 1}
    with pytest.raises(InjectedFault):
        client._request("POST", "/v1/work/lease", {})


# --- the worker-simulate seam ------------------------------------------------


class OneShardClient:
    """Grants exactly one lease, then reports an idle queue."""

    def __init__(self, grant):
        self.grants = [grant]
        self.completions = 0

    def lease_work(self, _worker_id, report=None):
        return self.grants.pop(0) if self.grants else None

    def complete_work(self, _worker_id, grant, results, **kwargs):
        self.completions += 1
        return {"accepted": True, "fresh": len(results), "duplicate": 0}


def test_worker_crash_fault_exercises_the_shard_guard():
    spec = RunSpec(BENCH, "mom", "ideal")
    grant = WorkLeaseGrant(lease_id="l1", shard_id="s1", ttl=10.0,
                           specs=(spec,))
    plan = FaultPlan.parse("worker.simulate:crash@1")
    worker = ServiceWorker("http://127.0.0.1:1",
                           Engine(use_cache=False),
                           max_idle=0.2, poll_interval=0.01,
                           fault_plan=plan)
    client = OneShardClient(grant)
    worker.client = client
    stats = worker.run()  # must return, not raise
    assert stats.failed_shards == 1
    assert stats.completions == 0
    assert client.completions == 0
