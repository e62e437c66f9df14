"""Wire-schema tests: total round-trips and structured failures.

The encode->decode direction is property-tested with hypothesis:
arbitrary valid ``RunSpec``/``RunStats`` values survive a real JSON
round-trip bit-identically.  The decode-of-garbage direction is a
parametrized battery: every malformed payload must raise
:class:`SchemaError` with ``{path, message}`` records — never a bare
``KeyError``/``TypeError`` traceback.
"""

import json
import string

import pytest
from hypothesis import given, strategies as st

from repro.engine.keys import CODING_NAMES, MEMSYS_KINDS, RunSpec
from repro.isa.opcodes import ExecClass, Opcode
from repro.memsys.ports import PortStats
from repro.service.schema import (
    SCHEMA_VERSION,
    CacheQueryReply,
    ErrorReply,
    JobRequest,
    JobResult,
    SchemaError,
    spec_from_wire,
    spec_to_wire,
    stats_from_wire,
    stats_to_wire,
)
from repro.timing.stats import RunStats, VecLenStats
from repro.workloads import benchmark_names

# --- strategies ---------------------------------------------------------------

_counters = st.integers(min_value=0, max_value=10**9)
_names = st.text(alphabet=string.ascii_lowercase + "_", min_size=1,
                 max_size=12)
_scalars = (st.booleans() | st.integers(-10**6, 10**6)
            | st.floats(allow_nan=False, allow_infinity=False,
                        width=64)
            | st.text(alphabet=string.printable, max_size=12))

specs = st.builds(
    RunSpec,
    # decode validates benchmarks up front, so "valid RunSpec" on the
    # wire means a registered benchmark name
    benchmark=st.sampled_from(benchmark_names()),
    coding=st.sampled_from(CODING_NAMES),
    memsys=st.sampled_from(MEMSYS_KINDS),
    l2_latency=st.integers(0, 500),
    warm=st.booleans(),
    seed=st.integers(0, 99),
    overrides=st.dictionaries(_names, _scalars, max_size=4),
)

_ports = st.builds(PortStats, requests=_counters,
                   port_accesses=_counters, cache_accesses=_counters,
                   hits=_counters, misses=_counters,
                   words_loaded=_counters, words_stored=_counters,
                   busy_cycles=_counters)

_veclens = st.builds(
    VecLenStats, lane_sum=_counters, lane_count=_counters,
    vl_sum=_counters, vl_count=_counters, slices=_counters,
    loads3d=_counters, max_slices_per_load=_counters,
    _current_slices=st.dictionaries(st.integers(0, 63),
                                    st.integers(0, 99), max_size=4))

stats_values = st.builds(
    RunStats,
    name=_names,
    cycles=_counters,
    instructions=_counters,
    by_class=st.dictionaries(st.sampled_from(list(ExecClass)),
                             _counters, max_size=5),
    by_opcode=st.dictionaries(st.sampled_from(list(Opcode)),
                              _counters, max_size=5),
    vector_port=_ports,
    l1_port=_ports,
    rf3d_words=_counters,
    rf3d_reads=_counters,
    rf3d_writes=_counters,
    veclen=_veclens,
    l2_hit_rate=st.floats(0.0, 1.0, allow_nan=False),
    coherence_events=_counters,
)


# --- round-trips --------------------------------------------------------------


@given(spec=specs)
def test_spec_round_trip_bit_identical(spec):
    wired = json.loads(json.dumps(spec_to_wire(spec)))
    again = spec_from_wire(wired)
    assert again == spec
    assert again.digest() == spec.digest()


@given(stats=stats_values)
def test_stats_round_trip_bit_identical(stats):
    wired = json.loads(json.dumps(stats_to_wire(stats)))
    again = stats_from_wire(wired)
    assert again == stats
    assert again.to_dict() == stats.to_dict()


@given(grid=st.lists(specs, min_size=1, max_size=5))
def test_job_request_round_trip(grid):
    request = JobRequest(specs=tuple(grid))
    wired = json.loads(json.dumps(request.to_wire()))
    assert JobRequest.from_wire(wired) == request


@given(spec=specs, stats=stats_values)
def test_job_result_round_trip(spec, stats):
    result = JobResult(job_id="abc123", status="done",
                       results=((spec, stats),))
    wired = json.loads(json.dumps(result.to_wire()))
    again = JobResult.from_wire(wired)
    assert again == result
    assert again.stats_by_spec()[spec].to_dict() == stats.to_dict()


def test_error_reply_round_trip():
    reply = ErrorReply(code="invalid-request", message="nope",
                       errors=({"path": "$.x", "message": "bad"},))
    wired = json.loads(json.dumps(reply.to_wire()))
    assert ErrorReply.from_wire(wired) == reply


def test_cache_query_reply_decodes_an_older_servers_layout_key():
    spec = RunSpec("gsm_encode", "mom", "ideal")
    stats = RunStats(name=spec.label(), cycles=10, instructions=5)
    old = {"schema_version": SCHEMA_VERSION, "version": "v-old",
           "layout": "file", "count": 1, "truncated": False,
           "results": [{"spec": spec_to_wire(spec),
                        "stats": stats_to_wire(stats)}]}
    reply = CacheQueryReply.from_wire(old)
    assert reply.version == "v-old" and reply.truncated is False
    assert reply.results[0][0] == spec
    assert reply.results[0][1].to_dict() == stats.to_dict()
    # the cache has one layout, so a reply no longer names one
    wired = reply.to_wire()
    assert "layout" not in wired
    assert CacheQueryReply.from_wire(json.loads(json.dumps(wired))) == \
        reply


def test_job_request_sweep_expands_like_engine_sweep():
    from repro.engine import Sweep

    sweep = Sweep(benchmarks=("gsm_encode",), codings=("mom", "mom3d"),
                  memsystems=("vector",), l2_latencies=(20, 40),
                  overrides=({}, {"l2_line": 64}), seed=3)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "sweep": {"benchmarks": ["gsm_encode"],
                  "codings": ["mom", "mom3d"],
                  "memsystems": ["vector"], "l2_latencies": [20, 40],
                  "overrides": [{}, {"l2_line": 64}], "seed": 3},
    }
    assert JobRequest.from_wire(payload).specs == tuple(sweep.specs())


def test_minimal_sweep_payload_uses_sweep_defaults():
    """Omitted wire fields defer to the Sweep dataclass defaults, so
    one definition owns them."""
    from repro.engine import Sweep

    payload = {"schema_version": SCHEMA_VERSION,
               "sweep": {"benchmarks": ["gsm_encode"]}}
    assert JobRequest.from_wire(payload).specs == \
        tuple(Sweep(benchmarks=("gsm_encode",)).specs())


def test_job_request_dedupes_preserving_order():
    a = RunSpec("gsm_encode", "mom")
    b = RunSpec("gsm_encode", "mom3d")
    assert JobRequest(specs=(a, b, a)).specs == (a, b)


# --- malformed payloads -------------------------------------------------------

_MALFORMED_REQUESTS = [
    ("not-an-object", []),
    ("no-version", {"specs": [{"benchmark": "gsm_encode",
                               "coding": "mom"}]}),
    ("wrong-version", {"schema_version": 2, "specs": []}),
    ("neither-specs-nor-sweep", {"schema_version": 1}),
    ("both-specs-and-sweep", {"schema_version": 1, "specs": [],
                              "sweep": {"benchmarks": ["gsm_encode"]}}),
    ("empty-specs", {"schema_version": 1, "specs": []}),
    ("specs-not-a-list", {"schema_version": 1, "specs": "gsm_encode"}),
    ("spec-not-an-object", {"schema_version": 1, "specs": [17]}),
    ("spec-missing-coding", {"schema_version": 1,
                             "specs": [{"benchmark": "gsm_encode"}]}),
    ("spec-bool-latency", {"schema_version": 1,
                           "specs": [{"benchmark": "gsm_encode",
                                      "coding": "mom",
                                      "l2_latency": True}]}),
    ("spec-unknown-benchmark", {"schema_version": 1,
                                "specs": [{"benchmark": "quake3",
                                           "coding": "mom"}]}),
    ("spec-trace-benchmark", {"schema_version": 1,
                              "specs": [{"benchmark": "trace:deadbeef",
                                         "coding": "mom"}]}),
    ("spec-unknown-coding", {"schema_version": 1,
                             "specs": [{"benchmark": "gsm_encode",
                                        "coding": "avx512"}]}),
    ("spec-unknown-memsys", {"schema_version": 1,
                             "specs": [{"benchmark": "gsm_encode",
                                        "coding": "mom",
                                        "memsys": "dram-only"}]}),
    ("override-not-a-pair", {"schema_version": 1,
                             "specs": [{"benchmark": "gsm_encode",
                                        "coding": "mom",
                                        "overrides": [["a", 1, 2]]}]}),
    ("override-non-scalar", {"schema_version": 1,
                             "specs": [{"benchmark": "gsm_encode",
                                        "coding": "mom",
                                        "overrides": [["a", [1]]]}]}),
    ("sweep-no-benchmarks", {"schema_version": 1, "sweep": {}}),
    ("sweep-unknown-field", {"schema_version": 1,
                             "sweep": {"benchmarks": ["gsm_encode"],
                                       "latencies": [20]}}),
    ("sweep-bad-latency", {"schema_version": 1,
                           "sweep": {"benchmarks": ["gsm_encode"],
                                     "l2_latencies": ["20"]}}),
    ("sweep-bad-coding", {"schema_version": 1,
                          "sweep": {"benchmarks": ["gsm_encode"],
                                    "codings": ["mips"]}}),
    ("sweep-unknown-benchmark", {"schema_version": 1,
                                 "sweep": {"benchmarks": ["quake3"]}}),
    ("sweep-zero-specs", {"schema_version": 1,
                          "sweep": {"benchmarks": ["gsm_encode"],
                                    "overrides": []}}),
]


@pytest.mark.parametrize(
    "payload", [payload for _, payload in _MALFORMED_REQUESTS],
    ids=[name for name, _ in _MALFORMED_REQUESTS])
def test_malformed_requests_fail_structurally(payload):
    with pytest.raises(SchemaError) as excinfo:
        JobRequest.from_wire(payload)
    errors = excinfo.value.errors
    assert errors, "SchemaError must carry structured errors"
    for error in errors:
        assert isinstance(error["path"], str) and error["path"]
        assert isinstance(error["message"], str) and error["message"]


def test_multiple_bad_specs_report_every_path():
    payload = {"schema_version": 1,
               "specs": [{"benchmark": "gsm_encode"},
                         {"coding": "mom"}]}
    with pytest.raises(SchemaError) as excinfo:
        JobRequest.from_wire(payload)
    paths = [e["path"] for e in excinfo.value.errors]
    assert any(p.startswith("$.specs[0]") for p in paths)
    assert any(p.startswith("$.specs[1]") for p in paths)


def test_malformed_stats_fail_structurally():
    with pytest.raises(SchemaError) as excinfo:
        stats_from_wire({"name": "x"})
    assert excinfo.value.errors[0]["path"] == "stats"
    with pytest.raises(SchemaError):
        stats_from_wire([1, 2, 3])


def test_job_result_rejects_unknown_status():
    with pytest.raises(SchemaError):
        JobResult.from_wire({"schema_version": 1, "job_id": "x",
                             "status": "exploded"})


def test_grid_size_caps_reject_before_expansion():
    from repro.service.schema import MAX_GRID

    # a few-hundred-byte sweep that would expand past the cap
    payload = {"schema_version": 1,
               "sweep": {"benchmarks": ["gsm_encode"],
                         "codings": ["mom", "mom3d"],
                         "l2_latencies": list(range(MAX_GRID))}}
    with pytest.raises(SchemaError, match="expands to"):
        JobRequest.from_wire(payload)

    spec = {"benchmark": "gsm_encode", "coding": "mom"}
    too_many = {"schema_version": 1, "specs": [spec] * (MAX_GRID + 1)}
    with pytest.raises(SchemaError, match="exceed the limit"):
        JobRequest.from_wire(too_many)
