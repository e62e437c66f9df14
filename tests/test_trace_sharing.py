"""The paper traces: pinned raw contents and shared instruction objects.

The builder interns equal instructions, so a trace holds one object per
distinct instruction; the encoded traces must still match the digests
recorded before sharing existed.  (That the core decode cannot see the
sharing is pinned in ``test_timing_properties.py``.)
"""

import hashlib

import pytest

from repro.harness.traceio import export_workload, load_trace
from repro.isa.encoding import encode_program
from repro.workloads import CODINGS, benchmark_names, get_benchmark

#: sha256(encode_program(trace))[:16] per benchmark, in CODINGS order
#: (mmx, mom, mom3d), at seed 0
TRACE_DIGESTS = {
    "jpeg_encode": ("5e696320ae7850bf", "854f5abf3a1fa95d",
                    "73da36e92a704aa6"),
    "jpeg_decode": ("28c22fc9b9324025", "79af01ad0e6b18a3",
                    "79af01ad0e6b18a3"),
    "mpeg2_decode": ("39a402b4589bb536", "d4ac9c13ae42d405",
                     "1cdab220aaebf815"),
    "mpeg2_encode": ("8ad299485cb70e02", "1ac21256ce1beb02",
                     "5b059f988205edfb"),
    "gsm_encode": ("b895f78a843a559c", "7d9cb7507be72d44",
                   "78a75cd7dbadd00c"),
}


@pytest.fixture(scope="module")
def traces():
    return {(bench, coding): get_benchmark(bench).build(coding, 0).program
            for bench in benchmark_names() for coding in CODINGS}


def test_raw_traces_match_recorded_digests(traces):
    assert set(TRACE_DIGESTS) == set(benchmark_names())
    for (bench, coding), program in traces.items():
        digest = hashlib.sha256(encode_program(program)).hexdigest()[:16]
        assert digest == TRACE_DIGESTS[bench][CODINGS.index(coding)], \
            (bench, coding)


def test_paper_traces_hold_one_object_per_distinct_instruction(traces):
    objects = dynamic = 0
    for program in traces.values():
        count = len({id(inst) for inst in program})
        assert count == len(set(program.instructions)), program.name
        objects += count
        dynamic += len(program)
    assert (objects, dynamic) == (14_547, 167_598)


def test_loaded_trace_shares_like_the_builder(traces, tmp_path):
    """An exported trace reloads with one object per distinct record.

    The format stores neither tags nor the sign convention of ``imm``,
    so the reload equals the built trace as an encoding.
    """
    built = traces["gsm_encode", "mmx"]
    path = tmp_path / "gsm_encode.mmx.trace"
    export_workload("gsm_encode", "mmx", path)
    loaded = load_trace(path)
    assert len(loaded) == len(built) == 14_096
    # tags are not serialized, so fewer values than the builder's 519
    assert len({id(inst) for inst in loaded}) == \
        len(set(loaded.instructions)) == 401
    assert encode_program(loaded) == encode_program(built)
