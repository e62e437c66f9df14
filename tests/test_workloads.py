"""Workload tests: every coding of every benchmark is bit-exact against
its numpy reference, and the codings' memory behaviour is consistent."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.isa import Opcode
from repro.workloads import (
    CODINGS,
    benchmark_names,
    get_benchmark,
)
from repro.workloads.dctkernels import group_to_soa, soa_to_group
from repro.workloads import motion
from repro.workloads.frames import (
    shifted_frame,
    synthetic_frame,
    synthetic_speech,
)

ALL_BENCHMARKS = benchmark_names()


@pytest.mark.parametrize("bench", ALL_BENCHMARKS)
@pytest.mark.parametrize("coding", CODINGS)
def test_functional_correctness(bench, coding):
    """The cornerstone check: VM execution equals the numpy reference."""
    workload = get_benchmark(bench).build(coding)
    workload.run_functional()


@pytest.mark.parametrize("bench", ALL_BENCHMARKS)
def test_determinism(bench):
    one = get_benchmark(bench).build("mom", seed=0)
    two = get_benchmark(bench).build("mom", seed=0)
    assert len(one.program) == len(two.program)
    assert [i.ea for i in one.program if i.is_memory] == \
        [i.ea for i in two.program if i.is_memory]


@pytest.mark.parametrize("bench", ALL_BENCHMARKS)
def test_mmx_has_more_instructions(bench):
    """1D coding cannot pack elements: far more instructions (Sec. 1)."""
    mom = get_benchmark(bench).build("mom")
    mmx = get_benchmark(bench).build("mmx")
    assert len(mmx.program) > 3 * len(mom.program)


@pytest.mark.parametrize("bench", ALL_BENCHMARKS)
def test_mmx_coding_is_scalar_width(bench):
    mmx = get_benchmark(bench).build("mmx")
    for inst in mmx.program:
        assert inst.vl == 1
        assert inst.op not in (Opcode.DVLOAD3, Opcode.DVMOV3,
                               Opcode.SETVL)


@pytest.mark.parametrize("bench", ["mpeg2_encode", "mpeg2_decode",
                                   "jpeg_encode", "gsm_encode"])
def test_mom3d_uses_3d_instructions(bench):
    program = get_benchmark(bench).build("mom3d").program
    ops = {inst.op for inst in program}
    assert Opcode.DVLOAD3 in ops and Opcode.DVMOV3 in ops


def test_jpeg_decode_has_no_3d_patterns():
    """Paper Sec. 5.1: jpeg_decode gets no 3D instructions."""
    program = get_benchmark("jpeg_decode").build("mom3d").program
    ops = {inst.op for inst in program}
    assert Opcode.DVLOAD3 not in ops


def test_mom_and_mom3d_load_identical_data():
    """3D vectorization only reorganizes loads; stores are untouched."""
    mom = get_benchmark("mpeg2_encode").build("mom").program
    m3d = get_benchmark("mpeg2_encode").build("mom3d").program
    stores = lambda p: [(i.ea, i.stride, i.vl) for i in p  # noqa: E731
                        if i.op is Opcode.VST]
    assert stores(mom) == stores(m3d)


def test_unknown_coding_rejected():
    with pytest.raises(ConfigError):
        get_benchmark("gsm_encode").build("sse9")


def test_unknown_benchmark_rejected():
    with pytest.raises(ConfigError) as excinfo:
        get_benchmark("h264_encode")
    assert all(name in str(excinfo.value) for name in ALL_BENCHMARKS)


def test_benchmark_names_order():
    assert ALL_BENCHMARKS == ["jpeg_encode", "jpeg_decode",
                              "mpeg2_decode", "mpeg2_encode",
                              "gsm_encode"]
    for name in ALL_BENCHMARKS:
        assert get_benchmark(name).name == name


# --- motion reference properties ---------------------------------------------


def test_motion_reference_finds_planted_shift():
    ref = synthetic_frame(64, 48, seed=11)
    cur = shifted_frame(ref, dx=1, dy=-1, noise_amp=0, seed=12)
    results = motion.reference(ref, cur, [(24, 24)], win=2, bsize=16)
    idx, sad = results[0]
    # shift of the *frame* by (1,-1) means the best match in ref is at
    # (dx,dy)=(-1,+1): idx = (1+2)*5 + (-1+2) = 16
    assert idx == 16
    assert sad == 0


def test_motion_reference_tie_breaks_first():
    ref = np.zeros((32, 32), dtype=np.uint8)
    cur = np.zeros((32, 32), dtype=np.uint8)
    results = motion.reference(ref, cur, [(8, 8)], win=1, bsize=8)
    assert results[0] == (0, 0)  # all SADs zero -> first candidate


# --- SoA layout helpers ----------------------------------------------------------


def test_soa_roundtrip():
    rng = np.random.default_rng(5)
    group = rng.integers(-3000, 3000, size=(8, 64)).astype(np.int16)
    assert np.array_equal(soa_to_group(group_to_soa(group)), group)


def test_soa_is_word_major():
    group = np.zeros((8, 64), dtype=np.int16)
    group[0, 0:4] = [1, 2, 3, 4]  # row 0, block 0, lo word
    group[0, 8:12] = [5, 6, 7, 8]  # row 0, block 1, lo word
    soa = group_to_soa(group)
    assert list(soa[0:4]) == [1, 2, 3, 4]
    assert list(soa[4:8]) == [5, 6, 7, 8]  # adjacent in SoA


# --- synthetic inputs -----------------------------------------------------------


def test_synthetic_frame_deterministic_and_bounded():
    one = synthetic_frame(64, 32, seed=7)
    two = synthetic_frame(64, 32, seed=7)
    other = synthetic_frame(64, 32, seed=8)
    assert np.array_equal(one, two)
    assert not np.array_equal(one, other)
    assert one.dtype == np.uint8


def test_synthetic_speech_has_pitch():
    samples = synthetic_speech(400, seed=0, pitch_lag=57)
    s = samples.astype(np.int64)
    # autocorrelation at the pitch lag beats a random lag
    at_pitch = int((s[57:300] * s[:243]).sum())
    at_other = int((s[29:272] * s[:243]).sum())
    assert at_pitch > at_other
