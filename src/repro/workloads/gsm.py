"""GSM 06.10 full-rate encoder workload.

Dominated by the *long-term predictor* (LTP): for each 40-sample
sub-frame, find the lag in [40, 120] whose history window maximizes the
cross-correlation with the current sub-frame.  This is motion
estimation in one dimension: the lag loop is unvectorizable (running
max), but the history windows of consecutive lags overlap by 38 of 40
samples — the single best reuse case for the 3D register file (the
paper measures a 3rd-dimension length of 7.7 with chunks up to 16, and
an 86% L2-activity reduction).

The 3D coding walks lags *backwards* through the slab using the
``dvload3`` ``b`` flag (pointer initialized at the element end) with a
pointer stride of -2 bytes per lag.

A short-term 8-tap FIR weighting filter provides the rest of the
instruction mix.
"""

from __future__ import annotations

import numpy as np

from repro.isa import ElemType, Opcode, ProgramBuilder, acc, d3, r, v
from repro.vm.memory import Arena, FlatMemory
from repro.workloads.base import Benchmark, BuiltWorkload
from repro.workloads.dctmath import addsw, bcast16, mulhrs
from repro.workloads.frames import synthetic_speech

FRAME = 160  # one GSM frame: 4 sub-frames of 40 samples
HISTORY = 120
SUB = 40
LAG_MIN, LAG_MAX = 40, 120
CHUNK = 16  # lags per 3D load
NEG_BIG = -(1 << 30)

#: Q15 taps of the weighting filter (symmetric low-pass).
FIR_TAPS = np.array([-1638, 0, 4915, 13107, 13107, 4915, 0, -1638],
                    dtype=np.int16)


def ltp_reference(samples: np.ndarray) -> list[tuple[int, int]]:
    """(best lag index, best correlation) per sub-frame; first max wins."""
    s = samples.astype(np.int64)
    results = []
    for sub in range(4):
        k0 = HISTORY + SUB * sub
        d = s[k0:k0 + SUB]
        best_idx, best_corr = 0, NEG_BIG
        for idx, lag in enumerate(range(LAG_MIN, LAG_MAX + 1)):
            corr = int((d * s[k0 - lag:k0 - lag + SUB]).sum())
            if corr > best_corr:
                best_idx, best_corr = idx, corr
        results.append((best_idx, best_corr))
    return results


def fir_reference(samples: np.ndarray) -> np.ndarray:
    """numpy mirror of the weighting-filter kernel (saturating Q15)."""
    x = samples.astype(np.int16)
    out = np.zeros(FRAME, dtype=np.int16)
    for j, tap in enumerate(FIR_TAPS):
        window = x[HISTORY + j:HISTORY + j + FRAME]
        out = addsw(out, mulhrs(window, np.int16(tap)))
    return out


class GsmEncode(Benchmark):
    """gsm encode: LTP lag search + weighting filter."""

    name = "gsm_encode"
    has_3d = True

    def _build(self, coding: str, seed: int) -> BuiltWorkload:
        memory = FlatMemory(1 << 20)
        arena = Arena(memory)

        samples = synthetic_speech(HISTORY + FRAME + 16, seed)
        s_addr = arena.alloc_array(samples)
        results_addr = arena.alloc(16 * 4)
        fir_addr = arena.alloc(2 * FRAME)

        b = ProgramBuilder(f"gsm_encode/{coding}")
        emit_ltp = {"mmx": self._emit_ltp_mmx, "mom": self._emit_ltp_mom,
                    "mom3d": self._emit_ltp_mom3d}[coding]
        emit_ltp(b, s_addr, results_addr)
        self._emit_fir(b, coding, s_addr, fir_addr)

        def check(state, mem):
            ltp_expected = ltp_reference(samples)
            fir_expected = fir_reference(samples)
            for sub, (exp_idx, exp_corr) in enumerate(ltp_expected):
                got_idx = mem.read_u64(results_addr + 16 * sub)
                got_corr = _as_signed(mem.read_u64(
                    results_addr + 16 * sub + 8))
                assert got_idx == exp_idx, (
                    f"subframe {sub}: lag index {got_idx} != {exp_idx}")
                assert got_corr == exp_corr, (
                    f"subframe {sub}: corr {got_corr} != {exp_corr}")
            got_fir = mem.read_array(fir_addr, (FRAME,), np.int16)
            np.testing.assert_array_equal(got_fir, fir_expected)

        return BuiltWorkload(
            name=self.name, coding=coding, program=b.program,
            memory=memory, check=check,
            notes={"frame": FRAME, "lags": LAG_MAX - LAG_MIN + 1})

    # -- LTP codings ----------------------------------------------------------

    def _ltp_prologue(self, b: ProgramBuilder, s_addr: int,
                      k0: int) -> None:
        """Load the current sub-frame (invariant across lags) and init."""
        b.vld(v(8), ea=s_addr + 2 * k0, stride=8, etype=ElemType.I16)
        b.li(r(1), NEG_BIG)
        b.li(r(2), 0)
        b.li(r(3), 0)

    def _max_update(self, b: ProgramBuilder) -> None:
        """Running max: r1 = best corr, r2 = best index, r3 = index."""
        b.slt(r(5), r(1), r(4))
        b.cmov(r(1), r(5), r(4))
        b.cmov(r(2), r(5), r(3))
        b.addi(r(3), r(3), 1)

    def _store_result(self, b: ProgramBuilder, results_addr: int,
                      sub: int) -> None:
        b.st(r(2), ea=results_addr + 16 * sub)
        b.st(r(1), ea=results_addr + 16 * sub + 8)

    def _emit_ltp_mom(self, b: ProgramBuilder, s_addr: int,
                      results_addr: int) -> None:
        with b.tagged("ltp"):
            b.setvl(10)
            for sub in range(4):
                k0 = HISTORY + SUB * sub
                self._ltp_prologue(b, s_addr, k0)
                for lag in range(LAG_MIN, LAG_MAX + 1):
                    b.vld(v(0), ea=s_addr + 2 * (k0 - lag),
                          stride=8, etype=ElemType.I16)
                    b.clracc(acc(0))
                    b.vpmaddacc(acc(0), v(0), v(8))
                    b.movacc(r(4), acc(0))
                    self._max_update(b)
                    b.branch()
                self._store_result(b, results_addr, sub)

    def _emit_ltp_mom3d(self, b: ProgramBuilder, s_addr: int,
                        results_addr: int) -> None:
        """Lags in chunks of 16 slices off one backward-walked slab.

        Chunks double-buffer the two logical 3D registers so the next
        slab streams in while the current one is sliced (the paper's
        binding-prefetch effect).
        """
        chunks = []
        lag = LAG_MIN
        while lag <= LAG_MAX:
            hi = min(lag + CHUNK - 1, LAG_MAX)
            chunks.append((lag, hi))
            lag = hi + 1

        def emit_load(reg, k0, lo, hi):
            # slab covering lags [lo, hi]: element k spans bytes for
            # every lag; width = 8 + 2*(hi - lo), rounded up to whole
            # words by shifting the base.
            width_bytes = 8 + 2 * (hi - lo)
            wwords = (width_bytes + 7) // 8
            pad = wwords * 8 - width_bytes  # 0..6
            ea = s_addr + 2 * (k0 - hi) - pad
            b.dvload3(d3(reg), ea=ea, stride=8, wwords=wwords,
                      back=True, etype=ElemType.I16)

        with b.tagged("ltp"):
            b.setvl(10)
            for sub in range(4):
                k0 = HISTORY + SUB * sub
                self._ltp_prologue(b, s_addr, k0)
                emit_load(0, k0, *chunks[0])
                for chunk_no, (lo, hi) in enumerate(chunks):
                    if chunk_no + 1 < len(chunks):
                        emit_load((chunk_no + 1) % 2, k0,
                                  *chunks[chunk_no + 1])
                    slab = d3(chunk_no % 2)
                    for _lag in range(lo, hi + 1):
                        # ascending lag = descending address:
                        # pointer starts at the element end (b
                        # flag), steps back 2 bytes per lag.
                        b.dvmov3(v(0), slab, pstride=-2)
                        b.clracc(acc(0))
                        b.vpmaddacc(acc(0), v(0), v(8))
                        b.movacc(r(4), acc(0))
                        self._max_update(b)
                    b.branch()
                self._store_result(b, results_addr, sub)

    def _emit_ltp_mmx(self, b: ProgramBuilder, s_addr: int,
                      results_addr: int) -> None:
        with b.tagged("ltp"):
            for sub in range(4):
                k0 = HISTORY + SUB * sub
                # preload current sub-frame words into v6..v15
                for w in range(10):
                    b.vld(v(6 + w), ea=s_addr + 2 * k0 + 8 * w,
                          stride=8, vl=1, etype=ElemType.I16)
                b.li(r(1), NEG_BIG)
                b.li(r(2), 0)
                b.li(r(3), 0)
                for lag in range(LAG_MIN, LAG_MAX + 1):
                    base = s_addr + 2 * (k0 - lag)
                    b.vbcast64(v(5), 0)
                    for w in range(10):
                        b.vld(v(0), ea=base + 8 * w, stride=8,
                              vl=1, etype=ElemType.I16)
                        b.simd(Opcode.PMADDWD, v(1), v(0),
                               v(6 + w), etype=ElemType.I16)
                        b.simd(Opcode.PADDD, v(5), v(5), v(1),
                               etype=ElemType.I32)
                    # horizontal add of the two i32 halves
                    b.simd(Opcode.PSRLQ, v(1), v(5),
                           etype=ElemType.I32, imm=32)
                    b.simd(Opcode.PADDD, v(5), v(5), v(1),
                           etype=ElemType.I32)
                    b.movd(r(4), v(5))  # low 32 bits, signed
                    self._max_update(b)
                    b.branch()
                self._store_result(b, results_addr, sub)


    # -- weighting filter -----------------------------------------------------------

    def _emit_fir(self, b: ProgramBuilder, coding: str, s_addr: int,
                  fir_addr: int) -> None:
        vl = 1 if coding == "mmx" else 10
        with b.tagged("fir"):
            if coding != "mmx":
                b.setvl(10)
            for word0 in range(0, FRAME // 4, vl):
                b.vbcast64(v(2), 0)
                for j, tap in enumerate(FIR_TAPS):
                    ea = s_addr + 2 * (HISTORY + j) + 8 * word0
                    b.vld(v(0), ea=ea, stride=8, vl=vl,
                          etype=ElemType.I16)
                    b.vbcast64(v(1), bcast16(int(tap)))
                    b.simd(Opcode.PMULHRS, v(0), v(0), v(1),
                           etype=ElemType.I16)
                    b.simd(Opcode.PADDSW, v(2), v(2), v(0),
                           etype=ElemType.I16)
                b.vst(v(2), ea=fir_addr + 8 * word0, stride=8, vl=vl,
                      etype=ElemType.I16)
                b.branch()


def _as_signed(value: int) -> int:
    return value - (1 << 64) if value >= (1 << 63) else value
