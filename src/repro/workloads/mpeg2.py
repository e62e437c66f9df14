"""MPEG-2 encoder and decoder workloads.

*Encode* is dominated by full-search motion estimation (the paper's
running example) plus the forward DCT and quantization of the residual
field.  *Decode* runs the inverse DCT, half-pel motion compensation
(overlapping row slabs — a natural 3D pattern) and the saturating
block reconstruction.

Scaling (documented per DESIGN.md): 64x48 luma frames, 12 motion
blocks with a +-2 pixel search window, two 8-block DCT groups.  All
reported metrics are ratios or per-access averages, which are
insensitive to frame count.
"""

from __future__ import annotations

import numpy as np

from repro.isa import ElemType, Opcode, ProgramBuilder, d3, v
from repro.vm.memory import Arena, FlatMemory
from repro.workloads import motion
from repro.workloads.base import Benchmark, BuiltWorkload
from repro.workloads.dctkernels import BlockGroupPass, QuantizePass
from repro.workloads.dctmath import dct_matrix_q15
from repro.workloads.frames import shifted_frame, synthetic_frame

WIDTH, HEIGHT = 64, 48
ME_WIN = 2
ME_BSIZE = 16  # MPEG-2 macroblocks are 16x16
#: Motion estimation dominates the encoder, as in the real mpeg2enc
#: where fullsearch is the top kernel by a wide margin.
ME_BLOCKS = [(bx, by) for by in (8, 24) for bx in (8, 24, 40)]
#: residual / coefficient field: two 8-block groups (16 rows x 64 cols)
COEF_ROWS = 16


def _avgb(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """numpy mirror of PAVGB."""
    return ((a.astype(np.int32) + b.astype(np.int32) + 1) >> 1).astype(
        np.uint8)


class Mpeg2Encode(Benchmark):
    """mpeg2 encode: motion estimation + FDCT + quantization."""

    name = "mpeg2_encode"
    has_3d = True

    def _build(self, coding: str, seed: int) -> BuiltWorkload:
        memory = FlatMemory(1 << 20)
        arena = Arena(memory)

        ref = synthetic_frame(WIDTH, HEIGHT, seed)
        cur = shifted_frame(ref, dx=1, dy=-1, seed=seed + 1)
        residual = np.random.default_rng(seed + 2).integers(
            -128, 128, size=(COEF_ROWS, WIDTH)).astype(np.int16)

        ref_addr = arena.alloc_array(ref)
        cur_addr = arena.alloc_array(cur)
        results_addr = arena.alloc(16 * len(ME_BLOCKS))
        res_addr = arena.alloc_array(residual)
        dct_addr = arena.alloc(residual.nbytes)
        quant_addr = arena.alloc(residual.nbytes)
        scratch = arena.alloc(512)

        cq = dct_matrix_q15()
        fdct = BlockGroupPass(cq.T, cq, pre_shift_left=3, tag="fdct")
        recip = np.full((8, 8), 1 << 13, dtype=np.int16)  # divide by ~4
        quant = QuantizePass(recip, post_shift=1)

        b = ProgramBuilder(f"mpeg2_encode/{coding}")
        me_emit = {"mmx": motion.emit_mmx, "mom": motion.emit_mom,
                   "mom3d": motion.emit_mom3d}[coding]
        me_emit(b, ref_addr, cur_addr, results_addr, WIDTH,
                ME_BLOCKS, ME_WIN, bsize=ME_BSIZE)

        row_bytes = 2 * WIDTH
        for group in range(COEF_ROWS // 8):
            in_addr = res_addr + group * 8 * row_bytes
            out_addr = dct_addr + group * 8 * row_bytes
            if coding == "mmx":
                fdct.emit_mmx(b, in_addr, row_bytes, out_addr, row_bytes,
                              scratch)
            else:
                fdct.emit_mom(b, in_addr, row_bytes, out_addr, row_bytes,
                              scratch, use3d=(coding == "mom3d"))
        for group in range(COEF_ROWS // 8):
            in_addr = dct_addr + group * 8 * row_bytes
            out_addr = quant_addr + group * 8 * row_bytes
            if coding == "mmx":
                quant.emit_mmx(b, in_addr, row_bytes, out_addr, row_bytes)
            else:
                quant.emit_mom(b, in_addr, row_bytes, out_addr, row_bytes,
                               use3d=(coding == "mom3d"))

        def check(state, mem):
            me_expected = motion.reference(ref, cur, ME_BLOCKS, ME_WIN,
                                           bsize=ME_BSIZE)
            dct_expected = np.vstack([
                fdct.reference_group(residual[8 * g:8 * g + 8])
                for g in range(COEF_ROWS // 8)])
            quant_expected = np.vstack([
                quant.reference_group(dct_expected[8 * g:8 * g + 8])
                for g in range(COEF_ROWS // 8)])
            motion.check_results(mem, results_addr, me_expected)
            got_dct = mem.read_array(dct_addr, dct_expected.shape, np.int16)
            np.testing.assert_array_equal(got_dct, dct_expected)
            got_q = mem.read_array(quant_addr, quant_expected.shape,
                                   np.int16)
            np.testing.assert_array_equal(got_q, quant_expected)

        return BuiltWorkload(
            name=self.name, coding=coding, program=b.program,
            memory=memory, check=check,
            notes={"frame": (WIDTH, HEIGHT), "me_blocks": len(ME_BLOCKS),
                   "window": ME_WIN})


class Mpeg2Decode(Benchmark):
    """mpeg2 decode: IDCT + half-pel motion compensation + reconstruction."""

    name = "mpeg2_decode"
    has_3d = True

    def _build(self, coding: str, seed: int) -> BuiltWorkload:
        memory = FlatMemory(1 << 20)
        arena = Arena(memory)

        coeffs = np.random.default_rng(seed).integers(
            -2048, 2048, size=(COEF_ROWS, WIDTH)).astype(np.int16)
        ref = synthetic_frame(WIDTH, HEIGHT, seed + 1)
        mc_blocks = [(bx, by) for by in (8, 16, 24, 32)
                     for bx in (8, 16, 24, 32, 40)]

        coef_addr = arena.alloc_array(coeffs)
        idct_addr = arena.alloc(coeffs.nbytes)
        ref_addr = arena.alloc_array(ref)
        pred_addr = arena.alloc(WIDTH * HEIGHT)  # predicted frame (u8)
        recon_addr = arena.alloc(8 * WIDTH)  # reconstructed group (u8)
        scratch = arena.alloc(512)

        cq = dct_matrix_q15()
        idct = BlockGroupPass(cq, cq.T, pre_shift_right=2, tag="idct")

        b = ProgramBuilder(f"mpeg2_decode/{coding}")
        row_bytes = 2 * WIDTH
        for group in range(COEF_ROWS // 8):
            in_addr = coef_addr + group * 8 * row_bytes
            out_addr = idct_addr + group * 8 * row_bytes
            if coding == "mmx":
                idct.emit_mmx(b, in_addr, row_bytes, out_addr, row_bytes,
                              scratch)
            else:
                idct.emit_mom(b, in_addr, row_bytes, out_addr, row_bytes,
                              scratch, use3d=(coding == "mom3d"))

        self._emit_mc(b, coding, ref_addr, pred_addr, mc_blocks)
        self._emit_addblock(b, coding, pred_addr, idct_addr, recon_addr)

        def check(state, mem):
            idct_expected = np.vstack([
                idct.reference_group(coeffs[8 * g:8 * g + 8])
                for g in range(COEF_ROWS // 8)])
            pred_expected = self._mc_reference(ref, mc_blocks)
            recon_expected = self._addblock_reference(
                pred_expected, idct_expected)
            got_idct = mem.read_array(idct_addr, idct_expected.shape,
                                      np.int16)
            np.testing.assert_array_equal(got_idct, idct_expected)
            got_pred = mem.read_array(pred_addr, (HEIGHT, WIDTH), np.uint8)
            for bx, by in mc_blocks:
                np.testing.assert_array_equal(
                    got_pred[by:by + 8, bx:bx + 8],
                    pred_expected[by:by + 8, bx:bx + 8])
            got_recon = mem.read_array(recon_addr, recon_expected.shape,
                                       np.uint8)
            np.testing.assert_array_equal(got_recon, recon_expected)

        return BuiltWorkload(
            name=self.name, coding=coding, program=b.program,
            memory=memory, check=check,
            notes={"frame": (WIDTH, HEIGHT), "mc_blocks": len(mc_blocks)})

    # -- motion compensation -------------------------------------------------

    @staticmethod
    def _mc_reference(ref: np.ndarray,
                      blocks: list[tuple[int, int]]) -> np.ndarray:
        pred = np.zeros_like(ref)
        for bx, by in blocks:
            a = ref[by:by + 8, bx:bx + 8]
            b_ = ref[by:by + 8, bx + 1:bx + 9]
            pred[by:by + 8, bx:bx + 8] = _avgb(a, b_)
        return pred

    def _emit_mc(self, b: ProgramBuilder, coding: str, ref_addr: int,
                 pred_addr: int, blocks: list[tuple[int, int]]) -> None:
        """Half-pel horizontal interpolation: avg of x and x+1 slabs."""
        with b.tagged("mc"):
            if coding != "mmx":
                b.setvl(8)
            if coding == "mom3d":
                # double-buffer slabs across blocks (binding prefetch)
                first = ref_addr + blocks[0][1] * WIDTH + blocks[0][0]
                b.dvload3(d3(0), ea=first, stride=WIDTH, wwords=2,
                          etype=ElemType.U8)
            for block_no, (bx, by) in enumerate(blocks):
                src = ref_addr + by * WIDTH + bx
                dst = pred_addr + by * WIDTH + bx
                if coding == "mom3d":
                    if block_no + 1 < len(blocks):
                        nbx, nby = blocks[block_no + 1]
                        b.dvload3(d3((block_no + 1) % 2),
                                  ea=ref_addr + nby * WIDTH + nbx,
                                  stride=WIDTH, wwords=2,
                                  etype=ElemType.U8)
                    slab = d3(block_no % 2)
                    b.dvmov3(v(0), slab, pstride=1)
                    b.dvmov3(v(1), slab, pstride=1)
                    b.simd(Opcode.PAVGB, v(2), v(0), v(1),
                           etype=ElemType.U8)
                    b.vst(v(2), ea=dst, stride=WIDTH, etype=ElemType.U8)
                elif coding == "mom":
                    b.vld(v(0), ea=src, stride=WIDTH, etype=ElemType.U8)
                    b.vld(v(1), ea=src + 1, stride=WIDTH,
                          etype=ElemType.U8)
                    b.simd(Opcode.PAVGB, v(2), v(0), v(1),
                           etype=ElemType.U8)
                    b.vst(v(2), ea=dst, stride=WIDTH, etype=ElemType.U8)
                else:  # mmx: row by row
                    for i in range(8):
                        b.vld(v(0), ea=src + i * WIDTH, stride=8,
                              vl=1, etype=ElemType.U8)
                        b.vld(v(1), ea=src + i * WIDTH + 1, stride=8,
                              vl=1, etype=ElemType.U8)
                        b.simd(Opcode.PAVGB, v(2), v(0), v(1),
                               etype=ElemType.U8)
                        b.vst(v(2), ea=dst + i * WIDTH, stride=8,
                              vl=1, etype=ElemType.U8)
                b.branch()

    # -- block reconstruction ---------------------------------------------------

    @staticmethod
    def _addblock_reference(pred: np.ndarray,
                            residual: np.ndarray) -> np.ndarray:
        """pred group-0 rows 8..15 + residual group 0, saturated to u8."""
        p = pred[8:16, :WIDTH].astype(np.int32)
        res = residual[:8, :WIDTH].astype(np.int32)
        return np.clip(p + res, 0, 255).astype(np.uint8)

    def _emit_addblock(self, b: ProgramBuilder, coding: str,
                       pred_addr: int, res_addr: int,
                       recon_addr: int) -> None:
        """u8 prediction + i16 residual -> saturated u8 (dense streams)."""
        with b.tagged("addblock"):
            vl = 1 if coding == "mmx" else 8
            if coding != "mmx":
                b.setvl(8)
            n_words = WIDTH // 8  # words per pixel row
            for row in range(8):
                for word in range(0, n_words, vl):
                    pred_ea = (pred_addr + (8 + row) * WIDTH
                               + 8 * word)
                    res_ea = res_addr + row * 2 * WIDTH + 16 * word
                    out_ea = recon_addr + row * WIDTH + 8 * word
                    b.vld(v(0), ea=pred_ea, stride=8, vl=vl,
                          etype=ElemType.U8)
                    b.simd(Opcode.PUNPCKLBZ, v(1), v(0),
                           etype=ElemType.I16)
                    b.simd(Opcode.PUNPCKHBZ, v(2), v(0),
                           etype=ElemType.I16)
                    b.vld(v(3), ea=res_ea, stride=16, vl=vl,
                          etype=ElemType.I16)
                    b.vld(v(4), ea=res_ea + 8, stride=16, vl=vl,
                          etype=ElemType.I16)
                    b.simd(Opcode.PADDSW, v(1), v(1), v(3),
                           etype=ElemType.I16)
                    b.simd(Opcode.PADDSW, v(2), v(2), v(4),
                           etype=ElemType.I16)
                    b.simd(Opcode.PACKUSWB, v(5), v(1), v(2),
                           etype=ElemType.U8)
                    b.vst(v(5), ea=out_ea, stride=8, vl=vl,
                          etype=ElemType.U8)
                b.branch()
