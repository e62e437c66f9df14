"""JPEG encoder and decoder workloads.

*Encode*: planar RGB -> Y color conversion (dense streams), 2:1
down-sampling (vertical row pairs — coded with two 3D registers holding
the even/odd row slabs), forward DCT and quantization.

*Decode*: inverse DCT, 1:2 chroma up-sampling and YCbCr -> RGB
conversion.  Its memory patterns are wide consecutive runs, and — as
the paper notes in Sec. 5.1 — it has no exploitable 3-dimensional
patterns, so its ``mom3d`` coding is identical to ``mom``.

Scaling: 64x64 planes (encode), 64x32 luma + 32x32 chroma (decode).
"""

from __future__ import annotations

import numpy as np

from repro.isa import ElemType, Opcode, ProgramBuilder, d3, v
from repro.vm.memory import Arena, FlatMemory
from repro.workloads.base import Benchmark, BuiltWorkload
from repro.workloads.dctkernels import (
    BlockGroupPass,
    QuantizePass,
    group_to_soa,
    soa_to_group,
)
from repro.workloads.dctmath import bcast16, dct_matrix_q15
from repro.workloads.frames import synthetic_frame, synthetic_rgb

E_W, E_H = 64, 64  # encode plane size
COEF_ROWS = 16  # two DCT groups

#: Y = (38 R + 75 G + 15 B + 64) >> 7  (fits i16: max 128*255 = 32640)
_YR, _YG, _YB, _YBIAS = 38, 75, 15, 64


def _avgb(a, b):
    return ((a.astype(np.int32) + b.astype(np.int32) + 1) >> 1).astype(
        np.uint8)


def rgb_to_y_reference(red, green, blue):
    """numpy mirror of the color-conversion kernel."""
    acc = (_YR * red.astype(np.int32) + _YG * green.astype(np.int32)
           + _YB * blue.astype(np.int32) + _YBIAS) >> 7
    return np.clip(acc, 0, 255).astype(np.uint8)


def downsample_reference(plane):
    """numpy mirror of the 2:1 down-sampling kernel (pavgb trick)."""
    vert = _avgb(plane[0::2, :], plane[1::2, :])
    return _avgb(vert[:, 0::2], vert[:, 1::2])


def upsample_reference(plane):
    """numpy mirror of 1:2 horizontal up-sampling (punpck with self)."""
    return np.repeat(plane, 2, axis=1)


def ycc_to_rgb_reference(y, cb, cr):
    """numpy mirror of the YCbCr -> RGB kernel (i16 fixed point)."""
    y16 = y.astype(np.int32)
    cb16 = cb.astype(np.int32) - 128
    cr16 = cr.astype(np.int32) - 128
    red = y16 + ((90 * cr16) >> 6)
    green = y16 - ((22 * cb16 + 46 * cr16) >> 6)
    blue = y16 + ((114 * cb16) >> 6)
    clamp = lambda p: np.clip(p, 0, 255).astype(np.uint8)  # noqa: E731
    return clamp(red), clamp(green), clamp(blue)


class JpegEncode(Benchmark):
    """jpeg encode: color conversion, downsample, FDCT, quantization."""

    name = "jpeg_encode"
    has_3d = True

    def _build(self, coding: str, seed: int) -> BuiltWorkload:
        memory = FlatMemory(1 << 20)
        arena = Arena(memory)

        red, green, blue = synthetic_rgb(E_W, E_H, seed)
        pixels = np.random.default_rng(seed + 3).integers(
            -128, 128, size=(COEF_ROWS, E_W)).astype(np.int16)

        r_addr = arena.alloc_array(red)
        g_addr = arena.alloc_array(green)
        b_addr = arena.alloc_array(blue)
        y_addr = arena.alloc(E_W * E_H)
        down_addr = arena.alloc((E_W // 2) * (E_H // 2))
        pix_addr = arena.alloc_array(pixels)
        dct_addr = arena.alloc(pixels.nbytes)
        quant_addr = arena.alloc(pixels.nbytes)
        scratch = arena.alloc(512)

        cq = dct_matrix_q15()
        fdct = BlockGroupPass(cq.T, cq, pre_shift_left=3, tag="fdct")
        recip = np.full((8, 8), 1 << 12, dtype=np.int16)
        quant = QuantizePass(recip, post_shift=1)

        b = ProgramBuilder(f"jpeg_encode/{coding}")
        self._emit_colorconv(b, coding, r_addr, g_addr, b_addr, y_addr)
        self._emit_downsample(b, coding, y_addr, down_addr)
        row_bytes = 2 * E_W
        for group in range(COEF_ROWS // 8):
            in_addr = pix_addr + group * 8 * row_bytes
            out_addr = dct_addr + group * 8 * row_bytes
            if coding == "mmx":
                fdct.emit_mmx(b, in_addr, row_bytes, out_addr,
                              row_bytes, scratch)
            else:
                fdct.emit_mom(b, in_addr, row_bytes, out_addr,
                              row_bytes, scratch,
                              use3d=(coding == "mom3d"))
        for group in range(COEF_ROWS // 8):
            in_addr = dct_addr + group * 8 * row_bytes
            out_addr = quant_addr + group * 8 * row_bytes
            if coding == "mmx":
                quant.emit_mmx(b, in_addr, row_bytes, out_addr,
                               row_bytes)
            else:
                quant.emit_mom(b, in_addr, row_bytes, out_addr,
                               row_bytes, use3d=(coding == "mom3d"))

        def check(state, mem):
            y_expected = rgb_to_y_reference(red, green, blue)
            down_expected = downsample_reference(y_expected)
            dct_expected = np.vstack([
                fdct.reference_group(pixels[8 * g:8 * g + 8])
                for g in range(COEF_ROWS // 8)])
            quant_expected = np.vstack([
                quant.reference_group(dct_expected[8 * g:8 * g + 8])
                for g in range(COEF_ROWS // 8)])
            got_y = mem.read_array(y_addr, y_expected.shape, np.uint8)
            np.testing.assert_array_equal(got_y, y_expected)
            got_down = mem.read_array(down_addr, down_expected.shape,
                                      np.uint8)
            np.testing.assert_array_equal(got_down, down_expected)
            got_dct = mem.read_array(dct_addr, dct_expected.shape, np.int16)
            np.testing.assert_array_equal(got_dct, dct_expected)
            got_q = mem.read_array(quant_addr, quant_expected.shape,
                                   np.int16)
            np.testing.assert_array_equal(got_q, quant_expected)

        return BuiltWorkload(
            name=self.name, coding=coding, program=b.program,
            memory=memory, check=check, notes={"plane": (E_W, E_H)})

    # -- color conversion (dense rows) -----------------------------------------

    def _emit_colorconv(self, b: ProgramBuilder, coding: str, r_addr: int,
                        g_addr: int, b_addr: int, y_addr: int) -> None:
        vl = 1 if coding == "mmx" else 16
        words_total = E_W * E_H // 8
        with b.tagged("colorconv"):
            if coding != "mmx":
                b.setvl(16)
            for word0 in range(0, words_total, vl):
                offset = 8 * word0
                b.vld(v(0), ea=r_addr + offset, stride=8, vl=vl,
                      etype=ElemType.U8)
                b.vld(v(1), ea=g_addr + offset, stride=8, vl=vl,
                      etype=ElemType.U8)
                b.vld(v(2), ea=b_addr + offset, stride=8, vl=vl,
                      etype=ElemType.U8)
                b.replay(self._colorconv_word)
                b.vst(v(10), ea=y_addr + offset, stride=8, vl=vl,
                      etype=ElemType.U8)
                b.branch()

    @staticmethod
    def _colorconv_word(b: ProgramBuilder) -> None:
        """Y of the pixel words in v0/v1/v2 (R/G/B), packed into v10."""
        for half, unpack in enumerate((Opcode.PUNPCKLBZ, Opcode.PUNPCKHBZ)):
            b.simd(unpack, v(3), v(0), etype=ElemType.I16)
            b.simd(unpack, v(4), v(1), etype=ElemType.I16)
            b.simd(unpack, v(5), v(2), etype=ElemType.I16)
            b.vbcast64(v(6), bcast16(_YR))
            b.simd(Opcode.PMULLW, v(3), v(3), v(6), etype=ElemType.I16)
            b.vbcast64(v(6), bcast16(_YG))
            b.simd(Opcode.PMULLW, v(4), v(4), v(6), etype=ElemType.I16)
            b.vbcast64(v(6), bcast16(_YB))
            b.simd(Opcode.PMULLW, v(5), v(5), v(6), etype=ElemType.I16)
            b.simd(Opcode.PADDW, v(3), v(3), v(4), etype=ElemType.I16)
            b.simd(Opcode.PADDW, v(3), v(3), v(5), etype=ElemType.I16)
            b.vbcast64(v(6), bcast16(_YBIAS))
            b.simd(Opcode.PADDW, v(3), v(3), v(6), etype=ElemType.I16)
            b.simd(Opcode.PSRAW, v(3), v(3), etype=ElemType.I16, imm=7)
            target = v(8) if half == 0 else v(9)
            b.simd(Opcode.POR, target, v(3), v(3), etype=ElemType.I16)
        b.simd(Opcode.PACKUSWB, v(10), v(8), v(9), etype=ElemType.U8)

    # -- 2:1 downsample (the 3D showcase: even/odd row slabs) ----------------------

    def _emit_downsample(self, b: ProgramBuilder, coding: str,
                         y_addr: int, down_addr: int) -> None:
        """out[j][i] = avg4(in[2j][2i..], in[2j+1][2i..]).

        MOM coding: the even/odd row streams have element stride
        2*row_bytes — one word per vector-cache access.  MOM+3D loads
        whole rows into d0 (even) / d1 (odd) once and slices every
        word out of the 3D RF (pointer stride 8): criterion (a) plus
        the invariance of the slabs across the word loop.
        """
        row_bytes = E_W  # u8 plane
        out_row_bytes = E_W // 2
        n_out_rows = E_H // 2
        words_per_row = E_W // 8
        mask = 0x00FF_00FF_00FF_00FF
        with b.tagged("downsample"):
            if coding == "mmx":
                self._emit_downsample_mmx(b, y_addr, down_addr, mask)
                return
            b.setvl(8)
            for chunk0 in range(0, n_out_rows, 8):
                even = y_addr + (2 * chunk0) * row_bytes
                odd = even + row_bytes
                use3d = coding == "mom3d"
                if use3d:
                    b.dvload3(d3(0), ea=even, stride=2 * row_bytes,
                              wwords=words_per_row, etype=ElemType.U8)
                    b.dvload3(d3(1), ea=odd, stride=2 * row_bytes,
                              wwords=words_per_row, etype=ElemType.U8)
                for pair in range(words_per_row // 2):
                    for sub in range(2):
                        word = 2 * pair + sub
                        if use3d:
                            b.dvmov3(v(0), d3(0), pstride=8)
                            b.dvmov3(v(1), d3(1), pstride=8)
                        else:
                            b.vld(v(0), ea=even + 8 * word,
                                  stride=2 * row_bytes,
                                  etype=ElemType.U8)
                            b.vld(v(1), ea=odd + 8 * word,
                                  stride=2 * row_bytes,
                                  etype=ElemType.U8)
                        b.simd(Opcode.PAVGB, v(2), v(0), v(1),
                               etype=ElemType.U8)
                        b.simd(Opcode.PSRLQ, v(3), v(2),
                               etype=ElemType.U8, imm=8)
                        b.simd(Opcode.PAVGB, v(2), v(2), v(3),
                               etype=ElemType.U8)
                        b.vbcast64(v(3), mask)
                        b.simd(Opcode.PAND, v(2), v(2), v(3),
                               etype=ElemType.I16)
                        target = v(8) if sub == 0 else v(9)
                        b.simd(Opcode.POR, target, v(2), v(2),
                               etype=ElemType.I16)
                    b.simd(Opcode.PACKUSWB, v(10), v(8), v(9),
                           etype=ElemType.U8)
                    out = (down_addr + chunk0 * out_row_bytes
                           + 8 * pair)
                    b.vst(v(10), ea=out, stride=out_row_bytes,
                          etype=ElemType.U8)
                    b.branch()

    def _emit_downsample_mmx(self, b: ProgramBuilder, y_addr: int,
                             down_addr: int, mask: int) -> None:
        row_bytes = E_W
        out_row_bytes = E_W // 2
        for out_row in range(E_H // 2):
            even = y_addr + (2 * out_row) * row_bytes
            odd = even + row_bytes
            for pair in range(E_W // 16):
                for sub in range(2):
                    word = 2 * pair + sub
                    b.vld(v(0), ea=even + 8 * word, stride=8,
                          vl=1, etype=ElemType.U8)
                    b.vld(v(1), ea=odd + 8 * word, stride=8,
                          vl=1, etype=ElemType.U8)
                    b.simd(Opcode.PAVGB, v(2), v(0), v(1),
                           etype=ElemType.U8)
                    b.simd(Opcode.PSRLQ, v(3), v(2),
                           etype=ElemType.U8, imm=8)
                    b.simd(Opcode.PAVGB, v(2), v(2), v(3),
                           etype=ElemType.U8)
                    b.vbcast64(v(3), mask)
                    b.simd(Opcode.PAND, v(2), v(2), v(3),
                           etype=ElemType.I16)
                    target = v(8) if sub == 0 else v(9)
                    b.simd(Opcode.POR, target, v(2), v(2),
                           etype=ElemType.I16)
                b.simd(Opcode.PACKUSWB, v(10), v(8), v(9),
                       etype=ElemType.U8)
                out = (down_addr + out_row * out_row_bytes
                       + 8 * pair)
                b.vst(v(10), ea=out, stride=8, vl=1,
                      etype=ElemType.U8)
                b.branch()


class JpegDecode(Benchmark):
    """jpeg decode: IDCT, chroma upsample, YCbCr -> RGB conversion.

    No exploitable 3D memory patterns (paper Sec. 5.1): all streams are
    already wide consecutive runs, so ``mom3d`` falls back to ``mom``.
    """

    name = "jpeg_decode"
    has_3d = False

    def _build(self, coding: str, seed: int) -> BuiltWorkload:
        memory = FlatMemory(1 << 20)
        arena = Arena(memory)

        coeffs = np.random.default_rng(seed).integers(
            -2048, 2048, size=(COEF_ROWS, E_W)).astype(np.int16)
        y_plane = synthetic_frame(E_W, 32, seed + 1)
        cb = synthetic_frame(E_W // 2, 32, seed + 2)
        cr = synthetic_frame(E_W // 2, 32, seed + 3)

        # jpeg decode's coefficient streams are wide consecutive runs
        # (paper Sec. 3.2), so the IDCT I/O lives in stream-wise (SoA)
        # layout: one contiguous kilobyte per block group.
        soa_in = np.concatenate([
            group_to_soa(coeffs[8 * g:8 * g + 8])
            for g in range(COEF_ROWS // 8)])
        coef_addr = arena.alloc_array(soa_in)
        idct_addr = arena.alloc(soa_in.nbytes)
        y_addr = arena.alloc_array(y_plane)
        cb_addr = arena.alloc_array(cb)
        cr_addr = arena.alloc_array(cr)
        cbu_addr = arena.alloc(E_W * 32)
        cru_addr = arena.alloc(E_W * 32)
        r_addr = arena.alloc(E_W * 32)
        g_addr = arena.alloc(E_W * 32)
        b_addr2 = arena.alloc(E_W * 32)
        scratch = arena.alloc(512)

        cq = dct_matrix_q15()
        idct = BlockGroupPass(cq, cq.T, pre_shift_right=2, tag="idct",
                              layout="soa")

        b = ProgramBuilder(f"jpeg_decode/{coding}")
        group_bytes = 1024  # one SoA block group
        for group in range(COEF_ROWS // 8):
            in_addr = coef_addr + group * group_bytes
            out_addr = idct_addr + group * group_bytes
            if coding == "mmx":
                idct.emit_mmx(b, in_addr, 0, out_addr, 0, scratch)
            else:
                idct.emit_mom(b, in_addr, 0, out_addr, 0, scratch,
                              use3d=False)
        self._emit_upsample(b, coding, cb_addr, cbu_addr)
        self._emit_upsample(b, coding, cr_addr, cru_addr)
        self._emit_ycc2rgb(b, coding, y_addr, cbu_addr, cru_addr,
                           r_addr, g_addr, b_addr2)

        def check(state, mem):
            idct_expected = np.vstack([
                idct.reference_group(coeffs[8 * g:8 * g + 8])
                for g in range(COEF_ROWS // 8)])
            cbu_expected = upsample_reference(cb)
            cru_expected = upsample_reference(cr)
            rgb_expected = ycc_to_rgb_reference(y_plane, cbu_expected,
                                                cru_expected)
            got_soa = mem.read_array(idct_addr, (soa_in.size,), np.int16)
            got_idct = np.vstack([
                soa_to_group(got_soa[512 * g:512 * (g + 1)])
                for g in range(COEF_ROWS // 8)])
            np.testing.assert_array_equal(got_idct, idct_expected)
            got_cbu = mem.read_array(cbu_addr, cbu_expected.shape, np.uint8)
            np.testing.assert_array_equal(got_cbu, cbu_expected)
            for addr, expected in zip((r_addr, g_addr, b_addr2),
                                      rgb_expected):
                got = mem.read_array(addr, expected.shape, np.uint8)
                np.testing.assert_array_equal(got, expected)

        return BuiltWorkload(
            name=self.name, coding=coding, program=b.program,
            memory=memory, check=check, notes={"luma": (E_W, 32)})

    def _emit_upsample(self, b: ProgramBuilder, coding: str, in_addr: int,
                       out_addr: int) -> None:
        """1:2 horizontal upsample: punpck each word with itself."""
        vl = 1 if coding == "mmx" else 16
        total_words = (E_W // 2) * 32 // 8
        with b.tagged("upsample"):
            if coding != "mmx":
                b.setvl(16)
            for word0 in range(0, total_words, vl):
                b.vld(v(0), ea=in_addr + 8 * word0, stride=8, vl=vl,
                      etype=ElemType.U8)
                b.simd(Opcode.PUNPCKLBW, v(1), v(0), v(0),
                       etype=ElemType.U8)
                b.simd(Opcode.PUNPCKHBW, v(2), v(0), v(0),
                       etype=ElemType.U8)
                b.vst(v(1), ea=out_addr + 16 * word0, stride=16,
                      vl=vl, etype=ElemType.U8)
                b.vst(v(2), ea=out_addr + 16 * word0 + 8, stride=16,
                      vl=vl, etype=ElemType.U8)
                b.branch()

    def _emit_ycc2rgb(self, b: ProgramBuilder, coding: str, y_addr: int,
                      cb_addr: int, cr_addr: int, r_addr: int,
                      g_addr: int, b_addr: int) -> None:
        vl = 1 if coding == "mmx" else 16
        total_words = E_W * 32 // 8
        with b.tagged("ycc2rgb"):
            if coding != "mmx":
                b.setvl(16)
            for word0 in range(0, total_words, vl):
                offset = 8 * word0
                b.vld(v(0), ea=y_addr + offset, stride=8, vl=vl,
                      etype=ElemType.U8)
                b.vld(v(1), ea=cb_addr + offset, stride=8, vl=vl,
                      etype=ElemType.U8)
                b.vld(v(2), ea=cr_addr + offset, stride=8, vl=vl,
                      etype=ElemType.U8)
                b.replay(self._ycc2rgb_word)
                b.simd(Opcode.PACKUSWB, v(7), v(10), v(11),
                       etype=ElemType.U8)
                b.vst(v(7), ea=r_addr + offset, stride=8, vl=vl,
                      etype=ElemType.U8)
                b.simd(Opcode.PACKUSWB, v(8), v(12), v(13),
                       etype=ElemType.U8)
                b.vst(v(8), ea=g_addr + offset, stride=8, vl=vl,
                      etype=ElemType.U8)
                b.simd(Opcode.PACKUSWB, v(9), v(14), v(15),
                       etype=ElemType.U8)
                b.vst(v(9), ea=b_addr + offset, stride=8, vl=vl,
                      etype=ElemType.U8)
                b.branch()

    @staticmethod
    def _ycc2rgb_word(b: ProgramBuilder) -> None:
        """R, G and B of the pixel words in v0/v1/v2 (Y/Cb/Cr), as i16
        halves in v10/v11, v12/v13 and v14/v15."""
        for half, unpack in enumerate((Opcode.PUNPCKLBZ, Opcode.PUNPCKHBZ)):
            b.simd(unpack, v(3), v(0), etype=ElemType.I16)
            b.simd(unpack, v(4), v(1), etype=ElemType.I16)
            b.simd(unpack, v(5), v(2), etype=ElemType.I16)
            b.vbcast64(v(6), bcast16(128))
            b.simd(Opcode.PSUBW, v(4), v(4), v(6), etype=ElemType.I16)
            b.simd(Opcode.PSUBW, v(5), v(5), v(6), etype=ElemType.I16)
            # red = y + (90*cr >> 6)
            b.vbcast64(v(6), bcast16(90))
            b.simd(Opcode.PMULLW, v(7), v(5), v(6), etype=ElemType.I16)
            b.simd(Opcode.PSRAW, v(7), v(7), etype=ElemType.I16, imm=6)
            b.simd(Opcode.PADDW, v(7), v(7), v(3), etype=ElemType.I16)
            b.simd(Opcode.POR, v(10 + half), v(7), v(7),
                   etype=ElemType.I16)
            # green = y - ((22*cb + 46*cr) >> 6)
            b.vbcast64(v(6), bcast16(22))
            b.simd(Opcode.PMULLW, v(8), v(4), v(6), etype=ElemType.I16)
            b.vbcast64(v(6), bcast16(46))
            b.simd(Opcode.PMULLW, v(9), v(5), v(6), etype=ElemType.I16)
            b.simd(Opcode.PADDW, v(8), v(8), v(9), etype=ElemType.I16)
            b.simd(Opcode.PSRAW, v(8), v(8), etype=ElemType.I16, imm=6)
            b.simd(Opcode.PSUBW, v(8), v(3), v(8), etype=ElemType.I16)
            b.simd(Opcode.POR, v(12 + half), v(8), v(8),
                   etype=ElemType.I16)
            # blue = y + (114*cb >> 6)
            b.vbcast64(v(6), bcast16(114))
            b.simd(Opcode.PMULLW, v(9), v(4), v(6), etype=ElemType.I16)
            b.simd(Opcode.PSRAW, v(9), v(9), etype=ElemType.I16, imm=6)
            b.simd(Opcode.PADDW, v(9), v(9), v(3), etype=ElemType.I16)
            b.simd(Opcode.POR, v(14 + half), v(9), v(9),
                   etype=ElemType.I16)
