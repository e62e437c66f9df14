"""8x8 block DCT/IDCT kernel emitters in the three codings.

The MOM codings vectorize across the 8 horizontally adjacent blocks of
a *block group* (vector dimension = blocks, uSIMD dimension = 4 x i16
lanes), which makes every arithmetic step per-element.  One 8x8 pass
over a group is two lane-wise matrix passes:

* row pass ``T = X . M``: per input row, splat each of the 8 lane
  values and multiply-accumulate against a broadcast coefficient
  pattern (Q15, via ``pmulhrs``/``paddsw``);
* column pass ``OUT = W . T``: per output row, accumulate broadcast
  scalar coefficients against the kept T rows.

T's low halves stay in v8..v15; high halves round-trip through a
dense scratch buffer (16 registers cannot hold all 16 T words plus
temporaries — the same spill a hand-written MMX coding performs).

The 3D variant replaces each row's two strided loads (element stride
16 bytes, which a vector cache serves one word per access) with one
``dvload3`` of the 16-byte row slab plus two slice moves — fewer, wider
cache accesses, exactly the paper's criterion (a) for using 3D loads.
"""

from __future__ import annotations

import numpy as np

from repro.isa import ElemType, Opcode, ProgramBuilder, d3, v
from repro.workloads.dctmath import (
    bcast16,
    col_pass_fixed,
    lane_pattern,
    row_pass_fixed,
    sllw,
    sraw,
)


def group_to_soa(group: np.ndarray) -> np.ndarray:
    """Convert an (8, 64) i16 block group to stream-wise (SoA) layout.

    SoA word order: word w of every block is contiguous —
    ``soa[w*32 + b*4 + lane] = group[w // 2, 8*b + 4*(w % 2) + lane]``.
    This is the layout a streaming producer (e.g. the entropy decoder
    writing one coefficient stream per word position) leaves in memory;
    it makes the jpeg-decode IDCT's loads and stores wide consecutive
    runs, matching the paper's characterization of that benchmark.
    """
    group = np.asarray(group, dtype=np.int16).reshape(8, 64)
    soa = np.empty(512, dtype=np.int16)
    for word in range(16):
        row, half = word // 2, word % 2
        for blk in range(8):
            lanes = group[row, 8 * blk + 4 * half:8 * blk + 4 * half + 4]
            soa[word * 32 + blk * 4:word * 32 + blk * 4 + 4] = lanes
    return soa


def soa_to_group(soa: np.ndarray) -> np.ndarray:
    """Inverse of :func:`group_to_soa`."""
    soa = np.asarray(soa, dtype=np.int16).reshape(512)
    group = np.empty((8, 64), dtype=np.int16)
    for word in range(16):
        row, half = word // 2, word % 2
        for blk in range(8):
            group[row, 8 * blk + 4 * half:8 * blk + 4 * half + 4] = \
                soa[word * 32 + blk * 4:word * 32 + blk * 4 + 4]
    return group


class _Layout:
    """Address generator for one block group in a given layout."""

    def __init__(self, kind: str, base: int, row_stride: int):
        if kind not in ("image", "soa"):
            raise ValueError(f"unknown layout {kind!r}")
        self.kind = kind
        self.base = base
        self.row_stride = row_stride

    def word_addr(self, row: int, half: int, blk: int = 0) -> int:
        if self.kind == "image":
            return (self.base + row * self.row_stride + 8 * half
                    + 16 * blk)
        word = 2 * row + half
        return self.base + 64 * word + 8 * blk

    @property
    def elem_stride(self) -> int:
        """Byte distance between the same word of adjacent blocks."""
        return 16 if self.kind == "image" else 8


class BlockGroupPass:
    """One separable 8x8 transform over a group of 8 adjacent blocks."""

    def __init__(self, m1_q15: np.ndarray, w_q15: np.ndarray,
                 pre_shift_left: int = 0, pre_shift_right: int = 0,
                 tag: str = "dct", layout: str = "image"):
        self.m1 = np.asarray(m1_q15, dtype=np.int16)
        self.w = np.asarray(w_q15, dtype=np.int16)
        self.pre_shift_left = pre_shift_left
        self.pre_shift_right = pre_shift_right
        self.tag = tag
        self.layout = layout

    # -- numpy mirror -----------------------------------------------------------

    def reference_block(self, block: np.ndarray) -> np.ndarray:
        x = np.asarray(block, dtype=np.int16)
        if self.pre_shift_left:
            x = sllw(x, self.pre_shift_left)
        if self.pre_shift_right:
            x = sraw(x, self.pre_shift_right)
        return col_pass_fixed(self.w, row_pass_fixed(x, self.m1))

    def reference_group(self, group: np.ndarray) -> np.ndarray:
        """Apply to an (8, 64) i16 group (8 blocks side by side)."""
        out = np.empty_like(group, dtype=np.int16)
        for blk in range(8):
            out[:, 8 * blk:8 * blk + 8] = self.reference_block(
                group[:, 8 * blk:8 * blk + 8])
        return out

    # -- shared emission pieces ----------------------------------------------------

    def _prescale(self, b: ProgramBuilder) -> None:
        for reg in (v(0), v(1)):
            if self.pre_shift_left:
                b.simd(Opcode.PSLLW, reg, reg, etype=ElemType.I16,
                       imm=self.pre_shift_left)
            if self.pre_shift_right:
                b.simd(Opcode.PSRAW, reg, reg, etype=ElemType.I16,
                       imm=self.pre_shift_right)

    def _row_accumulate(self, b: ProgramBuilder) -> None:
        """v2/v3 += row-pass contributions of the row in v0 (lo), v1 (hi)."""
        b.vbcast64(v(2), 0)
        b.vbcast64(v(3), 0)
        for xi in range(8):
            src = v(0) if xi < 4 else v(1)
            b.splatlane(v(5), src, xi % 4)
            b.vbcast64(v(6), lane_pattern(self.m1[xi, 0:4]))
            b.simd(Opcode.PMULHRS, v(6), v(5), v(6), etype=ElemType.I16)
            b.simd(Opcode.PADDSW, v(2), v(2), v(6), etype=ElemType.I16)
            b.vbcast64(v(6), lane_pattern(self.m1[xi, 4:8]))
            b.simd(Opcode.PMULHRS, v(6), v(5), v(6), etype=ElemType.I16)
            b.simd(Opcode.PADDSW, v(3), v(3), v(6), etype=ElemType.I16)

    def _col_row(self, b: ProgramBuilder, u: int) -> None:
        """v2 = column-pass output row u from t rows in v8..v15."""
        b.vbcast64(v(2), 0)
        for k in range(8):
            b.vbcast64(v(6), bcast16(self.w[u, k]))
            b.simd(Opcode.PMULHRS, v(6), v(8 + k), v(6), etype=ElemType.I16)
            b.simd(Opcode.PADDSW, v(2), v(2), v(6), etype=ElemType.I16)

    # -- MOM / MOM+3D ----------------------------------------------------------------

    def emit_mom(self, b: ProgramBuilder, in_addr: int, in_stride: int,
                 out_addr: int, out_stride: int, scratch: int,
                 use3d: bool = False) -> None:
        """Emit one group pass (MOM coding, optionally with 3D loads).

        In the *image* layout ``in_addr``/``out_addr`` point at row 0,
        block 0, lo word of the group and the strides are the byte
        distances between pixel rows (2 x image width).  In the *soa*
        layout the strides are ignored (the group occupies 1 KB of
        word-major contiguous memory) and every load/store is a dense
        unit-stride run, so the 3D path offers nothing and ``use3d``
        must stay False.
        """
        lin = _Layout(self.layout, in_addr, in_stride)
        lout = _Layout(self.layout, out_addr, out_stride)
        if use3d and self.layout != "image":
            raise ValueError("3D loads only apply to the strided "
                             "image layout")
        with b.tagged(self.tag):
            b.setvl(8)
            if use3d:
                # double-buffer d0/d1: row r+1's slab loads while row
                # r's slices feed the row pass (binding prefetch)
                b.dvload3(d3(0), ea=lin.word_addr(0, 0), stride=16,
                          wwords=2, etype=ElemType.I16)
            for row in range(8):
                if use3d:
                    if row + 1 < 8:
                        b.dvload3(d3((row + 1) % 2),
                                  ea=lin.word_addr(row + 1, 0),
                                  stride=16, wwords=2,
                                  etype=ElemType.I16)
                    slab = d3(row % 2)
                    b.dvmov3(v(0), slab, pstride=8)
                    b.dvmov3(v(1), slab, pstride=8)
                else:
                    b.vld(v(0), ea=lin.word_addr(row, 0),
                          stride=lin.elem_stride, etype=ElemType.I16)
                    b.vld(v(1), ea=lin.word_addr(row, 1),
                          stride=lin.elem_stride, etype=ElemType.I16)
                self._prescale(b)
                self._row_accumulate(b)
                b.simd(Opcode.POR, v(8 + row), v(2), v(2),
                       etype=ElemType.I16)  # keep t_lo
                b.vst(v(3), ea=scratch + row * 64, stride=8,
                      etype=ElemType.I16)  # spill t_hi (dense)
                b.branch()
            for u in range(8):  # column pass, lo halves
                self._col_row(b, u)
                b.vst(v(2), ea=lout.word_addr(u, 0),
                      stride=lout.elem_stride, etype=ElemType.I16)
                b.branch()
            for k in range(8):  # reload t_hi
                b.vld(v(8 + k), ea=scratch + k * 64, stride=8,
                      etype=ElemType.I16)
            for u in range(8):  # column pass, hi halves
                self._col_row(b, u)
                b.vst(v(2), ea=lout.word_addr(u, 1),
                      stride=lout.elem_stride, etype=ElemType.I16)
                b.branch()

    # -- MMX ---------------------------------------------------------------------------

    def emit_mmx(self, b: ProgramBuilder, in_addr: int, in_stride: int,
                 out_addr: int, out_stride: int, scratch: int) -> None:
        """Emit the group pass block by block at VL = 1."""
        lin = _Layout(self.layout, in_addr, in_stride)
        lout = _Layout(self.layout, out_addr, out_stride)
        with b.tagged(self.tag):
            for blk in range(8):
                for row in range(8):
                    b.vld(v(0), ea=lin.word_addr(row, 0, blk),
                          stride=8, vl=1, etype=ElemType.I16)
                    b.vld(v(1), ea=lin.word_addr(row, 1, blk),
                          stride=8, vl=1, etype=ElemType.I16)
                    self._prescale(b)
                    self._row_accumulate(b)
                    b.simd(Opcode.POR, v(8 + row), v(2), v(2),
                           etype=ElemType.I16)
                    b.vst(v(3), ea=scratch + row * 64 + 8 * blk,
                          stride=8, vl=1, etype=ElemType.I16)
                    b.branch()
                for u in range(8):
                    self._col_row(b, u)
                    b.vst(v(2), ea=lout.word_addr(u, 0, blk),
                          stride=8, vl=1, etype=ElemType.I16)
                    b.branch()
                for k in range(8):
                    b.vld(v(8 + k), ea=scratch + k * 64 + 8 * blk,
                          stride=8, vl=1, etype=ElemType.I16)
                for u in range(8):
                    self._col_row(b, u)
                    b.vst(v(2), ea=lout.word_addr(u, 1, blk),
                          stride=8, vl=1, etype=ElemType.I16)
                    b.branch()


class QuantizePass:
    """Uniform quantization of a block group: q = (f * recip) >> shift.

    ``recip`` is a per-coefficient-position Q15 reciprocal table (8x8),
    broadcast as immediates — the layout every MMX JPEG encoder uses.
    """

    def __init__(self, recip_q15: np.ndarray, post_shift: int = 1,
                 tag: str = "quant"):
        self.recip = np.asarray(recip_q15, dtype=np.int16)
        self.post_shift = post_shift
        self.tag = tag

    def reference_block(self, block: np.ndarray) -> np.ndarray:
        from repro.workloads.dctmath import mulhrs
        q = mulhrs(np.asarray(block, np.int16), self.recip)
        return sraw(q, self.post_shift)

    def reference_group(self, group: np.ndarray) -> np.ndarray:
        out = np.empty_like(group, dtype=np.int16)
        for blk in range(8):
            out[:, 8 * blk:8 * blk + 8] = self.reference_block(
                group[:, 8 * blk:8 * blk + 8])
        return out

    def _compute_store(self, b: ProgramBuilder, row: int, half: int,
                       out: int, vl: int, stride: int) -> None:
        b.vbcast64(v(1), lane_pattern(
            self.recip[row, 4 * half:4 * half + 4]))
        b.simd(Opcode.PMULHRS, v(0), v(0), v(1), etype=ElemType.I16)
        b.simd(Opcode.PSRAW, v(0), v(0), etype=ElemType.I16,
               imm=self.post_shift)
        b.vst(v(0), ea=out, stride=stride, vl=vl, etype=ElemType.I16)

    def emit_mom(self, b: ProgramBuilder, in_addr: int, in_stride: int,
                 out_addr: int, out_stride: int,
                 use3d: bool = False) -> None:
        """MOM coding; with ``use3d`` the whole coefficient row of the
        group (one L2 line: 8 blocks x 16 bytes) is fetched with a
        single dvload3 and both halves are sliced out of the 3D RF."""
        with b.tagged(self.tag):
            b.setvl(8)
            for row in range(8):
                if use3d:
                    b.dvload3(d3(1), ea=in_addr + row * in_stride,
                              stride=16, wwords=2, etype=ElemType.I16)
                for half in range(2):
                    addr = in_addr + row * in_stride + 8 * half
                    out = out_addr + row * out_stride + 8 * half
                    if use3d:
                        b.dvmov3(v(0), d3(1), pstride=8)
                    else:
                        b.vld(v(0), ea=addr, stride=16,
                              etype=ElemType.I16)
                    self._compute_store(b, row, half, out, 8, 16)
                b.branch()

    def emit_mmx(self, b: ProgramBuilder, in_addr: int, in_stride: int,
                 out_addr: int, out_stride: int) -> None:
        with b.tagged(self.tag):
            for blk in range(8):
                for row in range(8):
                    for half in range(2):
                        addr = (in_addr + 16 * blk
                                + row * in_stride + 8 * half)
                        out = (out_addr + 16 * blk
                               + row * out_stride + 8 * half)
                        b.vld(v(0), ea=addr, stride=8, vl=1,
                              etype=ElemType.I16)
                        self._compute_store(b, row, half, out,
                                            1, 8)
                    b.branch()
