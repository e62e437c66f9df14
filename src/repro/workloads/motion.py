"""Full-search motion estimation kernels (the paper's running example).

This is the `fullsearch` kernel of Figs. 1 and 4: for each current
macroblock, scan a +-``win`` pixel window in the reference frame for
the candidate with the minimal sum of absolute differences.  The i
(pixels in a row) and j (rows) loops vectorize; the k loop over
candidates has a data-dependent min-update and cannot — but its
*memory* accesses can, which is precisely what the 3D load exploits:
one ``dvload3`` fetches the row slab covering all horizontal candidates
of a row offset, and each candidate becomes byte-aligned ``dvmov3``
slices walking the pointer (+8 to reach the block's second word, -7 to
step one pixel right for the next candidate).

MPEG-2 motion estimation works on 16x16 macroblocks (two 64-bit words
per row, 16 rows — a full MOM vector register per word column), which
is what makes the kernel so memory-bound: 32 strided references per
candidate against eight cheap SAD operations.
"""

from __future__ import annotations

import numpy as np

from repro.isa import ElemType, Opcode, ProgramBuilder, acc, d3, r, v

#: linear candidate index: (dy + win) * (2*win + 1) + (dx + win)
BIG_SAD = 1 << 30


def reference(ref: np.ndarray, cur: np.ndarray,
              blocks: list[tuple[int, int]], win: int,
              bsize: int = 16) -> list[tuple[int, int]]:
    """(best candidate index, best SAD) per block, first minimum wins."""
    results = []
    for bx, by in blocks:
        block = cur[by:by + bsize, bx:bx + bsize].astype(np.int64)
        best_idx, best_sad = 0, BIG_SAD
        idx = 0
        for dy in range(-win, win + 1):
            for dx in range(-win, win + 1):
                cand = ref[by + dy:by + dy + bsize,
                           bx + dx:bx + dx + bsize].astype(np.int64)
                sad = int(np.abs(cand - block).sum())
                if sad < best_sad:
                    best_idx, best_sad = idx, sad
                idx += 1
        results.append((best_idx, best_sad))
    return results


def _candidate_addr(ref_base: int, width: int, bx: int, by: int,
                    dx: int, dy: int) -> int:
    return ref_base + (by + dy) * width + bx + dx


def _min_update(b: ProgramBuilder) -> None:
    """Scalar min/pos update (the unvectorizable if-clause of loop k).

    Registers: r4 = candidate SAD, r1 = best SAD, r2 = best index,
    r3 = candidate index counter.
    """
    b.slt(r(5), r(4), r(1))
    b.cmov(r(1), r(5), r(4))
    b.cmov(r(2), r(5), r(3))
    b.addi(r(3), r(3), 1)


def _store_result(b: ProgramBuilder, results_base: int,
                  block_no: int) -> None:
    b.st(r(2), ea=results_base + 16 * block_no)
    b.st(r(1), ea=results_base + 16 * block_no + 8)


def emit_mom(b: ProgramBuilder, ref_base: int, cur_base: int,
             results_base: int, width: int,
             blocks: list[tuple[int, int]], win: int,
             bsize: int = 16) -> None:
    """MOM coding: one strided 2D load per word column per candidate."""
    words = bsize // 8
    with b.tagged("motion"):
        b.setvl(bsize)
        for block_no, (bx, by) in enumerate(blocks):
            for w in range(words):  # current block is invariant: hoisted
                b.vld(v(8 + w), ea=cur_base + by * width + bx + 8 * w,
                      stride=width, etype=ElemType.U8)
            b.li(r(1), BIG_SAD)
            b.li(r(2), 0)
            b.li(r(3), 0)
            for dy in range(-win, win + 1):
                for dx in range(-win, win + 1):
                    base = _candidate_addr(ref_base, width, bx,
                                           by, dx, dy)
                    b.clracc(acc(0))
                    for w in range(words):
                        b.vld(v(w), ea=base + 8 * w, stride=width,
                              etype=ElemType.U8)
                        b.vpsadacc(acc(0), v(w), v(8 + w))
                    b.movacc(r(4), acc(0))
                    _min_update(b)
                b.branch()
            _store_result(b, results_base, block_no)


def emit_mom3d(b: ProgramBuilder, ref_base: int, cur_base: int,
               results_base: int, width: int,
               blocks: list[tuple[int, int]], win: int,
               bsize: int = 16) -> None:
    """MOM + 3D coding: one dvload3 per row offset covering all dx."""
    words = bsize // 8
    n_dx = 2 * win + 1
    wwords = (bsize + n_dx - 1 + 7) // 8  # slab: block width + shifts
    offsets = list(range(-win, win + 1))
    with b.tagged("motion"):
        b.setvl(bsize)
        for block_no, (bx, by) in enumerate(blocks):
            for w in range(words):
                b.vld(v(8 + w), ea=cur_base + by * width + bx + 8 * w,
                      stride=width, etype=ElemType.U8)
            b.li(r(1), BIG_SAD)
            b.li(r(2), 0)
            b.li(r(3), 0)
            # Double-buffer the two logical 3D registers: the next row
            # offset's slab is fetched while the current one is sliced,
            # which is the binding-prefetch effect the paper credits
            # for the 3D extension's latency robustness.
            b.dvload3(d3(0), ea=_candidate_addr(
                ref_base, width, bx, by, -win, offsets[0]),
                stride=width, wwords=wwords, etype=ElemType.U8)
            for dy_no, dy in enumerate(offsets):
                if dy_no + 1 < len(offsets):
                    b.dvload3(d3((dy_no + 1) % 2), ea=_candidate_addr(
                        ref_base, width, bx, by, -win,
                        offsets[dy_no + 1]),
                        stride=width, wwords=wwords, etype=ElemType.U8)
                slab = d3(dy_no % 2)
                for _dx in range(n_dx):
                    b.clracc(acc(0))
                    # walk the block's words (+8), then step one
                    # pixel right for the next candidate (net +1).
                    for w in range(words):
                        last = w == words - 1
                        b.dvmov3(v(0), slab,
                                 pstride=(1 - 8 * (words - 1))
                                 if last else 8)
                        b.vpsadacc(acc(0), v(0), v(8 + w))
                    b.movacc(r(4), acc(0))
                    _min_update(b)
                b.branch()
            _store_result(b, results_base, block_no)


def emit_mmx(b: ProgramBuilder, ref_base: int, cur_base: int,
             results_base: int, width: int,
             blocks: list[tuple[int, int]], win: int,
             bsize: int = 16) -> None:
    """MMX-style coding: one 64-bit load + psadbw per word per row.

    For 16x16 macroblocks the current block (32 words) does not fit the
    register file, so it is re-loaded per candidate — exactly the
    register pressure a hand-written MMX fullsearch fights.
    """
    words = bsize // 8
    preload = words * bsize <= 8  # 8x8 blocks fit in v8..v15
    with b.tagged("motion"):
        for block_no, (bx, by) in enumerate(blocks):
            cur_addr = cur_base + by * width + bx
            if preload:
                for i in range(bsize):
                    b.vld(v(8 + i), ea=cur_addr + i * width, stride=width,
                          vl=1, etype=ElemType.U8)
            b.li(r(1), BIG_SAD)
            b.li(r(2), 0)
            b.li(r(3), 0)
            for dy in range(-win, win + 1):
                for dx in range(-win, win + 1):
                    base = _candidate_addr(ref_base, width, bx,
                                           by, dx, dy)
                    b.vbcast64(v(7), 0)  # SAD accumulator (pxor)
                    for i in range(bsize):
                        for w in range(words):
                            b.vld(v(0),
                                  ea=base + i * width + 8 * w,
                                  stride=width, vl=1,
                                  etype=ElemType.U8)
                            if preload:
                                curreg = v(8 + i)
                            else:
                                curreg = v(2)
                                b.vld(curreg,
                                      ea=(cur_addr + i * width
                                          + 8 * w),
                                      stride=width, vl=1,
                                      etype=ElemType.U8)
                            b.simd(Opcode.PSADBW, v(1), v(0),
                                   curreg, etype=ElemType.U8)
                            b.simd(Opcode.PADDD, v(7), v(7), v(1),
                                   etype=ElemType.I32)
                    b.movd(r(4), v(7))
                    _min_update(b)
                b.branch()
            _store_result(b, results_base, block_no)


def check_results(memory, results_base: int,
                  expected: list[tuple[int, int]]) -> None:
    """Compare the stored (index, SAD) pairs against the reference."""
    for block_no, (exp_idx, exp_sad) in enumerate(expected):
        got_idx = memory.read_u64(results_base + 16 * block_no)
        got_sad = memory.read_u64(results_base + 16 * block_no + 8)
        assert got_idx == exp_idx, (
            f"block {block_no}: best index {got_idx} != {exp_idx}")
        assert got_sad == exp_sad, (
            f"block {block_no}: best SAD {got_sad} != {exp_sad}")
