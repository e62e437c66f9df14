"""Vectorizing code generation: loop nests -> MOM / MOM+3D traces.

Two passes, mirroring the paper's methodology:

* :func:`compile_reduce_select` / :func:`compile_map` perform classic
  2D vectorization — innermost loop to the uSIMD dimension, second
  loop to the MOM vector length — after the legality checks in
  :mod:`repro.compiler.dependence`.
* With ``use_3d=True`` the *3D memory vectorization* pass additionally
  packs the outer loop's overlapping 2D load streams into ``dvload3``
  slabs and replaces the per-candidate loads with ``dvmov3`` slices.
  Per the paper this needs no dependence analysis beyond store/load
  aliasing, because only loads move: the select recurrence stays in
  scalar code untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CompileError
from repro.compiler.dependence import (
    check_map_legal,
    check_reduce_legal,
    check_vector_dim,
    pick_3d_candidates,
)
from repro.compiler.loopnest import MapNest, Ref, ReduceSelectNest
from repro.isa import ProgramBuilder, acc, d3, r, v

#: scalar register roles used by the generated select code
_BEST, _POS, _IDX, _VALUE, _COND = r(1), r(2), r(3), r(4), r(5)

_BIG = 1 << 30


@dataclass
class CompiledNest:
    """What the compiler produced for one nest."""

    builder: ProgramBuilder
    result_addr: int | None = None
    used_3d: bool = False
    chunk: int = 0


def _row_words(nest: ReduceSelectNest) -> int:
    width = nest.reduction.a.etype.width_bytes
    return nest.i.extent * width // 8


def _ea(ref: Ref, symbols: dict, env: dict) -> int:
    if ref.array not in symbols:
        raise CompileError(f"no base address for array {ref.array!r}")
    return symbols[ref.array] + ref.offset.evaluate(env)


def compile_reduce_select(nest: ReduceSelectNest, symbols: dict,
                          result_addr: int, use_3d: bool = False,
                          builder: ProgramBuilder | None = None
                          ) -> CompiledNest:
    """Vectorize a fullsearch/correlation nest.

    Emits: hoisted loads for k-invariant streams, a per-candidate SAD
    or MAC reduction through the accumulator, the scalar min/max
    select, and a final store of ``(best index, best value)`` to
    ``result_addr``.
    """
    check_reduce_legal(nest)
    for ref in (nest.reduction.a, nest.reduction.b):
        check_vector_dim(ref, nest.j)
    b = builder if builder is not None else ProgramBuilder("compiled")
    words = _row_words(nest)
    red = nest.reduction
    acc_op = "vpsadacc" if red.kind == "sad" else "vpmaddacc"

    three_d = pick_3d_candidates(nest) if use_3d else []
    if use_3d and not three_d:
        raise CompileError(
            "3D pass requested but no stream qualifies (all invariant "
            "or slab exceeds a 3D register element)")

    b.setvl(nest.j.extent)
    # hoist k-invariant streams into v8..; k-varying MOM streams use v0..
    # (keyed by Ref: two streams may share one array, as in the LTP
    # autocorrelation where both windows live in the sample buffer)
    hoisted: dict[Ref, int] = {}
    reg_next = 8
    for ref in (red.a, red.b):
        if ref.stride(nest.k.var) == 0:
            hoisted[ref] = reg_next
            for w in range(words):
                b.vld(v(reg_next + w),
                      ea=_ea(ref, symbols, _zero_env(nest)) + 8 * w,
                      stride=ref.stride(nest.j.var), etype=ref.etype)
            reg_next += words

    chunk = _chunk_size(nest, three_d, words) if three_d else nest.k.extent
    b.li(_BEST, _BIG if nest.select.kind == "min" else -_BIG)
    b.li(_POS, 0)
    b.li(_IDX, 0)

    k = 0
    while k < nest.k.extent:
        hi = min(k + chunk, nest.k.extent)
        if three_d:
            _emit_chunk_3d(b, nest, symbols, hoisted, three_d, k, hi,
                           words, acc_op)
        else:
            _emit_chunk_2d(b, nest, symbols, hoisted, k, hi, words,
                           acc_op)
        b.branch()
        k = hi

    b.st(_POS, ea=result_addr)
    b.st(_BEST, ea=result_addr + 8)
    return CompiledNest(builder=b, result_addr=result_addr,
                        used_3d=bool(three_d), chunk=chunk)


def _zero_env(nest: ReduceSelectNest) -> dict:
    return {nest.k.var: 0, nest.j.var: 0, nest.i.var: 0}


def _chunk_size(nest: ReduceSelectNest, three_d: list[Ref],
                words: int) -> int:
    """Candidates per dvload3 slab, bounded by the 128-byte element."""
    chunk = nest.k.extent
    for ref in three_d:
        k_stride = abs(ref.stride(nest.k.var))
        if ref.stride(nest.k.var) < 0 and words > 1:
            raise CompileError(
                "negative outer stride with multi-word rows is not "
                "supported by the 3D slicing pass")
        room = 128 - 8 * words
        chunk = min(chunk, room // k_stride + 1)
    return max(1, chunk)


def _emit_chunk_2d(b, nest, symbols, hoisted, k0, k_hi, words,
                   acc_op) -> None:
    red = nest.reduction
    for k in range(k0, k_hi):
        env = {nest.k.var: k, nest.j.var: 0, nest.i.var: 0}
        b.clracc(acc(0))
        reg = 0
        pair = []
        for ref in (red.a, red.b):
            if ref in hoisted:
                pair.append(hoisted[ref])
                continue
            for w in range(words):
                b.vld(v(reg + w), ea=_ea(ref, symbols, env) + 8 * w,
                      stride=ref.stride(nest.j.var), etype=ref.etype)
            pair.append(reg)
            reg += words
        for w in range(words):
            getattr(b, acc_op)(acc(0), v(pair[0] + w),
                               v(pair[1] + w))
        _emit_select(b, nest)


def _emit_chunk_3d(b, nest, symbols, hoisted, three_d, k0, k_hi, words,
                   acc_op) -> None:
    red = nest.reduction
    count = k_hi - k0
    slabs: dict[Ref, dict] = {}
    for slot, ref in enumerate(three_d):
        k_stride = ref.stride(nest.k.var)
        row_bytes = 8 * words
        width_bytes = row_bytes + (count - 1) * abs(k_stride)
        wwords = (width_bytes + 7) // 8
        pad = 8 * wwords - width_bytes
        if k_stride > 0:
            ea_env = {nest.k.var: k0, nest.j.var: 0, nest.i.var: 0}
            ea = _ea(ref, symbols, ea_env)
            back = False
        else:
            ea_env = {nest.k.var: k_hi - 1, nest.j.var: 0,
                      nest.i.var: 0}
            ea = _ea(ref, symbols, ea_env) - pad
            back = True
        b.dvload3(d3(slot), ea=ea, stride=ref.stride(nest.j.var),
                  wwords=wwords, back=back, etype=ref.etype)
        slabs[ref] = {"slot": slot, "k_stride": k_stride}

    for _k in range(k0, k_hi):
        b.clracc(acc(0))
        pair = []
        for ref in (red.a, red.b):
            if ref in hoisted:
                pair.append(("reg", hoisted[ref]))
            else:
                pair.append(("slab", slabs[ref]))
        for w in range(words):
            regs = []
            for kind, info in pair:
                if kind == "reg":
                    regs.append(v(info + w))
                else:
                    slot = info["slot"]
                    k_stride = info["k_stride"]
                    if k_stride > 0:
                        last = w == words - 1
                        pstride = (k_stride - 8 * (words - 1)) \
                            if last else 8
                    else:
                        pstride = k_stride  # words == 1 enforced
                    b.dvmov3(v(6), d3(slot), pstride=pstride)
                    regs.append(v(6))
            getattr(b, acc_op)(acc(0), regs[0], regs[1])
        _emit_select(b, nest)


def _emit_select(b: ProgramBuilder, nest: ReduceSelectNest) -> None:
    """The unvectorizable if-clause: running min/max with position."""
    b.movacc(_VALUE, acc(0))
    if nest.select.kind == "min":
        b.slt(_COND, _VALUE, _BEST)
    else:
        b.slt(_COND, _BEST, _VALUE)
    b.cmov(_BEST, _COND, _VALUE)
    b.cmov(_POS, _COND, _IDX)
    b.addi(_IDX, _IDX, 1)


def compile_map(nest: MapNest, symbols: dict, use_3d: bool = False,
                builder: ProgramBuilder | None = None) -> CompiledNest:
    """Vectorize an elementwise map nest (e.g. half-pel averaging).

    The 3D variant applies when both inputs are overlapping streams of
    the same array (same strides, small constant offset difference):
    one slab per row group serves both via two pointer slices.
    """
    check_map_legal(nest)
    for ref in (nest.a, nest.b, nest.out):
        check_vector_dim(ref, nest.j)
    b = builder if builder is not None else ProgramBuilder("compiled")
    width = nest.a.etype.width_bytes
    words = nest.i.extent * width // 8
    b.setvl(nest.j.extent)

    delta = nest.b.offset.const - nest.a.offset.const
    same_stream = (nest.a.array == nest.b.array
                   and nest.a.stride(nest.j.var) == nest.b.stride(nest.j.var)
                   and 0 <= delta)
    slab_ok = same_stream and (8 * words + delta) <= 128
    if use_3d and not slab_ok:
        raise CompileError(
            "3D pass requested but the map's inputs are not "
            "overlapping streams of one array")

    env = {nest.j.var: 0, nest.i.var: 0}
    for w in range(words):
        if use_3d:
            wwords = (8 * words + delta + 7) // 8
            if w == 0:
                b.dvload3(d3(0), ea=_ea(nest.a, symbols, env),
                          stride=nest.a.stride(nest.j.var),
                          wwords=wwords, etype=nest.a.etype)
            b.dvmov3(v(0), d3(0), pstride=delta)
            b.dvmov3(v(1), d3(0), pstride=8 - delta)
        else:
            b.vld(v(0), ea=_ea(nest.a, symbols, env) + 8 * w,
                  stride=nest.a.stride(nest.j.var), etype=nest.a.etype)
            b.vld(v(1), ea=_ea(nest.b, symbols, env) + 8 * w,
                  stride=nest.b.stride(nest.j.var), etype=nest.b.etype)
        b.simd(nest.op, v(2), v(0), v(1), etype=nest.etype)
        b.vst(v(2), ea=_ea(nest.out, symbols, env) + 8 * w,
              stride=nest.out.stride(nest.j.var), etype=nest.out.etype)
    b.branch()
    return CompiledNest(builder=b, used_3d=use_3d and slab_ok)
