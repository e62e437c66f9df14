"""Dependence and stride analysis for the vectorizer.

The paper's key observation (Sec. 5.1) is that 3D *memory*
vectorization only needs the cheap part of dependence analysis: since
only loads are moved into 3D registers, computational dependences of
the outer loop (the min/max select) can be ignored — the legality
question reduces to "is any vector store aliased with the 2D load
streams being packed?".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CompileError
from repro.compiler.loopnest import Loop, MapNest, Ref, ReduceSelectNest


@dataclass(frozen=True)
class StreamShape:
    """Geometry of one 2D stream inside a reduce/map nest."""

    #: byte stride along the uSIMD (innermost) dimension
    i_stride: int
    #: byte stride along the vector (second) dimension
    j_stride: int
    #: byte stride along the candidate (outer) dimension, 0 if invariant
    k_stride: int
    #: bytes covered along i in one 64-bit word
    word_bytes: int = 8


def stream_shape(ref: Ref, i: Loop, j: Loop,
                 k: Loop | None = None) -> StreamShape:
    """Extract the per-dimension strides of a reference."""
    return StreamShape(
        i_stride=ref.stride(i.var),
        j_stride=ref.stride(j.var),
        k_stride=ref.stride(k.var) if k is not None else 0)


def check_usimd_dim(ref: Ref, i: Loop) -> None:
    """The innermost dimension must be contiguous at the element width.

    uSIMD packs ``8 / width`` elements into a 64-bit word, so the i
    stride must equal the packed element width and the extent must
    fill whole words.
    """
    width = ref.etype.width_bytes
    if ref.stride(i.var) != width:
        raise CompileError(
            f"{ref.array}: i-stride {ref.stride(i.var)} != element "
            f"width {width}; not uSIMD-vectorizable")
    lanes = 8 // width
    if i.extent % lanes != 0:
        raise CompileError(
            f"{ref.array}: i extent {i.extent} does not fill 64-bit "
            f"words of {lanes} lanes")


def check_vector_dim(ref: Ref, j: Loop) -> None:
    """The second dimension becomes the MOM vector length."""
    words_per_row = 1  # emitted loads cover one word column at a time
    del words_per_row
    if j.extent > 16:
        raise CompileError(
            f"vector dimension extent {j.extent} exceeds MOM register "
            f"length 16")
    if ref.stride(j.var) == 0:
        raise CompileError(
            f"{ref.array}: invariant along {j.var}; nothing to vectorize")


def ranges_overlap(a: Ref, a_extent: int, b: Ref, b_extent: int) -> bool:
    """Conservative interval-overlap test for two references.

    ``*_extent`` bound the byte span each reference touches over the
    whole nest (callers compute them from loop extents and strides).
    Distinct array symbols never alias (the trace generator allocates
    them disjointly).
    """
    if a.array != b.array:
        return False
    a_lo, b_lo = a.offset.const, b.offset.const
    return a_lo < b_lo + b_extent and b_lo < a_lo + a_extent


def byte_span(ref: Ref, loops: list[Loop]) -> int:
    """Bytes the reference sweeps over the given loops (inclusive)."""
    span = ref.etype.width_bytes
    for loop in loops:
        span += abs(ref.stride(loop.var)) * (loop.extent - 1)
    return span


def check_map_legal(nest: MapNest) -> None:
    """A map is vectorizable if the output never aliases an input."""
    loops = [nest.j, nest.i]
    out_span = byte_span(nest.out, loops)
    for ref in (nest.a, nest.b):
        if ranges_overlap(nest.out, out_span, ref, byte_span(ref, loops)):
            raise CompileError(
                f"store to {nest.out.array} aliases load of {ref.array}; "
                f"cannot vectorize the map")


def check_reduce_legal(nest: ReduceSelectNest) -> None:
    """Reduce/select nests only read memory: always legal to vectorize
    the loads, per the paper's argument — the select dependence lives
    entirely in scalar registers."""
    check_usimd_dim(nest.reduction.a, nest.i)
    check_usimd_dim(nest.reduction.b, nest.i)


def pick_3d_candidates(nest: ReduceSelectNest,
                       max_slab_bytes: int = 128) -> list[Ref]:
    """Which streams of a reduce/select nest qualify for dvload3.

    Paper criteria (Sec. 5.1): the stream must vary along the outer
    loop with a stride small enough that the k-slab (row bytes plus
    (K-1) x k-stride) fits a 3D register element, giving either
    overlap reuse or whole-line fetches.  Invariant streams are better
    served by hoisting into a MOM register.
    """
    candidates = []
    for ref in (nest.reduction.a, nest.reduction.b):
        k_stride = abs(ref.stride(nest.k.var))
        if k_stride == 0:
            continue  # invariant: hoist, don't 3D-load
        row_bytes = ref.stride(nest.i.var) * nest.i.extent
        slab = row_bytes + (nest.k.extent - 1) * k_stride
        if slab <= max_slab_bytes:
            candidates.append(ref)
    return candidates
