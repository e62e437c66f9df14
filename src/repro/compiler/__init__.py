"""Prototype vectorizing compiler: loop nests -> MOM / MOM+3D traces.

The paper argues (Sec. 5.1) that compiler support for the 3D memory
instructions is feasible because only load streams move into the 3D
register file; this package is that prototype: an affine loop-nest IR,
the stride/aliasing analysis, and the 2D + 3D vectorization passes.
"""

from repro.compiler.codegen import (
    CompiledNest,
    compile_map,
    compile_reduce_select,
)
from repro.compiler.dependence import (
    byte_span,
    check_map_legal,
    check_reduce_legal,
    pick_3d_candidates,
    ranges_overlap,
    stream_shape,
)
from repro.compiler.loopnest import (
    Affine,
    Loop,
    MapNest,
    Ref,
    ReduceSelectNest,
    Reduction,
    Select,
)

__all__ = [
    "Affine", "CompiledNest", "Loop", "MapNest", "Ref",
    "ReduceSelectNest", "Reduction", "Select", "byte_span",
    "check_map_legal", "check_reduce_legal", "compile_map",
    "compile_reduce_select", "pick_3d_candidates", "ranges_overlap",
    "stream_shape",
]
