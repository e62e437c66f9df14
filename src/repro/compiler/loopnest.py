"""Loop-nest intermediate representation for the vectorizing compiler.

The IR captures the two families of media kernels the paper's Sec. 5.1
analysis targets:

* **reduction-select nests** (motion estimation, LTP correlation): an
  outer *candidate* loop ``k`` carrying an unvectorizable min/max
  update, around two perfectly nested data-parallel loops ``j``/``i``
  computing a SAD or multiply-accumulate reduction;
* **map nests** (motion compensation, saturating adds): elementwise
  uSIMD operations over a 2D index space.

Array subscripts are affine in the loop variables, expressed directly
as byte offsets so strides fall out of the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CompileError
from repro.isa.datatypes import ElemType
from repro.isa.opcodes import Opcode


@dataclass(frozen=True, eq=False)
class Affine:
    """An affine byte-offset expression: const + sum(coeff * var)."""

    const: int = 0
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs",
            {k: v for k, v in self.coeffs.items() if v != 0})

    def _key(self) -> tuple:
        return (self.const, tuple(sorted(self.coeffs.items())))

    def __eq__(self, other) -> bool:
        return isinstance(other, Affine) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def coeff(self, var: str) -> int:
        """Byte stride of this expression along ``var``."""
        return self.coeffs.get(var, 0)

    def evaluate(self, env: dict) -> int:
        return self.const + sum(c * env[v] for v, c in self.coeffs.items())

    def shift(self, delta: int) -> "Affine":
        return Affine(self.const + delta, dict(self.coeffs))

    def drop(self, var: str) -> "Affine":
        coeffs = {k: v for k, v in self.coeffs.items() if k != var}
        return Affine(self.const, coeffs)

    def __repr__(self) -> str:
        parts = [str(self.const)] + [
            f"{c}*{v}" for v, c in sorted(self.coeffs.items())]
        return " + ".join(parts)


@dataclass(frozen=True)
class Loop:
    """A normalized counted loop: ``for var in range(extent)``."""

    var: str
    extent: int

    def __post_init__(self):
        if self.extent <= 0:
            raise CompileError(f"loop {self.var}: extent must be positive")


@dataclass(frozen=True)
class Ref:
    """A strided array reference: ``array[offset]`` of packed etype."""

    array: str
    offset: Affine
    etype: ElemType = ElemType.U8

    def stride(self, var: str) -> int:
        return self.offset.coeff(var)


@dataclass(frozen=True)
class Reduction:
    """Data-parallel reduction over the inner loops: sad or mac."""

    kind: str  # 'sad' | 'mac'
    a: Ref
    b: Ref

    def __post_init__(self):
        if self.kind not in ("sad", "mac"):
            raise CompileError(f"unknown reduction {self.kind!r}")

    @property
    def etype(self) -> ElemType:
        return ElemType.U8 if self.kind == "sad" else ElemType.I16


@dataclass(frozen=True)
class Select:
    """The data-dependent candidate selection over the outer loop."""

    kind: str  # 'min' | 'max'

    def __post_init__(self):
        if self.kind not in ("min", "max"):
            raise CompileError(f"unknown selection {self.kind!r}")


@dataclass(frozen=True)
class ReduceSelectNest:
    """for k: value = reduce(i, j); argmin/argmax over k (fullsearch)."""

    k: Loop
    j: Loop
    i: Loop
    reduction: Reduction
    select: Select


@dataclass(frozen=True)
class MapNest:
    """for j: for i: out[...] = op(a[...], b[...]) (elementwise)."""

    j: Loop
    i: Loop
    op: Opcode
    a: Ref
    b: Ref
    out: Ref
    etype: ElemType = ElemType.U8
