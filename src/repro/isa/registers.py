"""Register architecture of the MOM + 3D extension ISA.

The register classes follow the paper's Table 3:

* 32 scalar integer registers (``r0``..``r31``),
* 16 logical 2D vector (MOM) registers of 16 x 64-bit elements
  (``v0``..``v15``) — the same file serves the MMX-style configuration,
  where only element 0 of each register is used,
* 2 logical 192-bit accumulator registers (``acc0``, ``acc1``),
* 2 logical 3D vector registers of 16 elements x 128 bytes
  (``d0``, ``d1``), each with an associated 7-bit pointer register,
* the Vector Length (``vl``) and Vector Stride (``vs``) control
  registers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import IsaError

#: MOM register geometry: number of 64-bit elements per 2D register.
MOM_ELEMS = 16
#: Bytes per MOM register element.
MOM_ELEM_BYTES = 8
#: 3D register geometry: number of elements per 3D register.
D3_ELEMS = 16
#: Bytes per 3D register element (one L2 cache line).
D3_ELEM_BYTES = 128
#: Width, in bits, of a 3D pointer register (addresses 0..127 bytes).
D3_POINTER_BITS = 7
#: Accumulator width in bits (sized for 8 x 24-bit partial SADs).
ACC_BITS = 192


class RegClass(enum.Enum):
    """Architectural register classes."""

    SCALAR = "r"
    VECTOR = "v"
    ACC = "acc"
    VEC3D = "d"
    CONTROL = "c"


#: Number of architectural (logical) registers per class.
LOGICAL_COUNTS = {
    RegClass.SCALAR: 32,
    RegClass.VECTOR: 16,
    RegClass.ACC: 2,
    RegClass.VEC3D: 2,
    RegClass.CONTROL: 2,  # vl, vs
}


@dataclass(frozen=True)
class Register:
    """A named architectural register (class + index)."""

    cls: RegClass
    index: int

    def __post_init__(self) -> None:
        limit = LOGICAL_COUNTS[self.cls]
        if not 0 <= self.index < limit:
            raise IsaError(
                f"register index {self.index} out of range for class "
                f"{self.cls.value} (0..{limit - 1})"
            )

    def __repr__(self) -> str:
        if self.cls is RegClass.CONTROL:
            return ("vl", "vs")[self.index]
        return f"{self.cls.value}{self.index}"


#: Interned register instances: every ``r(i)``/``v(i)``/... call for a
#: valid index returns the same object.  Registers are frozen value
#: objects, so sharing is safe; it saves an allocation per operand in
#: the trace builders.
_INTERNED: dict[RegClass, tuple[Register, ...]] = {
    cls: tuple(Register(cls, i) for i in range(count))
    for cls, count in LOGICAL_COUNTS.items()
}


def _interned(cls: RegClass, index: int) -> Register:
    table = _INTERNED[cls]
    if isinstance(index, int) and 0 <= index < len(table):
        return table[index]
    # out-of-range (or odd) indexes keep the historical error path
    return Register(cls, index)


def r(index: int) -> Register:
    """Scalar integer register ``r{index}``."""
    return _interned(RegClass.SCALAR, index)


def v(index: int) -> Register:
    """2D vector (MOM) register ``v{index}``."""
    return _interned(RegClass.VECTOR, index)


def acc(index: int) -> Register:
    """Accumulator register ``acc{index}``."""
    return _interned(RegClass.ACC, index)


def d3(index: int) -> Register:
    """3D vector register ``d{index}``."""
    return _interned(RegClass.VEC3D, index)


#: The Vector Length control register.
VL = Register(RegClass.CONTROL, 0)
#: The Vector Stride control register.
VS = Register(RegClass.CONTROL, 1)
