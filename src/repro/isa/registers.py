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

    # identity hash: members are singletons compared by identity
    __hash__ = object.__hash__

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

#: Position of each class in :class:`RegClass`, for :class:`Register`'s
#: hash.
_ORDINAL = {cls: i for i, cls in enumerate(RegClass)}


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
        # Computed once, from the value alone: no str hash and no id,
        # so every interpreter agrees and a pickled or copied register
        # stays a valid dict key.  Equality is still the dataclass's
        # (cls, index) comparison.
        object.__setattr__(self, "_hash",
                           self.index * 8 + _ORDINAL[self.cls])

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.cls is RegClass.CONTROL:
            return ("vl", "vs")[self.index]
        return f"{self.cls.value}{self.index}"


def _bank(cls: RegClass) -> tuple[Register, ...]:
    return tuple(Register(cls, i) for i in range(LOGICAL_COUNTS[cls]))


#: Every register of a class, by index: ``r(i)`` is ``_SCALAR[i]``, so
#: the trace builders share one frozen object per register instead of
#: allocating one per operand.  The accessors range-check before
#: indexing, so a negative index never wraps around; any index outside
#: the table goes to the constructor, which raises IsaError.
_SCALAR = _bank(RegClass.SCALAR)
_VECTOR = _bank(RegClass.VECTOR)
_ACC = _bank(RegClass.ACC)
_VEC3D = _bank(RegClass.VEC3D)


def r(index: int) -> Register:
    """Scalar integer register ``r{index}``."""
    if 0 <= index < len(_SCALAR):
        return _SCALAR[index]
    return Register(RegClass.SCALAR, index)


def v(index: int) -> Register:
    """2D vector (MOM) register ``v{index}``."""
    if 0 <= index < len(_VECTOR):
        return _VECTOR[index]
    return Register(RegClass.VECTOR, index)


def acc(index: int) -> Register:
    """Accumulator register ``acc{index}``."""
    if 0 <= index < len(_ACC):
        return _ACC[index]
    return Register(RegClass.ACC, index)


def d3(index: int) -> Register:
    """3D vector register ``d{index}``."""
    if 0 <= index < len(_VEC3D):
        return _VEC3D[index]
    return Register(RegClass.VEC3D, index)


#: The Vector Length and Vector Stride control registers.
VL, VS = _bank(RegClass.CONTROL)
