"""Packed sub-word data types used by the uSIMD (MMX-like) operations.

A 64-bit register word is interpreted as a vector of packed elements:
eight unsigned bytes, four signed 16-bit halves, or two signed 32-bit
words.  These are the only element types MOM's computation instructions
use (matching the MMX subset the paper's kernels rely on).
"""

from __future__ import annotations

import enum

#: Number of bytes in a uSIMD register word (the MMX/MOM element width).
WORD_BYTES = 8
#: Number of bits in a uSIMD register word.
WORD_BITS = 64


class ElemType(enum.Enum):
    """Packed element type of a 64-bit uSIMD word."""

    # identity hash: members are singletons compared by identity
    __hash__ = object.__hash__

    U8 = "u8"
    I16 = "i16"
    I32 = "i32"

    @property
    def width_bytes(self) -> int:
        """Bytes per packed element."""
        return _WIDTHS[self]

    @property
    def lanes(self) -> int:
        """Number of packed elements in one 64-bit word."""
        return WORD_BYTES // self.width_bytes

    @property
    def min_value(self) -> int:
        """Smallest representable element value (saturation floor)."""
        return _MINS[self]

    @property
    def max_value(self) -> int:
        """Largest representable element value (saturation ceiling)."""
        return _MAXS[self]


_WIDTHS = {ElemType.U8: 1, ElemType.I16: 2, ElemType.I32: 4}

_MINS = {ElemType.U8: 0, ElemType.I16: -(1 << 15), ElemType.I32: -(1 << 31)}

_MAXS = {
    ElemType.U8: (1 << 8) - 1,
    ElemType.I16: (1 << 15) - 1,
    ElemType.I32: (1 << 31) - 1,
}
