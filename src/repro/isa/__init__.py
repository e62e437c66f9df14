"""Instruction set architecture: MOM 2D vectors plus the 3D extension.

Public surface:

* :class:`~repro.isa.datatypes.ElemType` — packed sub-word types.
* register constructors :func:`r`, :func:`v`, :func:`acc`, :func:`d3`.
* :class:`~repro.isa.opcodes.Opcode` / :class:`ExecClass`.
* :class:`~repro.isa.instructions.Instruction` / :class:`Program`.
* :class:`~repro.isa.builder.ProgramBuilder` — the trace assembler.
* :mod:`~repro.isa.encoding` — binary trace (de)serialization.
"""

from repro.lazy import lazy_exports

# Every name loads on first access: the timing layer's statistics need
# only the opcode enums, and a cache hit builds no trace.
__getattr__ = lazy_exports(__name__, {
    "repro.isa.builder": ("ProgramBuilder",),
    "repro.isa.datatypes": ("WORD_BITS", "WORD_BYTES", "ElemType"),
    "repro.isa.instructions": ("Instruction", "Program"),
    "repro.isa.opcodes": ("ExecClass", "Opcode"),
    "repro.isa.registers": (
        "ACC_BITS", "D3_ELEM_BYTES", "D3_ELEMS", "D3_POINTER_BITS",
        "MOM_ELEM_BYTES", "MOM_ELEMS", "VL", "VS", "RegClass",
        "Register", "acc", "d3", "r", "v"),
})

__all__ = [
    "ACC_BITS", "D3_ELEMS", "D3_ELEM_BYTES", "D3_POINTER_BITS",
    "ElemType", "ExecClass", "Instruction", "MOM_ELEMS", "MOM_ELEM_BYTES",
    "Opcode", "Program", "ProgramBuilder", "RegClass", "Register",
    "VL", "VS", "WORD_BITS", "WORD_BYTES", "acc", "d3", "r", "v",
]
