"""Helpers for building workload assembly programs.

The workload kernels are written as SPARC assembly templates generated by
Python functions.  This module centralises the boilerplate they share:
deterministic pseudo-random dataset generation, data-section formatting and
the standard epilogue (the ``ta 0`` exit convention).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.isa.assembler import Program, assemble


def lcg_values(count: int, seed: int, modulus: int = 1 << 16) -> List[int]:
    """Deterministic pseudo-random values (linear congruential generator).

    Workload input datasets must be reproducible across runs and machines, so
    they are generated with a fixed LCG instead of :mod:`random`.
    """
    values = []
    state = (seed * 2654435761 + 1) & 0xFFFFFFFF
    for _ in range(count):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        values.append(state % modulus)
    return values


def words_directive(values: Sequence[int], per_line: int = 8) -> str:
    """Format *values* as ``.word`` directives."""
    lines = []
    for start in range(0, len(values), per_line):
        chunk = ", ".join(str(v & 0xFFFFFFFF) for v in values[start : start + per_line])
        lines.append(f"        .word   {chunk}")
    return "\n".join(lines) if lines else "        .word   0"


def data_block(label: str, values: Sequence[int]) -> str:
    """A labelled block of words in the data section."""
    return f"{label}:\n{words_directive(values)}"


def reserve_block(label: str, size_bytes: int) -> str:
    """A labelled, 8-byte aligned, zero-initialised block.

    The alignment allows kernels to use double-word accesses (``ldd``/``std``)
    anywhere inside the block without tripping alignment traps.
    """
    return f"        .align  8\n{label}:\n        .space  {size_bytes}"


def standard_epilogue() -> str:
    """Exit via the trap-always convention understood by both simulators."""
    return "        ta      0"


def assemble_workload(name: str, text: str, data: str) -> Program:
    """Assemble a workload from its text and data sections."""
    source = f"{text}\n\n        .data\n{data}\n"
    return assemble(source, name=name)
