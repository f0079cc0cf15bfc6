"""Benchmark excerpts for the input-data-variation experiment (Figure 3).

Section 4.2 of the paper injects faults into short *excerpts* of two subsets
of EEMBC benchmarks.  Each excerpt is the initialisation phase of the
benchmark, "where the data to be used in the experiment are read and allocated
in memory".  Within a subset, the three applications share *identical code*
and differ only in their input data:

* subset A (``a2time``, ``ttsprk``, ``bitmnp`` excerpts) uses **8** distinct
  instruction types,
* subset B (``rspeed``, ``tblook``, ``basefp`` excerpts) uses **11** distinct
  instruction types.

Because the two subsets exercise different numbers of instruction types they
also provide two additional low-diversity points for the correlation plot of
Figure 7.
"""

from __future__ import annotations

from typing import Dict

from repro.isa.assembler import Program
from repro.workloads.builder import (
    assemble_workload,
    data_block,
    lcg_values,
    reserve_block,
    standard_epilogue,
)

#: Number of words copied/initialised by each excerpt.
INIT_WORDS = 48

#: Dataset seeds: each member of a subset differs only by its input data.
SUBSET_A_MEMBERS: Dict[str, int] = {"a2time": 17, "ttsprk": 29, "bitmnp": 43}
SUBSET_B_MEMBERS: Dict[str, int] = {"rspeed": 53, "tblook": 67, "basefp": 79}


def _subset_a_text() -> str:
    """Initialisation code of subset A: 8 instruction types.

    Types used: ``sethi``, ``or``, ``ld``, ``st``, ``add``, ``subcc``, ``bl``
    and ``ticc`` (the exit trap).
    """
    return f"""
        .text
start:
        set     input_data, %l0
        set     work_area, %l1
        set     0, %l6
        set     0, %l7
init_loop:
        ld      [%l0 + %l7], %g1
        add     %g1, 1, %g1
        st      %g1, [%l1 + %l7]
        add     %l7, 4, %l7
        add     %l6, 1, %l6
        subcc   %l6, {INIT_WORDS}, %g0
        bl      init_loop
        add     %g0, 0, %g0
{standard_epilogue()}
"""


def _subset_b_text() -> str:
    """Initialisation code of subset B: 11 instruction types.

    Adds ``lduh``, ``sll`` and ``xor`` to the 8 types of subset A, modelling a
    benchmark whose initialisation also unpacks halfword configuration fields.
    """
    return f"""
        .text
start:
        set     input_data, %l0
        set     work_area, %l1
        set     0, %l6
        set     0, %l7
init_loop:
        ld      [%l0 + %l7], %g1
        lduh    [%l0 + %l7], %g2
        sll     %g2, 2, %g2
        xor     %g1, %g2, %g3
        add     %g3, 3, %g3
        st      %g3, [%l1 + %l7]
        add     %l7, 4, %l7
        add     %l6, 1, %l6
        subcc   %l6, {INIT_WORDS}, %g0
        bl      init_loop
        add     %g0, 0, %g0
{standard_epilogue()}
"""


def _build_excerpt(subset: str, member: str, seed: int) -> Program:
    if subset == "a":
        text = _subset_a_text()
    else:
        text = _subset_b_text()
    values = lcg_values(INIT_WORDS, seed=seed, modulus=1 << 16)
    data = "\n".join(
        [
            data_block("input_data", values),
            reserve_block("work_area", INIT_WORDS * 4),
        ]
    )
    return assemble_workload(f"excerpt_{member}", text, data)


def build_subset_a(member: str = "a2time") -> Program:
    """Build the subset-A excerpt for *member* (a2time, ttsprk or bitmnp)."""
    if member not in SUBSET_A_MEMBERS:
        raise ValueError(f"unknown subset-A member {member!r}")
    return _build_excerpt("a", member, SUBSET_A_MEMBERS[member])


def build_subset_b(member: str = "rspeed") -> Program:
    """Build the subset-B excerpt for *member* (rspeed, tblook or basefp)."""
    if member not in SUBSET_B_MEMBERS:
        raise ValueError(f"unknown subset-B member {member!r}")
    return _build_excerpt("b", member, SUBSET_B_MEMBERS[member])
