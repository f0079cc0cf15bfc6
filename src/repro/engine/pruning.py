"""Dormant permanent faults: outcomes resolved without simulation.

A permanent fault on a storage-array cell acts only through reads of that
cell.  The fast engine's golden run records a compact per-cell summary of
every read of all seven storage arrays (register file, cache tag/data/valid
arrays — :meth:`repro.leon3.fastcore.Leon3FastCore.run_recording_reads`):

* ``ones`` — bits ever read as 1,
* ``zeros`` — bits ever read as 0,
* ``flips`` — bits that ever differed from the array's previous read (the
  open-line model retains the *array's* last observed value, not the cell's).

A fault is **dormant** when no golden read of its cell would observe a
different bit: stuck-at-1 on a bit never read as 0, stuck-at-0 on a bit
never read as 1, open-line on a bit that never differed from the previous
read.  By induction over the reads, a dormant faulty run is identical to the
golden run, so its outcome is exactly ``NO_EFFECT`` with no detection cycle
and the golden instruction count — the campaign engine commits it without
simulating (``campaign.jobs_pruned``).  ``tests/test_pruning.py`` checks the
predicate against from-reset runs on the reference core and pruned
campaigns against unpruned reference-engine campaigns.
"""

from __future__ import annotations

import types
from typing import Dict, Sequence

from repro.rtl.faults import FaultModel, PermanentFault

#: Array name -> ``(ones, zeros, flips)``, one bit mask per cell each.
ReadSummary = Dict[str, Sequence[Sequence[int]]]

#: Which mask activates each permanent model: a fault is dormant when its
#: bit is clear in that mask.
_ACTIVATING_MASK = types.MappingProxyType(
    {
        FaultModel.STUCK_AT_1: 1,  # zeros: a 0 read would be forced to 1
        FaultModel.STUCK_AT_0: 0,  # ones: a 1 read would be forced to 0
        FaultModel.OPEN_LINE: 2,  # flips: the retained value would differ
    }
)


def is_dormant(summary: ReadSummary, fault: PermanentFault) -> bool:
    """True when *fault* provably never changes a value the golden run read.

    Net sites (no cell index) and arrays the summary does not cover are
    never dormant: they are simulated.
    """
    site = fault.site
    masks = summary.get(site.net)
    if masks is None or site.index is None:
        return False
    return not masks[_ACTIVATING_MASK[fault.model]][site.index] >> site.bit & 1

