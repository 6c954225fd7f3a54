"""Per-phase reception counts, the one state both stages' phase-end rules read.

During a phase an agent's opinion does not change, and the rule it applies
at the phase's end depends on the messages it heard only through two
counts: how many it accepted and how many of them were 1s.  Stage I's
newly activated agent adopts a uniformly random one of its messages (a 1
with probability ``ones / heard``, Remark 2.1); Stage II's successful agent
takes the majority of a random subset of its samples, a hypergeometric
draw over the same counts (Remark 2.10).  :class:`PhaseCounts` keeps them
for the serial executors in :mod:`repro.core` and for the batch kernels in
:mod:`repro.exec.stage_batching`.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..substrate.network import DeliveryReport

__all__ = ["PhaseCounts"]


class PhaseCounts:
    """Per-agent counts of the messages heard during one protocol phase.

    ``heard`` is how many messages each agent accepted this phase and
    ``ones`` how many of them were 1s, over an ``(n,)`` population or an
    ``(R, n)`` replicate grid.  Each delivery report is added with two dense
    adds.  A stage run allocates one and wipes it with ``fill`` at phase
    boundaries, never reallocating (the allocation pins in
    ``tests/unit/exec/test_stage_batching.py`` count them).
    """

    def __init__(self, shape: Union[int, Tuple[int, ...]]) -> None:
        # int32 takes a report's bool/int8 grids about twice as fast as
        # int64; a phase would need 2**31 rounds to overflow it.
        self.heard = np.zeros(shape, dtype=np.int32)
        self.ones = np.zeros(shape, dtype=np.int32)

    def add(self, report: DeliveryReport) -> None:
        """Add one delivery call's accepted messages."""
        self.heard += report.heard
        self.ones += report.ones

    def choose(self, cells: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Whether a uniformly random message of each cell is a 1 (Stage I).

        ``cells`` are flat indices of cells that heard something and
        ``uniforms`` one uniform each: a cell's chosen message is a 1 with
        probability ``ones / heard``, whatever order its messages came in.
        """
        return uniforms < np.take(self.ones, cells) / np.take(self.heard, cells)

    def reset(self) -> None:
        """Clear the counts for the next phase."""
        self.heard.fill(0)
        self.ones.fill(0)
