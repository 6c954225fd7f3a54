"""Common interface for baseline protocols.

Every comparator implemented in :mod:`repro.protocols` — the naive
strategies of Section 1.6, the idealised direct-from-source reference and
the physics-style noisy voter model — is a dataclass of its parameters with
one vectorised step rule, :meth:`BaselineProtocol.simulate`, which advances
``R`` independent replicates at once on ``(R, n)`` grids and returns a
:class:`BatchBaselineResult`.  There is no other copy of the rule: a serial
trial is the rule at ``R = 1`` under the trial's own seed, and a batched
cell is the same rule over one shared grid (both dispatched by
:func:`repro.exec.batching.run_baseline_batch`).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict

import numpy as np

from ..substrate.network import PushGossipNetwork
from ..substrate.noise import NoiseChannel

__all__ = ["BatchBaselineResult", "BaselineProtocol"]


@dataclass(frozen=True)
class BatchBaselineResult:
    """Per-replicate outcomes of a baseline-protocol run.

    Unlike the paper's protocol — whose round schedule is fixed by
    ``(n, epsilon)`` — the baselines stop per replicate: the noisy voter
    breaks out of its budget when a consensus check passes, and the
    direct-from-source reference records the first round its running
    majority went all-correct.  ``rounds`` is therefore a vector here, and
    ``converged`` separates "stopped by its own rule" from "exhausted the
    round budget" so downstream reports never conflate the two.

    Attributes
    ----------
    protocol:
        Name of the baseline (see
        :func:`~repro.exec.batching.batchable_baselines`).
    n, epsilon, correct_opinion:
        The shared instance parameters.
    rounds:
        ``(R,)`` rounds actually executed per replicate (the budget for
        replicates that never met their stopping rule).
    converged:
        ``(R,)`` boolean vector: did the replicate meet the protocol's own
        stopping/convergence rule (as opposed to exhausting its budget)?
    success:
        ``(R,)`` boolean vector: did every agent finish holding the correct
        opinion?
    final_correct_fraction:
        ``(R,)`` fraction of agents holding the correct opinion at the end.
    messages_sent:
        ``(R,)`` total messages pushed, per replicate.
    extra:
        Protocol-specific per-replicate vectors (e.g. the direct-source
        reference's ``rounds_to_all_correct``, ``NaN`` where never reached).
    """

    protocol: str
    n: int
    epsilon: float
    correct_opinion: int
    rounds: np.ndarray
    converged: np.ndarray
    success: np.ndarray
    final_correct_fraction: np.ndarray
    messages_sent: np.ndarray
    extra: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def num_replicates(self) -> int:
        """Number of replicates ``R`` in the batch."""
        return int(self.success.size)

    def measurements(self, index: int) -> Dict[str, Any]:
        """Replicate ``index`` as a trial-measurement mapping.

        The keys are what the E7 and E11 reports read (``fraction``,
        ``success``, ``rounds``, ``converged``, ``rounds_converged`` plus
        protocol extras), for a serial trial (``R = 1``) and a batched cell
        alike.  Never-reached round markers (``NaN`` in the ``extra``
        vectors) are reported as ``None`` — the explicit "did not happen"
        convention the result containers exclude from means.
        """
        converged = bool(self.converged[index])
        fraction = float(self.final_correct_fraction[index])
        measurements: Dict[str, Any] = {
            "rounds": int(self.rounds[index]),
            "rounds_converged": int(self.rounds[index]) if converged else None,
            "messages": int(self.messages_sent[index]),
            "messages_per_agent": float(self.messages_sent[index] / self.n),
            "success": bool(self.success[index]),
            "converged": converged,
            "fraction": fraction,
            "final_correct_fraction": fraction,
        }
        for key, values in self.extra.items():
            raw = values[index]
            if isinstance(raw, (bool, np.bool_)):
                measurements[key] = bool(raw)
                continue
            value = float(raw)
            if not math.isfinite(value):
                measurements[key] = None
            elif value.is_integer():
                measurements[key] = int(value)
            else:
                measurements[key] = value
        return measurements


class BaselineProtocol(abc.ABC):
    """Abstract base class for baseline dissemination/consensus protocols.

    Subclasses are dataclasses whose fields are the protocol's options
    (validated in ``__post_init__``); :func:`repro.exec.batching.run_baseline_batch`
    recognises exactly those fields.
    """

    #: Short, stable identifier the batch dispatcher and result records use.
    name: ClassVar[str] = "baseline"

    @abc.abstractmethod
    def simulate(
        self,
        n: int,
        num_replicates: int,
        network: PushGossipNetwork,
        channel: NoiseChannel,
        rng: np.random.Generator,
        correct_opinion: int,
    ) -> BatchBaselineResult:
        """Advance ``num_replicates`` independent runs on ``(R, n)`` grids.

        Agent 0 is the source in every replicate; every draw comes from
        ``rng``.
        """
