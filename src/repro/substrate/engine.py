"""The simulation engine: wiring of population, network, noise and clocks.

:class:`SimulationEngine` owns one run's worth of mutable state and exposes
one primitive: :meth:`SimulationEngine.gossip_round` — one synchronous round
of noisy push gossip.  The serial broadcast executors of :mod:`repro.core`
(:func:`~repro.core.broadcast.solve_noisy_broadcast`) are built on it: they
decide who speaks and what the recipients do with what they heard; the
engine handles delivery, noise, collision resolution, counting and tracing.
Every other protocol runs as an ``(R, n)`` rule in :mod:`repro.exec` and
:mod:`repro.protocols`, with a serial trial at ``R = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from .clocks import GlobalClock
from .metrics import MetricsCollector
from .network import DeliveryReport, PushGossipNetwork
from .noise import BinarySymmetricChannel, NoiseChannel
from .population import Population
from .rng import RandomSource
from .trace import EventTrace

__all__ = ["SimulationEngine"]


@dataclass
class SimulationEngine:
    """A fully wired Flip-model simulation.

    Most users should construct engines via :meth:`SimulationEngine.create`,
    which builds consistent components from ``(n, epsilon, seed)``.
    """

    population: Population
    network: PushGossipNetwork
    channel: NoiseChannel
    random: RandomSource
    metrics: MetricsCollector = field(default_factory=MetricsCollector)
    trace: EventTrace = field(default_factory=EventTrace)
    clock: GlobalClock = field(default_factory=GlobalClock)

    def __post_init__(self) -> None:
        if self.population.size != self.network.size:
            raise ConfigurationError(
                "population and network disagree on the number of agents: "
                f"{self.population.size} vs {self.network.size}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        n: int,
        epsilon: float,
        seed: int,
        channel: Optional[NoiseChannel] = None,
        record_time_series: bool = False,
        trace_events: bool = False,
        allow_self_messages: bool = False,
    ) -> "SimulationEngine":
        """Build a standard engine for ``n`` agents and noise parameter ``epsilon``.

        Agent 0 is the broadcast source.

        Parameters
        ----------
        n:
            Population size.
        epsilon:
            Noise margin; each delivered bit is flipped with probability
            ``1/2 - epsilon``.
        seed:
            Root seed for every random stream used by the run.
        channel:
            Override the default :class:`BinarySymmetricChannel`.
        record_time_series:
            Store per-round correct-fraction/activation series in the metrics.
        trace_events:
            Enable the (bounded) event trace.
        allow_self_messages:
            Allow agents to push messages to themselves.
        """
        random = RandomSource(seed=seed)
        engine = cls(
            population=Population(size=n),
            network=PushGossipNetwork(size=n, allow_self_messages=allow_self_messages),
            channel=channel if channel is not None else BinarySymmetricChannel(epsilon=epsilon),
            random=random,
            metrics=MetricsCollector(record_time_series=record_time_series),
            trace=EventTrace(enabled=trace_events),
        )
        return engine

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of agents."""
        return self.population.size

    @property
    def epsilon(self) -> float:
        """Noise margin of the underlying channel."""
        return self.channel.epsilon

    @property
    def now(self) -> int:
        """Current global round index."""
        return self.clock.now

    # ------------------------------------------------------------------
    def gossip_round(
        self,
        senders: np.ndarray,
        bits: np.ndarray,
        correct_opinion: Optional[int] = None,
    ) -> DeliveryReport:
        """Execute one synchronous round of noisy push gossip.

        Parameters
        ----------
        senders, bits:
            Who speaks this round and what bit each pushes.
        correct_opinion:
            When given (and time series recording is on) the engine records
            the fraction of agents holding this opinion after the round.
        """
        report = self.network.deliver(senders, bits, self.channel, self.random.stream("delivery"))
        self.clock.tick()

        correct_fraction = None
        if self.metrics.record_time_series and correct_opinion is not None:
            correct_fraction = self.population.correct_fraction(correct_opinion)
        self.metrics.observe_round(
            messages_sent=report.messages_sent,
            messages_delivered=report.messages_delivered,
            messages_dropped=report.messages_dropped,
            correct_fraction=correct_fraction,
            activated=self.population.num_activated() if self.metrics.record_time_series else None,
        )
        self.trace.record(
            self.clock.now,
            "deliver",
            senders=int(report.messages_sent),
            delivered=int(report.messages_delivered),
        )
        return report

    # ------------------------------------------------------------------
    def protocol_rng(self) -> np.random.Generator:
        """Random stream reserved for protocol decisions (message choices etc.)."""
        return self.random.stream("protocol")
