"""The simulation engine: wiring of population, network, noise and clocks.

:class:`SimulationEngine` owns one run's worth of mutable state and exposes
the single primitive every protocol in this repository is built from:
:meth:`SimulationEngine.gossip_round` — one synchronous round of noisy push
gossip.  Protocols (in :mod:`repro.core` and :mod:`repro.protocols`) are pure
policy: they decide who speaks and what the recipients do with what they
heard; the engine handles delivery, noise, collision resolution, counting
and tracing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from .clocks import GlobalClock
from .faults import FaultInjector, FaultModel, build_injector
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
    faults: Optional[FaultInjector] = None

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
        source: Optional[int] = 0,
        channel: Optional[NoiseChannel] = None,
        record_time_series: bool = False,
        trace_events: bool = False,
        allow_self_messages: bool = False,
        faults: Optional[FaultModel] = None,
    ) -> "SimulationEngine":
        """Build a standard engine for ``n`` agents and noise parameter ``epsilon``.

        Parameters
        ----------
        n:
            Population size.
        epsilon:
            Noise margin; each delivered bit is flipped with probability
            ``1/2 - epsilon``.
        seed:
            Root seed for every random stream used by the run.
        source:
            Index of the broadcast source, or ``None`` for source-free
            (majority-consensus) instances.
        channel:
            Override the default :class:`BinarySymmetricChannel`.
        record_time_series:
            Store per-round correct-fraction/activation series in the metrics.
        trace_events:
            Enable the (bounded) event trace.
        allow_self_messages:
            Allow agents to push messages to themselves.
        faults:
            Optional :data:`~repro.substrate.faults.FaultModel`; anything but
            :class:`~repro.substrate.faults.NoFaults` attaches a
            :class:`~repro.substrate.faults.FaultInjector` fed from the
            dedicated ``"faults"`` random stream.
        """
        random = RandomSource(seed=seed)
        engine = cls(
            population=Population(size=n, source=source),
            network=PushGossipNetwork(size=n, allow_self_messages=allow_self_messages),
            channel=channel if channel is not None else BinarySymmetricChannel(epsilon=epsilon),
            random=random,
            metrics=MetricsCollector(record_time_series=record_time_series),
            trace=EventTrace(enabled=trace_events),
            faults=build_injector(faults, n, random.stream("faults")),
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
        report = self.network.deliver(
            senders, bits, self.channel, self.random.stream("delivery"),
            faults=self.faults,
        )
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

    def idle_round(self) -> None:
        """Advance time by one round in which nobody speaks."""
        self.clock.tick()
        self.metrics.observe_round(0, 0, 0)

    # ------------------------------------------------------------------
    def protocol_rng(self) -> np.random.Generator:
        """Random stream reserved for protocol decisions (message choices etc.)."""
        return self.random.stream("protocol")
