"""The observability hub: one object threaded through a simulated run.

The hub bundles the :class:`~repro.observability.metrics.MetricsRegistry`
with the inter-PE message log.  Transports and SPI tasks call
:meth:`ObservabilityHub.message` whenever a message (data, acknowledgment
or resynchronization token) is committed to a link; the hub keeps the
full record — enough to draw async arrows in the Chrome trace and to
split wire traffic into data vs synchronization at any granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.observability.metrics import MetricsRegistry

__all__ = ["MessageRecord", "ObservabilityHub"]


@dataclass(frozen=True)
class MessageRecord:
    """One message's life on the interconnect.

    ``requested`` is when the sender handed the message to the
    transport, ``started`` when the wire actually began carrying it
    (later under contention), ``arrived`` when the last word landed.
    """

    channel: str
    kind: str  # "data" | "ack" | "resync"
    src_pe: int
    dst_pe: int
    nbytes: int
    requested: int
    started: int
    arrived: int

    @property
    def queueing_cycles(self) -> int:
        """Cycles the message waited before the wire accepted it."""
        return self.started - self.requested

    @property
    def transfer_cycles(self) -> int:
        return self.arrived - self.started


@dataclass
class ObservabilityHub:
    """Metrics registry + message log for one execution."""

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    messages: List[MessageRecord] = field(default_factory=list)

    def message(
        self,
        channel: str,
        kind: str,
        src_pe: int,
        dst_pe: int,
        nbytes: int,
        requested: int,
        started: int,
        arrived: int,
    ) -> None:
        """Record one committed link message and its derived metrics."""
        record = MessageRecord(
            channel=channel,
            kind=kind,
            src_pe=src_pe,
            dst_pe=dst_pe,
            nbytes=nbytes,
            requested=requested,
            started=started,
            arrived=arrived,
        )
        self.messages.append(record)
        registry = self.registry
        registry.counter("link.messages", channel=channel, kind=kind).inc()
        registry.counter("link.bytes", channel=channel, kind=kind).inc(nbytes)
        registry.histogram("link.queueing_cycles", channel=channel).observe(
            record.queueing_cycles
        )
