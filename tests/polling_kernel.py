"""Polling reference kernel: the oracle for targeted wakeups.

:class:`PollingSimulator` ignores waitsets entirely.  A sequencer whose
guard fails simply joins a parked list, and whenever an event leaves
sequencers parked the kernel re-runs each of them, in parking order,
until a round makes no progress.  That is the obvious (and quadratic)
way to run a self-timed schedule, so it needs no wakeup bookkeeping to
be right: the production kernel must reach the same token streams,
cycles and message counts with its targeted wakeups.

Each polling round is a heap event at the current time, requested at
most once per pending round — the same ordering contract as the
production kernel's wake rounds: a re-evaluation runs after every
event already queued at that timestamp.  Within a round, sequencers
are re-run in parking order rather than waitset subscription order.

Swap it in with ``monkeypatch.setattr(module, "Simulator",
PollingSimulator)`` on the runtime module that builds the kernel.
"""

from __future__ import annotations

from repro.platform import Simulator


class PollingSimulator(Simulator):
    """A :class:`Simulator` that polls parked sequencers after events."""

    def __init__(self, check_lost_wakeups: bool = False) -> None:
        # waitsets are never subscribed, so there is nothing to audit
        super().__init__()
        self._poll_scheduled = False

    def park(self, sequencer, waitsets=()) -> None:
        if sequencer.parked:
            return
        sequencer.parked = True
        self.parks += 1
        self._parked.append(sequencer)

    def at(self, time, callback) -> None:
        def event() -> None:
            callback()
            self._request_poll()

        super().at(time, event)

    def _request_poll(self) -> None:
        if self._parked and not self._poll_scheduled:
            self._poll_scheduled = True
            super().at(self.now, self._poll)

    def _poll(self) -> None:
        self._poll_scheduled = False
        parked, self._parked = self._parked, []
        for sequencer in parked:
            sequencer.advance()
        if len(self._parked) < len(parked):
            self._request_poll()
