"""Steady-state detection and extrapolation for self-timed execution.

Self-timed execution of a consistent SDF graph is eventually periodic
(paper eq. 3: firing instants settle into ``start(v, k + P) =
start(v, k) + T``), so simulating every iteration of a long run wastes
work on a pattern that repeats exactly.  Following the SDF3 school of
throughput analysis (Ghamarian et al.), the tracker captures the *full
kernel state* at every reference-iteration boundary and detects the
periodic phase as an exact state recurrence — no rate analysis, no
approximation, just hashing.

Once a period of ``P`` iterations / ``T`` cycles is **confirmed** (the
state recurs twice consecutively with identical per-period counter
deltas, or once when it matches a cached cross-run period hint), the
remaining ``m * P`` whole periods are warped over analytically:

* every sequencer's iteration target is reduced by ``m * P`` (the tail
  and the final drain still simulate normally, so the last-iteration
  ramp-down is exact);
* every registered :class:`Meter` — PE cycles, per-channel message and
  byte counts, pool traffic, transport totals — is advanced by ``m``
  times its per-period delta;
* ``m * T`` cycles are added to the reported makespan.

Because the state recurrence is exact and the simulator deterministic,
makespan, per-channel traffic and occupancy high-water marks of a warped
run are bit-identical to the fully interpreted run (HWMs cannot grow
inside the skipped periods: each one replays an occupancy trajectory the
detection window already observed).  Kernel-effort counters
(``events_processed``, parks, wakeups) are deliberately *not*
extrapolated — they report the work actually simulated, which is the
point of the speedup.

The warp skips *timing*, not *values*: the runtime fires the skipped
iterations' kernels afterwards in PASS order (see
:meth:`repro.spi.SpiSystem.run`), so a warped run's outputs are those of
the full run.

Confirmation fixes the shortest run that can warp
(:func:`min_warp_iterations`), and the runtime arms only runs at least
that long.

What must be in the state hash (and why) is documented in DESIGN.md
§4e; the short version: anything that influences any future event time
or counter, expressed relative to the current time, including every
in-flight message — data, UBS acks **and** resynchronization deposits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

__all__ = [
    "AttrMeter",
    "MapMeter",
    "ObjectMapMeter",
    "SteadyStateReport",
    "SteadyStateTracker",
    "min_warp_iterations",
]


def min_warp_iterations(hinted: bool) -> int:
    """Fewest run iterations in which the tracker can ever warp.

    Boundaries are hashed when the reference PE finishes iteration
    ``k = 1, 2, ...``.  A warp needs the state at some boundary to recur
    twice, one period ``P >= 1`` apart each time — once with a cached
    period hint — so it comes at ``k >= 3`` (``k >= 2`` hinted).  It must
    then skip at least one whole period while the last iteration still
    simulates: ``iterations - k - 1 >= P >= 1``.  Hence 5 iterations, or
    4 with a hint.
    """
    confirmations = 1 if hinted else 2
    return 1 + confirmations + 2


class AttrMeter:
    """Meter over monotonically increasing integer attributes."""

    __slots__ = ("name", "obj", "fields")

    def __init__(self, name: str, obj: object, fields: Sequence[str]) -> None:
        self.name = name
        self.obj = obj
        self.fields = tuple(fields)

    def snapshot(self) -> Dict[Hashable, int]:
        return {f: getattr(self.obj, f) for f in self.fields}

    def apply(self, delta: Dict[Hashable, int], times: int) -> None:
        for f, d in delta.items():
            setattr(self.obj, f, getattr(self.obj, f) + d * times)


class MapMeter:
    """Meter over a live counter mapping (e.g. blocked-by-task cycles)."""

    __slots__ = ("name", "_get")

    def __init__(
        self, name: str, get_map: Callable[[], Dict[Hashable, int]]
    ) -> None:
        self.name = name
        self._get = get_map

    def snapshot(self) -> Dict[Hashable, int]:
        return dict(self._get())

    def apply(self, delta: Dict[Hashable, int], times: int) -> None:
        live = self._get()
        for key, d in delta.items():
            live[key] = live.get(key, 0) + d * times


class ObjectMapMeter:
    """Meter over a (lazily populated) map of counter-bearing objects.

    ``get_items()`` yields ``(key, obj)`` pairs; counters are the
    ``fields`` attributes of each object.  Every key of the warp delta
    is guaranteed live at apply time because the delta is computed from
    the newest snapshot of the same map.
    """

    __slots__ = ("name", "_get_items", "fields")

    def __init__(self, name: str, get_items: Callable, fields) -> None:
        self.name = name
        self._get_items = get_items
        self.fields = tuple(fields)

    def snapshot(self) -> Dict[Hashable, int]:
        return {
            (key, f): getattr(obj, f)
            for key, obj in self._get_items()
            for f in self.fields
        }

    def apply(self, delta: Dict[Hashable, int], times: int) -> None:
        live = dict(self._get_items())
        for (key, f), d in delta.items():
            obj = live[key]
            setattr(obj, f, getattr(obj, f) + d * times)


@dataclass
class SteadyStateReport:
    """Everything the tracker observed, for metrics and conformance."""

    #: reference iteration at which the period was confirmed (None =
    #: never detected within the hashing window)
    detected_at: Optional[int] = None
    period_iterations: Optional[int] = None
    period_cycles: Optional[int] = None
    #: iterations skipped analytically (0 = the run was fully simulated)
    extrapolated_iterations: int = 0
    extrapolated_cycles: int = 0
    #: the warp used a cached cross-run period hint (one confirmation
    #: period was skipped; the state recurrence itself is still required)
    hint_used: bool = False
    #: reference-iteration boundaries hashed before detection/give-up
    boundaries_hashed: int = 0
    #: per-period counter deltas, keyed ``(meter name, counter key)``
    period_delta: Optional[Dict[Tuple[str, Hashable], int]] = None
    #: ``(iteration, time, state digest)`` per hashed boundary — the
    #: artifact uploaded by CI when a conformance divergence is found
    hash_trace: List[Tuple[int, int, str]] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        return {
            "detected_at": self.detected_at,
            "period_iterations": self.period_iterations,
            "period_cycles": self.period_cycles,
            "extrapolated_iterations": self.extrapolated_iterations,
            "extrapolated_cycles": self.extrapolated_cycles,
            "hint_used": self.hint_used,
            "boundaries_hashed": self.boundaries_hashed,
            "hash_trace": [
                {"iteration": k, "time": t, "digest": d}
                for k, t, d in self.hash_trace
            ],
        }


class SteadyStateTracker:
    """Detects the periodic phase of one simulation and warps over it.

    The runtime wires one tracker per armed run: ``probes`` are
    callables ``probe(now) -> hashable`` capturing each subsystem's
    state relative to ``now``; ``meters`` cover every counter that the
    skipped periods would have advanced.  The tracker also owns the
    in-flight message multiset fed by
    :meth:`~repro.platform.simulator.Simulator.schedule_delivery`.

    Detection is conservative by construction: a candidate period (one
    exact state recurrence) must recur again after exactly one more
    period with identical per-period counter deltas before the warp is
    taken.  A cached ``hint`` of ``(period_iterations, period_cycles)``
    from a previous run of the same system lets the first recurrence
    warp directly — the state equality is still required, the hint only
    replaces the second confirmation period.
    """

    def __init__(
        self,
        sim,
        sequencers: Sequence,
        probes: Sequence[Callable[[int], Hashable]],
        meters: Sequence,
        target_iterations: int,
        hint: Optional[Tuple[int, int]] = None,
        max_window: int = 512,
    ) -> None:
        if not sequencers:
            raise ValueError("steady-state tracking needs >= 1 sequencer")
        self.sim = sim
        self.sequencers = list(sequencers)
        self.ref = self.sequencers[0]
        self.probes = list(probes)
        self.meters = list(meters)
        self.target_iterations = target_iterations
        self.hint = tuple(hint) if hint is not None else None
        self.max_window = max_window
        #: while True, boundary hashing and in-flight tracking are live
        self.armed = True
        self.report = SteadyStateReport()
        # full state tuples (exact equality — no collision risk) ->
        # (iteration, time, per-meter counter snapshots)
        self._seen: Dict[Hashable, Tuple[int, int, List[Dict]]] = {}
        # expected confirmation iteration -> (P, T, per-meter deltas);
        # one pending candidate per recurring boundary, so a period of
        # P > 1 iterations confirms as well as P = 1
        self._candidates: Dict[int, Tuple[int, int, List[Dict]]] = {}
        self._inflight: Dict[Tuple[Hashable, int], int] = {}

    # -- in-flight message multiset (fed by Simulator.schedule_delivery) --

    def track(self, key: Hashable, arrival: int) -> None:
        slot = (key, arrival)
        self._inflight[slot] = self._inflight.get(slot, 0) + 1

    def untrack(self, key: Hashable, arrival: int) -> None:
        slot = (key, arrival)
        count = self._inflight.get(slot, 0)
        if count <= 1:
            self._inflight.pop(slot, None)
        else:
            self._inflight[slot] = count - 1

    def _inflight_state(self, now: int) -> Tuple:
        return tuple(
            sorted(
                (arrival - now, repr(key), n)
                for (key, arrival), n in self._inflight.items()
            )
        )

    # -- state capture ------------------------------------------------------

    def _capture(self, now: int) -> Tuple:
        parts: List[Hashable] = [self._inflight_state(now)]
        for probe in self.probes:
            parts.append(probe(now))
        return tuple(parts)

    def _snapshots(self) -> List[Dict]:
        return [meter.snapshot() for meter in self.meters]

    @staticmethod
    def _deltas(older: List[Dict], newer: List[Dict]) -> List[Dict]:
        return [
            {key: new[key] - old.get(key, 0) for key in new}
            for old, new in zip(older, newer)
        ]

    # -- boundary hook (installed on the reference sequencer) ---------------

    def on_iteration_boundary(self) -> None:
        """Called synchronously when the reference PE wraps an iteration."""
        if not self.armed:
            return
        now = self.sim.now
        k = self.ref.iteration
        state = self._capture(now)
        report = self.report
        report.boundaries_hashed += 1
        digest = hashlib.sha1(repr(state).encode()).hexdigest()[:16]
        report.hash_trace.append((k, now, digest))

        prev = self._seen.get(state)
        snaps = self._snapshots()
        candidate = self._candidates.pop(k, None)
        if prev is not None:
            prev_k, prev_now, prev_snaps = prev
            period = k - prev_k
            cycles = now - prev_now
            deltas = self._deltas(prev_snaps, snaps)
            if self.hint is not None and self.hint == (period, cycles):
                if self._warp(k, period, cycles, deltas, hint_used=True):
                    return
            if candidate == (period, cycles, deltas):
                if self._warp(k, period, cycles, deltas, hint_used=False):
                    return
            self._candidates[k + period] = (period, cycles, deltas)
        self._seen[state] = (k, now, snaps)
        if report.boundaries_hashed >= self.max_window:
            # aperiodic within the window (or transient longer than it):
            # stop paying the hashing cost and run the rest interpreted
            self.armed = False

    # -- the warp -----------------------------------------------------------

    def _warp(
        self,
        k: int,
        period: int,
        cycles: int,
        deltas: List[Dict],
        hint_used: bool,
    ) -> bool:
        if any(s.done for s in self.sequencers):
            return False
        furthest = max(s.iteration for s in self.sequencers)
        skips = (self.target_iterations - furthest - 1) // period
        if skips < 1:
            return False
        for sequencer in self.sequencers:
            sequencer.iterations -= skips * period
        for meter, delta in zip(self.meters, deltas):
            meter.apply(delta, skips)
        report = self.report
        report.detected_at = k
        report.period_iterations = period
        report.period_cycles = cycles
        report.extrapolated_iterations = skips * period
        report.extrapolated_cycles = skips * cycles
        report.hint_used = hint_used
        report.period_delta = {
            (meter.name, key): value
            for meter, delta in zip(self.meters, deltas)
            for key, value in delta.items()
        }
        self.armed = False
        return True
