"""Sweep helpers and derived metrics for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.spi.runtime import RunResult

__all__ = [
    "SweepPoint",
    "first_output_latency",
    "pipeline_fill_latency",
    "speedups",
    "parallel_efficiency",
    "crossover_x",
    "steady_state_us",
    "amdahl_bound",
]


@dataclass(frozen=True)
class SweepPoint:
    """One measured point of a parameter sweep."""

    x: float
    n_pes: int
    result: RunResult


def steady_state_us(result: RunResult, clock_mhz: float = 100.0) -> float:
    """Steady-state per-iteration time in microseconds."""
    return result.iteration_period_cycles / clock_mhz


def speedups(times: Sequence[float]) -> List[float]:
    """Speedup of each entry against the first (1-PE) entry."""
    if not times:
        raise ValueError("empty time series")
    base = times[0]
    if base <= 0:
        raise ValueError("baseline time must be positive")
    return [base / t for t in times]


def parallel_efficiency(times: Sequence[float], pes: Sequence[int]) -> List[float]:
    """Speedup divided by PE count, per configuration."""
    if len(times) != len(pes):
        raise ValueError("times and pes must align")
    gains = speedups(times)
    return [gain / n for gain, n in zip(gains, pes)]


def crossover_x(
    xs: Sequence[float], a: Sequence[float], b: Sequence[float]
) -> Optional[float]:
    """First x where series ``a`` drops below series ``b`` (or None).

    Used to locate where one configuration starts winning — e.g. the
    problem size from which an extra PE pays off despite communication.
    """
    if not (len(xs) == len(a) == len(b)):
        raise ValueError("series must align")
    for x, ya, yb in zip(xs, a, b):
        if ya < yb:
            return x
    return None


def first_output_latency(trace, task_name: str) -> int:
    """Cycles until ``task_name`` completes its first execution.

    The flip side of pipelining: added delay tokens raise this number
    while lowering the iteration period — this helper quantifies the
    trade from a recorded :class:`~repro.platform.trace.TraceRecorder`.
    """
    events = trace.events_of(task_name)
    if not events:
        raise ValueError(f"no executions of {task_name!r} in the trace")
    return min(event.end for event in events)


def pipeline_fill_latency(trace, source_task: str, sink_task: str) -> int:
    """Cycles from the source's first start to the sink's first end."""
    sources = trace.events_of(source_task)
    if not sources:
        raise ValueError(f"no executions of {source_task!r} in the trace")
    start = min(event.start for event in sources)
    return first_output_latency(trace, sink_task) - start


def amdahl_bound(serial_fraction: float, n_pes: int) -> float:
    """Amdahl speedup bound — the sanity ceiling for the figure benches."""
    if not 0 <= serial_fraction <= 1:
        raise ValueError("serial_fraction must be in [0, 1]")
    if n_pes < 1:
        raise ValueError("n_pes must be >= 1")
    return 1.0 / (serial_fraction + (1.0 - serial_fraction) / n_pes)
