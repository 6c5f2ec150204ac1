"""Shared helpers for the experiment benchmarks.

Every bench target regenerates one table or figure of the paper:
it sweeps the paper's parameters on the simulated platform, prints the
same rows/series the paper reports (run ``pytest benchmarks/ -s`` to see
them), writes a CSV next to this file under ``results/``, asserts the
qualitative shape, and times one representative unit of work through
pytest-benchmark.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import json
import os
import time
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: reduced sweeps for the CI benchmark-smoke job (same shapes, fewer
#: points); set REPRO_BENCH_QUICK=1 to enable
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"

#: events of the host reference loop (mode-independent on purpose)
REFERENCE_EVENTS = 50_000


def save_result(name: str, text: str) -> Path:
    """Persist a rendered table/series under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    return path


def _committed_baseline_is_full_mode(name: str) -> bool:
    """True when ``BENCH_<name>.json`` exists and was produced in full
    (non-quick) mode — i.e. it is a committed baseline a quick run must
    not clobber."""
    committed = RESULTS_DIR / f"BENCH_{name}.json"
    if not committed.exists():
        return False
    try:
        document = json.loads(committed.read_text())
    except (OSError, ValueError):
        return False
    return document.get("quick") is False


def save_bench_json(
    name: str,
    makespan_cycles: int,
    iteration_period_cycles: float,
    wall_seconds: float,
    extra=None,
) -> Path:
    """Emit ``BENCH_<name>.json`` under benchmarks/results/.

    The perf-trajectory document the CI benchmark-smoke job uploads as
    an artifact; see :mod:`repro.observability.bench` for the schema.

    A quick-mode run never overwrites a committed full-mode baseline:
    when ``REPRO_BENCH_QUICK=1`` and ``BENCH_<name>.json`` holds a
    full-mode document, the quick document is diverted to
    ``BENCH_<name>.quick.json`` (same schema, ``quick: true``) and the
    regression checkers are pointed at that file instead — so a CI run
    cannot silently replace the stronger baseline it gates against.
    """
    from repro.observability import (
        bench_document,
        validate_bench,
        write_bench_json,
    )

    document = bench_document(
        name,
        makespan_cycles=makespan_cycles,
        iteration_period_cycles=iteration_period_cycles,
        wall_seconds=wall_seconds,
        quick=QUICK,
        extra=extra,
    )
    if QUICK and _committed_baseline_is_full_mode(name):
        validate_bench(document)
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"BENCH_{name}.quick.json"
        path.write_text(json.dumps(document, indent=2) + "\n")
        return path
    return write_bench_json(RESULTS_DIR, document)


def reference_seconds() -> float:
    """Wall of a fixed heap-driven event loop (host speed probe).

    Each event pops the earliest ``(time, seq, callback)`` entry and
    its callback schedules the next one, built from the standard
    library only and sharing no code with ``repro``.  Dividing a
    workload's wall by it gives a host-normalized time that a quick run
    on one machine can compare with a full-mode baseline from another.
    """
    heap = []
    seq = itertools.count()
    counter = [0]

    def tick(now):
        counter[0] += 1
        if counter[0] < REFERENCE_EVENTS:
            heapq.heappush(heap, (now + 1 + counter[0] % 7, next(seq), tick))

    for start in range(16):
        heapq.heappush(heap, (start, next(seq), tick))
    gc.collect()
    begin = time.perf_counter()
    while heap:
        now, _, callback = heapq.heappop(heap)
        callback(now)
    return time.perf_counter() - begin


def emit(title: str, text: str) -> None:
    """Print a reproduced artefact (visible with ``pytest -s``)."""
    banner = "=" * len(title)
    print(f"\n{banner}\n{title}\n{banner}\n{text}\n")


@pytest.fixture(scope="session")
def speech_frames_factory():
    """Frame sets per (total, size) — cached across benches."""
    from repro.apps.lpc import frame_stream

    cache = {}

    def factory(frame_size: int, count: int = 2):
        key = (frame_size, count)
        if key not in cache:
            cache[key] = frame_stream(
                total_samples=count * frame_size, frame_size=frame_size
            )
        return cache[key]

    return factory


@pytest.fixture(scope="session")
def crack_problem():
    """One crack-growth tracking problem shared by the PF benches."""
    from repro.apps.particle_filter import (
        CrackGrowthModel,
        simulate_crack_history,
    )

    model = CrackGrowthModel()
    truth, observations = simulate_crack_history(model, steps=8, seed=7)
    return model, truth, observations
