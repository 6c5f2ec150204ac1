"""Collective connections — PF resampling exchange, p2p vs broadcast.

The particle filter's S1 weight-sum exchange is an all-to-all of
identical payloads: with point-to-point edges each PE sends p-1 copies;
with first-class broadcast connections the payload goes on the shared
bus once per firing and fans out at the receivers.  This bench sweeps
the PE count and reports, per side, the transfers actually on the wire
and the wire bytes after payload sharing — the message-count and
wire-byte reduction the paper's framing predicts.

``BENCH_collectives.json`` carries one row per PE count and the sweep's
wall time; ``check_regression.py`` gates CI on the p >= 4 win and on
the reduction ratio floor.
"""

import time

import pytest

from conftest import QUICK, emit, save_bench_json, save_result
from repro.analysis import render_table
from repro.apps.particle_filter import build_particle_filter_graph
from repro.spi import SpiConfig, SpiSystem

PE_COUNTS = (2, 4) if QUICK else (2, 4, 6)
N_PARTICLES = 72 if QUICK else 120  # divisible by every PE count
ITERATIONS = 4 if QUICK else 6
TRANSPORT = "shared_bus"


def wire_messages(result) -> int:
    """Transfers actually on the wire: a collective transfer counts
    once, not once per delivered consumer copy."""
    return (
        result.data_messages
        - result.fan_out_deliveries
        + result.collective_messages
    )


def measure(n_pes: int, collectives: bool, crack_problem) -> dict:
    model, _, observations = crack_problem
    system = build_particle_filter_graph(
        model, observations, n_particles=N_PARTICLES, n_pes=n_pes,
        collectives=collectives,
    )
    compiled = SpiSystem.compile(
        system.graph, system.partition, SpiConfig(transport=TRANSPORT)
    )
    result = compiled.run(iterations=ITERATIONS, metrics=True)
    return {
        "cycles": result.cycles,
        "iteration_period_cycles": result.iteration_period_cycles,
        "data_messages": result.data_messages,
        "collective_messages": result.collective_messages,
        "fan_out_deliveries": result.fan_out_deliveries,
        "wire_messages": wire_messages(result),
        "wire_bytes": result.wire_bytes - result.wire_bytes_saved,
        "wire_bytes_saved": result.wire_bytes_saved,
    }


@pytest.fixture(scope="module")
def timed_sweep(crack_problem):
    """The sweep and its wall time (the BENCH envelope's wall_seconds)."""
    start = time.perf_counter()
    sweep = {
        (n, collectives): measure(n, collectives, crack_problem)
        for n in PE_COUNTS
        for collectives in (False, True)
    }
    return sweep, time.perf_counter() - start


@pytest.fixture(scope="module")
def sweep(timed_sweep):
    return timed_sweep[0]


def test_collectives_report(sweep):
    rows = []
    for n in PE_COUNTS:
        p2p, coll = sweep[(n, False)], sweep[(n, True)]
        rows.append(
            [
                str(n),
                str(p2p["wire_messages"]),
                str(coll["wire_messages"]),
                str(p2p["wire_bytes"]),
                str(coll["wire_bytes"]),
                f"{p2p['wire_messages'] / coll['wire_messages']:.2f}x"
                if coll["wire_messages"]
                else "-",
            ]
        )
    text = render_table(
        [
            "PEs",
            "p2p msgs",
            "coll msgs",
            "p2p bytes",
            "coll bytes",
            "msg reduction",
        ],
        rows,
    )
    emit("Collective vs p2p fan-out (PF weight exchange)", text)
    save_result("collectives_pf.txt", text)


def test_degenerate_two_pe_point_identical(sweep):
    """At 2 PEs every broadcast has one consumer: bit-identical runs."""
    p2p, coll = sweep[(2, False)], sweep[(2, True)]
    assert coll == p2p


def test_collective_win_at_four_plus_pes(sweep):
    """The acceptance criterion: strictly fewer wire messages AND wire
    bytes at every p >= 4."""
    for n in PE_COUNTS:
        if n < 4:
            continue
        p2p, coll = sweep[(n, False)], sweep[(n, True)]
        assert coll["collective_messages"] > 0
        assert coll["wire_messages"] < p2p["wire_messages"]
        assert coll["wire_bytes"] < p2p["wire_bytes"]


def test_collectives_bench_export(timed_sweep):
    """Emit BENCH_collectives.json for the CI regression gate."""
    sweep, wall = timed_sweep
    largest = PE_COUNTS[-1]
    rows = [
        {
            "n_pes": n,
            "p2p": sweep[(n, False)],
            "collective": sweep[(n, True)],
        }
        for n in PE_COUNTS
    ]
    path = save_bench_json(
        "collectives",
        makespan_cycles=sweep[(largest, True)]["cycles"],
        iteration_period_cycles=(
            sweep[(largest, True)]["iteration_period_cycles"]
        ),
        wall_seconds=wall,
        extra={
            "transport": TRANSPORT,
            "n_particles": N_PARTICLES,
            "iterations": ITERATIONS,
            "pe_counts": list(PE_COUNTS),
            "rows": rows,
        },
    )
    assert path.exists()


def test_collectives_benchmark_largest(benchmark, crack_problem):
    """pytest-benchmark unit: the largest-p collective build."""
    benchmark(measure, PE_COUNTS[-1], True, crack_problem)
