"""Batched heterogeneous execution — batch size x PE count on fig6/fig7.

An accelerator PE amortizes its per-dispatch overhead over B queued
firings: one dispatch of ``dispatch_cycles + sum(ceil(c_k * cpe))``
replaces B dispatches.  This bench sweeps the blocking factor and the
D-unit count on the LPC parallel-error pipeline (paper fig. 6, feed
forward — every blocking factor is admissible), shows the particle
filter (fig. 7, tight feedback) correctly declining to batch, runs the
equal-resource-budget heterogeneous-vs-homogeneous ablation, and times
the vectorized host kernels against their per-element reference loops.

``BENCH_batching.json`` carries the sweep and its wall time;
``check_regression.py`` gates CI on the >= 1.5x fig6 batched win, the
equal-budget hetero win, the fig7 clamp, and the vectorized-kernel
wall-clock wins.
"""

import time

import numpy as np
import pytest

from conftest import QUICK, emit, save_bench_json, save_result
from repro.analysis import render_table
from repro.apps.lpc import power_spectrum
from repro.apps.lpc.actors import SpectralAnalyzer
from repro.apps.lpc.pipeline import build_parallel_error_graph
from repro.apps.particle_filter import build_particle_filter_graph
from repro.apps.particle_filter.resampling import (
    _multiplicities_loop,
    multiplicities,
)
from repro.mapping.partition import Partition
from repro.platform.pe import PEClass
from repro.spi import SpiConfig, SpiSystem

#: the accelerator class of the sweep: 4x faster per element than a
#: gpp but charging a 100-cycle dispatch, at 1.5x the resource cost —
#: so one gpp + two accelerators exactly matches four gpps (budget 4.0)
ACCELERATOR = PEClass(
    kind="accelerator",
    dispatch_cycles=100,
    cycles_per_element=0.25,
    resource_cost=1.5,
)
EQUAL_BUDGET = 1.0 + 2 * ACCELERATOR.resource_cost  # 1 gpp + 2 accel = 4.0

N_UNITS = (2,) if QUICK else (2, 3)
BATCHES = (1, 2, 4) if QUICK else (1, 2, 4, 8)
ITERATIONS = 8 if QUICK else 16
FRAME_SIZE = 64
ORDER = 8
N_FRAMES = 4


def _speech_frames():
    rng = np.random.default_rng(0)
    return [rng.standard_normal(FRAME_SIZE) for _ in range(N_FRAMES)]


def measure_fig6(n_units: int, batch: int, accelerate: bool) -> dict:
    """One LPC parallel-error run; D units on accelerator PEs when
    ``accelerate``, requested blocking factor ``batch``."""
    system = build_parallel_error_graph(
        _speech_frames(), order=ORDER, n_units=n_units
    )
    classes = (
        {pe: ACCELERATOR for pe in range(1, n_units + 1)}
        if accelerate
        else {}
    )
    partition = Partition(
        system.graph,
        system.partition.n_pes,
        dict(system.partition.assignment),
        pe_classes=classes,
        batch_size=batch,
    )
    compiled = SpiSystem.compile(system.graph, partition, SpiConfig())
    result = compiled.run(iterations=ITERATIONS, metrics=True)
    return {
        "n_units": n_units,
        "requested_batch": batch,
        "effective_batch": compiled.batch,
        "cycles": result.cycles,
        "iteration_period_cycles": result.iteration_period_cycles,
        "batched_firings": result.batched_firings,
        "batch_dispatches": result.batch_dispatches,
        "amortized_dispatch_cycles_saved": (
            result.amortized_dispatch_cycles_saved
        ),
        "data_messages": result.data_messages,
    }


@pytest.fixture(scope="module")
def timed_sweep():
    """The sweep and its wall time (the BENCH envelope's wall_seconds)."""
    start = time.perf_counter()
    sweep = {
        (n, b): measure_fig6(n, b, True) for n in N_UNITS for b in BATCHES
    }
    return sweep, time.perf_counter() - start


@pytest.fixture(scope="module")
def sweep(timed_sweep):
    return timed_sweep[0]


@pytest.fixture(scope="module")
def ablation():
    """Equal-resource-budget platforms on the same frame workload:
    heterogeneous (1 gpp + 2 accelerators, batched) vs homogeneous
    (4 gpps, i.e. 3 D units) — both cost ``EQUAL_BUDGET``."""
    hetero = measure_fig6(2, max(BATCHES), True)
    homo = measure_fig6(3, 1, False)
    return {"hetero": hetero, "homo": homo}


@pytest.fixture(scope="module")
def fig7_row(crack_problem):
    """The particle filter's feedback loop admits no blocking factor:
    the runtime must clamp any requested batch back to 1."""
    model, _, observations = crack_problem
    system = build_particle_filter_graph(
        model, observations, n_particles=64, n_pes=2
    )
    partition = Partition(
        system.graph,
        system.partition.n_pes,
        dict(system.partition.assignment),
        pe_classes={1: ACCELERATOR},
        batch_size=max(BATCHES),
    )
    compiled = SpiSystem.compile(system.graph, partition, SpiConfig())
    result = compiled.run(iterations=4, metrics=True)
    return {
        "requested_batch": max(BATCHES),
        "effective_batch": compiled.batch,
        "batch_dispatches": result.batch_dispatches,
        "cycles": result.cycles,
    }


def _best_of(fn, repeats: int = 5) -> float:
    fn()  # warm-up (allocations, code paths)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def kernel_rows():
    """Wall-clock of the vectorized batch kernels vs their per-element
    reference loops (best-of-5 to suppress scheduler noise)."""
    rng = np.random.default_rng(1)
    rows = []

    # PF weight kernel: B observation steps x P particles per batched
    # dispatch.  The batched-firing regime is many *small* firings —
    # the win is amortizing B numpy-call dispatches into one.
    from repro.apps.particle_filter import CrackGrowthModel

    model = CrackGrowthModel()
    b, p = (64, 32) if QUICK else (256, 64)
    observations = 2.0 + 0.1 * rng.standard_normal(b)
    lengths = 2.0 + 0.3 * np.abs(rng.standard_normal((b, p)))
    loop_s = _best_of(
        lambda: [
            model.likelihood(float(observations[i]), lengths[i])
            for i in range(b)
        ]
    )
    vec_s = _best_of(lambda: model.likelihood_batch(observations, lengths))
    rows.append(
        {
            "name": "pf_likelihood",
            "loop_seconds": loop_s,
            "vector_seconds": vec_s,
            "speedup": loop_s / vec_s,
        }
    )

    # PF resampling multiplicities: bincount vs per-index loop.
    population = 5_000 if QUICK else 50_000
    indices = rng.integers(0, population, size=population)
    loop_s = _best_of(lambda: _multiplicities_loop(indices, population))
    vec_s = _best_of(lambda: multiplicities(indices, population))
    rows.append(
        {
            "name": "pf_multiplicities",
            "loop_seconds": loop_s,
            "vector_seconds": vec_s,
            "speedup": loop_s / vec_s,
        }
    )

    # LPC spectral windows: batched FFT vs per-window transforms.
    n_windows = 8 if QUICK else 64
    frames = rng.standard_normal((n_windows, 256))
    loop_s = _best_of(lambda: [power_spectrum(f) for f in frames])
    vec_s = _best_of(lambda: SpectralAnalyzer.analyze_batch(frames))
    rows.append(
        {
            "name": "lpc_spectra",
            "loop_seconds": loop_s,
            "vector_seconds": vec_s,
            "speedup": loop_s / vec_s,
        }
    )
    return rows


def test_batching_report(sweep):
    rows = []
    csv_lines = [
        "n_units,batch,effective_batch,cycles,speedup_vs_batch1,"
        "batched_firings,batch_dispatches,amortized_dispatch_cycles_saved"
    ]
    for n in N_UNITS:
        base = sweep[(n, 1)]["cycles"]
        for b in BATCHES:
            row = sweep[(n, b)]
            speedup = base / row["cycles"]
            rows.append(
                [
                    str(n),
                    str(b),
                    str(row["effective_batch"]),
                    str(row["cycles"]),
                    f"{speedup:.2f}x",
                    str(row["batch_dispatches"]),
                    str(row["amortized_dispatch_cycles_saved"]),
                ]
            )
            csv_lines.append(
                f"{n},{b},{row['effective_batch']},{row['cycles']},"
                f"{speedup:.4f},{row['batched_firings']},"
                f"{row['batch_dispatches']},"
                f"{row['amortized_dispatch_cycles_saved']}"
            )
    text = render_table(
        [
            "D units",
            "batch",
            "effective",
            "cycles",
            "speedup",
            "dispatches",
            "cycles amortized",
        ],
        rows,
    )
    emit("Batched accelerator firing (LPC fig. 6)", text)
    save_result("batching_sweep.txt", text)
    save_result("batching_sweep.csv", "\n".join(csv_lines))


def test_batched_counters_consistent(sweep):
    for (n, b), row in sweep.items():
        assert row["effective_batch"] == b  # fig6 is feed-forward
        if b == 1:
            assert row["batch_dispatches"] == 0
            assert row["amortized_dispatch_cycles_saved"] == 0
        else:
            assert row["batch_dispatches"] > 0
            assert row["amortized_dispatch_cycles_saved"] > 0


def test_batching_preserves_token_traffic(sweep):
    """Batching reorders time, not data: every blocking factor moves
    exactly the same messages."""
    for n in N_UNITS:
        counts = {sweep[(n, b)]["data_messages"] for b in BATCHES}
        assert len(counts) == 1


def test_batch_speedup_floor(sweep):
    """The acceptance criterion: best batched config >= 1.5x the
    unbatched one on fig6 (full mode; quick sweeps fewer factors, so
    the floor relaxes to 1.2x)."""
    floor = 1.2 if QUICK else 1.5
    for n in N_UNITS:
        base = sweep[(n, 1)]["cycles"]
        best = min(sweep[(n, b)]["cycles"] for b in BATCHES)
        assert best < base
        assert base / best >= floor


def test_hetero_beats_homo_equal_budget(ablation):
    assert ablation["hetero"]["cycles"] < ablation["homo"]["cycles"]


def test_fig7_declines_batching(fig7_row):
    assert fig7_row["effective_batch"] == 1
    assert fig7_row["batch_dispatches"] == 0


def test_vectorized_kernels_report(kernel_rows):
    text = render_table(
        ["kernel", "loop s", "vectorized s", "speedup"],
        [
            [
                row["name"],
                f"{row['loop_seconds']:.6f}",
                f"{row['vector_seconds']:.6f}",
                f"{row['speedup']:.1f}x",
            ]
            for row in kernel_rows
        ],
    )
    emit("Vectorized host kernels (best of 5)", text)
    save_result("batching_kernels.txt", text)
    if not QUICK:  # wall-clock asserts are full-mode only (CI noise)
        for row in kernel_rows:
            assert row["speedup"] > 1.0, row["name"]


def test_batching_bench_export(timed_sweep, ablation, fig7_row, kernel_rows):
    """Emit BENCH_batching.json for the CI regression gate."""
    sweep, wall = timed_sweep
    largest = N_UNITS[-1]
    base = sweep[(largest, 1)]
    best = min(
        (sweep[(largest, b)] for b in BATCHES), key=lambda r: r["cycles"]
    )
    rows = [sweep[(n, b)] for n in N_UNITS for b in BATCHES]
    path = save_bench_json(
        "batching",
        makespan_cycles=best["cycles"],
        iteration_period_cycles=best["iteration_period_cycles"],
        wall_seconds=wall,
        extra={
            "accelerator": {
                "dispatch_cycles": ACCELERATOR.dispatch_cycles,
                "cycles_per_element": ACCELERATOR.cycles_per_element,
                "resource_cost": ACCELERATOR.resource_cost,
            },
            "iterations": ITERATIONS,
            "unit_counts": list(N_UNITS),
            "batches": list(BATCHES),
            "rows": rows,
            "fig6_batch1_cycles": base["cycles"],
            "fig6_best_cycles": best["cycles"],
            "fig6_best_batch": best["requested_batch"],
            "fig6_speedup": base["cycles"] / best["cycles"],
            "hetero_vs_homo": {
                "budget": EQUAL_BUDGET,
                "hetero_cycles": ablation["hetero"]["cycles"],
                "hetero_batch": ablation["hetero"]["effective_batch"],
                "hetero_n_units": ablation["hetero"]["n_units"],
                "homo_cycles": ablation["homo"]["cycles"],
                "homo_n_units": ablation["homo"]["n_units"],
            },
            "fig7": fig7_row,
            "kernels": kernel_rows,
        },
    )
    assert path.exists()


def test_batching_benchmark_unit(benchmark):
    """pytest-benchmark unit: one batched heterogeneous fig6 run."""
    benchmark(measure_fig6, N_UNITS[0], max(BATCHES), True)
