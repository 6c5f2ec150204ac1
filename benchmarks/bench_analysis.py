"""Cold-analysis wall clock of the compile pipeline, host-normalized.

The workload is the cold-cache compile pipeline every *distinct* graph
pays (paper §3/§4): HSDF expansion, self-timed scheduling, IPC/sync
graph derivation, resynchronization, and the MCM bound.  Two fuzzer
cases are measured end to end and per stage:

* **large_rep** — conformance graphs whose repetition-vector magnitude
  is cranked up (``max_repetition=12``), so HSDF expansion and the
  graphs every later stage sees are large;
* **resync_heavy** — dense many-PE graphs (``max_pes=4``, high extra
  edge probability) where the resynchronizer's addition search and the
  MCM probes dominate.

Quick and full mode compile the same ``COMPILE_SEEDS`` cases with the
same repeats, so a quick CI run is directly comparable with the
committed full-mode baseline.  Every repeat times the host reference
loop (``conftest.reference_seconds``) right before the cold compiles;
``normalized_seconds`` — the median over repeats of the compile wall
divided by that reference wall — is the host-normalized cold-analysis
time ``check_regression.py`` gates on.

``BENCH_analysis.json`` records per-case and per-stage wall clocks;
``analysis_stages.csv`` is the per-stage artifact CI uploads.
"""

import math
import statistics
import time

import pytest

from conftest import RESULTS_DIR, emit, reference_seconds, save_bench_json

from repro.conformance.generator import GraphShape, generate_spec
from repro.conformance.spec import build_case
from repro.dataflow.hsdf import hsdf_expand
from repro.mapping import maximum_cycle_mean, resynchronize, simulate_selftimed
from repro.spi import SpiConfig, SpiSystem

#: end-to-end cold compiles per case (each on a distinct seed; the same
#: list in quick and full mode)
COMPILE_SEEDS = 8
#: timing repeats (median of normalized walls, best-of raw walls)
REPEATS = 5

CASES = {
    "large_rep": GraphShape(
        min_actors=7,
        max_actors=10,
        max_repetition=12,
        max_rate_factor=2,
        extra_edge_prob=0.5,
        feedback_prob=1.0,
        delay_prob=0.4,
        dynamic_prob=0.0,
        max_pes=3,
    ),
    "resync_heavy": GraphShape(
        min_actors=9,
        max_actors=12,
        max_repetition=3,
        extra_edge_prob=0.9,
        feedback_prob=1.0,
        delay_prob=0.6,
        dynamic_prob=0.0,
        max_pes=4,
    ),
}


def _cases(name):
    shape = CASES[name]
    return [
        build_case(generate_spec(1000 + i, shape))
        for i in range(COMPILE_SEEDS)
    ]


def _best_of(fn):
    best = math.inf
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _compile_cold(case):
    system = SpiSystem.compile(case.graph, case.partition, SpiConfig())
    system.mcm_result()  # the bound every campaign run reads
    return system


def _end_to_end(cases):
    """Cold-analysis wall across the case list, host-normalized."""
    walls = []
    references = []
    for _ in range(REPEATS):
        references.append(reference_seconds())
        started = time.perf_counter()
        for case in cases:
            _compile_cold(case)
        walls.append(time.perf_counter() - started)
    return {
        "compiles": len(cases),
        "seconds": min(walls),
        "reference_seconds": statistics.median(references),
        "normalized_seconds": statistics.median(
            wall / reference for wall, reference in zip(walls, references)
        ),
    }


def _stage_times(case):
    """Best-of wall clock per pipeline stage."""
    system = _compile_cold(case)
    reference = (
        system.resync_result.graph
        if system.resync_result is not None
        else system.sync_graph
    )
    stages = {
        "hsdf_expand": lambda: hsdf_expand(case.graph),
        "mcm": lambda: maximum_cycle_mean(reference),
        "resync": lambda: resynchronize(system.sync_graph),
        "simulate": lambda: simulate_selftimed(reference, 30),
    }
    return {stage: {"seconds": _best_of(fn)} for stage, fn in stages.items()}


@pytest.fixture(scope="module")
def analysis():
    results = {}
    for name in CASES:
        cases = _cases(name)
        results[name] = _end_to_end(cases)
        results[name]["stages"] = _stage_times(cases[0])
    return results


def _stage_csv(results):
    lines = ["case,stage,seconds"]
    for name, case in sorted(results.items()):
        lines.append(f"{name},total,{case['seconds']:.4f}")
        for stage, row in sorted(case["stages"].items()):
            lines.append(f"{name},{stage},{row['seconds']:.4f}")
    return "\n".join(lines)


def test_analysis_report(analysis):
    lines = []
    for name, case in sorted(analysis.items()):
        lines.append(
            f"{name}: cold analysis x{case['compiles']} "
            f"{case['seconds']:.3f}s = {case['normalized_seconds']:.2f} "
            f"reference loops ({case['reference_seconds'] * 1e3:.1f} ms each)"
        )
        for stage, row in sorted(case["stages"].items()):
            lines.append(f"  {stage:<12} {row['seconds'] * 1e3:8.2f} ms")
    emit("Cold-analysis wall clock", "\n".join(lines))


def test_analysis_stage_csv(analysis):
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "analysis_stages.csv"
    path.write_text(_stage_csv(analysis) + "\n")
    assert path.exists()


def test_analysis_bench_export(analysis):
    path = save_bench_json(
        "analysis",
        makespan_cycles=0,
        iteration_period_cycles=0.0,
        wall_seconds=sum(case["seconds"] for case in analysis.values()),
        extra={
            "cases": analysis,
            "compile_seeds": COMPILE_SEEDS,
            "repeats": REPEATS,
        },
    )
    assert path.exists()
