"""Steady-state A/B oracle: extrapolation never changes the answer.

For every seed, the SPI stack simulated to completion
(``steady_state="off"``) and the same system with detection armed
(``"auto"``, lost-wakeup audit on) must report bit-identical makespan,
iteration period, per-channel message counts/bytes and occupancy
high-waters, per-PE busy/blocked/firing totals, the wire-byte split and
the computation firing count.  The warp replays per-iteration counter
deltas instead of simulating, so any divergence is an unsound state
hash or a wrong delta — a bug, not noise.

Token values are compared too: every actor's tap stream (each firing's
index, inputs and outputs) must be the same under both modes.  The warp
skips only timing; the runtime fires the skipped iterations' kernels in
PASS order after the simulation, so a missing or reordered firing, or
a wrong continuing firing index, shows up here.

On divergence the auto run's state-hash trace is written next to the
test (or to ``$REPRO_STEADY_TRACE``) so CI can upload it as an
artifact.
"""

import json
import os
from pathlib import Path

from repro.conformance import GraphShape, build_case, generate_spec
from repro.spi import SpiSystem

SEED_COUNT = 50
ITERATIONS = 10
#: static-rate graphs only: the eligibility rule refuses undeclared
#: dynamic actors, so dynamic seeds would never arm (covered separately
#: by test_steady_state.py::test_opaque_actors_refuse)
SHAPE = GraphShape(dynamic_prob=0.0)

#: at this iteration count most seeds reach and confirm a period; keep
#: a floor so the campaign cannot silently degenerate into comparing
#: 50 pairs of identical interpreted runs
MIN_WARPED_SEEDS = 30


def _run(seed: int, steady_state: str, shape: GraphShape = SHAPE):
    """Fresh case per run: stateful actor kernels must not leak across.

    Returns the run and its tap streams.
    """
    case = build_case(generate_spec(seed, shape))
    system = SpiSystem.compile(case.graph, case.partition)
    case.tap.begin(steady_state)
    result = system.run(
        iterations=ITERATIONS,
        max_cycles=10_000_000,
        check_lost_wakeups=True,
        metrics=True,
        steady_state=steady_state,
    )
    return result, case.tap.streams(steady_state)


def _comparable(result, streams) -> dict:
    """Everything the two modes must agree on, bit for bit."""
    document = result.metrics
    return {
        "streams": streams,
        "compiled_firings": result.compiled_firings,
        "wire_byte_split": document["wire_byte_split"],
        "cycles": result.cycles,
        "iteration_period_cycles": result.iteration_period_cycles,
        "buffer_high_water": dict(result.buffer_high_water),
        "fifo_high_water": dict(result.fifo_high_water),
        "channels": [
            {
                key: channel[key]
                for key in (
                    "name",
                    "data_messages",
                    "ack_messages",
                    "data_bytes",
                    "header_bytes",
                    "ack_bytes",
                    "occupancy_high_water_messages",
                    "occupancy_high_water_bytes",
                )
            }
            for channel in document["channels"]
        ],
        "pes": [
            {
                key: pe[key]
                for key in (
                    "name",
                    "busy_cycles",
                    "blocked_cycles",
                    "firings",
                )
            }
            for pe in document["pes"]
        ],
    }


def _dump_trace(failures, traces) -> Path:
    target = Path(
        os.environ.get("REPRO_STEADY_TRACE", "steady_state_trace.json")
    )
    target.write_text(
        json.dumps({"failures": failures, "hash_traces": traces}, indent=2)
        + "\n"
    )
    return target


def test_steady_state_equivalence_campaign():
    failures = []
    traces = {}
    warped_seeds = 0
    for seed in range(SEED_COUNT):
        off = _comparable(*_run(seed, "off"))
        auto, auto_streams = _run(seed, "auto")
        if auto.extrapolated_iterations > 0:
            warped_seeds += 1
        expected = off
        observed = _comparable(auto, auto_streams)
        if expected != observed:
            mismatched = sorted(
                key for key in expected if expected[key] != observed[key]
            )
            failures.append(
                f"seed {seed}: off/auto mismatch in {mismatched} "
                f"(detected_at={auto.steady_state_detected_at}, "
                f"extrapolated={auto.extrapolated_iterations})"
            )
            if auto.steady_state is not None:
                traces[str(seed)] = [
                    list(entry) for entry in auto.steady_state.hash_trace
                ]
    if failures:
        trace_path = _dump_trace(failures, traces)
        raise AssertionError(
            f"{len(failures)} seed(s) diverged (state-hash trace written "
            f"to {trace_path}): " + "; ".join(failures)
        )
    assert warped_seeds >= MIN_WARPED_SEEDS, (
        f"only {warped_seeds}/{SEED_COUNT} seeds warped; the campaign "
        f"is no longer exercising extrapolation"
    )


def test_collective_send_warps_and_completes():
    """A broadcast with a cross-PE branch lowers to one collective send
    actor; its warped iterations must fan the tokens out exactly as the
    simulated ones do."""
    shape = GraphShape(dynamic_prob=0.0, collective_prob=0.7)
    for seed in range(40):
        case = build_case(generate_spec(seed, shape))
        system = SpiSystem.compile(case.graph, case.partition)
        if not system.insertion.collective_sends:
            continue
        auto, auto_streams = _run(seed, "auto", shape)
        if auto.extrapolated_iterations == 0:
            continue
        off, off_streams = _run(seed, "off", shape)
        assert _comparable(auto, auto_streams) == _comparable(off, off_streams)
        assert auto.compiled_firings == off.compiled_firings > 0
        return
    raise AssertionError("no warping seed with a collective send found")


def test_lpc_frames_of_different_sizes():
    """``_IoSource`` frames may differ in size, so chunk lengths, message
    sizes and cycle counts repeat only every ``len(frames)`` iterations.
    Off and auto must agree on cycles and period, and every residual
    must match the sequential LPC."""
    import numpy as np

    from repro.apps.lpc import build_parallel_error_graph, frame_stream
    from repro.apps.lpc.lpc import lpc_coefficients, prediction_error

    frames = [
        frame_stream(total_samples=n, frame_size=n, seed=11 + i)[0]
        for i, n in enumerate((256, 192, 320))
    ]
    expected = [
        prediction_error(frame, lpc_coefficients(frame, 8))
        for frame in frames
    ]
    iterations = 15
    runs = {}
    for mode in ("off", "auto"):
        system = build_parallel_error_graph(frames, order=8, n_units=3)
        compiled = SpiSystem.compile(system.graph, system.partition)
        result = compiled.run(iterations=iterations, steady_state=mode)
        for iteration in range(iterations):
            frame = frames[iteration % len(frames)]
            got = system.assembled_errors(iteration, frame.shape[0])
            np.testing.assert_allclose(
                got, expected[iteration % len(frames)], atol=1e-9
            )
        runs[mode] = result
    assert runs["auto"].extrapolated_iterations > 0
    assert runs["auto"].cycles == runs["off"].cycles
    assert (
        runs["auto"].iteration_period_cycles
        == runs["off"].iteration_period_cycles
    )


def test_oracle_runs_are_fully_simulated(monkeypatch):
    """The differential oracle compares SPI token streams against the
    PASS reference interpreter; a warped run would produce its skipped
    iterations with that same PASS loop.  So oracle runs never warp,
    even at iteration counts where the default run does."""
    from repro.conformance import run_oracle_stack
    from repro.platform.steady_state import min_warp_iterations

    iterations = min_warp_iterations(hinted=False) + 1
    seed = 0
    assert _run(seed, "auto")[0].extrapolated_iterations > 0

    results = []
    original = SpiSystem.run

    def recording_run(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(SpiSystem, "run", recording_run)
    report = run_oracle_stack(
        build_case(generate_spec(seed, SHAPE)), iterations=iterations
    )
    assert report.ok, report.violations
    assert results
    assert all(r.extrapolated_iterations == 0 for r in results)
