"""Steady-state tracker: detection, warp exactness, eligibility, hints.

Unit-level companions to the 50-seed conformance campaign
(``tests/conformance/test_steady_state_equivalence.py``): one small
system is enough to pin each behaviour — warp equals the fully
simulated run, trace runs stay interpreted, ``"on"`` refuses what it
cannot do exactly, and a cached period hint shortens confirmation
without weakening it.
"""

import json

import pytest

from repro.conformance import GraphShape, build_case, generate_spec
from repro.dataflow.graph import GraphError
from repro.platform.steady_state import min_warp_iterations
from repro.service import AnalysisCache
from repro.spi import SpiSystem

STATIC = GraphShape(dynamic_prob=0.0)
DYNAMIC = GraphShape(dynamic_prob=1.0)
ITERATIONS = 12


def _system(seed: int, shape: GraphShape = STATIC, cache=None) -> SpiSystem:
    case = build_case(generate_spec(seed, shape))
    return SpiSystem.compile(case.graph, case.partition, cache=cache)


def _run(seed: int, **kwargs):
    return _system(seed).run(
        iterations=ITERATIONS, max_cycles=10_000_000, **kwargs
    )


def test_warp_matches_full_simulation():
    off = _run(0, steady_state="off")
    auto = _run(0, steady_state="auto")
    report = auto.steady_state
    assert report is not None and report.detected_at is not None
    assert report.extrapolated_iterations > 0
    assert auto.cycles == off.cycles
    assert auto.iteration_period_cycles == off.iteration_period_cycles
    assert auto.data_messages == off.data_messages
    assert auto.ack_messages == off.ack_messages
    assert auto.buffer_high_water == off.buffer_high_water
    assert auto.fifo_high_water == off.fifo_high_water


def test_report_shape_and_serialization():
    report = _run(0, steady_state="auto").steady_state
    assert report.period_iterations >= 1
    assert report.period_cycles > 0
    assert report.boundaries_hashed >= report.detected_at
    assert report.extrapolated_cycles == (
        report.extrapolated_iterations
        // report.period_iterations
        * report.period_cycles
    )
    assert report.hash_trace, "boundary hashes must be recorded"
    iteration, time, digest = report.hash_trace[0]
    assert isinstance(digest, str) and len(digest) == 16
    json.dumps(report.to_json())  # the CI artifact must serialise


def test_off_never_tracks():
    result = _run(0, steady_state="off")
    assert result.steady_state is None
    assert result.extrapolated_iterations == 0


def test_trace_keeps_auto_interpreted():
    """A trace needs every firing interval, so auto silently declines
    rather than producing a trace with a hole warped out of it."""
    result = _run(0, steady_state="auto", trace=True)
    assert result.steady_state is None
    assert result.trace is not None


def test_on_with_trace_raises():
    with pytest.raises(GraphError, match="trace"):
        _run(0, steady_state="on", trace=True)


def test_on_with_opaque_actors_raises():
    """Data-dependent timing without a timing_periodic declaration:
    the hash cannot prove future iterations repeat, so 'on' must refuse
    (and name the offending actors) instead of guessing."""
    system = _system(0, DYNAMIC)
    opaque = system.steady_state_opaque_actors()
    assert opaque
    with pytest.raises(GraphError, match="timing_periodic"):
        system.run(iterations=ITERATIONS, steady_state="on")


def test_auto_declines_opaque_actors():
    result = _system(0, DYNAMIC).run(
        iterations=ITERATIONS, max_cycles=10_000_000, steady_state="auto"
    )
    assert result.steady_state is None


def test_declared_periodic_timing_is_eligible():
    """fig6's actors have callable cycle models but declare
    params['timing_periodic']: 'on' must accept and warp them."""
    from repro.apps.lpc import build_parallel_error_graph, frame_stream

    frames = frame_stream(total_samples=128, frame_size=64)
    system = build_parallel_error_graph(frames, order=4, n_units=2)
    compiled = SpiSystem.compile(system.graph, system.partition)
    assert compiled.steady_state_opaque_actors() == []
    result = compiled.run(iterations=8, steady_state="on")
    assert result.steady_state.detected_at is not None
    assert result.extrapolated_iterations > 0


def test_auto_arms_from_the_confirmation_minimum():
    """Without a hint a period confirms at the third boundary at the
    earliest, and a whole period must still be left to skip before the
    last iteration: auto arms (and here warps) at 5 iterations, not 4."""
    minimum = min_warp_iterations(hinted=False)
    assert minimum == 5
    system = _system(0)
    assert system.run(iterations=minimum - 1).steady_state is None
    at_minimum = system.run(iterations=minimum)
    assert at_minimum.steady_state is not None
    assert at_minimum.extrapolated_iterations > 0


def test_period_hint_lowers_the_minimum_by_one():
    """With a cached period one recurrence confirms, so 4 iterations
    can warp; without one they cannot."""
    minimum = min_warp_iterations(hinted=True)
    fresh = AnalysisCache()
    assert _system(0, cache=fresh).run(iterations=minimum).steady_state is None
    assert fresh.misses["period"] == 1

    cache = AnalysisCache()
    _system(0, cache=cache).run(iterations=ITERATIONS)  # stores the hint
    assert minimum == 4
    system = _system(0, cache=cache)
    assert system.run(iterations=minimum - 1).steady_state is None
    at_minimum = system.run(iterations=minimum)
    assert at_minimum.steady_state.hint_used
    assert at_minimum.extrapolated_iterations > 0


def test_period_hint_from_another_disk_cache_instance(tmp_path):
    """Shard processes share periods through the cache directory: a
    fresh instance over a directory another instance populated serves
    the hint, so its 4-iteration run warps."""
    _system(0, cache=AnalysisCache(tmp_path)).run(iterations=ITERATIONS)
    shard = AnalysisCache(tmp_path)
    result = _system(0, cache=shard).run(
        iterations=min_warp_iterations(hinted=True)
    )
    assert result.steady_state.hint_used
    assert result.extrapolated_iterations > 0
    assert shard.hits["period"] == 1


@pytest.mark.parametrize("seed", range(8))
def test_nothing_warps_below_the_minimum(seed):
    """Forced arming one iteration short of the minimum never warps,
    hinted or not: the minimum is a property of the tracker, not a
    tuning choice."""
    cache = AnalysisCache()
    unhinted = _system(seed, cache=cache).run(
        iterations=min_warp_iterations(hinted=False) - 1, steady_state="on"
    )
    assert unhinted.extrapolated_iterations == 0
    _system(seed, cache=cache).run(iterations=ITERATIONS)
    hinted = _system(seed, cache=cache).run(
        iterations=min_warp_iterations(hinted=True) - 1, steady_state="on"
    )
    assert hinted.extrapolated_iterations == 0


def test_multi_iteration_period_confirms():
    """Frames of different sizes repeat every ``len(frames)``
    iterations: the period spans three iterations and must still be
    confirmed (not only single-iteration periods)."""
    from repro.apps.lpc import build_parallel_error_graph, frame_stream

    frames = [
        frame_stream(total_samples=n, frame_size=n, seed=7 + i)[0]
        for i, n in enumerate((256, 192, 320))
    ]
    system = build_parallel_error_graph(frames, order=8, n_units=3)
    compiled = SpiSystem.compile(system.graph, system.partition)
    result = compiled.run(iterations=ITERATIONS)
    assert result.detected_period_iterations == 3
    assert result.extrapolated_iterations > 0


def test_period_hint_shortens_confirmation():
    """Second run of the same system: the cached period replaces the
    second confirmation window, so detection lands earlier — but the
    exact state recurrence is still required, so results stay equal."""
    cache = AnalysisCache()
    first_system = _system(1, cache=cache)
    key = first_system._period_cache_key()
    assert key is not None
    first = first_system.run(iterations=ITERATIONS, steady_state="auto")
    assert first.steady_state.detected_at is not None
    assert not first.steady_state.hint_used
    assert cache.period_hint(key) == (
        first.steady_state.period_iterations,
        first.steady_state.period_cycles,
    )

    second = _system(1, cache=cache).run(
        iterations=ITERATIONS, steady_state="auto"
    )
    assert second.steady_state.hint_used
    assert second.steady_state.detected_at <= first.steady_state.detected_at
    assert second.cycles == first.cycles
    assert second.iteration_period_cycles == first.iteration_period_cycles


def test_metrics_document_carries_steady_counters():
    from repro.observability import validate_metrics

    result = _run(0, steady_state="auto", metrics=True)
    validate_metrics(result.metrics)
    sim = result.metrics["simulator"]
    assert sim["steady_state_detected_at"] == result.steady_state_detected_at
    assert sim["extrapolated_iterations"] == result.extrapolated_iterations
    assert sim["compiled_firings"] == result.compiled_firings
    assert sim["extrapolated_iterations"] < result.iterations
