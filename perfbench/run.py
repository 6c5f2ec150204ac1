"""End-to-end SPI benchmark: app graph -> compile -> simulate -> validated
metrics document, timed per op and, in a traced run, per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lpc-stream --seed 1 --seconds 20 --trace 0

Workloads: ``lpc-stream``, ``paper-sweep``, ``conform`` (see NOTES.md).
Load is one client in a closed loop: the next op starts only after the
previous one returned, in this one process and thread.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload twice
from scratch, untraced then traced (half of ``--seconds`` each), and
reports the per-layer breakdown, the tracing overhead, and whether the
simulated statistics of the two runs are bit-identical.  The last line
of stdout is one JSON object; the lines before it are a readable table.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH_DIR / "out"

#: (default, held-out) seed per workload; gain claims are re-checked on
#: the held-out seed, which no change should be tuned on
SEEDS = {"lpc-stream": (1, 9001), "paper-sweep": (1, 9002), "conform": (1, 9003)}
#: set-up runs in this many fresh processes; setup_s is their median
SETUP_SAMPLES = 7
#: the reference process for set-up times: a bare interpreter that
#: imports numpy, sharing no code with repro
REFERENCE_START = ("-c", "import time, numpy; print(time.monotonic())")
#: the reference host: one on which REFERENCE_START takes 0.2 s
START_NOMINAL_S = 0.2
#: p90 is reported only with at least ten samples beyond it
MIN_OPS = 100
#: a run stops starting ops after this long, to exit within 180 s
HARD_LIMIT_S = 140.0
#: the reference host: one on which :func:`speed_probe` takes 1 ms
PROBE_NOMINAL_S = 1e-3


def speed_probe() -> float:
    """Seconds one fixed slice of interpreter and small-numpy work takes
    right now.

    The host this benchmark was written on shares its cores with other
    machines, and its speed drifts by up to ~1.6x over seconds to
    minutes, which moves every wall time alike.  The op-time metrics are
    therefore scaled by ``PROBE_NOMINAL_S / speed_probe()`` measured just
    before each op: the result is the op's time on the reference host.
    The probe shares no code with ``repro``, so no change to the program
    can move it.
    """
    import numpy as np

    start = time.perf_counter()
    table = {}
    for i in range(3000):
        table[i] = str(i)
    vector = np.arange(64.0)
    total = 0.0
    for _ in range(300):
        total += float(vector @ vector)
    return time.perf_counter() - start


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import from it;
    refuse to run anything else (an installed copy, or no source)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"error: repro imported from {repro.__file__}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SEEDS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set the workload up, print the monotonic clock, exit",
    )
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = SEEDS[args.workload][0]
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def time_process(arguments) -> float:
    """Seconds from launching ``python arguments`` to the CLOCK_MONOTONIC
    reading it prints last."""
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, *arguments], capture_output=True, text=True,
        timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"timed process failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - launched


def measure_setup(args):
    """Seconds from launching a fresh interpreter to its first op being
    ready, once per sample process: raw, and scaled to the reference
    host.  The speed probe tracks interpreter start and imports poorly,
    so each sample is bracketed by two runs of REFERENCE_START instead
    and scaled by ``START_NOMINAL_S`` over their mean."""
    command = [
        str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    raw, scaled = [], []
    before = time_process(REFERENCE_START)
    for _ in range(SETUP_SAMPLES):
        raw.append(time_process(command))
        after = time_process(REFERENCE_START)
        scaled.append(raw[-1] * 2 * START_NOMINAL_S / (before + after))
        before = after
    return raw, scaled


class Phase:
    """Everything one closed-loop run of a workload observed."""

    def __init__(self) -> None:
        self.times = []
        #: op times scaled to the reference host (see speed_probe)
        self.ref_times = []
        self.failed = 0
        self.failures = {}
        self.sims = {}
        self.mismatches = []
        #: AnalysisCache (hits, misses) inside the timed ops
        self.cache = (0, 0)

    def note(self, kind: str, message: str) -> None:
        key = (kind, message)
        self.failures[key] = self.failures.get(key, 0) + 1

    def compare(self, key, outputs) -> None:
        """``outputs`` is (simulated statistics, digest) of one op."""
        if key is None:
            return
        if key not in self.sims:
            self.sims[key] = outputs
        elif self.sims[key] != outputs:
            what = "verdict" if self.sims[key][0] == outputs[0] else (
                f"{self.sims[key][0]} != {outputs[0]}")
            self.mismatches.append(f"op key {key}: repeat differs: {what}")


def run_phase(workload, tracer, seconds: float, started: float,
              min_ops: int = MIN_OPS) -> Phase:
    from workloads import OpRecord

    phase = Phase()
    traced = tracer.installed
    index = 0
    begin = time.perf_counter()
    while True:
        now = time.perf_counter()
        if index % workload.pass_len == 0 and index >= min_ops:
            complete = all(k in phase.sims for k in workload.reference_keys)
            if complete and now - begin >= seconds:
                break
        if now - started > HARD_LIMIT_S:
            phase.note("error", "hard time limit hit before the run was complete")
            break
        if traced:
            tracer.op = index
        error = None
        scale = PROBE_NOMINAL_S / speed_probe()
        t0 = time.perf_counter()
        try:
            with tracer.span("op"):
                outcome = workload.next_op(index)
        except Exception as exc:  # an op failure is a measurement, not a crash
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        tracer.op = None
        phase.times.append(elapsed)
        phase.ref_times.append(elapsed * scale)
        if error is None:
            try:
                record = workload.check(index, outcome)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            record = OpRecord()
            record.fail("error", error)
        if record.failures:
            phase.failed += 1
            for kind, message in record.failures:
                phase.note(kind, message)
        phase.compare(workload.sim_key(index), (record.sim, record.digest))
        index += 1
    phase.cache = (workload.cache_hits, workload.cache_misses)
    for index in workload.recheck:
        try:
            record = workload.check(index, workload.next_op(index))
        except Exception as exc:
            phase.mismatches.append(f"re-run of op {index} raised {exc!r}")
        else:
            phase.compare(workload.sim_key(index), (record.sim, record.digest))
    return phase


def percentile_ms(times, which: str) -> float:
    if which == "p50":
        return statistics.median(times) * 1e3
    return statistics.quantiles(times, n=10)[-1] * 1e3


def sim_metrics(workload, phase: Phase) -> dict:
    from workloads import geometric_mean

    sims = [phase.sims[k][0] for k in workload.reference_keys
            if phase.sims.get(k, (None,))[0] is not None]
    multi = [s for s in sims if s[4]]
    return {
        "sim.period_cycles": (
            geometric_mean([s[0] for s in sims if s[0] > 0]), "cycles"),
        "sim.wire_bytes_per_iter": (
            geometric_mean([s[1] for s in multi]), "bytes"),
        "sim.msgs_per_iter": (geometric_mean([s[2] for s in multi]), "msgs"),
        "sim.sync_msgs_per_iter": (
            statistics.fmean(s[3] for s in sims), "msgs"),
    }


def end_to_end(workload, phase: Phase, setup_scaled) -> dict:
    times = phase.ref_times
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "op_ms.p50": (percentile_ms(times, "p50"), "ref-ms"),
        "op_ms.p90": (percentile_ms(times, "p90"), "ref-ms"),
        "ops_per_s": (len(times) / sum(times), "1/ref-s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    sims = sim_metrics(workload, phase)
    del sims["sim.sync_msgs_per_iter"]
    metrics.update(sims)
    return metrics


def wall_clock(phase: Phase, setup_raw) -> list:
    """The unscaled times, for the table only."""
    times = phase.times
    speed = statistics.median(phase.ref_times) / statistics.median(times)
    return [
        f"wall setup_s {statistics.median(setup_raw):.6g} s, "
        f"op_ms.p50 {percentile_ms(times, 'p50'):.6g} ms, "
        f"op_ms.p90 {percentile_ms(times, 'p90'):.6g} ms, "
        f"ops_per_s {len(times) / sum(times):.6g} 1/s, "
        f"host speed {speed:.4g} x reference"
    ]


def per_layer(workload, tracer, traced: Phase, untraced: Phase) -> dict:
    ops = len(traced.times)
    totals = tracer.totals()
    counts = tracer.counts

    def ms(name, kind="self"):
        return totals.get(name, {}).get(kind, 0.0) * 1e3 / ops

    def ratio(num, den):
        return num / den if den else 0.0

    hits, misses = traced.cache
    run_self_s = totals.get("platform.run", {}).get("self", 0.0)
    layer = {
        "apps.build_ms": (ms("apps.build"), "ms"),
        "apps.kernel_ms": (ms("apps.kernel"), "ms"),
        "apps.kernel_calls": (
            totals.get("apps.kernel", {}).get("calls", 0) / ops, "count"),
        "dataflow.vts_ms": (ms("dataflow.vts"), "ms"),
        "dataflow.hsdf_ms": (ms("dataflow.hsdf"), "ms"),
        "dataflow.hsdf_tasks": (counts["dataflow.hsdf_tasks"] / ops, "count"),
        "spi.lower_ms": (ms("spi.lower"), "ms"),
        "spi.compile_ms": (ms("spi.compile", "total"), "ms"),
        "spi.compile_self_ms": (ms("spi.compile"), "ms"),
        "spi.channels": (counts["spi.channels"] / ops, "count"),
        "mapping.schedule_ms": (ms("mapping.schedule"), "ms"),
        "mapping.sync_graph_ms": (ms("mapping.sync_graph"), "ms"),
        "mapping.sync_edges": (counts["mapping.sync_edges"] / ops, "count"),
        "mapping.resync_ms": (ms("mapping.resync"), "ms"),
        "mapping.mcm_ms": (ms("mapping.mcm"), "ms"),
        "mapping.mcm_calls": (
            totals.get("mapping.mcm", {}).get("calls", 0) / ops, "count"),
        "mapping.resync_removed": (
            counts["mapping.resync_removed"] / ops, "count"),
        "mapping.resync_yield": (ratio(
            counts["mapping.resync_removed"],
            tracer.probes_under("mapping.mcm", "mapping.resync")), "ratio"),
        "platform.run_ms": (ms("platform.run"), "ms"),
        "platform.events": (counts["platform.events"] / ops, "count"),
        "platform.events_per_s": (
            ratio(counts["platform.events"], run_self_s), "1/s"),
        "platform.spurious_wakeup_ratio": (ratio(
            counts["platform.spurious_wakeups"],
            counts["platform.total_wakeups"]), "ratio"),
        "platform.extrapolated_ratio": (ratio(
            counts["platform.extrapolated_iterations"],
            counts["platform.iterations"]), "ratio"),
        "platform.compiled_firings": (
            counts["platform.compiled_firings"] / ops, "count"),
        "observability.export_ms": (ms("observability.export"), "ms"),
        "service.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "service.cache_bypass_ratio": (ratio(
            counts["service.bypassed_compiles"],
            counts["service.keyed_compiles"]), "ratio"),
        "conformance.spec_ms": (ms("conformance.spec"), "ms"),
        "conformance.reference_ms": (ms("conformance.reference"), "ms"),
        "conformance.oracle_self_ms": (ms("conformance.oracle"), "ms"),
        "mpi.baseline_ms": (ms("mpi.baseline"), "ms"),
        "sim.sync_msgs_per_iter": sim_metrics(workload, traced)[
            "sim.sync_msgs_per_iter"],
        "trace.overhead_ratio": (
            percentile_ms(traced.ref_times, "p50")
            / percentile_ms(untraced.ref_times, "p50"), "ratio"),
        "trace.unattributed_ratio": (ratio(
            totals["op"]["self"], totals["op"]["total"]), "ratio"),
    }
    return layer


def self_time_overruns(tracer, traced: Phase) -> list:
    """Ops whose layer self times sum to more than the op's wall time.

    This holds by construction while every layer span nests inside the
    op span on one thread; ``trace.unattributed_ratio`` is the figure
    that moves (a missing hook raises it)."""
    layer_self = {}
    for (name, _, _, _, op), own in zip(tracer.spans, tracer.self_times()):
        if name != "op" and isinstance(op, int):
            layer_self[op] = layer_self.get(op, 0.0) + own
    return [
        f"op {op}: layer self time {total:.6f} s > wall {traced.times[op]:.6f} s"
        for op, total in layer_self.items()
        if total > traced.times[op]
    ]


def write_spans(args, tracer) -> Path:
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{args.workload}.json"
    with open(path, "w") as handle:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": tracer.spans,
        }, handle)
    return path


def report(metrics: dict, phases, lines: list, correct: bool) -> None:
    attempted = sum(len(p.times) for p in phases)
    failed = sum(p.failed for p in phases)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    print(f"{'failed_ratio':<{width}}  {failed / attempted:>14.6g}  ratio"
          f"  ({failed} of {attempted} ops; {len(phases[-1].times)} timed"
          f" samples in the reported run)")
    for line in lines:
        print(f"check: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    import_program()
    from tracer import Tracer
    from workloads import KNOWN_DEFECT, WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    if args.setup_only:
        workload_cls(args.seed, Tracer())
        print(time.monotonic())
        return 0

    if args.trace == 0:
        setup_raw, setup_scaled = measure_setup(args)
        workload = workload_cls(args.seed, Tracer())
        phase = run_phase(workload, Tracer(), args.seconds, started,
                          max(MIN_OPS, workload.min_timed_ops))
        phases = [phase]
        metrics = end_to_end(workload, phase, setup_scaled)
        bad, notes = [], wall_clock(phase, setup_raw)
    else:
        untraced = run_phase(
            workload_cls(args.seed, Tracer()), Tracer(), args.seconds / 2,
            started)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.op = "setup"
            workload = workload_cls(args.seed, tracer)
            tracer.op = None
            traced = run_phase(workload, tracer, args.seconds / 2, started)
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
        metrics = per_layer(workload, tracer, traced, untraced)
        bad = self_time_overruns(tracer, traced)
        bad += [
            f"op key {key}: traced and untraced outputs differ"
            for key in workload.reference_keys
            if untraced.sims.get(key) != traced.sims.get(key)
        ]
        notes = [f"spans written to {write_spans(args, tracer).relative_to(ROOT)}"]

    for phase in phases:
        bad += phase.mismatches
        missing = [k for k in workload.reference_keys
                   if phase.sims.get(k, (None,))[0] is None]
        if missing:
            bad.append(f"{len(missing)} reference ops without statistics")
    failures = {}
    for phase in phases:
        for key, count in phase.failures.items():
            failures[key] = failures.get(key, 0) + count
    outputs_ok = all(kind == KNOWN_DEFECT for kind, _ in failures)
    shown = [
        f"{kind}: {message} (x{count})"
        for (kind, message), count in sorted(failures.items())
    ][:20]
    report(metrics, phases, bad + shown + notes, correct=outputs_ok and not bad)
    return 0


if __name__ == "__main__":
    sys.exit(main())
