"""Command-line interface for the SPI reproduction.

Regenerate the paper's tables and figures, or inspect a compiled
system, without writing any code::

    python -m repro.cli fig6            # actor-D scaling series
    python -m repro.cli fig7            # particle-filter scaling series
    python -m repro.cli table1          # LPC 4-PE resource table
    python -m repro.cli table2          # PF 2-PE resource table
    python -m repro.cli resync          # fig. 3/5 ack-removal summary
    python -m repro.cli trace           # Gantt chart of a pipelined chain
    python -m repro.cli run --app lpc --trace-out trace.json \
        --metrics-out metrics.json      # instrumented run + exports
    python -m repro.cli conform --seeds 200 --out report.json
    python -m repro.cli conform --replay 137  # re-run one failing seed

``conform`` runs the differential conformance campaign (see
``TESTING.md``): seeded random graphs executed under SPI, MPI and a
single-PE reference, cross-checked by the oracle stack, failures shrunk
to minimal replayable counterexamples.

``run`` executes one example application fully instrumented and writes
the observability artefacts: a Chrome/Perfetto-loadable trace JSON
(``--trace-out``, open at https://ui.perfetto.dev) and the validated
metrics JSON (``--metrics-out``), printing the human summary either way.

Options common to all commands: ``--clock-mhz`` (default 100) and
``--iterations``.  The full parameter sweeps (more points, CSV
artefacts) live in ``benchmarks/``; the CLI favours fast feedback.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import Figure, render_table
from repro.dataflow.graph import GraphError
from repro.platform import VIRTEX4_SX35
from repro.spi import SpiConfig, SpiSystem

__all__ = ["main", "build_parser"]


def _cmd_fig6(args: argparse.Namespace) -> int:
    from repro.apps.lpc import build_parallel_error_graph, frame_stream

    figure = Figure(
        title="Figure 6: performance results for actor D of application 1",
        x_label="Sample size",
        y_label=f"Execution time (us) at {args.clock_mhz:.0f} MHz",
    )
    sizes = (128, 256, 512)
    for n in (1, 2, 3, 4):
        series = figure.add_series(f"n={n}")
        for size in sizes:
            frames = frame_stream(total_samples=2 * size, frame_size=size)
            system = build_parallel_error_graph(frames, order=8, n_units=n)
            result = SpiSystem.compile(system.graph, system.partition).run(
                iterations=args.iterations
            )
            series.add(size, result.iteration_period_cycles / args.clock_mhz)
    print(figure.render())
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    from repro.apps.particle_filter import (
        CrackGrowthModel,
        build_particle_filter_graph,
        simulate_crack_history,
    )

    model = CrackGrowthModel()
    _, observations = simulate_crack_history(model, steps=args.iterations)
    figure = Figure(
        title="Figure 7: performance results for application 2",
        x_label="No. of particles",
        y_label=f"Execution time (us) at {args.clock_mhz:.0f} MHz",
    )
    for n in (1, 2):
        series = figure.add_series(f"n={n}")
        for particles in (50, 100, 200, 300):
            system = build_particle_filter_graph(
                model, observations, n_particles=particles, n_pes=n
            )
            result = SpiSystem.compile(system.graph, system.partition).run(
                iterations=args.iterations
            )
            series.add(
                particles, result.iteration_period_cycles / args.clock_mhz
            )
    print(figure.render())
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.apps.lpc import build_parallel_error_graph, frame_stream

    frames = frame_stream(total_samples=2 * 256, frame_size=256)
    system = build_parallel_error_graph(frames, order=8, n_units=4)
    compiled = SpiSystem.compile(system.graph, system.partition)
    print(
        compiled.fpga_report(
            device=VIRTEX4_SX35,
            title=(
                "Table 1: FPGA resources, 4-PE implementation of actor D "
                "(application 1)"
            ),
        ).render()
    )
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.apps.particle_filter import (
        CrackGrowthModel,
        build_particle_filter_graph,
        simulate_crack_history,
    )

    model = CrackGrowthModel()
    _, observations = simulate_crack_history(model, steps=6)
    system = build_particle_filter_graph(
        model, observations, n_particles=200, n_pes=2
    )
    compiled = SpiSystem.compile(system.graph, system.partition)
    print(
        compiled.fpga_report(
            device=VIRTEX4_SX35,
            title=(
                "Table 2: FPGA resources, 2-PE implementation of "
                "application 2"
            ),
        ).render()
    )
    return 0


def _cmd_resync(args: argparse.Namespace) -> int:
    from repro.service import run_operation

    rows = []
    for label, app, pes in (
        ("LPC actor D, 3 PEs (fig. 3)", "lpc", 3),
        ("particle filter, 2 PEs (fig. 5)", "pf", 2),
    ):
        result = run_operation(
            "ablate.resync", {"app": app, "pes": pes, "iterations": 4}
        )
        rows.append(
            [
                label,
                str(result.payload["sync_messages_raw"]),
                str(result.payload["sync_messages_resync"]),
                str(result.payload["wire_bytes_saved"]),
            ]
        )
    print(
        render_table(
            [
                "system",
                "sync msgs (raw UBS)",
                "sync msgs (resync)",
                "wire bytes saved",
            ],
            rows,
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.dataflow import DataflowGraph
    from repro.mapping import Partition, auto_pipeline

    graph = DataflowGraph("chain")
    stages = [("load", 400), ("transform", 500), ("store", 300)]
    actors = [graph.actor(name, cycles=c) for name, c in stages]
    for left, right in zip(actors, actors[1:]):
        out = left.add_output(f"to_{right.name}")
        inp = right.add_input(f"from_{left.name}")
        graph.connect(out, inp)
    result = auto_pipeline(graph, stages=3)
    partition = Partition.manual(result.graph, result.stages)
    system = SpiSystem.compile(result.graph, partition)
    run = system.run(iterations=args.iterations, trace=True)
    print(run.trace.gantt(width=72, upto=min(run.cycles, 4000)))
    print(
        f"\nperiod: {run.iteration_period_cycles:.0f} cycles "
        f"(MCM bound {system.estimated_iteration_period_cycles():.0f}); "
        f"sync messages/iteration: "
        f"{run.sync_messages / run.iterations:.1f}"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis import render_metrics_summary
    from repro.observability import chrome_trace, write_json
    from repro.service.operations import build_app_system

    system = build_app_system(args.app, args.pes, args.iterations)
    compiled = SpiSystem.compile(
        system.graph, system.partition, SpiConfig(transport=args.transport)
    )
    # Extrapolated iterations record no task intervals: a requested trace
    # makes "auto" decline, so the trace is complete ("on" refuses).
    try:
        run = compiled.run(
            iterations=args.iterations,
            trace=args.trace_out is not None,
            metrics=True,
            steady_state=args.steady_state,
        )
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_metrics_summary(run.metrics))
    if args.trace_out:
        path = write_json(
            args.trace_out,
            chrome_trace(
                run.trace, run.message_log, clock_mhz=args.clock_mhz
            ),
        )
        print(f"\nwrote Chrome trace (load in Perfetto): {path}")
    if args.metrics_out:
        path = write_json(args.metrics_out, run.metrics)
        print(f"wrote metrics JSON: {path}")
    return 0


def _cmd_conform(args: argparse.Namespace) -> int:
    from repro.conformance import CampaignConfig, GraphShape, run_campaign
    from repro.observability import write_json

    if args.replay is not None and args.seeds is not None:
        print(
            "error: --replay and --seeds are mutually exclusive "
            "(--replay re-runs exactly one seed)",
            file=sys.stderr,
        )
        return 2
    try:
        shape = GraphShape.parse(args.shape)
    except ValueError as exc:
        print(f"error: --shape: {exc}", file=sys.stderr)
        return 2

    if args.replay is not None:
        seeds, seed_start = 1, args.replay
    else:
        seeds = args.seeds if args.seeds is not None else 50
        seed_start = args.seed_start
    try:
        config = CampaignConfig(
            seeds=seeds,
            seed_start=seed_start,
            iterations=args.iterations,
            quick=args.quick,
            shrink=not args.no_shrink,
            shape=shape,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = run_campaign(config, workers=args.workers)
    failing = report["failing_seeds"]
    mode = "quick" if config.quick else "full"
    print(
        f"conformance: checked {report['checked']} seed(s) "
        f"[{seed_start}..{seed_start + seeds - 1}] in {mode} mode, "
        f"{len(failing)} failing"
    )
    print(
        f"wall: {report['bench']['wall_seconds']:.2f} s, "
        f"simulated cycles: {report['bench']['makespan_cycles']}"
    )
    for failure in report["failures"]:
        first = failure["violations"][0]
        line = (
            f"  seed {failure['seed']}: [{first['oracle']}/{first['run']}] "
            f"{first['detail']}"
        )
        shrunk = failure.get("shrunk")
        if shrunk:
            line += (
                f" (shrunk to {shrunk['actors']} actors / "
                f"{shrunk['edges']} edges)"
            )
        print(line)
    if args.out:
        path = write_json(args.out, report)
        print(f"wrote conformance report: {path}")
    return 1 if failing else 0


def _parse_param_value(raw: str) -> object:
    """Best-effort typing for ``--param k=v`` values."""
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _campaign_units(args: argparse.Namespace) -> List[dict]:
    """Build the unit list for ``repro campaign``."""
    if args.op == "conform.seed":
        from repro.conformance import GraphShape
        import dataclasses

        shape = dataclasses.asdict(GraphShape.parse(args.shape))
        seeds = args.seeds if args.seeds is not None else 50
        units = []
        for index in range(seeds):
            offset = index % args.distinct if args.distinct else index
            units.append(
                {
                    "seed": args.seed_start + offset,
                    "iterations": args.iterations,
                    "quick": args.quick,
                    "shrink": not args.no_shrink,
                    "shape": shape,
                }
            )
        return units
    params = {}
    for item in args.param or ():
        if "=" not in item:
            raise ValueError(
                f"--param expects KEY=VALUE, got {item!r}"
            )
        key, _, value = item.partition("=")
        params[key] = _parse_param_value(value)
    return [dict(params) for _ in range(args.count)]


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.service import (
        CampaignPlan,
        RegistryError,
        list_operations,
        run_service_campaign,
    )

    if args.list_ops:
        for operation in list_operations():
            print(f"{operation.name}: {operation.description}")
            for param in operation.spec.params:
                extras = []
                if param.required:
                    extras.append("required")
                else:
                    extras.append(f"default {param.default!r}")
                if param.choices:
                    extras.append(f"one of {list(param.choices)}")
                if param.minimum is not None:
                    extras.append(f">= {param.minimum}")
                print(
                    f"  {param.name} ({param.type.__name__}, "
                    f"{', '.join(extras)})"
                )
        return 0
    if not args.op:
        print("error: --op is required (or use --list-ops)", file=sys.stderr)
        return 2

    try:
        units = _campaign_units(args)
        plan = CampaignPlan(
            operation=args.op,
            units=units,
            workers=args.workers,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            runs_dir=args.runs_dir,
            quick=args.quick,
        )
        report = run_service_campaign(plan)
    except (RegistryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    wall = max(report["bench"]["wall_seconds"], 1e-9)
    cache = report["cache"]
    print(
        f"campaign: {report['operation']} x {report['units']} unit(s) on "
        f"{report['workers']} worker(s): {report['completed']} completed, "
        f"{len(report['failures'])} failed"
    )
    print(
        f"wall: {wall:.2f} s ({report['units'] / wall:.1f} runs/s), "
        f"cache: {cache['hits']} hits / {cache['misses']} misses "
        f"(hit rate {cache['hit_rate']:.2f})"
    )
    failing_cases = 0
    if args.op == "conform.seed":
        for result in report["results"]:
            if result is not None and not result["payload"]["case"]["ok"]:
                failing_cases += 1
        if failing_cases:
            print(f"conformance: {failing_cases} unit(s) with violations")
    for failure in report["failures"]:
        first_line = str(failure["error"]).splitlines()[0]
        print(f"  {failure['run_id']}: {first_line}")
    if args.out:
        from repro.observability import write_json

        path = write_json(args.out, report)
        print(f"wrote campaign report: {path}")
    return 1 if (report["failures"] or failing_cases) else 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.apps.lpc import build_parallel_error_graph, frame_stream
    from repro.apps.particle_filter import (
        CrackGrowthModel,
        build_particle_filter_graph,
        simulate_crack_history,
    )

    frames = frame_stream(total_samples=2 * 256, frame_size=256)
    lpc = build_parallel_error_graph(frames, order=8, n_units=3)
    model = CrackGrowthModel()
    _, observations = simulate_crack_history(model, steps=4)
    pf = build_particle_filter_graph(
        model, observations, n_particles=100, n_pes=2
    )
    for system in (lpc, pf):
        compiled = SpiSystem.compile(system.graph, system.partition)
        print(compiled.describe())
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="SPI reproduction: regenerate the paper's evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, description in (
        ("fig6", _cmd_fig6, "actor-D execution time vs sample size"),
        ("fig7", _cmd_fig7, "particle-filter execution time vs N"),
        ("table1", _cmd_table1, "LPC 4-PE FPGA resource table"),
        ("table2", _cmd_table2, "PF 2-PE FPGA resource table"),
        ("resync", _cmd_resync, "resynchronization savings (figs. 3/5)"),
        ("trace", _cmd_trace, "Gantt trace of a pipelined chain"),
        ("describe", _cmd_describe, "compilation reports of both apps"),
        ("run", _cmd_run, "instrumented run with trace/metrics export"),
        ("conform", _cmd_conform, "differential conformance campaign"),
        ("campaign", _cmd_campaign, "sharded campaign of run operations"),
    ):
        command = sub.add_parser(name, help=description)
        command.add_argument(
            "--clock-mhz", type=float, default=100.0,
            help="simulated clock frequency (default 100)",
        )
        command.add_argument(
            "--iterations", type=int, default=5,
            help="graph iterations to simulate (default 5)",
        )
        command.set_defaults(handler=handler)
        if name == "run":
            command.add_argument(
                "--app", choices=("lpc", "pf", "chain"), required=True,
                help="example application to execute",
            )
            command.add_argument(
                "--pes", type=int, default=3,
                help="parallel units / PEs to map onto (default 3)",
            )
            command.add_argument(
                "--transport",
                choices=("p2p", "shared_bus", "ordered_bus"),
                default="p2p",
                help="data transport model (default p2p)",
            )
            command.add_argument(
                "--trace-out", metavar="PATH", default=None,
                help="write a Chrome/Perfetto trace JSON here",
            )
            command.add_argument(
                "--metrics-out", metavar="PATH", default=None,
                help="write the metrics JSON document here",
            )
            command.add_argument(
                "--steady-state", choices=("on", "off", "auto"),
                default="auto",
                help=(
                    "periodic-phase extrapolation: detect the steady "
                    "state and skip whole periods' timing analytically "
                    "(auto declines when --trace-out is given; "
                    "default auto)"
                ),
            )
        if name == "conform":
            command.add_argument(
                "--seeds", type=int, default=None, metavar="N",
                help="number of seeds to check (default 50)",
            )
            command.add_argument(
                "--seed-start", type=int, default=0, metavar="S",
                help="first seed of the campaign (default 0)",
            )
            command.add_argument(
                "--shape", default=None, metavar="K=V,...",
                help=(
                    "generator shape overrides, e.g. "
                    "'max_actors=5,dynamic_prob=0.5'"
                ),
            )
            command.add_argument(
                "--replay", type=int, default=None, metavar="SEED",
                help="re-run exactly one seed (conflicts with --seeds)",
            )
            command.add_argument(
                "--out", metavar="PATH", default=None,
                help="write the campaign report JSON here",
            )
            command.add_argument(
                "--quick", action="store_true",
                help="skip the no-resync and forced-UBS SPI runs",
            )
            command.add_argument(
                "--no-shrink", action="store_true",
                help="report failures without shrinking them",
            )
            command.add_argument(
                "--workers", type=int, default=1, metavar="N",
                help="shard the campaign across N processes (default 1)",
            )
        if name == "campaign":
            command.add_argument(
                "--list-ops", action="store_true",
                help="list registered operations and their parameters",
            )
            command.add_argument(
                "--op", default=None, metavar="NAME",
                help="operation to run (see --list-ops)",
            )
            command.add_argument(
                "--seeds", type=int, default=None, metavar="N",
                help="conform.seed: number of units (default 50)",
            )
            command.add_argument(
                "--seed-start", type=int, default=0, metavar="S",
                help="conform.seed: first seed (default 0)",
            )
            command.add_argument(
                "--distinct", type=int, default=0, metavar="D",
                help=(
                    "conform.seed: cycle through D distinct seeds "
                    "(repeated-graph workload; 0 = all distinct)"
                ),
            )
            command.add_argument(
                "--shape", default=None, metavar="K=V,...",
                help="conform.seed: generator shape overrides",
            )
            command.add_argument(
                "--quick", action="store_true",
                help="conform.seed: skip the full-mode SPI run matrix",
            )
            command.add_argument(
                "--no-shrink", action="store_true",
                help="conform.seed: report failures without shrinking",
            )
            command.add_argument(
                "--param", action="append", metavar="K=V",
                help="operation parameter (repeatable; non-conform ops)",
            )
            command.add_argument(
                "--count", type=int, default=1, metavar="N",
                help="number of unit replicas for non-conform ops",
            )
            command.add_argument(
                "--workers", type=int, default=1, metavar="N",
                help="shard pool size (default 1 = inline)",
            )
            command.add_argument(
                "--no-cache", action="store_true",
                help="disable the content-addressed analysis cache",
            )
            command.add_argument(
                "--cache-dir", metavar="DIR", default=None,
                help="share cache entries across shards via this directory",
            )
            command.add_argument(
                "--runs-dir", metavar="DIR", default=None,
                help="persist one run-lifecycle record JSON per unit here",
            )
            command.add_argument(
                "--out", metavar="PATH", default=None,
                help="write the campaign report JSON here",
            )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.clock_mhz <= 0:
        print("error: --clock-mhz must be positive", file=sys.stderr)
        return 2
    if args.iterations < 1:
        print("error: --iterations must be >= 1", file=sys.stderr)
        return 2
    if getattr(args, "pes", 1) < 1:
        print("error: --pes must be >= 1", file=sys.stderr)
        return 2
    if getattr(args, "workers", 1) < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
