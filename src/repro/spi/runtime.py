"""The SPI system: compile a dataflow application, execute it, report.

:class:`SpiSystem` is the public entry point of the reproduction.  It
performs the whole SPI methodology in one ``compile`` call:

1. **VTS conversion** when the application graph has dynamic-rate edges
   (paper §3) — dynamic edges become SPI_dynamic channels;
2. **SPI actor insertion** on every interprocessor edge (paper §2);
3. **self-timed schedule** construction (paper §2);
4. **IPC / synchronization graph** derivation (paper §4.1);
5. **protocol selection** per channel: BBS when the synchronization
   structure bounds the buffer, else UBS with an ack window (paper §4);
6. **resynchronization**: redundant synchronization/acknowledgment
   edges are pruned; channels whose ack edge proved redundant run
   ack-free (paper §4.1);

and then executes the compiled system cycle-by-cycle on the platform
simulator (``run``), or prices it on the FPGA resource model
(``fpga_report``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dataflow.graph import Actor, DataflowGraph, Edge, GraphError
from repro.dataflow.sdf import PassProgram
from repro.dataflow.vts import VtsConversion, vts_convert
from repro.mapping.ipc_graph import build_ipc_graph
from repro.mapping.mcm import McmResult, maximum_cycle_mean_result
from repro.mapping.partition import Partition
from repro.mapping.resync import ResynchronizationResult, resynchronize
from repro.mapping.selftimed import (
    SelfTimedSchedule,
    build_selftimed_schedule,
    max_feasible_batch,
)
from repro.mapping.sync_graph import SynchronizationGraph, derive_sync_graph
from repro.mapping.timed_graph import EdgeKind, TimedEdge
from repro.platform.clock import DEFAULT_CLOCK, ClockDomain
from repro.platform.fpga import (
    FpgaDevice,
    ResourceVector,
    UtilizationReport,
    VIRTEX4_SX35,
)
from repro.platform.interconnect import Interconnect, LinkSpec
from repro.platform.pe import ProcessingElement
from repro.platform.simulator import PESequencer, Simulator
from repro.platform.steady_state import min_warp_iterations
from repro.platform.trace import TraceRecorder
from repro.spi import resources as spi_resources
from repro.spi.actors import (
    BatchSchedule,
    ComputationTask,
    LocalFifo,
    SpiCollectiveSendTask,
    SpiInitTask,
    SpiReceiveTask,
    SpiSendTask,
    SyncTokenPool,
    SyncedTask,
)
from repro.spi.message import ACK_BYTES
from repro.spi.channel import SpiChannel
from repro.spi.library import SpiInsertion, insert_spi_actors
from repro.spi.protocols import Protocol, ProtocolConfig

__all__ = ["SpiConfig", "ChannelPlan", "RunResult", "SpiSystem"]


@dataclass(frozen=True)
class SpiConfig:
    """Compile-time knobs of an SPI system."""

    clock: ClockDomain = DEFAULT_CLOCK
    link_spec: LinkSpec = field(default_factory=LinkSpec)
    #: apply resynchronization (redundant sync/ack pruning + additions)
    resynchronize: bool = True
    #: UBS acknowledgment window, in messages
    ubs_window: int = 4
    #: BBS is chosen only when the static bound is at most this many messages
    max_bbs_messages: int = 1024
    word_bytes: int = 4
    #: protocol policy: "auto" picks BBS whenever the synchronization
    #: structure bounds the buffer (paper §4); "always_ubs" forces the
    #: UBS protocol everywhere, which is how the resynchronization
    #: ablations expose acknowledgment traffic
    protocol_policy: str = "auto"
    #: data transport: "p2p" dedicated links (the SPI default),
    #: "shared_bus" FCFS-arbitrated single bus, "ordered_bus" the
    #: ordered-transaction model (grant order fixed at compile time).
    #: Control traffic (acks, resynchronization messages) always rides
    #: dedicated control links.
    transport: str = "p2p"
    #: per-transfer arbitration cost of the shared bus
    bus_arbitration_cycles: int = 2

    def __post_init__(self) -> None:
        if self.protocol_policy not in ("auto", "always_ubs"):
            raise ValueError(
                f"unknown protocol_policy {self.protocol_policy!r}"
            )
        if self.ubs_window < 1:
            raise ValueError("ubs_window must be >= 1")
        if self.transport not in ("p2p", "shared_bus", "ordered_bus"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.bus_arbitration_cycles < 0:
            raise ValueError("bus_arbitration_cycles must be >= 0")


@dataclass
class ChannelPlan:
    """Compile-time decisions for one interprocessor edge."""

    origin_edge_name: str
    ipc_edge: Edge
    send_actor: str
    recv_actor: str
    src_pe: int
    dst_pe: int
    dynamic: bool
    protocol: str
    capacity_messages: int
    message_payload_bytes: int
    acks_enabled: bool

    @property
    def buffer_bytes(self) -> int:
        return self.capacity_messages * self.message_payload_bytes


@dataclass
class RunResult:
    """Everything observable from one simulated execution."""

    cycles: int
    execution_time_us: float
    iterations: int
    pe_stats: List[ProcessingElement]
    data_messages: int
    ack_messages: int
    payload_bytes: int
    header_bytes: int
    ack_bytes: int
    buffer_high_water: Dict[str, int]
    fifo_high_water: Dict[str, int]
    iteration_period_cycles: float
    #: zero-payload messages carrying *added* resynchronization edges
    resync_messages: int = 0
    resync_bytes: int = 0
    #: populated when ``run(..., trace=True)``: every task execution
    #: interval, renderable as a Gantt chart or CSV
    trace: Optional["TraceRecorder"] = None
    #: populated when ``run(..., metrics=True)``: the full metrics JSON
    #: document (see :mod:`repro.observability.exporters` for its schema)
    metrics: Optional[Dict] = None
    #: populated when ``run(..., metrics=True)``: every inter-PE message
    #: (data / ack / resync) with request, wire-start and arrival times
    message_log: Optional[List] = None
    #: steady-state detection/extrapolation report
    #: (:class:`repro.platform.steady_state.SteadyStateReport`; None
    #: when detection was not armed for this run)
    steady_state: Optional[object] = None
    #: computation-actor firings of the run: those simulated through
    #: :class:`repro.spi.actors.ComputationTask` plus those of the
    #: warped iterations, fired in PASS order after the simulation
    compiled_firings: int = 0
    #: wire transfers performed by collective (broadcast/scatter)
    #: connections — one per physical link use, not per consumer
    collective_messages: int = 0
    #: per-consumer deliveries those collective transfers fanned out to
    fan_out_deliveries: int = 0
    #: logical bytes (sum over consumers) minus wire bytes actually
    #: carried — the saving from sharing one payload per link
    wire_bytes_saved: int = 0
    #: effective global blocking factor of the run (1 = unbatched)
    batch: int = 1
    #: actor firings executed inside batched (burst > 1) dispatches
    batched_firings: int = 0
    #: batched dispatches issued across all PEs
    batch_dispatches: int = 0
    #: accelerator launch overhead amortized away by batching
    amortized_dispatch_cycles_saved: int = 0

    @property
    def steady_state_detected_at(self) -> Optional[int]:
        if self.steady_state is None:
            return None
        return self.steady_state.detected_at

    @property
    def extrapolated_iterations(self) -> int:
        if self.steady_state is None:
            return 0
        return self.steady_state.extrapolated_iterations

    @property
    def detected_period_iterations(self) -> Optional[int]:
        if self.steady_state is None:
            return None
        return self.steady_state.period_iterations

    @property
    def detected_period_cycles(self) -> Optional[int]:
        if self.steady_state is None:
            return None
        return self.steady_state.period_cycles

    @property
    def sync_messages(self) -> int:
        """Messages whose only job is synchronization: acknowledgments
        plus the messages of added resynchronization edges."""
        return self.ack_messages + self.resync_messages

    @property
    def overhead_bytes(self) -> int:
        return self.header_bytes + self.ack_bytes + self.resync_bytes

    @property
    def wire_bytes(self) -> int:
        return (
            self.payload_bytes
            + self.header_bytes
            + self.ack_bytes
            + self.resync_bytes
        )

    def speedup_against(self, baseline: "RunResult") -> float:
        if self.execution_time_us == 0:
            raise ZeroDivisionError("zero execution time")
        return baseline.execution_time_us / self.execution_time_us


class SpiSystem:
    """A compiled SPI application, ready to simulate or to price."""

    def __init__(
        self,
        source_graph: DataflowGraph,
        partition: Partition,
        config: SpiConfig,
        conversion: Optional[VtsConversion],
        insertion: SpiInsertion,
        schedule: SelfTimedSchedule,
        sync_graph: SynchronizationGraph,
        channel_plans: Dict[str, ChannelPlan],
        resync_result: Optional[ResynchronizationResult],
        cache=None,
        analysis_key: Optional[str] = None,
        structure_key: Optional[str] = None,
        batch: int = 1,
    ) -> None:
        self.source_graph = source_graph
        self.partition = partition
        self.config = config
        self.conversion = conversion
        self.insertion = insertion
        self.schedule = schedule
        self.sync_graph = sync_graph
        self.channel_plans = channel_plans
        self.resync_result = resync_result
        #: effective global blocking factor: the partition's requested
        #: batch clamped to what the schedule's token dependencies admit
        self.batch = batch
        #: optional repro.service AnalysisCache (duck-typed: anything
        #: with the same repetitions/mcm/resynchronize surface works)
        self._analysis_cache = cache
        self._analysis_key = analysis_key
        self._structure_key = structure_key
        self._task_repetitions: Optional[Dict[str, int]] = None
        self._pass_program: Optional[PassProgram] = None
        self._mcm_result: Optional[McmResult] = None

    # -- compilation -------------------------------------------------------

    @classmethod
    def compile(
        cls,
        graph: DataflowGraph,
        partition: Partition,
        config: Optional[SpiConfig] = None,
        cache=None,
    ) -> "SpiSystem":
        """Run the full SPI methodology on ``graph`` + ``partition``.

        ``cache`` is an optional content-addressed analysis cache (see
        :class:`repro.service.AnalysisCache`): repetitions vectors,
        channel-plan decisions, resynchronization solutions and the MCM
        bound are looked up by graph content instead of recomputed.
        Graphs without canonical content (callable cycle models) bypass
        it transparently.
        """
        config = config or SpiConfig()
        graph.validate()

        analysis_key = structure_key = None
        if cache is not None:
            analysis_key = cache.key_for(graph, partition, config)
            structure_key = cache.structure_key_for(graph, partition, config)

        conversion: Optional[VtsConversion] = None
        static_graph = graph
        if graph.is_dynamic:
            conversion = vts_convert(graph)
            static_graph = conversion.graph

        static_partition = Partition(
            static_graph,
            partition.n_pes,
            dict(partition.assignment),
            pe_classes=dict(partition.pe_classes),
            batch_size=partition.batch_size,
        )
        insertion = insert_spi_actors(
            static_graph,
            static_partition,
            conversion=conversion,
            word_bytes=config.word_bytes,
        )
        schedule = build_selftimed_schedule(insertion.graph, insertion.partition)
        ipc_graph = build_ipc_graph(schedule)
        sync_graph = derive_sync_graph(ipc_graph)

        # Blocked (batched) execution: the partition's requested batch
        # (a no-op on all-gpp platforms) clamped to the largest blocking
        # factor the schedule's token dependencies admit — a feedback
        # loop with few delay tokens forces the clamp back to 1.
        batch = max_feasible_batch(schedule, partition.requested_batch)

        decisions = None
        if cache is not None:
            decisions = cache.channel_decisions(analysis_key)
        channel_plans = cls._plan_channels(
            insertion,
            schedule,
            sync_graph,
            config,
            decisions=decisions,
            batch=batch,
        )

        # UBS channels synchronize backwards through ack edges; add them to
        # the synchronization graph so resynchronization can judge them.
        # Only single-invocation channels qualify: sync-graph delays
        # count iterations between the #0 invocations, so a multirate
        # window of W *messages* (M > 1 per iteration) has no faithful
        # iteration-granularity edge — any delay large enough to be
        # implied by the ack protocol is too large to safely license its
        # removal.  Those channels simply keep their acks.
        # A batched run macro-groups every PE's task executions, so the
        # iteration-granularity sync edges below (and the resync solver
        # that judges them) would misprice the burst: acks stay as the
        # protocol chose them and resynchronization is skipped entirely.
        judged_acks = set()
        for plan in channel_plans.values():
            if batch > 1:
                break
            if plan.protocol != Protocol.UBS:
                continue
            if cls._messages_per_iteration(schedule, plan.send_actor) != 1:
                continue
            send_task, recv_task = cls._channel_tasks(schedule, plan)
            sync_graph.add_edge(
                TimedEdge(
                    src=recv_task,
                    snk=send_task,
                    delay=plan.capacity_messages,
                    kind=EdgeKind.ACK,
                    origin_edge=plan.origin_edge_name,
                )
            )
            judged_acks.add(plan.origin_edge_name)

        resync_result: Optional[ResynchronizationResult] = None
        if config.resynchronize and batch == 1:
            if cache is not None:
                resync_result = cache.resynchronize(analysis_key, sync_graph)
            else:
                resync_result = resynchronize(sync_graph)
            surviving_acks = {
                e.origin_edge
                for e in resync_result.graph.edges
                if e.kind == EdgeKind.ACK
            }
            for plan in channel_plans.values():
                if (
                    plan.protocol == Protocol.UBS
                    and plan.origin_edge_name in judged_acks
                ):
                    plan.acks_enabled = plan.origin_edge_name in surviving_acks

        if cache is not None and decisions is None:
            # Store the *final* decisions (post-resync ack adjustment):
            # replaying them is only sound together with the cached
            # resynchronization solution, which shares this key.
            cache.store_channel_decisions(analysis_key, channel_plans)

        return cls(
            source_graph=graph,
            partition=partition,
            config=config,
            conversion=conversion,
            insertion=insertion,
            schedule=schedule,
            sync_graph=sync_graph,
            channel_plans=channel_plans,
            resync_result=resync_result,
            cache=cache,
            analysis_key=analysis_key,
            structure_key=structure_key,
            batch=batch,
        )

    @staticmethod
    def _channel_tasks(
        schedule: SelfTimedSchedule, plan: ChannelPlan
    ) -> Tuple[str, str]:
        """Task names of the channel's send/recv actors in the task graph.

        For multirate graphs the SPI actors expand into invocations; the
        ack-window constraint is attached between the first invocations
        (a conservative representative).
        """
        tasks = set(schedule.task_pe)
        if plan.send_actor in tasks:
            return plan.send_actor, plan.recv_actor
        return f"{plan.send_actor}#0", f"{plan.recv_actor}#0"

    @staticmethod
    def _messages_per_iteration(
        schedule: SelfTimedSchedule, send_actor: str
    ) -> int:
        """How many messages the channel carries per graph iteration.

        Each invocation of the SPI_send actor launches exactly one
        message, so the count equals the actor's HSDF repetition count
        (1 when the schedule kept the unexpanded name).
        """
        if send_actor in schedule.task_pe:
            return 1
        prefix = send_actor + "#"
        return sum(1 for task in schedule.task_pe if task.startswith(prefix))

    @classmethod
    def _plan_channels(
        cls,
        insertion: SpiInsertion,
        schedule: SelfTimedSchedule,
        sync_graph: SynchronizationGraph,
        config: SpiConfig,
        decisions: Optional[Dict[str, Dict[str, object]]] = None,
        batch: int = 1,
    ) -> Dict[str, ChannelPlan]:
        """Select protocol and capacity for every interprocessor edge.

        The BBS bound follows the feedback argument of paper eq. 2: the
        number of unconsumed messages on IPC edge ``e`` in self-timed
        execution never exceeds ``delay(e)`` plus the minimum total
        delay of a directed synchronization path from the receiver back
        to the sender (the path that throttles the sender).  When no
        such path exists — or the bound is impractically large — SPI
        falls back to UBS with an acknowledgment window.

        ``decisions`` replays previously cached per-channel decisions,
        skipping the all-pairs min-delay analysis entirely; channels
        missing from it (stale entry) fall back to the computed path.

        ``batch`` is the effective global blocking factor: a batched
        sender emits its whole burst before the receiver's batched
        accept frees a single slot, so every per-iteration term of the
        BBS bound scales by ``batch`` and the UBS ack window must admit
        at least one full burst.
        """
        rho: Optional[Dict[str, Dict[str, int]]] = (
            None if decisions is not None else sync_graph.min_delay_paths()
        )
        plans: Dict[str, ChannelPlan] = {}
        for origin_name, (ipc_edge, pair, dynamic) in insertion.channels.items():
            src_pe = insertion.partition.assignment[pair.send]
            dst_pe = insertion.partition.assignment[pair.recv]
            send_task, recv_task = cls._channel_tasks(
                schedule,
                ChannelPlan(
                    origin_edge_name=origin_name,
                    ipc_edge=ipc_edge,
                    send_actor=pair.send,
                    recv_actor=pair.recv,
                    src_pe=src_pe,
                    dst_pe=dst_pe,
                    dynamic=dynamic,
                    protocol=Protocol.UBS,
                    capacity_messages=1,
                    message_payload_bytes=1,
                    acks_enabled=False,
                ),
            )
            delay_msgs = ipc_edge.delay // max(1, ipc_edge.prod_rate)
            payload_bytes = ipc_edge.prod_rate * ipc_edge.token_bytes
            msgs_per_iter = cls._messages_per_iteration(schedule, pair.send)

            cached = decisions.get(origin_name) if decisions is not None else None
            if cached is not None:
                plans[origin_name] = ChannelPlan(
                    origin_edge_name=origin_name,
                    ipc_edge=ipc_edge,
                    send_actor=pair.send,
                    recv_actor=pair.recv,
                    src_pe=src_pe,
                    dst_pe=dst_pe,
                    dynamic=dynamic,
                    protocol=cached["protocol"],
                    capacity_messages=cached["capacity_messages"],
                    message_payload_bytes=payload_bytes,
                    acks_enabled=cached["acks_enabled"],
                )
                continue
            if rho is None:
                rho = sync_graph.min_delay_paths()
            feedback = rho.get(recv_task, {}).get(send_task)

            if (
                config.protocol_policy == "auto"
                and feedback is not None
                and 0
                < batch * msgs_per_iter * (feedback + 1) + delay_msgs
                <= config.max_bbs_messages
            ):
                # Sync-graph delays count *iterations* between the #0
                # invocations, while the bound counts *messages*: with a
                # feedback of f iterations the sender can run f + 1
                # iterations (of msgs_per_iter messages each) ahead of
                # the receiver's oldest unfreed slot, plus the initial
                # delay tokens.  The msgs_per_iter'th message of the
                # newest iteration doubles as the in-process +1 slack
                # (the message inside SPI_receive still occupies its
                # slot); for single-rate channels the formula reduces to
                # the familiar feedback + delay + 1.
                protocol = Protocol.BBS
                capacity = batch * msgs_per_iter * (feedback + 1) + delay_msgs
                acks = False
            else:
                protocol = Protocol.UBS
                capacity = max(config.ubs_window, batch * msgs_per_iter)
                acks = True
            plans[origin_name] = ChannelPlan(
                origin_edge_name=origin_name,
                ipc_edge=ipc_edge,
                send_actor=pair.send,
                recv_actor=pair.recv,
                src_pe=src_pe,
                dst_pe=dst_pe,
                dynamic=dynamic,
                protocol=protocol,
                capacity_messages=capacity,
                message_payload_bytes=payload_bytes,
                acks_enabled=acks,
            )
        return plans

    # -- execution ----------------------------------------------------------

    def run(
        self,
        iterations: int = 1,
        max_cycles: Optional[int] = None,
        trace: bool = False,
        metrics: bool = False,
        check_lost_wakeups: bool = False,
        steady_state: str = "auto",
    ) -> RunResult:
        """Simulate ``iterations`` graph iterations; returns the metrics.

        ``trace=True`` records every task execution interval into
        ``RunResult.trace`` (a :class:`TraceRecorder`) for Gantt/CSV
        inspection.  ``metrics=True`` additionally instruments the whole
        execution path (simulator kernel, transports, channels, sync
        pools) and fills ``RunResult.metrics`` with the validated
        metrics JSON document and ``RunResult.message_log`` with every
        inter-PE message — the inputs of the Chrome-trace and metrics
        exporters in :mod:`repro.observability`.

        ``check_lost_wakeups=True`` arms the kernel's lost-wakeup audit
        (used by the conformance oracles).

        ``steady_state`` controls periodic-phase extrapolation (see
        :mod:`repro.platform.steady_state`): ``"off"`` simulates every
        iteration; ``"auto"`` (the default) arms detection when the
        system is eligible — state-determined timing (see
        :meth:`steady_state_opaque_actors`), unbatched, no trace
        capture, and at least
        :func:`~repro.platform.steady_state.min_warp_iterations`
        iterations (5, or 4 with a cached period hint) — and silently
        runs interpreted otherwise; ``"on"`` forces arming and raises
        :class:`GraphError` for ineligible systems.  A warp requires
        an exact kernel-state recurrence confirmed over a full second
        period with identical counter deltas, so makespan, per-channel
        traffic, occupancy high-water marks and the iteration period
        of an extrapolated run are bit-identical to the fully
        interpreted run.

        A warped run's outputs are complete: once the simulation
        drains, every task has finished the same number of whole
        iterations, so every local FIFO holds exactly its delay tokens
        and every channel is empty (checked; a violation raises
        :class:`GraphError`).  From there the skipped iterations'
        kernels fire in PASS order with their continuing firing
        indices — no event kernel, transport, statistics or waitsets —
        and by Kahn determinacy produce exactly the token values of
        the full run.  Kernel-effort counters (events, parks, wakeups),
        the message log and the per-message ``link.*`` counters cover
        only the simulated iterations.
        """
        if iterations < 1:
            raise GraphError("iterations must be >= 1")
        if steady_state not in ("off", "auto", "on"):
            raise GraphError(f"unknown steady_state mode {steady_state!r}")
        arm_steady = False
        hint = None
        if steady_state == "on":
            if trace:
                raise GraphError(
                    "steady_state='on' cannot produce a full trace "
                    "(extrapolated iterations record no task intervals)"
                )
            if self.batch > 1:
                raise GraphError(
                    "steady_state='on' is incompatible with batched "
                    "execution (the tracker's kernel-state recurrence "
                    "is keyed to single-iteration passes)"
                )
            opaque = self.steady_state_opaque_actors()
            if opaque:
                raise GraphError(
                    "steady_state='on' requires state-determined timing; "
                    "these actors have data-dependent timing and do not "
                    f"declare params['timing_periodic']: {sorted(opaque)}"
                )
            arm_steady = True
            hint = self._period_hint()
        elif (
            steady_state == "auto"
            and not trace
            and self.batch == 1
            and iterations >= min_warp_iterations(hinted=True)
            and not self.steady_state_opaque_actors()
        ):
            # one iteration short of the unhinted minimum only a cached
            # period can warp
            hint = self._period_hint()
            arm_steady = (
                iterations >= min_warp_iterations(hinted=False)
                or hint is not None
            )
        hub = None
        if metrics:
            from repro.observability import ObservabilityHub

            hub = ObservabilityHub()
        sim = Simulator(check_lost_wakeups=check_lost_wakeups)
        recorder = TraceRecorder() if trace else None
        interconnect = Interconnect(default_spec=self.config.link_spec)
        transport = self._build_transport(sim, interconnect, observer=hub)
        graph = self.insertion.graph

        channels: Dict[str, SpiChannel] = {}
        for plan in self.channel_plans.values():
            config = ProtocolConfig(
                protocol=plan.protocol,
                capacity_tokens=plan.capacity_messages,
                acks_enabled=plan.acks_enabled
                if plan.protocol == Protocol.UBS
                else False,
            )
            # One burst of physical slack: messages may arrive while
            # SPI_receive is still processing its predecessors (a
            # batched receive frees its bytes only at completion, so up
            # to ``batch`` messages are in process at once; batch is 1
            # for unbatched runs).
            capacity_bytes = (
                plan.capacity_messages + self.batch
            ) * plan.message_payload_bytes
            channels[plan.origin_edge_name] = SpiChannel(
                edge=plan.ipc_edge,
                src_pe=plan.src_pe,
                dst_pe=plan.dst_pe,
                config=config,
                dynamic=plan.dynamic,
                token_bytes=plan.ipc_edge.token_bytes,
                recv_capacity_bytes=capacity_bytes,
            )

        ipc_edge_ids = {plan.ipc_edge.edge_id for plan in self.channel_plans.values()}
        fifos: Dict[int, LocalFifo] = {
            edge.edge_id: LocalFifo(edge)
            for edge in graph.edges
            if edge.edge_id not in ipc_edge_ids
        }

        collective_groups = self.insertion.collective_sends
        send_plans = {
            plan.send_actor: plan
            for plan in self.channel_plans.values()
            if plan.send_actor not in collective_groups
        }
        recv_plans = {plan.recv_actor: plan for plan in self.channel_plans.values()}
        # A collective send actor owns several per-branch channels; match
        # each fanout member edge back to its channel via the plan's IPC
        # edge identity.
        channel_by_ipc_edge = {
            plan.ipc_edge.edge_id: channels[plan.origin_edge_name]
            for plan in self.channel_plans.values()
        }

        tasks_by_actor: Dict[str, object] = {}
        computations: List[ComputationTask] = []

        # Blocked-schedule plumbing: every task on every PE runs the
        # same per-macro-pass burst counts (lockstep), and the PE
        # objects must exist before their tasks so batched dispatches
        # can be accounted to the owning PE.
        batch_counts: Optional[List[int]] = None
        passes = iterations
        if self.batch > 1:
            batch_schedule = BatchSchedule(iterations, self.batch)
            batch_counts = batch_schedule.counts
            passes = batch_schedule.passes
        pe_objects: Dict[int, ProcessingElement] = {
            pe_index: ProcessingElement(
                pe_index, pe_class=self.partition.pe_class_of(pe_index)
            )
            for pe_index in range(self.partition.n_pes)
        }
        pe_assignment = self.insertion.partition.assignment

        def task_for(actor: Actor):
            if actor.name in tasks_by_actor:
                return tasks_by_actor[actor.name]
            owner = pe_objects[pe_assignment[actor.name]]
            batch_kwargs = dict(
                batch_counts=batch_counts,
                pe_class=owner.pe_class,
                pe=owner,
            )
            if actor.name in collective_groups:
                group = collective_groups[actor.name]
                in_edge = graph.in_edges(actor)[0]
                branches = []
                local_branches = []
                for member in graph.out_edges(actor):
                    if member.edge_id in fifos:
                        local_branches.append(fifos[member.edge_id])
                    else:
                        branches.append(
                            (member, channel_by_ipc_edge[member.edge_id])
                        )
                task = SpiCollectiveSendTask(
                    actor,
                    branches,
                    local_branches,
                    fifos[in_edge.edge_id],
                    transport,
                    group_key=f"{group.name}.collective",
                    **batch_kwargs,
                )
            elif actor.name in send_plans:
                plan = send_plans[actor.name]
                in_edge = graph.in_edges(actor)[0]
                task = SpiSendTask(
                    actor,
                    channels[plan.origin_edge_name],
                    fifos[in_edge.edge_id],
                    transport,
                    **batch_kwargs,
                )
            elif actor.name in recv_plans:
                plan = recv_plans[actor.name]
                out_edge = graph.out_edges(actor)[0]
                task = SpiReceiveTask(
                    actor,
                    channels[plan.origin_edge_name],
                    fifos[out_edge.edge_id],
                    sim,
                    interconnect,
                    observer=hub,
                    **batch_kwargs,
                )
            else:
                task = ComputationTask.in_graph(
                    actor, graph, fifos, **batch_kwargs
                )
                computations.append(task)
            tasks_by_actor[actor.name] = task
            return task

        # Instantiate every task up front, then materialise the *added*
        # resynchronization edges as run-time sync-message channels (a
        # counting semaphore fed by zero-payload messages) wrapped
        # around the endpoint tasks.  Without this, disabling the acks
        # those edges made redundant would be unsound.
        for actor in graph.actors:
            task_for(actor)
        # the unwrapped task of every actor: its firing_index is where a
        # warped run's PASS completion continues
        actor_tasks = dict(tasks_by_actor)
        sync_pools: List[SyncTokenPool] = []
        if self.resync_result is not None:
            task_reps = self.task_repetitions()
            for added in self.resync_result.added:
                src_task = self.schedule.task_graph.get_actor(added.src)
                snk_task = self.schedule.task_graph.get_actor(added.snk)
                src_origin = src_task.params.get("origin", added.src)
                snk_origin = snk_task.params.get("origin", added.snk)
                src_pe = self.schedule.task_pe[added.src]
                snk_pe = self.schedule.task_pe[added.snk]
                pool = SyncTokenPool(
                    f"resync:{added.src}->{added.snk}", initial=added.delay
                )
                sync_pools.append(pool)
                link = interconnect.link(src_pe, snk_pe)
                tasks_by_actor[src_origin] = SyncedTask(
                    tasks_by_actor[src_origin],
                    sim,
                    notifications=[(pool, link, ACK_BYTES)],
                    phase=src_task.params.get("invocation", 0),
                    period=task_reps[src_origin],
                    observer=hub,
                )
                tasks_by_actor[snk_origin] = SyncedTask(
                    tasks_by_actor[snk_origin],
                    sim,
                    guards=[pool],
                    phase=snk_task.params.get("invocation", 0),
                    period=task_reps[snk_origin],
                )

        pes: List[ProcessingElement] = []
        sequencers: List[PESequencer] = []
        script = self.schedule.firing_script()
        for pe_index in range(self.partition.n_pes):
            entries = script.get(pe_index, [])
            if not entries:
                continue
            pe = pe_objects[pe_index]
            program: List[object] = [SpiInitTask(pe_index)]
            for _task_name, origin in entries:
                program.append(task_for(graph.get_actor(origin)))
            sequencer = PESequencer(
                sim, pe, program, passes, trace=recorder
            )
            pes.append(pe)
            sequencers.append(sequencer)

        if batch_counts is not None:
            # An actor with repetitions > 1 occupies several program
            # entries; its pass cursor must advance only after the last
            # one, so every entry of a macro-pass runs the same burst.
            for sequencer in sequencers:
                entry_counts: Dict[int, int] = {}
                for task in sequencer.program:
                    entry_counts[id(task)] = entry_counts.get(id(task), 0) + 1
                for task in sequencer.program:
                    if hasattr(task, "occurrences"):
                        task.occurrences = entry_counts[id(task)]

        tracker = None
        if arm_steady and sequencers:
            tracker = self._arm_steady_state(
                sim=sim,
                sequencers=sequencers,
                channels=channels,
                fifos=fifos,
                sync_pools=sync_pools,
                interconnect=interconnect,
                transport=transport,
                iterations=iterations,
                hint=hint,
            )

        for sequencer in sequencers:
            sequencer.begin()
        final = sim.run(max_cycles=max_cycles)

        unfinished = [s for s in sequencers if not s.done]
        if unfinished:
            raise GraphError(
                f"simulation ended with unfinished sequencers: "
                f"{[s.pe.name for s in unfinished]}"
            )

        steady_report = tracker.report if tracker is not None else None
        if steady_report is not None and steady_report.extrapolated_iterations:
            self._fire_warped_iterations(
                steady_report.extrapolated_iterations,
                iterations,
                sequencers,
                channels,
                fifos,
                actor_tasks,
            )
        extra_cycles = (
            steady_report.extrapolated_cycles if steady_report is not None else 0
        )
        total_cycles = final + extra_cycles
        if (
            steady_report is not None
            and steady_report.detected_at is not None
            and not steady_report.hint_used
        ):
            self._store_period_hint(steady_report)

        data_messages = sum(c.stats.data_messages for c in channels.values())
        ack_messages = sum(c.stats.ack_messages for c in channels.values())
        payload_bytes = sum(c.stats.data_bytes for c in channels.values())
        header_bytes = sum(c.stats.header_bytes for c in channels.values())
        ack_bytes = sum(c.stats.ack_bytes for c in channels.values())
        buffer_high = {
            name: channel.recv_buffer.high_water_bytes
            for name, channel in channels.items()
        }
        fifo_high = {
            fifo.edge.name: fifo.high_water for fifo in fifos.values()
        }

        if iterations >= 4 and sequencers and self.batch == 1:
            # Under a warp the simulated finish of the last (reduced)
            # iteration is the true finish of iteration ``iterations``
            # minus the extrapolated cycles, and ``finish_times[1]``
            # predates the warp — so the reconstruction below uses the
            # same integer operands as a fully interpreted run and the
            # float result is bit-identical.
            times = sequencers[0].finish_times
            period = (times[-1] + extra_cycles - times[1]) / (iterations - 2)
        else:
            # batched runs finish in macro-passes, not iterations, so
            # the per-iteration finish-time reconstruction above does
            # not apply — report the plain average
            period = total_cycles / iterations

        result = RunResult(
            cycles=total_cycles,
            execution_time_us=self.config.clock.cycles_to_us(total_cycles),
            iterations=iterations,
            pe_stats=pes,
            data_messages=data_messages,
            ack_messages=ack_messages,
            payload_bytes=payload_bytes,
            header_bytes=header_bytes,
            ack_bytes=ack_bytes,
            buffer_high_water=buffer_high,
            fifo_high_water=fifo_high,
            iteration_period_cycles=period,
            resync_messages=sum(p.messages_sent for p in sync_pools),
            resync_bytes=ACK_BYTES
            * sum(p.messages_sent for p in sync_pools),
            trace=recorder,
            steady_state=steady_report,
            compiled_firings=sum(t.firing_index for t in computations),
            collective_messages=getattr(transport, "collective_messages", 0),
            fan_out_deliveries=getattr(transport, "fan_out_deliveries", 0),
            wire_bytes_saved=getattr(transport, "wire_bytes_saved", 0),
            batch=self.batch,
            batched_firings=sum(pe.batched_firings for pe in pes),
            batch_dispatches=sum(pe.batch_dispatches for pe in pes),
            amortized_dispatch_cycles_saved=sum(
                pe.amortized_dispatch_cycles_saved for pe in pes
            ),
        )
        if hub is not None:
            from repro.observability import (
                build_metrics_document,
                validate_metrics,
            )

            result.message_log = list(hub.messages)
            result.metrics = build_metrics_document(
                self,
                result,
                hub,
                channels=channels,
                transport=transport,
                sim=sim,
                sync_pools=sync_pools,
            )
            validate_metrics(result.metrics)
        return result

    def _arm_steady_state(
        self,
        sim: Simulator,
        sequencers: List[PESequencer],
        channels: Dict[str, SpiChannel],
        fifos: Dict[int, "LocalFifo"],
        sync_pools: List[SyncTokenPool],
        interconnect: Interconnect,
        transport,
        iterations: int,
        hint: Optional[Tuple[int, int]] = None,
    ):
        """Wire a :class:`SteadyStateTracker` into this run.

        The probes must cover *everything* that influences any future
        event time or counter — see DESIGN.md §4e for the composition
        argument (in particular why in-flight UBS acks and
        resynchronization deposits are part of the hash).  The meters
        must cover every counter a skipped period would have advanced.
        """
        from repro.platform.steady_state import (
            AttrMeter,
            MapMeter,
            ObjectMapMeter,
            SteadyStateTracker,
        )

        ref = sequencers[0]
        sorted_channels = [
            (name, channels[name]) for name in sorted(channels)
        ]
        sorted_fifos = [fifos[k] for k in sorted(fifos)]

        # SyncedTask wrappers and SpiInitTask instances hide modular /
        # one-shot state inside the per-PE programs; collect them once.
        synced: List[SyncedTask] = []
        inits: List[SpiInitTask] = []
        seen_ids = set()
        for sequencer in sequencers:
            for task in sequencer.program:
                while isinstance(task, SyncedTask):
                    if id(task) not in seen_ids:
                        seen_ids.add(id(task))
                        synced.append(task)
                    task = task.inner
                if isinstance(task, SpiInitTask) and id(task) not in seen_ids:
                    seen_ids.add(id(task))
                    inits.append(task)

        def sequencer_state(now: int):
            ref_iteration = ref.iteration
            return tuple(
                (
                    s.position,
                    s.iteration - ref_iteration,
                    s._running,
                    (s._busy_until - now)
                    if s._running and s._busy_until is not None
                    else -1,
                    s.parked,
                    s.wake_pending,
                    (now - s._blocked_since)
                    if s._blocked_since is not None
                    else -1,
                )
                for s in sequencers
            )

        def channel_state(now: int):
            return tuple(
                (
                    tuple(m.payload_bytes for m in ch.arrived),
                    ch.flow._credits if ch.flow.uses_credits else -1,
                    ch.recv_buffer.occupancy_bytes,
                )
                for _name, ch in sorted_channels
            )

        def fifo_state(now: int):
            return tuple(len(f.tokens) for f in sorted_fifos)

        def pool_state(now: int):
            return tuple(p.tokens for p in sync_pools)

        def synced_state(now: int):
            return tuple(t._count % t.period for t in synced)

        def init_state(now: int):
            return tuple(t._done for t in inits)

        def link_state(now: int):
            return tuple(
                sorted(
                    (link.src_pe, link.dst_pe, max(0, link.busy_until - now))
                    for link in interconnect.links
                )
            )

        def kernel_state(now: int):
            return (len(sim._wake_queue), sim._wake_scheduled)

        probes = [
            sequencer_state,
            channel_state,
            fifo_state,
            pool_state,
            synced_state,
            init_state,
            link_state,
            kernel_state,
            transport.capture_state,
        ]

        transport_fields = [
            "messages",
            "bytes",
            "collective_messages",
            "fan_out_deliveries",
            "wire_bytes_saved",
        ]
        if hasattr(transport, "fast_path_deliveries"):
            transport_fields.append("fast_path_deliveries")
        meters = []
        for sequencer in sequencers:
            pe = sequencer.pe
            meters.append(
                AttrMeter(
                    f"pe:{pe.index}",
                    pe,
                    ("busy_cycles", "firings", "blocked_events", "blocked_cycles"),
                )
            )
            meters.append(
                MapMeter(
                    f"pe:{pe.index}:blocked_by",
                    (lambda p=pe: p.blocked_by_task),
                )
            )
        for name, ch in sorted_channels:
            meters.append(
                AttrMeter(
                    f"channel:{name}",
                    ch.stats,
                    (
                        "data_messages",
                        "ack_messages",
                        "data_bytes",
                        "header_bytes",
                        "ack_bytes",
                    ),
                )
            )
            meters.append(
                AttrMeter(f"flow:{name}", ch.flow, ("sends", "acks_received"))
            )
        for pool in sync_pools:
            meters.append(
                AttrMeter(
                    f"pool:{pool.name}", pool, ("messages_sent", "empty_stalls")
                )
            )
        meters.append(AttrMeter("transport", transport, transport_fields))
        meters.append(
            ObjectMapMeter(
                "transport:channel",
                lambda: sorted(
                    transport.per_channel.items(), key=lambda kv: str(kv[0])
                ),
                ("messages", "bytes", "queueing_cycles", "contention_cycles"),
            )
        )
        meters.append(
            ObjectMapMeter(
                "link",
                lambda: [
                    ((link.src_pe, link.dst_pe), link)
                    for link in interconnect.links
                ],
                ("bytes_carried", "messages_carried"),
            )
        )

        tracker = SteadyStateTracker(
            sim=sim,
            sequencers=sequencers,
            probes=probes,
            meters=meters,
            target_iterations=iterations,
            hint=hint,
        )
        sim.state_probe = tracker
        ref.on_iteration = tracker.on_iteration_boundary
        return tracker

    def _fire_warped_iterations(
        self,
        skipped: int,
        iterations: int,
        sequencers: List[PESequencer],
        channels: Dict[str, SpiChannel],
        fifos: Dict[int, LocalFifo],
        actor_tasks: Dict[str, object],
    ) -> None:
        """Produce the token values of the ``skipped`` warped iterations.

        The warp shortened every sequencer's run by ``skipped`` whole
        iterations, so the drained simulation must sit exactly at an
        iteration boundary: local FIFOs at their delay tokens, channels
        empty.  From that state the PASS fires the remaining iterations
        on the bare token deques; SPI send/receive actors forward their
        tokens unchanged, and every actor continues its task's
        ``firing_index``.
        """
        simulated = iterations - skipped
        behind = [s.pe.name for s in sequencers if s.iteration != simulated]
        if behind:
            raise GraphError(
                f"steady-state completion: sequencers {behind} did not "
                f"finish exactly {simulated} iterations"
            )
        for fifo in fifos.values():
            if len(fifo.tokens) != fifo.edge.delay:
                raise GraphError(
                    f"steady-state completion: fifo {fifo.edge.name!r} "
                    f"holds {len(fifo.tokens)} tokens, expected its "
                    f"{fifo.edge.delay} delay tokens"
                )
        for name, channel in channels.items():
            if channel.arrived:
                raise GraphError(
                    f"steady-state completion: channel {name!r} still "
                    f"holds {len(channel.arrived)} undelivered messages"
                )

        token_fifos = {edge_id: fifo.tokens for edge_id, fifo in fifos.items()}
        for plan in self.channel_plans.values():
            token_fifos[plan.ipc_edge.edge_id] = deque()
        counts = {
            name: task.firing_index for name, task in actor_tasks.items()
        }
        spi_actors = {
            actor.name
            for actor in self.insertion.graph.actors
            if "spi_role" in actor.params
        }
        self.pass_program().run(token_fifos, counts, skipped, spi_actors)
        for name, task in actor_tasks.items():
            task.firing_index = counts[name]

    def _period_hint(self) -> Optional[Tuple[int, int]]:
        """The cached ``(period iterations, period cycles)`` of this
        system's previous warped runs, if any."""
        lookup = getattr(self._analysis_cache, "period_hint", None)
        if lookup is None:
            return None
        return lookup(self._period_cache_key())

    def _period_cache_key(self) -> Optional[str]:
        """Content key for the cross-run period memo.

        Extends the analysis key with the *execution* knobs the analysis
        key deliberately omits — period cycles depend on the transport
        flavour and link timing, not just on the compile-time plans.
        """
        if self._analysis_key is None:
            return None
        import hashlib
        import json

        spec = self.config.link_spec
        payload = json.dumps(
            {
                "analysis": self._analysis_key,
                "transport": self.config.transport,
                "bus_arbitration_cycles": self.config.bus_arbitration_cycles,
                "setup_cycles": spec.setup_cycles,
                "word_bytes": spec.word_bytes,
                "cycles_per_word": spec.cycles_per_word,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _store_period_hint(self, report) -> None:
        """Memoise a freshly confirmed period for future runs."""
        if self._analysis_cache is None:
            return
        store = getattr(self._analysis_cache, "store_period", None)
        if store is None:
            return
        store(
            self._period_cache_key(),
            report.period_iterations,
            report.period_cycles,
        )

    def _build_transport(
        self, sim: Simulator, interconnect: Interconnect, observer=None
    ):
        """Instantiate the configured data transport for one run."""
        from repro.platform.transport import (
            OrderedBusTransport,
            PointToPointTransport,
            SharedBusTransport,
        )

        if self.config.transport == "p2p":
            return PointToPointTransport(sim, interconnect, observer=observer)
        if self.config.transport == "shared_bus":
            return SharedBusTransport(
                sim,
                spec=self.config.link_spec,
                arbitration_cycles=self.config.bus_arbitration_cycles,
                observer=observer,
            )
        return OrderedBusTransport(
            sim,
            order=self.transaction_order(),
            spec=self.config.link_spec,
            observer=observer,
        )

    def transaction_order(self) -> List[str]:
        """Compile-time bus-grant order for the ordered-transaction model.

        One entry (the channel's IPC edge name) per message per graph
        iteration, in the order the deterministic PASS fires the
        SPI_send actors — the same order the hardware's transaction
        controller would be programmed with.
        """
        # A collective send actor fires once per group transfer: all of
        # its per-branch plans share ONE bus slot, keyed by the group.
        send_to_key = {
            plan.send_actor: (
                f"{self.insertion.collective_sends[plan.send_actor].name}"
                ".collective"
                if plan.send_actor in self.insertion.collective_sends
                else plan.ipc_edge.name
            )
            for plan in self.channel_plans.values()
        }
        order = [
            send_to_key[actor.name]
            for actor in self.pass_program().schedule
            if actor.name in send_to_key
        ]
        if not order:
            raise GraphError(
                "ordered-transaction transport needs at least one "
                "interprocessor channel"
            )
        return order

    # -- analysis -----------------------------------------------------------

    def steady_state_opaque_actors(self) -> List[str]:
        """Actors whose future timing the steady-state hash cannot see.

        The warp is exact only when every execution time and production
        volume is a function of the hashed kernel state.  An actor with
        integer cycles and static rates trivially qualifies.  An actor
        with a *callable* cycle model or :class:`DynamicRate` ports
        depends on token values (which the hash deliberately excludes),
        so it is opaque — unless it declares
        ``params["timing_periodic"] = True``, asserting that its
        execution times and production volumes are iteration-periodic
        (e.g. the LPC I/O interfaces, which cycle through a fixed frame
        list via ``firing_index % len(frames)``).  The particle filter
        makes no such declaration: its resampling exchange volumes
        depend on the evolving particle population, so it never warps.
        """
        opaque: List[str] = []
        for actor in self.source_graph.actors:
            if actor.params.get("timing_periodic"):
                continue
            if not isinstance(actor.cycles, int) or any(
                not isinstance(port.rate, int) for port in actor.ports
            ):
                opaque.append(actor.name)
        return opaque

    def task_repetitions(self) -> Dict[str, int]:
        """Repetitions vector of the SPI-inserted graph (memoised)."""
        if self._task_repetitions is None:
            from repro.dataflow.sdf import repetitions_vector

            def compute() -> Dict[str, int]:
                return repetitions_vector(self.insertion.graph)

            if self._analysis_cache is not None:
                self._task_repetitions = self._analysis_cache.repetitions(
                    self._structure_key, compute
                )
            else:
                self._task_repetitions = compute()
        return self._task_repetitions

    def pass_program(self) -> PassProgram:
        """The SPI-inserted graph's PASS, wired for firing (memoised).

        Reuses the PASS the self-timed schedule was derived from.
        """
        if self._pass_program is None:
            self._pass_program = PassProgram(
                self.insertion.graph, self.schedule.pass_firings
            )
        return self._pass_program

    def mcm_result(self) -> McmResult:
        """Exact MCM of the post-resynchronization synchronization graph.

        Memoised, and served from the :class:`AnalysisCache` when one is
        attached; the result carries the critical-cycle witness (task
        names, total execution cycles, total delay) alongside the bound.
        Cache entries written before the witness existed degrade to a
        witness-less result.
        """
        if self._mcm_result is None:
            reference = (
                self.resync_result.graph
                if self.resync_result is not None
                else self.sync_graph
            )

            def compute() -> McmResult:
                return maximum_cycle_mean_result(reference)

            if self._analysis_cache is not None:
                self._mcm_result = self._analysis_cache.mcm(
                    self._analysis_key, compute
                )
            else:
                self._mcm_result = compute()
        return self._mcm_result

    def estimated_iteration_period_cycles(self) -> float:
        """MCM bound on the steady-state iteration period (memoised)."""
        return self.mcm_result().value

    def sync_cost_per_iteration(self) -> int:
        """Cross-PE synchronization edges after resynchronization."""
        reference = (
            self.resync_result.graph
            if self.resync_result is not None
            else self.sync_graph
        )
        return reference.sync_cost()

    def describe(self) -> str:
        """Human-readable compilation report.

        Everything the SPI methodology decided for this system: the
        per-PE self-timed orders, every channel's component
        (static/dynamic), protocol, capacity and ack status, and the
        resynchronization summary.
        """
        lines: List[str] = [
            f"SPI system: {self.source_graph.name!r} on "
            f"{self.partition.n_pes} PEs"
        ]
        if self.conversion is not None:
            converted = len(self.conversion.edge_info)
            lines.append(
                f"VTS conversion: {converted} dynamic edge(s) converted "
                f"to packed-token form"
            )
        if self.partition.has_accelerators or self.batch > 1:
            accel = sorted(
                pe
                for pe in range(self.partition.n_pes)
                if self.partition.pe_class_of(pe).is_accelerator
            )
            lines.append(
                f"heterogeneous platform: accelerator PE(s) "
                f"{accel if accel else 'none'}, blocking factor "
                f"{self.batch}"
                + (
                    f" (requested {self.partition.requested_batch})"
                    if self.batch != self.partition.requested_batch
                    else ""
                )
            )
        lines.append("self-timed schedule:")
        for pe in sorted(self.schedule.orders):
            order = self.schedule.orders[pe]
            if order:
                lines.append(f"  PE{pe}: {' -> '.join(order)}")
        if self.channel_plans:
            lines.append("interprocessor channels:")
            for name, plan in sorted(self.channel_plans.items()):
                flavour = "SPI_dynamic" if plan.dynamic else "SPI_static"
                acks = "acks on" if plan.acks_enabled else "ack-free"
                lines.append(
                    f"  {name}: PE{plan.src_pe}->PE{plan.dst_pe}, "
                    f"{flavour}, {plan.protocol} "
                    f"(capacity {plan.capacity_messages} msg, "
                    f"{plan.message_payload_bytes} B/msg, {acks})"
                )
        else:
            lines.append("interprocessor channels: none (single PE)")
        if self.resync_result is not None:
            rr = self.resync_result
            lines.append(
                f"resynchronization: {len(rr.removed)} sync/ack edge(s) "
                f"removed, {len(rr.added)} added; sync cost "
                f"{rr.cost_before} -> {rr.cost_after} per iteration"
            )
        result = self.mcm_result()
        lines.append(
            f"MCM bound on the iteration period: {result.value:.1f} cycles"
        )
        if result.cycle:
            lines.append(
                f"critical cycle: {' -> '.join(result.cycle)} "
                f"({result.total_cycles} cycles / "
                f"{result.total_delay} delay)"
            )
        return "\n".join(lines)

    # -- FPGA pricing ---------------------------------------------------------

    def spi_library_resources(self) -> ResourceVector:
        """Fabric cost of every SPI module in the compiled system."""
        total = ResourceVector()
        for plan in self.channel_plans.values():
            total = total + spi_resources.channel_cost(
                dynamic=plan.dynamic,
                buffer_bytes=plan.buffer_bytes,
                uses_acks=plan.acks_enabled,
            )
        for pe in self.partition.used_pes:
            total = total + spi_resources.init_module_cost()
        return total

    def computation_resources(self) -> ResourceVector:
        """Fabric cost of the application's computation actors.

        Actors declare their datapath cost in
        ``params["resources"]`` (a :class:`ResourceVector`); actors
        without one contribute nothing (e.g. purely structural models).
        """
        total = ResourceVector()
        for actor in self.source_graph.actors:
            vector = actor.params.get("resources")
            if vector is not None:
                total = total + vector
        return total

    def fpga_report(
        self,
        device: FpgaDevice = VIRTEX4_SX35,
        title: str = "",
    ) -> UtilizationReport:
        """Tables 1/2 shape: full-system and SPI-relative utilisation."""
        spi = self.spi_library_resources()
        full = self.computation_resources() + spi
        return UtilizationReport(
            device=device,
            full_system=full,
            spi_library=spi,
            title=title,
        )
