"""Run-time SPI actors: the tasks the platform simulator executes.

The HDL SPI library of the paper consists of **SPI_init**, **SPI_send**
and **SPI_receive** modules in SPI_static and SPI_dynamic flavours; the
computation actors of the application are entirely separate ("these
special modules ensure that the communication part of a system is
completely separated from the computation part").  This module provides
the behavioural models of all of them as :class:`~repro.platform
.simulator.Task` implementations, plus the :class:`LocalFifo` carrying
same-PE edges.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, Dict, List, Optional, Sequence

from repro.dataflow.graph import Actor, DataflowGraph, Edge
from repro.dataflow.vts import PackedToken
from repro.platform.interconnect import Interconnect
from repro.platform.pe import GPP, PEClass, ProcessingElement
from repro.platform.simulator import Simulator, Waitset
from repro.spi.channel import SpiChannel
from repro.spi.message import make_ack_message, make_data_message

__all__ = [
    "BatchSchedule",
    "LocalFifo",
    "ComputationTask",
    "SpiInitTask",
    "SpiSendTask",
    "SpiCollectiveSendTask",
    "SpiReceiveTask",
    "SyncTokenPool",
    "SyncedTask",
    "normalize_port_fifos",
    "payload_nbytes",
    "INIT_CYCLES",
]

#: one-time channel setup cost charged by SPI_init per PE
INIT_CYCLES = 8


class BatchSchedule:
    """Macro-pass plan of a blocked (batched) execution.

    A run of ``iterations`` graph iterations under blocking factor
    ``batch`` executes ``passes`` macro-passes; in pass ``i`` every task
    runs ``counts[i]`` logical firings atomically.  The tail pass covers
    the remainder when ``iterations`` is not a multiple of ``batch``, so
    token production is exact, never rounded up.
    """

    def __init__(self, iterations: int, batch: int) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        full, tail = divmod(iterations, batch)
        self.iterations = iterations
        self.batch = batch
        self.counts: List[int] = [batch] * full + ([tail] if tail else [])

    @property
    def passes(self) -> int:
        return len(self.counts)


class _BatchedTaskMixin:
    """Shared burst/cost plumbing of the batch-aware SPI tasks.

    ``batch_counts`` is the per-macro-pass firing count list of a
    :class:`BatchSchedule` (``None`` means classic one-firing-at-a-time
    execution); ``pe_class`` prices each dispatch; ``pe`` receives the
    batching counters.  Each task advances its private pass cursor
    after its last occurrence in a program pass (``occurrences``
    executions) — all tasks of a program run in lockstep, so the cursor
    always names the current macro-pass.
    """

    def _init_batch(
        self,
        batch_counts: Optional[Sequence[int]],
        pe_class: PEClass,
        pe: Optional[ProcessingElement],
    ) -> None:
        self.batch_counts = list(batch_counts) if batch_counts else None
        self.pe_class = pe_class
        self._pe = pe
        self._pass = 0
        #: program entries this task occupies per macro-pass (= its
        #: actor's repetitions on the PE); set by the runtime after
        #: program assembly
        self.occurrences = 1
        self._executions = 0

    @property
    def burst(self) -> int:
        """Logical firings this execution runs atomically."""
        if self.batch_counts is None:
            return 1
        return self.batch_counts[min(self._pass, len(self.batch_counts) - 1)]

    def _charge(self, native_cycles: Sequence[int]) -> int:
        """Duration of one dispatch over the burst, recording counters."""
        burst = len(native_cycles)
        if burst > 1 and self._pe is not None:
            self._pe.record_batched_dispatch(
                burst, self.pe_class.dispatch_cycles_saved(burst)
            )
        return self.pe_class.batch_cycles(native_cycles)

    def _advance_pass(self) -> None:
        # The pass cursor may only move after the task's *last*
        # occurrence in the program pass, or an actor with repetitions
        # > 1 would read the tail burst mid-pass and under-fire.
        self._executions += 1
        if self._executions >= self.occurrences:
            self._executions = 0
            self._pass += 1


def payload_nbytes(tokens: List, default_token_bytes: int) -> int:
    """Wire size of a token list (packed tokens know their own size)."""
    total = 0
    for token in tokens:
        if isinstance(token, PackedToken):
            total += token.nbytes
        else:
            total += default_token_bytes
    return total


class LocalFifo:
    """The run-time buffer of one same-PE edge of the SPI-inserted graph."""

    def __init__(self, edge: Edge) -> None:
        self.edge = edge
        if edge.initial_tokens is not None:
            initial = list(edge.initial_tokens)
        else:
            initial = [None] * edge.delay
        self.tokens: Deque = deque(initial)
        self.high_water = len(self.tokens)
        #: woken on every push (unblocks a starved consumer)
        self.waitset = Waitset(f"fifo:{edge.name}")

    def __len__(self) -> int:
        return len(self.tokens)

    def push(self, values: List) -> None:
        self.tokens.extend(values)
        if len(self.tokens) > self.high_water:
            self.high_water = len(self.tokens)
        self.waitset.wake()

    def pop(self, count: int) -> List:
        if len(self.tokens) < count:
            raise RuntimeError(
                f"fifo {self.edge.name}: popping {count} of "
                f"{len(self.tokens)} tokens"
            )
        return [self.tokens.popleft() for _ in range(count)]


def normalize_port_fifos(fifos: Dict[str, object]) -> Dict[str, List[LocalFifo]]:
    """Normalise ``port name -> fifo-or-list-of-fifos`` to branch lists.

    A gather/reduce sink port (or broadcast/scatter source port) owns one
    :class:`LocalFifo` per member edge; branch lists are kept in
    ``Edge.branch_index`` order so assembly and slicing are deterministic.
    """
    normalized: Dict[str, List[LocalFifo]] = {}
    for name, value in fifos.items():
        branch = list(value) if isinstance(value, (list, tuple)) else [value]
        branch.sort(key=lambda f: f.edge.branch_index)
        normalized[name] = branch
    return normalized


class ComputationTask(_BatchedTaskMixin):
    """One dispatch of a dataflow computation actor on its PE.

    Inputs and outputs map port names to :class:`LocalFifo` objects (or
    branch-ordered lists of them, for ports shared by a collective
    connection): SPI insertion guarantees that computation actors only
    ever touch same-PE edges.  The port tables are flattened once at
    construction into ``(fifo, rate)`` wait chains, and an actor with a
    static integer cycle count skips the cycle-model dispatch — the
    guard check that runs on every park/wake round is two tuple walks.

    Classic execution runs one firing per dispatch.  Under a batched
    (blocked) schedule the dispatch covers the macro-pass burst: it
    consumes ``burst * rate`` tokens atomically, runs every sub-firing
    of the burst in logical firing order (bit-identical token streams),
    and its duration is the PE class's amortized dispatch cost.  The
    same task class fires computation actors under SPI and under the
    MPI baseline.
    """

    def __init__(
        self,
        actor: Actor,
        inputs: Dict[str, object],
        outputs: Dict[str, object],
        batch_counts: Optional[Sequence[int]] = None,
        pe_class: PEClass = GPP,
        pe: Optional[ProcessingElement] = None,
    ) -> None:
        self.actor = actor
        self.name = f"fire:{actor.name}"
        self.inputs = normalize_port_fifos(inputs)
        self.outputs = normalize_port_fifos(outputs)
        self.firing_index = 0
        self._init_batch(batch_counts, pe_class, pe)
        #: (port name, ((fifo, rate), ...) branches, connection) per
        #: connected input, in port order; branches in branch_index order
        self._needs = tuple(
            (
                port.name,
                tuple(
                    (fifo, fifo.edge.cons_rate)
                    for fifo in self.inputs[port.name]
                ),
                self.inputs[port.name][0].edge.connection,
            )
            for port in actor.input_ports
            if port.name in self.inputs
        )
        #: (port name, ((fifo, connection), ...)) per connected output, in
        #: port order
        self._emits = tuple(
            (
                port.name,
                tuple(
                    (fifo, fifo.edge.connection)
                    for fifo in self.outputs[port.name]
                ),
            )
            for port in actor.output_ports
            if port.name in self.outputs
        )
        cycles = actor.cycles
        self._static_cycles = (
            cycles if isinstance(cycles, int) and cycles >= 0 else None
        )
        self._staged = None

    @classmethod
    def in_graph(
        cls,
        actor: Actor,
        graph: DataflowGraph,
        fifos: Dict[int, LocalFifo],
        **kwargs,
    ) -> "ComputationTask":
        """The task of ``actor`` wired to its local fifos (by edge id).

        A port may own several member fifos (gather/reduce sinks,
        all-local broadcast sources), so ports map to fifo lists.
        """
        inputs: Dict[str, List[LocalFifo]] = {}
        for edge in graph.in_edges(actor):
            if edge.edge_id in fifos:
                inputs.setdefault(edge.sink.name, []).append(fifos[edge.edge_id])
        outputs: Dict[str, List[LocalFifo]] = {}
        for edge in graph.out_edges(actor):
            if edge.edge_id in fifos:
                outputs.setdefault(edge.source.name, []).append(
                    fifos[edge.edge_id]
                )
        return cls(actor, inputs, outputs, **kwargs)

    def ready(self, now: int) -> bool:
        burst = self.burst
        for _, branches, _ in self._needs:
            for fifo, rate in branches:
                if len(fifo.tokens) < burst * rate:
                    return False
        return True

    def _starved(self) -> List[tuple]:
        """``(fifo, tokens needed)`` for every input blocking the guard."""
        burst = self.burst
        return [
            (fifo, burst * rate)
            for _, branches, _ in self._needs
            for fifo, rate in branches
            if len(fifo.tokens) < burst * rate
        ]

    def blocked_reason(self, now: int) -> Optional[str]:
        """Why this firing cannot start (None when it can)."""
        starved = self._starved()
        if not starved:
            return None
        return "starved on " + ", ".join(
            f"{fifo.edge.name!r} (has {len(fifo.tokens)}, needs {need})"
            for fifo, need in starved
        )

    def wait_on(self, now: int) -> List[Waitset]:
        """Waitsets of the resources currently blocking the guard."""
        return [fifo.waitset for fifo, _ in self._starved()]

    def _pop_one(self) -> Dict[str, List]:
        consumed: Dict[str, List] = {}
        for port_name, branches, connection in self._needs:
            if len(branches) == 1 and (
                connection is None or connection.kind != "reduce"
            ):
                fifo, rate = branches[0]
                consumed[port_name] = fifo.pop(rate)
            else:
                consumed[port_name] = connection.assemble(
                    [fifo.pop(rate) for fifo, rate in branches]
                )
        return consumed

    def _cycles(self, firing_index: int, consumed: Dict[str, List]) -> int:
        if self._static_cycles is not None:
            return self._static_cycles
        return self.actor.execution_cycles(firing_index, consumed)

    def start(self, now: int) -> int:
        staged: List[Dict[str, List]] = []
        native: List[int] = []
        for i in range(self.burst):
            consumed = self._pop_one()
            staged.append(consumed)
            native.append(self._cycles(self.firing_index + i, consumed))
        self._staged = staged
        return self._charge(native)

    def _fire_one(self, consumed: Dict[str, List]) -> None:
        produced = self.actor.fire(self.firing_index, consumed)
        for port_name, branches in self._emits:
            values = produced[port_name]
            for fifo, connection in branches:
                if connection is None:
                    fifo.push(list(values))
                else:
                    fifo.push(connection.produced_tokens(fifo.edge, values))
        self.firing_index += 1

    def finish(self, now: int) -> None:
        staged, self._staged = self._staged, None
        for consumed in staged:
            self._fire_one(consumed)
        self._advance_pass()


class SpiInitTask:
    """SPI_init: one-time per-PE channel initialisation.

    Appears first in every PE's program; charges :data:`INIT_CYCLES`
    on its first execution and is free afterwards (the hardware module
    initialises pointers and link state once, then idles).
    """

    def __init__(self, pe_index: int) -> None:
        self.name = f"spi_init:PE{pe_index}"
        self._done = False

    def ready(self, now: int) -> bool:
        return True

    def start(self, now: int) -> int:
        if self._done:
            return 0
        return INIT_CYCLES

    def finish(self, now: int) -> None:
        self._done = True


class SpiSendTask(_BatchedTaskMixin):
    """SPI_send: forwards one message worth of tokens onto the transport.

    Guard: the producer-side FIFO holds a full message *and* the
    protocol allows sending (UBS credit).  The PE is occupied for the
    header-assembly/injection cycles (the actor's cycle model from
    :mod:`repro.spi.library`); the data transfer itself then proceeds
    concurrently with the PE, serialized by the transport (dedicated
    link, shared bus, or ordered-transaction slot).

    A batched dispatch forwards the whole burst: it needs ``burst``
    messages of tokens and ``burst`` send credits up front, then puts
    ``burst`` separate wire messages on the transport in firing order —
    message count and token streams stay identical to sequential
    execution; only the dispatch timing amortizes.
    """

    def __init__(
        self,
        actor: Actor,
        channel: SpiChannel,
        in_fifo: LocalFifo,
        transport,
        batch_counts: Optional[Sequence[int]] = None,
        pe_class: PEClass = GPP,
        pe: Optional[ProcessingElement] = None,
    ) -> None:
        self.actor = actor
        self.name = f"{actor.name}"
        self.channel = channel
        self.in_fifo = in_fifo
        self.transport = transport
        self.rate = actor.port("in").rate
        self.firing_index = 0
        self._init_batch(batch_counts, pe_class, pe)
        self._staged: Optional[List[List]] = None

    def ready(self, now: int) -> bool:
        burst = self.burst
        return len(
            self.in_fifo
        ) >= burst * self.rate and self.channel.flow.can_send_n(burst)

    def blocked_reason(self, now: int) -> Optional[str]:
        """Why this send cannot start (None when it can)."""
        burst = self.burst
        if len(self.in_fifo) < burst * self.rate:
            return (
                f"starved on {self.in_fifo.edge.name!r} "
                f"(has {len(self.in_fifo)}, needs {burst * self.rate})"
            )
        if not self.channel.flow.can_send_n(burst):
            return (
                f"waiting for ack credit on channel "
                f"{self.channel.edge.name!r}"
            )
        return None

    def wait_on(self, now: int) -> List[Waitset]:
        """Waitsets of the resources currently blocking the guard."""
        burst = self.burst
        waitsets = []
        if len(self.in_fifo) < burst * self.rate:
            waitsets.append(self.in_fifo.waitset)
        if not self.channel.flow.can_send_n(burst):
            waitsets.append(self.channel.space_waitset)
        return waitsets

    def start(self, now: int) -> int:
        burst = self.burst
        staged: List[List] = []
        native: List[int] = []
        for i in range(burst):
            tokens = self.in_fifo.pop(self.rate)
            self.channel.on_send()
            staged.append(tokens)
            native.append(
                self.actor.execution_cycles(
                    self.firing_index + i, {"in": tokens}
                )
            )
        self._staged = staged
        return self._charge(native)

    def finish(self, now: int) -> None:
        assert self._staged is not None
        staged = self._staged
        self._staged = None
        self._advance_pass()
        for tokens in staged:
            self.firing_index += 1
            self._launch(now, tokens)

    def _launch(self, now: int, tokens: List) -> None:
        nbytes = payload_nbytes(tokens, self.channel.token_bytes)
        message = make_data_message(
            edge_id=self.channel.edge.edge_id,
            payload=tokens,
            payload_bytes=nbytes,
            dynamic=self.channel.dynamic,
        )
        self.transport.send(
            channel_key=self.channel.edge.name,
            src_pe=self.channel.src_pe,
            dst_pe=self.channel.dst_pe,
            nbytes=message.wire_bytes,
            now=now,
            deliver=partial(self.channel.deliver, message),
        )


class SpiCollectiveSendTask(_BatchedTaskMixin):
    """One collective (broadcast/scatter) SPI_send serving k branches.

    The task fires **once** per producer firing: it pops one message
    worth of tokens, delivers local branches straight into their
    consumer FIFOs and hands every remote branch to the transport as one
    *collective* transfer — the transport shares the wire payload across
    branches bound for the same destination (point-to-point) or across
    the whole fan-out (bus), and accounts the avoided bytes in its
    ``wire_bytes_saved`` counter.  Flow control stays per-branch: the
    guard requires every remote branch's window to be open, and each
    branch channel records its own delivery/ack traffic, so BBS/UBS
    bounds and the resync solver keep working per channel instance.
    """

    def __init__(
        self,
        actor: Actor,
        branches: List[tuple],
        local_branches: List[LocalFifo],
        in_fifo: LocalFifo,
        transport,
        group_key: Optional[str] = None,
        batch_counts: Optional[Sequence[int]] = None,
        pe_class: PEClass = GPP,
        pe: Optional[ProcessingElement] = None,
    ) -> None:
        #: branches: [(member_edge, SpiChannel)] in branch order
        self.actor = actor
        self.name = f"{actor.name}"
        self.branches = sorted(
            branches, key=lambda item: item[0].branch_index
        )
        self.local_branches = sorted(
            local_branches, key=lambda fifo: fifo.edge.branch_index
        )
        self.in_fifo = in_fifo
        self.transport = transport
        self.rate = actor.port("in").rate
        self.group_key = group_key or actor.name
        connections = {
            id(edge.connection): edge.connection
            for edge, _ in self.branches
        }
        for fifo in self.local_branches:
            connections[id(fifo.edge.connection)] = fifo.edge.connection
        if len(connections) != 1:
            raise ValueError(
                f"collective send {actor.name}: branches belong to "
                f"{len(connections)} connections, expected exactly 1"
            )
        self.connection = next(iter(connections.values()))
        self.shared_payload = self.connection.kind == "broadcast"
        self.firing_index = 0
        self._init_batch(batch_counts, pe_class, pe)
        self._staged: Optional[List[List]] = None

    def ready(self, now: int) -> bool:
        burst = self.burst
        return len(self.in_fifo) >= burst * self.rate and all(
            channel.flow.can_send_n(burst) for _, channel in self.branches
        )

    def blocked_reason(self, now: int) -> Optional[str]:
        burst = self.burst
        if len(self.in_fifo) < burst * self.rate:
            return (
                f"starved on {self.in_fifo.edge.name!r} "
                f"(has {len(self.in_fifo)}, needs {burst * self.rate})"
            )
        closed = [
            channel.edge.name
            for _, channel in self.branches
            if not channel.flow.can_send_n(burst)
        ]
        if closed:
            return "waiting for ack credit on " + ", ".join(
                repr(name) for name in closed
            )
        return None

    def wait_on(self, now: int) -> List[Waitset]:
        burst = self.burst
        waitsets = []
        if len(self.in_fifo) < burst * self.rate:
            waitsets.append(self.in_fifo.waitset)
        waitsets.extend(
            channel.space_waitset
            for _, channel in self.branches
            if not channel.flow.can_send_n(burst)
        )
        return waitsets

    def start(self, now: int) -> int:
        burst = self.burst
        staged: List[List] = []
        native: List[int] = []
        for i in range(burst):
            tokens = self.in_fifo.pop(self.rate)
            for _, channel in self.branches:
                channel.on_send()
            staged.append(tokens)
            native.append(
                self.actor.execution_cycles(
                    self.firing_index + i, {"in": tokens}
                )
            )
        self._staged = staged
        return self._charge(native)

    def finish(self, now: int) -> None:
        assert self._staged is not None
        staged = self._staged
        self._staged = None
        self._advance_pass()
        for tokens in staged:
            self.firing_index += 1
            self._launch(now, tokens)

    def _launch(self, now: int, tokens: List) -> None:
        connection = self.connection
        for fifo in self.local_branches:
            fifo.push(connection.produced_tokens(fifo.edge, tokens))
        if not self.branches:
            return
        parts = []
        for edge, channel in self.branches:
            payload = connection.produced_tokens(edge, tokens)
            nbytes = payload_nbytes(payload, channel.token_bytes)
            message = make_data_message(
                edge_id=channel.edge.edge_id,
                payload=payload,
                payload_bytes=nbytes,
                dynamic=channel.dynamic,
            )
            parts.append(
                (
                    channel.edge.name,
                    channel.dst_pe,
                    message.wire_bytes,
                    partial(channel.deliver, message),
                )
            )
        self.transport.send_collective(
            group_key=self.group_key,
            src_pe=self.branches[0][1].src_pe,
            parts=parts,
            now=now,
            shared_payload=self.shared_payload,
        )


class SyncTokenPool:
    """Run-time state of one *added* resynchronization edge.

    Resynchronization may add new synchronization edges ``(u, v, d)``
    whose job is to make several acknowledgment edges redundant (paper
    §4.1: "the number of additional synchronizations that become
    redundant exceeds the number of new synchronizations that are
    added").  At run time the edge is a counting semaphore shipped by
    zero-payload messages: ``u``'s completion number ``k`` deposits a
    token (after the link latency), ``v``'s firing number ``k`` consumes
    one, and ``d`` tokens are pre-deposited — exactly eq. 3's
    ``start(v, k) >= end(u, k - d)``.
    """

    def __init__(self, name: str, initial: int) -> None:
        if initial < 0:
            raise ValueError("initial sync tokens must be >= 0")
        self.name = name
        self.tokens = initial
        self.messages_sent = 0
        #: most tokens ever held at once (observability)
        self.high_water = initial
        #: failed availability checks — the consumer retried on empty
        self.empty_stalls = 0
        #: woken on every deposit (unblocks a guarded consumer)
        self.waitset = Waitset(f"pool:{name}")

    def available(self) -> bool:
        if self.tokens > 0:
            return True
        self.empty_stalls += 1
        return False

    def consume(self) -> None:
        if self.tokens <= 0:
            raise RuntimeError(
                f"sync pool {self.name!r}: consumed with zero tokens"
            )
        self.tokens -= 1

    def deposit(self) -> None:
        self.tokens += 1
        if self.tokens > self.high_water:
            self.high_water = self.tokens
        self.waitset.wake()


class SyncedTask:
    """Decorator adding resynchronization guards/notifications to a task.

    ``guards`` are pools this task must consume from before firing;
    ``notify`` lists ``(pool, link supplier)`` pairs it deposits into on
    completion (via a sync message on the interconnect).  For multirate
    tasks, ``phase``/``period`` select which invocations of the shared
    underlying task participate (sync edges constrain one invocation per
    iteration).
    """

    def __init__(
        self,
        inner,
        sim: Simulator,
        guards: Optional[List["SyncTokenPool"]] = None,
        notifications: Optional[List[tuple]] = None,
        phase: int = 0,
        period: int = 1,
        observer=None,
    ) -> None:
        if period < 1 or not 0 <= phase < period:
            raise ValueError("need 0 <= phase < period")
        self.inner = inner
        self.sim = sim
        self.guards = list(guards or [])
        #: list of (pool, link, wire_bytes) triples
        self.notifications = list(notifications or [])
        self.phase = phase
        self.period = period
        self.observer = observer
        self._count = 0

    @property
    def name(self) -> str:
        return f"sync:{self.inner.name}"

    def _participates(self) -> bool:
        return self._count % self.period == self.phase

    def ready(self, now: int) -> bool:
        if self._participates() and not all(
            pool.available() for pool in self.guards
        ):
            return False
        return self.inner.ready(now)

    def blocked_reason(self, now: int) -> Optional[str]:
        """Why this task cannot start (None when it can).

        Inspects ``pool.tokens`` directly rather than calling
        :meth:`SyncTokenPool.available`, which counts stalls for the
        observability layer — diagnosis must not perturb metrics.
        """
        if self._participates():
            empty = [pool.name for pool in self.guards if pool.tokens <= 0]
            if empty:
                return "waiting for sync tokens on " + ", ".join(
                    repr(name) for name in empty
                )
        inner_reason = getattr(self.inner, "blocked_reason", None)
        if inner_reason is not None:
            return inner_reason(now)
        return None

    def wait_on(self, now: int) -> List[Waitset]:
        """Waitsets of the resources currently blocking the guard.

        Like :meth:`blocked_reason`, inspects ``pool.tokens`` directly
        instead of calling :meth:`SyncTokenPool.available` so diagnosis
        does not perturb the stall metrics.
        """
        waitsets = []
        if self._participates():
            waitsets.extend(
                pool.waitset for pool in self.guards if pool.tokens <= 0
            )
        # the inner hook names only currently-blocking resources, so it
        # contributes nothing when the inner guard holds
        waitsets.extend(self.inner.wait_on(now))
        return waitsets

    def start(self, now: int):
        if self._participates():
            for pool in self.guards:
                pool.consume()
        return self.inner.start(now)

    def finish(self, now: int) -> None:
        self.inner.finish(now)
        if self._participates():
            for pool, link, wire_bytes in self.notifications:
                start, arrival = link.reserve(now, wire_bytes)
                pool.messages_sent += 1
                if self.observer is not None:
                    self.observer.message(
                        channel=pool.name,
                        kind="resync",
                        src_pe=link.src_pe,
                        dst_pe=link.dst_pe,
                        nbytes=wire_bytes,
                        requested=now,
                        started=start,
                        arrived=arrival,
                    )
                self.sim.schedule_delivery(
                    arrival, pool.deposit, ("resync", pool.name)
                )
        self._count += 1


class SpiReceiveTask(_BatchedTaskMixin):
    """SPI_receive: decodes one arrived message into the consumer FIFO.

    For UBS channels with acknowledgments enabled, completion also
    launches the ack message on the reverse link ("implemented as
    separate messages", paper §4.1); resynchronization may have disabled
    it (``channel.flow.uses_credits`` false), in which case the message
    never exists — that is the optimization the ablation bench measures.

    A batched dispatch waits for the whole burst of messages, then
    decodes them in arrival order and acknowledges each one separately —
    message and ack counts match sequential execution exactly.
    """

    def __init__(
        self,
        actor: Actor,
        channel: SpiChannel,
        out_fifo: LocalFifo,
        sim: Simulator,
        interconnect: Interconnect,
        observer=None,
        batch_counts: Optional[Sequence[int]] = None,
        pe_class: PEClass = GPP,
        pe: Optional[ProcessingElement] = None,
    ) -> None:
        self.actor = actor
        self.name = f"{actor.name}"
        self.channel = channel
        self.out_fifo = out_fifo
        self.sim = sim
        self.interconnect = interconnect
        self.observer = observer
        self.firing_index = 0
        self._init_batch(batch_counts, pe_class, pe)

    def ready(self, now: int) -> bool:
        return self.channel.receive_ready_n(self.burst)

    def blocked_reason(self, now: int) -> Optional[str]:
        """Why this receive cannot start (None when it can)."""
        burst = self.burst
        if not self.channel.receive_ready_n(burst):
            need = f" {burst} messages" if burst > 1 else " a message"
            return (
                f"waiting for{need} on channel "
                f"{self.channel.edge.name!r}"
            )
        return None

    def wait_on(self, now: int) -> List[Waitset]:
        """Waitsets of the resources currently blocking the guard."""
        return [self.channel.data_waitset]

    def start(self, now: int) -> int:
        # The messages are consumed at completion; duration models header
        # decode plus payload copy into the consumer-side buffer.
        burst = self.burst
        native = [
            self.actor.execution_cycles(self.firing_index + i, {})
            for i in range(burst)
        ]
        return self._charge(native)

    def finish(self, now: int) -> None:
        burst = self.burst
        self._advance_pass()
        for _ in range(burst):
            self._accept_one(now)

    def _accept_one(self, now: int) -> None:
        message = self.channel.accept()
        self.firing_index += 1
        if message.is_dynamic and message.size_field != len(message.payload):
            raise RuntimeError(
                f"channel {self.channel.edge.name}: dynamic header size "
                f"field {message.size_field} does not match payload "
                f"length {len(message.payload)}"
            )
        self.out_fifo.push(list(message.payload))
        if self.channel.flow.uses_credits:
            ack = make_ack_message(self.channel.edge.edge_id)
            link = self.interconnect.link(
                self.channel.dst_pe, self.channel.src_pe
            )
            start, arrival = link.reserve(now, ack.wire_bytes)
            if self.observer is not None:
                self.observer.message(
                    channel=self.channel.edge.name,
                    kind="ack",
                    src_pe=self.channel.dst_pe,
                    dst_pe=self.channel.src_pe,
                    nbytes=ack.wire_bytes,
                    requested=now,
                    started=start,
                    arrived=arrival,
                )
            self.sim.schedule_delivery(
                arrival,
                partial(self.channel.deliver, ack),
                ("ack", self.channel.edge.name),
            )
