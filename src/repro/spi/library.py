"""The SPI library: communication-actor insertion and protocol selection.

"For a given dataflow graph, SPI inserts a pair of special actors
(called SPI actors) for sending and receiving associated IPC data
whenever an edge exists between actors that are assigned to two
different processors" (paper §2).  This module performs that insertion
and the compile-time per-channel decisions:

* which SPI component handles the edge — **SPI_static** for edges whose
  traffic is fixed before run time, **SPI_dynamic** for VTS-converted
  edges (variable packed-token sizes);
* which buffer protocol the channel uses — **BBS** when the
  synchronization structure bounds the buffer (the eq. 2 feedback
  bound), **UBS** with an acknowledgment window otherwise.

The insertion is a pure graph transformation; the run-time behaviour of
the inserted actors lives in :mod:`repro.spi.actors`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dataflow.graph import Connection, DataflowGraph, Edge, GraphError
from repro.dataflow.vts import VtsConversion
from repro.mapping.partition import Partition

__all__ = [
    "SpiActorNames",
    "CollectiveSendGroup",
    "SpiInsertion",
    "insert_spi_actors",
    "SEND_PREFIX",
    "RECV_PREFIX",
]

SEND_PREFIX = "spi_send"
RECV_PREFIX = "spi_recv"

#: cycles one SPI_send / SPI_receive firing spends on header handling
#: (assemble or decode one or two header words in hardware)
SEND_OVERHEAD_CYCLES = 2
RECV_OVERHEAD_CYCLES = 2
#: extra cycle for the size field of a dynamic header
DYNAMIC_HEADER_EXTRA_CYCLES = 1


@dataclass(frozen=True)
class SpiActorNames:
    """Names of the actor pair inserted for one interprocessor edge."""

    send: str
    recv: str


@dataclass(frozen=True)
class CollectiveSendGroup:
    """One producer-side collective (broadcast/scatter) send actor.

    The send actor fires **once** per producer firing and serves every
    branch of the connection: remote branches each own a member IPC edge
    (and a per-branch channel keyed by the original member edge name),
    local branches are delivered directly into their consumer FIFOs.
    The runtime turns this into an ``SpiCollectiveSendTask`` that makes
    one shared-payload transport transfer per destination (or one bus
    transaction) instead of one send firing per branch.
    """

    name: str                 #: original connection name
    kind: str                 #: "broadcast" | "scatter"
    send_actor: str
    #: original member edge name per branch (branch order)
    origin_edges: Tuple[str, ...]
    #: origin edge names of the remote (channel-owning) branches
    remote_origins: Tuple[str, ...]


@dataclass
class SpiInsertion:
    """Result of inserting SPI actors into an application graph.

    Attributes
    ----------
    graph:
        The transformed graph: each cross-PE edge ``x -> y`` became
        ``x -> SPI_send -> SPI_recv -> y``; the middle edge is the IPC
        edge the channel will carry.
    partition:
        Extended partition covering the SPI actors (each inherits the
        PE of the dataflow actor it serves).
    channels:
        ``original edge name -> (ipc edge, SpiActorNames, dynamic?)``.
    """

    graph: DataflowGraph
    partition: Partition
    channels: Dict[str, Tuple[Edge, SpiActorNames, bool]] = field(
        default_factory=dict
    )
    #: send-actor name -> producer-side collective group (broadcast/scatter
    #: connections with at least one cross-PE branch)
    collective_sends: Dict[str, CollectiveSendGroup] = field(
        default_factory=dict
    )

    def spi_actor_names(self) -> List[str]:
        names: List[str] = []
        for _, pair, _ in self.channels.values():
            names.extend((pair.send, pair.recv))
        return names

    def is_spi_actor(self, name: str) -> bool:
        return name.startswith((SEND_PREFIX, RECV_PREFIX))


def _send_cycles(payload_words: int, dynamic: bool) -> int:
    cycles = SEND_OVERHEAD_CYCLES + payload_words
    if dynamic:
        cycles += DYNAMIC_HEADER_EXTRA_CYCLES
    return cycles


def _recv_cycles(payload_words: int, dynamic: bool) -> int:
    cycles = RECV_OVERHEAD_CYCLES + payload_words
    if dynamic:
        cycles += DYNAMIC_HEADER_EXTRA_CYCLES
    return cycles


def insert_spi_actors(
    graph: DataflowGraph,
    partition: Partition,
    conversion: Optional[VtsConversion] = None,
    word_bytes: int = 4,
) -> SpiInsertion:
    """Insert an SPI_send/SPI_receive pair on every interprocessor edge.

    ``graph`` must be static (VTS-converted when the application had
    dynamic edges; pass the :class:`VtsConversion` so the inserted
    channels know which edges use the SPI_dynamic component).

    Rates of the inserted actors preserve message granularity: SPI_send
    fires once per producer firing (consuming and forwarding
    ``prod(e)`` tokens as one message) and SPI_receive fires once per
    message; the original edge delay moves to the receiver side
    (``SPI_recv -> y``), which is where initial tokens physically live
    in a distributed-memory implementation.
    """
    if graph.is_dynamic:
        raise GraphError(
            "insert_spi_actors needs a static graph; run vts_convert first"
        )
    converted_names = set(conversion.edge_info) if conversion is not None else set()

    new_graph = DataflowGraph(f"{graph.name}_spi")
    for actor in graph.actors:
        clone = new_graph.actor(
            actor.name,
            kernel=actor.kernel,
            cycles=actor.cycles,
            params=dict(actor.params),
        )
        for port in actor.ports:
            new_port = clone.add_port(
                type(port)(port.name, port.direction, port.rate, port.token_bytes)
            )
            if graph.is_interface_port(port):
                new_graph.mark_interface(new_port)

    assignment = dict(partition.assignment)
    channels: Dict[str, Tuple[Edge, SpiActorNames, bool]] = {}
    collective_sends: Dict[str, CollectiveSendGroup] = {}
    collective_edge_ids = {
        id(e)
        for conn in graph.connections
        if conn.is_collective
        for e in conn.edges
    }

    for index, edge in enumerate(graph.edges):
        if id(edge) in collective_edge_ids:
            continue
        src_pe = partition.assignment[edge.src_actor.name]
        dst_pe = partition.assignment[edge.snk_actor.name]
        new_src = new_graph.get_actor(edge.src_actor.name)
        new_snk = new_graph.get_actor(edge.snk_actor.name)
        if src_pe == dst_pe:
            local = new_graph.connect(
                (new_src, edge.source.name),
                (new_snk, edge.sink.name),
                delay=edge.delay,
                name=edge.name,
            )
            if edge.initial_tokens is not None:
                local.set_initial_tokens(edge.initial_tokens)
            continue

        rate = edge.source.rate
        cons = edge.sink.rate
        tok_bytes = edge.token_bytes
        dynamic = edge.name in converted_names
        payload_words = max(1, (rate * tok_bytes + word_bytes - 1) // word_bytes)

        send_name = f"{SEND_PREFIX}_{index}_{edge.src_actor.name}"
        recv_name = f"{RECV_PREFIX}_{index}_{edge.snk_actor.name}"
        send_actor = new_graph.actor(
            send_name,
            cycles=_send_cycles(payload_words, dynamic),
            params={"spi_role": "send", "origin_edge": edge.name,
                    "dynamic": dynamic},
        )
        recv_actor = new_graph.actor(
            recv_name,
            cycles=_recv_cycles(payload_words, dynamic),
            params={"spi_role": "recv", "origin_edge": edge.name,
                    "dynamic": dynamic},
        )
        send_actor.add_input("in", rate=rate, token_bytes=tok_bytes)
        send_actor.add_output("out", rate=rate, token_bytes=tok_bytes)
        recv_actor.add_input("in", rate=rate, token_bytes=tok_bytes)
        recv_actor.add_output("out", rate=rate, token_bytes=tok_bytes)

        new_graph.connect(
            (new_src, edge.source.name), (send_actor, "in"),
            name=f"{edge.name}.to_send",
        )
        ipc_edge = new_graph.connect(
            (send_actor, "out"), (recv_actor, "in"),
            name=f"{edge.name}.ipc",
        )
        delivered = new_graph.connect(
            (recv_actor, "out"), (new_snk, edge.sink.name),
            delay=edge.delay,
            name=f"{edge.name}.to_consumer",
        )
        if edge.initial_tokens is not None:
            delivered.set_initial_tokens(edge.initial_tokens)

        assignment[send_name] = src_pe
        assignment[recv_name] = dst_pe
        channels[edge.name] = (
            ipc_edge,
            SpiActorNames(send=send_name, recv=recv_name),
            dynamic,
        )

    for cidx, conn in enumerate(graph.connections):
        if not conn.is_collective:
            continue
        _insert_collective(
            new_graph,
            conn,
            cidx,
            partition,
            assignment,
            channels,
            collective_sends,
            word_bytes,
        )

    new_graph.validate()
    new_partition = Partition(new_graph, partition.n_pes, assignment)
    return SpiInsertion(
        graph=new_graph,
        partition=new_partition,
        channels=channels,
        collective_sends=collective_sends,
    )


def _clone_port_ref(new_graph: DataflowGraph, port) -> tuple:
    actor = new_graph.get_actor(port.actor.name)
    return (actor, port.name)


def _insert_collective(
    new_graph: DataflowGraph,
    conn: Connection,
    cidx: int,
    partition: Partition,
    assignment: Dict[str, int],
    channels: Dict[str, Tuple[Edge, SpiActorNames, bool]],
    collective_sends: Dict[str, CollectiveSendGroup],
    word_bytes: int,
) -> None:
    """Lower one collective connection into the SPI-inserted graph.

    Producer-side collectives (broadcast/scatter) get **one** send actor
    for the whole connection; each cross-PE branch gets its own receive
    actor and channel, local branches are fed directly by the send actor.
    Consumer-side collectives (gather/reduce) carry genuinely distinct
    per-branch payloads, so each cross-PE branch gets an ordinary
    send/receive pair and the member edges are regrouped into a
    gather/reduce connection at the consumer port (the consumer's
    firing task performs the concatenation/combination).
    """
    pe_of = partition.assignment
    branch_delays = [e.delay for e in conn.edges]
    branch_initial = [e.initial_tokens for e in conn.edges]

    if conn.kind in (Connection.BROADCAST, Connection.SCATTER):
        producer_port = conn.edges[0].source
        src_pe = pe_of[producer_port.actor.name]
        remote = [
            e for e in conn.edges if pe_of[e.snk_actor.name] != src_pe
        ]
        if not remote:
            # every consumer is local: replicate the connection as-is
            rebuilt = _rebuild_collective(new_graph, conn, branch_delays)
            for new_edge, initial in zip(rebuilt.edges, branch_initial):
                if initial is not None:
                    new_edge.set_initial_tokens(initial)
            return

        rate = producer_port.rate
        tok_bytes = producer_port.token_bytes
        payload_words = max(
            1, (rate * tok_bytes + word_bytes - 1) // word_bytes
        )
        send_name = f"{SEND_PREFIX}_c{cidx}_{producer_port.actor.name}"
        send_actor = new_graph.actor(
            send_name,
            cycles=_send_cycles(payload_words, False),
            params={
                "spi_role": "send",
                "origin_edge": conn.name,
                "dynamic": False,
                "collective": conn.kind,
            },
        )
        send_actor.add_input("in", rate=rate, token_bytes=tok_bytes)
        send_actor.add_output("out", rate=rate, token_bytes=tok_bytes)
        assignment[send_name] = src_pe
        new_graph.connect(
            _clone_port_ref(new_graph, producer_port),
            (send_actor, "in"),
            name=f"{conn.name}.to_send",
        )

        targets = []
        fan_delays = []
        recv_names: Dict[int, str] = {}
        for edge in conn.edges:
            dst_pe = pe_of[edge.snk_actor.name]
            branch_rate = edge.prod_rate
            branch_words = max(
                1, (branch_rate * tok_bytes + word_bytes - 1) // word_bytes
            )
            if dst_pe == src_pe:
                targets.append(_clone_port_ref(new_graph, edge.sink))
                fan_delays.append(edge.delay)
                continue
            recv_name = (
                f"{RECV_PREFIX}_c{cidx}_b{edge.branch_index}_"
                f"{edge.snk_actor.name}"
            )
            recv_actor = new_graph.actor(
                recv_name,
                cycles=_recv_cycles(branch_words, False),
                params={
                    "spi_role": "recv",
                    "origin_edge": edge.name,
                    "dynamic": False,
                    "collective": conn.kind,
                },
            )
            recv_actor.add_input(
                "in", rate=branch_rate, token_bytes=tok_bytes
            )
            recv_actor.add_output(
                "out", rate=branch_rate, token_bytes=tok_bytes
            )
            assignment[recv_name] = dst_pe
            recv_names[edge.branch_index] = recv_name
            targets.append((recv_actor, "in"))
            fan_delays.append(0)
            delivered = new_graph.connect(
                (recv_actor, "out"),
                _clone_port_ref(new_graph, edge.sink),
                delay=edge.delay,
                name=f"{edge.name}.to_consumer",
            )
            if edge.initial_tokens is not None:
                delivered.set_initial_tokens(edge.initial_tokens)

        if conn.kind == Connection.BROADCAST:
            fanout = new_graph.add_broadcast(
                (send_actor, "out"),
                targets,
                delays=fan_delays,
                name=f"{conn.name}.fanout",
            )
        else:
            fanout = new_graph.add_scatter(
                (send_actor, "out"),
                targets,
                chunks=list(conn.chunks) if conn.chunks else None,
                delays=fan_delays,
                name=f"{conn.name}.fanout",
            )
        remote_origins = []
        for member, edge in zip(fanout.edges, conn.edges):
            dst_pe = pe_of[edge.snk_actor.name]
            if dst_pe == src_pe:
                member.name = edge.name
                if edge.initial_tokens is not None:
                    member.set_initial_tokens(edge.initial_tokens)
                continue
            member.name = f"{edge.name}.ipc"
            channels[edge.name] = (
                member,
                SpiActorNames(
                    send=send_name, recv=recv_names[edge.branch_index]
                ),
                False,
            )
            remote_origins.append(edge.name)
        collective_sends[send_name] = CollectiveSendGroup(
            name=conn.name,
            kind=conn.kind,
            send_actor=send_name,
            origin_edges=tuple(e.name for e in conn.edges),
            remote_origins=tuple(remote_origins),
        )
        return

    # gather / reduce: per-branch point-to-point chains regrouped into a
    # consumer-side collective connection
    consumer_port = conn.edges[0].sink
    dst_pe = pe_of[consumer_port.actor.name]
    tok_bytes = consumer_port.token_bytes
    sources = []
    source_delays = []
    renames: Dict[int, str] = {}
    for edge in conn.edges:
        src_pe = pe_of[edge.src_actor.name]
        if src_pe == dst_pe:
            sources.append(_clone_port_ref(new_graph, edge.source))
            source_delays.append(edge.delay)
            renames[edge.branch_index] = edge.name
            continue
        rate = edge.source.rate
        branch_words = max(
            1, (rate * tok_bytes + word_bytes - 1) // word_bytes
        )
        send_name = (
            f"{SEND_PREFIX}_c{cidx}_b{edge.branch_index}_"
            f"{edge.src_actor.name}"
        )
        recv_name = (
            f"{RECV_PREFIX}_c{cidx}_b{edge.branch_index}_"
            f"{edge.snk_actor.name}"
        )
        send_actor = new_graph.actor(
            send_name,
            cycles=_send_cycles(branch_words, False),
            params={
                "spi_role": "send",
                "origin_edge": edge.name,
                "dynamic": False,
                "collective": conn.kind,
            },
        )
        recv_actor = new_graph.actor(
            recv_name,
            cycles=_recv_cycles(branch_words, False),
            params={
                "spi_role": "recv",
                "origin_edge": edge.name,
                "dynamic": False,
                "collective": conn.kind,
            },
        )
        send_actor.add_input("in", rate=rate, token_bytes=tok_bytes)
        send_actor.add_output("out", rate=rate, token_bytes=tok_bytes)
        recv_actor.add_input("in", rate=rate, token_bytes=tok_bytes)
        recv_actor.add_output("out", rate=rate, token_bytes=tok_bytes)
        assignment[send_name] = src_pe
        assignment[recv_name] = dst_pe
        new_graph.connect(
            _clone_port_ref(new_graph, edge.source),
            (send_actor, "in"),
            name=f"{edge.name}.to_send",
        )
        ipc_edge = new_graph.connect(
            (send_actor, "out"),
            (recv_actor, "in"),
            name=f"{edge.name}.ipc",
        )
        channels[edge.name] = (
            ipc_edge,
            SpiActorNames(send=send_name, recv=recv_name),
            False,
        )
        sources.append((recv_actor, "out"))
        source_delays.append(edge.delay)
        renames[edge.branch_index] = f"{edge.name}.to_consumer"

    sink_ref = _clone_port_ref(new_graph, consumer_port)
    if conn.kind == Connection.GATHER:
        regrouped = new_graph.add_gather(
            sources,
            sink_ref,
            chunks=list(conn.chunks) if conn.chunks else None,
            delays=source_delays,
            name=f"{conn.name}.assemble",
        )
    else:
        regrouped = new_graph.add_reduce(
            sources,
            sink_ref,
            combine=conn.combine,
            delays=source_delays,
            name=f"{conn.name}.assemble",
        )
    for member, edge, initial in zip(
        regrouped.edges, conn.edges, branch_initial
    ):
        member.name = renames[edge.branch_index]
        if initial is not None:
            member.set_initial_tokens(initial)


def _rebuild_collective(
    new_graph: DataflowGraph, conn: Connection, delays
) -> Connection:
    """Replicate an all-local collective connection onto cloned ports."""
    if conn.kind == Connection.BROADCAST:
        return new_graph.add_broadcast(
            _clone_port_ref(new_graph, conn.edges[0].source),
            [_clone_port_ref(new_graph, e.sink) for e in conn.edges],
            delays=delays,
            name=conn.name,
        )
    if conn.kind == Connection.SCATTER:
        return new_graph.add_scatter(
            _clone_port_ref(new_graph, conn.edges[0].source),
            [_clone_port_ref(new_graph, e.sink) for e in conn.edges],
            chunks=list(conn.chunks) if conn.chunks else None,
            delays=delays,
            name=conn.name,
        )
    if conn.kind == Connection.GATHER:
        return new_graph.add_gather(
            [_clone_port_ref(new_graph, e.source) for e in conn.edges],
            _clone_port_ref(new_graph, conn.edges[0].sink),
            chunks=list(conn.chunks) if conn.chunks else None,
            delays=delays,
            name=conn.name,
        )
    return new_graph.add_reduce(
        [_clone_port_ref(new_graph, e.source) for e in conn.edges],
        _clone_port_ref(new_graph, conn.edges[0].sink),
        combine=conn.combine,
        delays=delays,
        name=conn.name,
    )
