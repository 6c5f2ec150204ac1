"""Synchronous dataflow (SDF) analysis.

Implements the classic Lee/Messerschmitt machinery the paper relies on:

* **repetitions vector** ``q`` — the smallest positive integer solution of
  the balance equations ``q[src] * prod(e) == q[snk] * cons(e)`` for every
  edge ``e`` (computed with exact rational arithmetic over a spanning
  forest, then verified on every edge);
* **consistency** — a graph is (sample-rate) consistent iff such a ``q``
  exists;
* **PASS construction** — a periodic admissible sequential schedule is
  built by demand-free symbolic execution; failure to complete one
  iteration proves deadlock;
* **PASS execution** — :class:`PassProgram` fires a PASS over real token
  FIFOs with no timing model (the conformance reference interpreter and
  the completion of steady-state-warped runs).

Dynamic graphs must be VTS-converted first (:func:`repro.dataflow.vts
.vts_convert`); all functions below reject dynamic ports explicitly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Collection, Deque, Dict, List, Optional, Sequence, Tuple

from repro.dataflow.graph import Actor, DataflowGraph, Edge, GraphError

__all__ = [
    "SdfError",
    "InconsistentGraphError",
    "DeadlockError",
    "PassStarvedError",
    "PassProgram",
    "repetitions_vector",
    "is_consistent",
    "build_pass",
    "total_firings_per_iteration",
]


class SdfError(GraphError):
    """Base class for SDF analysis failures."""


class InconsistentGraphError(SdfError):
    """The balance equations admit no positive solution."""


class DeadlockError(SdfError):
    """The graph is consistent but cannot complete a full iteration."""


class PassStarvedError(SdfError):
    """A PASS firing found fewer tokens on an input edge than it consumes."""


def _require_static(graph: DataflowGraph) -> None:
    dynamic = [e.name for e in graph.dynamic_edges]
    if dynamic:
        raise SdfError(
            f"graph {graph.name!r} has dynamic edges {dynamic}; apply VTS "
            f"conversion (repro.dataflow.vts.vts_convert) before SDF analysis"
        )


def repetitions_vector(graph: DataflowGraph) -> Dict[str, int]:
    """Smallest positive integer repetitions vector of an SDF graph.

    Returns a mapping ``actor name -> repetition count``.  Raises
    :class:`InconsistentGraphError` when the balance equations have no
    positive solution, and :class:`SdfError` on dynamic or empty graphs.

    The computation propagates exact :class:`fractions.Fraction` ratios
    over an (undirected) spanning forest of the graph, normalises each
    connected component to the least common multiple of the denominators,
    and finally verifies the balance equation on *every* edge — including
    the non-tree edges, which is where inconsistency shows up.
    """
    _require_static(graph)
    if not graph.actors:
        raise SdfError("cannot compute repetitions vector of an empty graph")

    ratio: Dict[str, Fraction] = {}
    adjacency: Dict[str, List[Tuple[str, Fraction]]] = {
        a.name: [] for a in graph.actors
    }
    for edge in graph.edges:
        if edge.is_selfloop:
            if edge.prod_rate != edge.cons_rate:
                raise InconsistentGraphError(
                    f"self-loop {edge.name}: production rate "
                    f"{edge.prod_rate} != consumption rate {edge.cons_rate}"
                )
            continue
        # q[snk] / q[src] == prod / cons
        factor = Fraction(edge.prod_rate, edge.cons_rate)
        adjacency[edge.src_actor.name].append((edge.snk_actor.name, factor))
        adjacency[edge.snk_actor.name].append((edge.src_actor.name, 1 / factor))

    reps: Dict[str, int] = {}
    for root in graph.actors:
        if root.name in ratio:
            continue
        component = [root.name]
        ratio[root.name] = Fraction(1)
        stack = [root.name]
        while stack:
            node = stack.pop()
            for neighbour, factor in adjacency[node]:
                candidate = ratio[node] * factor
                if neighbour not in ratio:
                    ratio[neighbour] = candidate
                    component.append(neighbour)
                    stack.append(neighbour)
        # Normalise this connected component to the smallest positive
        # integer vector (components scale independently).
        lcm_den = 1
        for name in component:
            den = ratio[name].denominator
            lcm_den = lcm_den * den // math.gcd(lcm_den, den)
        gcd_num = 0
        for name in component:
            gcd_num = math.gcd(gcd_num, (ratio[name] * lcm_den).numerator)
        for name in component:
            reps[name] = int(ratio[name] * lcm_den / gcd_num)

    for edge in graph.edges:
        produced = reps[edge.src_actor.name] * edge.prod_rate
        consumed = reps[edge.snk_actor.name] * edge.cons_rate
        if produced != consumed:
            raise InconsistentGraphError(
                f"graph {graph.name!r} is sample-rate inconsistent at edge "
                f"{edge.name}: {reps[edge.src_actor.name]} x "
                f"{edge.prod_rate} != {reps[edge.snk_actor.name]} x "
                f"{edge.cons_rate}"
            )
    return reps


def is_consistent(graph: DataflowGraph) -> bool:
    """True iff the balance equations admit a positive solution."""
    try:
        repetitions_vector(graph)
    except InconsistentGraphError:
        return False
    return True


def total_firings_per_iteration(graph: DataflowGraph) -> int:
    """Sum of the repetitions vector — total firings in one graph iteration."""
    return sum(repetitions_vector(graph).values())


def build_pass(
    graph: DataflowGraph,
    repetitions: Optional[Dict[str, int]] = None,
) -> List[Actor]:
    """Construct a periodic admissible sequential schedule (PASS).

    Symbolically executes one iteration of the graph: an actor is
    *fireable* when every input edge holds at least ``cons`` tokens, and
    fireable actors with remaining repetitions are fired in a fixed
    (name-sorted) priority order, which makes the result deterministic.

    Returns the firing sequence (one :class:`Actor` entry per firing).
    Raises :class:`DeadlockError` if the iteration cannot complete — by
    the classic SDF theorem this proves that *no* admissible schedule
    exists for the given delays.
    """
    _require_static(graph)
    reps = dict(repetitions) if repetitions is not None else repetitions_vector(graph)
    tokens: Dict[int, int] = {e.edge_id: e.delay for e in graph.edges}
    remaining = dict(reps)
    schedule: List[Actor] = []
    actors = sorted(graph.actors, key=lambda a: a.name)

    def fireable(actor: Actor) -> bool:
        if remaining[actor.name] == 0:
            return False
        return all(
            tokens[e.edge_id] >= e.cons_rate for e in graph.in_edges(actor)
        )

    total = sum(reps.values())
    while len(schedule) < total:
        progressed = False
        for actor in actors:
            if not fireable(actor):
                continue
            for edge in graph.in_edges(actor):
                tokens[edge.edge_id] -= edge.cons_rate
            for edge in graph.out_edges(actor):
                tokens[edge.edge_id] += edge.prod_rate
            remaining[actor.name] -= 1
            schedule.append(actor)
            progressed = True
        if not progressed:
            starved = sorted(
                name for name, count in remaining.items() if count > 0
            )
            raise DeadlockError(
                f"graph {graph.name!r} deadlocks: actors {starved} cannot "
                f"complete their repetitions (insufficient initial delays "
                f"on some cycle)"
            )
    # One full iteration must restore the initial token state.
    for edge in graph.edges:
        if tokens[edge.edge_id] != edge.delay:
            raise SdfError(
                f"internal error: edge {edge.name} token count "
                f"{tokens[edge.edge_id]} != initial delay {edge.delay} "
                f"after one iteration"
            )
    return schedule


class PassProgram:
    """A PASS with its edge wiring resolved, ready to fire over FIFOs.

    ``schedule`` is the PASS firing sequence (default
    :func:`build_pass`).  Per actor, the input edges are grouped by
    sink port in ``branch_index`` order: a port fed by several member
    edges (gather/reduce), or by a reduce connection, is assembled by
    its :class:`~repro.dataflow.graph.Connection`; every output edge
    receives ``connection.produced_tokens`` of its port's tokens, so a
    broadcast copies and a scatter slices.
    """

    def __init__(
        self,
        graph: DataflowGraph,
        schedule: Optional[Sequence[Actor]] = None,
    ) -> None:
        self.graph = graph
        self.schedule: List[Actor] = (
            list(schedule) if schedule is not None else build_pass(graph)
        )
        ins: Dict[str, Dict[str, List[Edge]]] = {a.name: {} for a in graph.actors}
        outs: Dict[str, List[Edge]] = {a.name: [] for a in graph.actors}
        for edge in graph.edges:
            ins[edge.snk_actor.name].setdefault(edge.sink.name, []).append(edge)
            outs[edge.src_actor.name].append(edge)
        #: actor name -> (actor, ((port, member edges, assembling
        #: connection or None), ...), out edges)
        self._wiring: Dict[str, tuple] = {}
        for actor in graph.actors:
            ports = []
            for port, edges in ins[actor.name].items():
                edges.sort(key=lambda e: e.branch_index)
                connection = edges[0].connection
                assemble = connection is not None and (
                    len(edges) > 1 or connection.kind == connection.REDUCE
                )
                ports.append(
                    (port, tuple(edges), connection if assemble else None)
                )
            self._wiring[actor.name] = (
                actor, tuple(ports), tuple(outs[actor.name])
            )

    def run(
        self,
        fifos: Dict[int, Deque],
        firing_counts: Dict[str, int],
        iterations: int,
        forward: Collection[str] = (),
    ) -> None:
        """Fire ``iterations`` passes, moving tokens through ``fifos``.

        ``fifos`` maps every edge id to its token deque.  Each firing
        calls ``actor.fire(firing_counts[actor.name], consumed)`` and
        advances the count; an actor named in ``forward`` (one input
        port) runs no kernel and passes the tokens it consumes to its
        output ports unchanged.  Raises :class:`PassStarvedError` when a
        firing finds too few tokens (the FIFOs were not in a state the
        PASS can start from).
        """

        # bind this run's deques to the wiring once, not per firing;
        # only scatter edges need their share of the tokens sliced out
        bound = {}
        for name, (actor, ports, out_edges) in self._wiring.items():
            inputs = tuple(
                (
                    port,
                    tuple((fifos[e.edge_id], e.cons_rate, e) for e in edges),
                    connection,
                )
                for port, edges, connection in ports
            )
            outputs = tuple(
                (
                    e.source.name,
                    fifos[e.edge_id],
                    e
                    if e.connection is not None
                    and e.connection.kind == e.connection.SCATTER
                    else None,
                )
                for e in out_edges
            )
            bound[name] = (actor, inputs, outputs, name in forward)
        steps = [(actor.name,) + bound[actor.name] for actor in self.schedule]
        for _ in range(iterations):
            for name, actor, inputs, outputs, forwards in steps:
                consumed: Dict[str, list] = {}
                for port, branches, connection in inputs:
                    values = []
                    for fifo, rate, edge in branches:
                        if len(fifo) < rate:
                            raise PassStarvedError(
                                f"PASS starved: {name} firing "
                                f"{firing_counts[name]} needs {rate} tokens "
                                f"on {edge.name!r}, has {len(fifo)}"
                            )
                        values.append([fifo.popleft() for _ in range(rate)])
                    consumed[port] = (
                        values[0]
                        if connection is None
                        else connection.assemble(values)
                    )
                if forwards:
                    (tokens,) = consumed.values()
                    produced = {port: tokens for port, _, _ in outputs}
                else:
                    produced = actor.fire(firing_counts[name], consumed)
                for port, fifo, scatter in outputs:
                    fifo.extend(
                        produced[port]
                        if scatter is None
                        else scatter.connection.produced_tokens(
                            scatter, produced[port]
                        )
                    )
                firing_counts[name] += 1
