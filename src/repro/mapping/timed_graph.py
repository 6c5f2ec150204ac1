"""Timed task graphs: the common substrate of IPC and synchronization graphs.

An IPC graph / synchronization graph (paper §4) is a directed multigraph
whose vertices are *tasks* (actor invocations with execution times and a
processor assignment) and whose edges carry *delays* (iteration offsets).
Edge kinds distinguish the roles the paper assigns them:

* ``intra``  — same-PE sequencing edge (schedule order, plus the unit-delay
  wrap-around edge from the last to the first task of each PE);
* ``ipc``    — interprocessor communication edge (data + synchronization);
* ``sync``   — pure synchronization edge (no data), the currency of
  resynchronization;
* ``ack``    — acknowledgment edge of the UBS protocol (sink-to-source
  feedback telling the sender that buffer space was freed).

Every edge, whatever its kind, imposes the paper's eq. 3 constraint:
``start(snk, k) >= end(src, k - delay)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["TimedVertex", "TimedEdge", "TimedGraph", "EdgeKind"]


class EdgeKind:
    """Edge role constants."""

    INTRA = "intra"
    IPC = "ipc"
    SYNC = "sync"
    ACK = "ack"

    ALL = (INTRA, IPC, SYNC, ACK)
    #: kinds that carry a synchronization cost at run time (same-PE
    #: sequencing is free — it is enforced by program order)
    SYNCHRONIZING = (IPC, SYNC, ACK)


@dataclass(frozen=True)
class TimedVertex:
    """A task: one actor invocation mapped onto one PE."""

    name: str
    cycles: int
    pe: int
    origin_actor: Optional[str] = None

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError(f"task {self.name!r}: negative execution time")
        if self.pe < 0:
            raise ValueError(f"task {self.name!r}: negative PE index")


@dataclass(frozen=True)
class TimedEdge:
    """A precedence/synchronization constraint between two tasks."""

    src: str
    snk: str
    delay: int
    kind: str = EdgeKind.SYNC
    payload_bytes: int = 0
    origin_edge: Optional[str] = None
    uid: int = field(default_factory=itertools.count().__next__, compare=False)

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(
                f"edge {self.src}->{self.snk}: negative delay {self.delay}"
            )
        if self.kind not in EdgeKind.ALL:
            raise ValueError(f"unknown edge kind {self.kind!r}")
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")


class TimedGraph:
    """A directed multigraph of tasks with delayed precedence edges."""

    def __init__(self, name: str = "timed") -> None:
        self.name = name
        self._vertices: Dict[str, TimedVertex] = {}
        self._edges: List[TimedEdge] = []
        self._min_delay_cache: Optional[Dict[str, Dict[str, int]]] = None

    # -- construction -------------------------------------------------------

    def add_vertex(self, vertex: TimedVertex) -> TimedVertex:
        if vertex.name in self._vertices:
            raise ValueError(f"duplicate task name {vertex.name!r}")
        self._vertices[vertex.name] = vertex
        self._min_delay_cache = None
        return vertex

    def add_edge(self, edge: TimedEdge) -> TimedEdge:
        for endpoint in (edge.src, edge.snk):
            if endpoint not in self._vertices:
                raise ValueError(f"edge endpoint {endpoint!r} is not a task")
        self._edges.append(edge)
        self._min_delay_cache = None
        return edge

    def remove_edge(self, edge: TimedEdge) -> None:
        try:
            self._edges.remove(edge)
        except ValueError:
            raise ValueError(
                f"edge {edge.src}->{edge.snk} (uid {edge.uid}) not in graph"
            ) from None
        self._min_delay_cache = None

    # -- accessors ------------------------------------------------------------

    @property
    def vertices(self) -> Tuple[TimedVertex, ...]:
        return tuple(self._vertices.values())

    @property
    def edges(self) -> Tuple[TimedEdge, ...]:
        return tuple(self._edges)

    def vertex(self, name: str) -> TimedVertex:
        try:
            return self._vertices[name]
        except KeyError:
            raise ValueError(
                f"graph {self.name!r} has no task {name!r}"
            ) from None

    def out_edges(self, name: str) -> List[TimedEdge]:
        return [e for e in self._edges if e.src == name]

    def in_edges(self, name: str) -> List[TimedEdge]:
        return [e for e in self._edges if e.snk == name]

    def edges_of_kind(self, *kinds: str) -> List[TimedEdge]:
        return [e for e in self._edges if e.kind in kinds]

    def synchronization_edges(self) -> List[TimedEdge]:
        """Edges that cost run-time synchronization (cross-PE)."""
        return [
            e
            for e in self._edges
            if e.kind in EdgeKind.SYNCHRONIZING
            and self.vertex(e.src).pe != self.vertex(e.snk).pe
        ]

    def tasks_on(self, pe: int) -> List[TimedVertex]:
        return [v for v in self._vertices.values() if v.pe == pe]

    @property
    def pes(self) -> List[int]:
        return sorted({v.pe for v in self._vertices.values()})

    # -- analysis helpers ------------------------------------------------------

    def min_delay_paths(self) -> Dict[str, Dict[str, int]]:
        """All-pairs minimum path delay (Floyd–Warshall on edge delays).

        ``result[u][v]`` is the least total delay over directed paths
        ``u -> v``; missing entries mean "no path".  ``result[u][u]`` is 0
        (empty path) — callers that need cycles must go through an
        explicit outgoing edge first.

        The table is memoized; any mutation (``add_vertex``,
        ``add_edge``, ``remove_edge``) invalidates the memo.  Callers
        must treat the result as read-only.
        """
        if self._min_delay_cache is not None:
            return self._min_delay_cache
        names = list(self._vertices)
        inf = None
        dist: Dict[str, Dict[str, int]] = {u: {u: 0} for u in names}
        for edge in self._edges:
            current = dist[edge.src].get(edge.snk)
            if current is None or edge.delay < current:
                dist[edge.src][edge.snk] = edge.delay
        for k in names:
            row_k = dist[k]
            for i in names:
                via = dist[i].get(k)
                if via is None:
                    continue
                row_i = dist[i]
                for j, kj in row_k.items():
                    candidate = via + kj
                    current = row_i.get(j)
                    if current is None or candidate < current:
                        row_i[j] = candidate
        self._min_delay_cache = dist
        return dist

    def _install_min_delay_cache(
        self, table: Dict[str, Dict[str, int]]
    ) -> None:
        """Install an externally maintained min-delay table as the memo.

        Used by the incremental APSP oracle
        (:class:`repro.mapping.graph_arrays.MinDelayOracle`) after it
        repairs the table for an edge mutation, so subsequent
        ``min_delay_paths()`` calls stay O(1).
        """
        self._min_delay_cache = table

    def has_zero_delay_cycle(self) -> bool:
        """True when some directed cycle has total delay 0 (deadlock)."""
        # Restrict to zero-delay edges; any cycle there is a 0-delay cycle.
        adjacency: Dict[str, List[str]] = {v: [] for v in self._vertices}
        for edge in self._edges:
            if edge.delay == 0:
                adjacency[edge.src].append(edge.snk)
        state: Dict[str, int] = {}

        def dfs(node: str) -> bool:
            state[node] = 1
            for nxt in adjacency[node]:
                mark = state.get(nxt, 0)
                if mark == 1:
                    return True
                if mark == 0 and dfs(nxt):
                    return True
            state[node] = 2
            return False

        return any(state.get(v, 0) == 0 and dfs(v) for v in self._vertices)

    def copy(self, name: Optional[str] = None) -> "TimedGraph":
        clone = TimedGraph(name or self.name)
        for vertex in self._vertices.values():
            clone.add_vertex(vertex)
        for edge in self._edges:
            # Re-instantiate to obtain fresh uids in the clone.
            clone.add_edge(
                TimedEdge(
                    src=edge.src,
                    snk=edge.snk,
                    delay=edge.delay,
                    kind=edge.kind,
                    payload_bytes=edge.payload_bytes,
                    origin_edge=edge.origin_edge,
                )
            )
        return clone

    def to_dot(self) -> str:
        styles = {
            EdgeKind.INTRA: "solid",
            EdgeKind.IPC: "bold",
            EdgeKind.SYNC: "dashed",
            EdgeKind.ACK: "dotted",
        }
        lines = [f'digraph "{self.name}" {{']
        for pe in self.pes:
            lines.append(f"  subgraph cluster_pe{pe} {{")
            lines.append(f'    label="PE{pe}";')
            for vertex in self.tasks_on(pe):
                lines.append(f'    "{vertex.name}";')
            lines.append("  }")
        for edge in self._edges:
            attrs = f'style={styles[edge.kind]}'
            if edge.delay:
                attrs += f', label="d={edge.delay}"'
            lines.append(f'  "{edge.src}" -> "{edge.snk}" [{attrs}];')
        lines.append("}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._vertices)

    def __repr__(self) -> str:
        return (
            f"TimedGraph({self.name!r}, tasks={len(self._vertices)}, "
            f"edges={len(self._edges)})"
        )
