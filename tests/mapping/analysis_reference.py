"""Reference forms of the analysis stages in ``repro.mapping`` and
``repro.dataflow.hsdf``.

Each function here is the plain definition that a shipped stage
replaces with a faster exact one:

* :func:`lawler_mcm` — Lawler's binary search with a Bellman–Ford
  positive-cycle probe, against Howard's policy iteration in
  :func:`repro.mapping.maximum_cycle_mean_result`;
* :func:`hsdf_dependencies_enumerate` — the per-token dependency loop,
  against the closed form in :func:`repro.dataflow.hsdf_expand`;
* :func:`remove_redundant_unscreened` / :func:`resynchronize_unscreened`
  — redundancy removal with a full ``min_delay_paths()`` per removal,
  and the addition search that copies, deadlock-checks, MCM-probes and
  re-prunes every candidate, against the oracle-driven prune and the
  screened search in :mod:`repro.mapping.resync`.

The tests assert that every shipped stage equals its reference (MCM
within Lawler's search tolerance, the rest exactly), so these loops are
the contract, not a fallback.
"""

import math
from typing import Dict, List, Optional, Tuple

from repro.mapping.mcm import maximum_cycle_mean
from repro.mapping.resync import (
    _REMOVABLE_KINDS,
    ResynchronizationResult,
    _removable_edges,
)
from repro.mapping.sync_graph import SynchronizationGraph, is_redundant
from repro.mapping.timed_graph import EdgeKind, TimedEdge, TimedGraph


def _has_cycle_with_mean_at_least(graph: TimedGraph, lam: float) -> bool:
    """Bellman–Ford test: exists cycle with sum(t - lam*delay) >= 0?

    Uses weights w(e) = t(src(e)) - lam*delay(e) and looks for a
    non-negative-weight cycle via longest-path relaxation from a virtual
    super-source.  A tiny epsilon keeps exactly-critical cycles on the
    "yes" side.
    """
    names = [v.name for v in graph.vertices]
    if not names:
        return False
    t = {v.name: float(v.cycles) for v in graph.vertices}
    dist = {name: 0.0 for name in names}
    eps = 1e-12
    for _ in range(len(names)):
        changed = False
        for edge in graph.edges:
            candidate = dist[edge.src] + t[edge.src] - lam * edge.delay
            if candidate > dist[edge.snk] + eps:
                dist[edge.snk] = candidate
                changed = True
        if not changed:
            return False
    # Still relaxing after |V| passes -> positive (>=0 after epsilon) cycle.
    return any(
        dist[e.src] + t[e.src] - lam * e.delay > dist[e.snk] + eps
        for e in graph.edges
    )


def lawler_mcm(graph: TimedGraph, tolerance: float = 1e-7) -> float:
    """MCM by binary search on the cycle ratio, within ``tolerance``.

    ``math.inf`` on a zero-delay cycle (deadlock), 0.0 when acyclic.
    """
    if graph.has_zero_delay_cycle():
        return math.inf
    total = sum(v.cycles for v in graph.vertices)
    if total == 0 or not graph.edges:
        return 0.0
    low, high = 0.0, float(total) + 1.0
    if not _has_cycle_with_mean_at_least(graph, low):
        return 0.0
    while high - low > max(tolerance, tolerance * high):
        mid = (low + high) / 2.0
        if _has_cycle_with_mean_at_least(graph, mid):
            low = mid
        else:
            high = mid
    return low


def hsdf_dependencies_enumerate(
    p: int, c: int, d: int, q_src: int, q_snk: int, m: int
) -> Dict[Tuple[int, int], int]:
    """Minimal iteration offset per ``(producer, consumer)`` invocation
    pair, found by walking every token consumer ``j`` of iteration ``m``
    reads back to the producer invocation that wrote it."""
    deps: Dict[Tuple[int, int], int] = {}
    for j in range(q_snk):
        for offset in range(c):
            t = (m * q_snk + j) * c + offset
            n, i = divmod((t - d) // p, q_src)
            delta = m - n
            if (i, j) not in deps or delta < deps[(i, j)]:
                deps[(i, j)] = delta
    return deps


def remove_redundant_unscreened(
    graph: SynchronizationGraph,
) -> Tuple[SynchronizationGraph, List[TimedEdge]]:
    """Remove the first redundant sync/ack edge, recompute the all-pairs
    min-delay table from scratch, repeat until none is redundant."""
    pruned = graph.copy()
    removed: List[TimedEdge] = []
    while True:
        rho = pruned.min_delay_paths()
        victim = next(
            (
                e
                for e in _removable_edges(pruned)
                if is_redundant(pruned, e, rho)
            ),
            None,
        )
        if victim is None:
            return pruned, removed
        pruned.remove_edge(victim)
        removed.append(victim)


def resynchronize_unscreened(
    graph: SynchronizationGraph,
    preserve_mcm: bool = True,
    max_rounds: int = 32,
    mcm_tolerance: float = 1e-6,
    max_addition_vertices: int = 24,
) -> ResynchronizationResult:
    """Prune, then per round try every cross-PE zero-delay candidate on
    a copy: reject deadlocks and MCM increases, re-prune, and adopt the
    cheapest strict improvement (first found wins ties)."""
    base_pruned, removed = remove_redundant_unscreened(graph)
    mcm_before = maximum_cycle_mean(graph)
    cost_before = graph.sync_cost()
    current = base_pruned
    current_cost = current.sync_cost()
    added: List[TimedEdge] = []

    mcm_threshold = mcm_before * (1 + mcm_tolerance) + mcm_tolerance
    addition_rounds = max_rounds if len(graph) <= max_addition_vertices else 0
    for _ in range(addition_rounds):
        best_graph: Optional[SynchronizationGraph] = None
        best_edge: Optional[TimedEdge] = None
        best_cost = current_cost
        vertices = sorted(current.vertices, key=lambda v: v.name)
        direct = {(e.src, e.snk) for e in current.edges}
        for u in vertices:
            for v in vertices:
                if u.name == v.name or u.pe == v.pe:
                    continue
                if (u.name, v.name) in direct:
                    continue
                candidate = TimedEdge(
                    src=u.name, snk=v.name, delay=0, kind=EdgeKind.SYNC
                )
                trial = current.copy()
                trial.add_edge(candidate)
                if trial.has_zero_delay_cycle():
                    continue
                if preserve_mcm and maximum_cycle_mean(trial) > mcm_threshold:
                    continue
                pruned, _ = remove_redundant_unscreened(trial)
                cost = pruned.sync_cost()
                if cost < best_cost:
                    best_cost = cost
                    best_graph = pruned
                    best_edge = candidate
        if best_graph is None:
            break
        current = best_graph
        current_cost = best_cost
        added.append(best_edge)

    removed_total = removed + [
        e
        for e in graph.edges
        if e.kind in _REMOVABLE_KINDS
        and not any(
            c.src == e.src and c.snk == e.snk and c.delay == e.delay
            for c in current.edges
        )
        and e not in removed
    ]
    mcm_after = maximum_cycle_mean(current) if added else mcm_before
    return ResynchronizationResult(
        graph=current,
        removed=removed_total,
        added=added,
        cost_before=cost_before,
        cost_after=current_cost,
        mcm_before=mcm_before,
        mcm_after=mcm_after,
    )
