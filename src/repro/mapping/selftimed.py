"""Self-timed multiprocessor schedule construction.

Under the self-timed scheduling model (the one SPI adopts — paper §2),
compile time fixes (a) the actor-to-PE assignment and (b) the *order* in
which each PE cycles through its tasks; the actual firing times are
resolved at run time by data availability.  This module derives the
per-PE task orders from a deterministic PASS of the application graph,
so the orders are always admissible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dataflow.graph import Actor, DataflowGraph, GraphError
from repro.dataflow.hsdf import hsdf_expand, invocation_name
from repro.dataflow.sdf import build_pass, repetitions_vector
from repro.mapping.partition import Partition

__all__ = [
    "SelfTimedSchedule",
    "TaskPlan",
    "task_plan",
    "build_selftimed_schedule",
    "batch_is_admissible",
    "max_feasible_batch",
]


@dataclass
class SelfTimedSchedule:
    """A self-timed schedule: per-PE cyclic task orders.

    ``orders[pe]`` is the list of task names PE ``pe`` executes, in order,
    once per graph iteration, wrapping around self-timed (each PE starts
    its next pass as soon as data allows).

    For multirate graphs the tasks are HSDF invocations
    (``actor#k`` names) of the expanded graph stored in ``task_graph``;
    for homogeneous graphs the invocation index is always 0.
    """

    graph: DataflowGraph
    partition: Partition
    orders: Dict[int, List[str]]
    task_graph: DataflowGraph
    #: the PASS of ``graph`` the orders were derived from (one entry per
    #: firing of one iteration)
    pass_firings: Tuple[Actor, ...]
    task_pe: Dict[str, int] = field(default_factory=dict)

    def pe_of_task(self, task_name: str) -> int:
        return self.task_pe[task_name]

    def tasks(self) -> List[str]:
        return [name for order in self.orders.values() for name in order]

    def position(self, task_name: str) -> int:
        """Index of the task within its PE's cyclic order."""
        order = self.orders[self.task_pe[task_name]]
        return order.index(task_name)

    def firing_script(self) -> Dict[int, List[Tuple[str, str]]]:
        """Flat per-PE firing plan: ``[(task name, origin actor), ...]``.

        Pre-resolves the HSDF invocation -> origin-actor indirection
        once per compile instead of once per program construction; the
        SPI and MPI runtimes build their per-PE programs from exactly
        this plan.  For homogeneous graphs the task name and the origin
        coincide.
        """
        script: Dict[int, List[Tuple[str, str]]] = {}
        for pe, order in self.orders.items():
            entries: List[Tuple[str, str]] = []
            for task_name in order:
                actor = self.task_graph.get_actor(task_name)
                entries.append(
                    (task_name, actor.params.get("origin", task_name))
                )
            script[pe] = entries
        return script

    @property
    def n_pes(self) -> int:
        return self.partition.n_pes

    def validate(self) -> None:
        """Each task appears exactly once, on the PE its actor is mapped to."""
        seen: Dict[str, int] = {}
        for pe, order in self.orders.items():
            for task in order:
                if task in seen:
                    raise GraphError(
                        f"task {task!r} scheduled on both PE {seen[task]} "
                        f"and PE {pe}"
                    )
                seen[task] = pe
        expected = {a.name for a in self.task_graph.actors}
        if set(seen) != expected:
            missing = expected - set(seen)
            extra = set(seen) - expected
            raise GraphError(
                f"schedule covers wrong task set (missing={sorted(missing)}, "
                f"extra={sorted(extra)})"
            )


@dataclass(frozen=True)
class TaskPlan:
    """The partition-independent half of schedule construction.

    HSDF expansion and the deterministic PASS depend only on the
    application graph, so callers that score many candidate partitions
    of the *same* graph (``Partition.exhaustive``) compute the plan once
    with :func:`task_plan` and pass it to every
    :func:`build_selftimed_schedule` call.
    """

    task_graph: DataflowGraph
    task_sequence: Tuple[str, ...]
    homogeneous: bool
    pass_firings: Tuple[Actor, ...]


def task_plan(graph: DataflowGraph) -> TaskPlan:
    """Expand (if multirate) and order the graph's tasks via the PASS."""
    reps = repetitions_vector(graph)
    homogeneous = all(count == 1 for count in reps.values()) and all(
        isinstance(p.rate, int) and p.rate == 1
        for a in graph.actors
        for p in a.ports
    )
    pass_firings = build_pass(graph, repetitions=reps)
    if homogeneous:
        task_graph = graph
        task_sequence = tuple(a.name for a in pass_firings)
    else:
        task_graph = hsdf_expand(graph)
        counters: Dict[str, int] = {}
        names: List[str] = []
        for actor in pass_firings:
            k = counters.get(actor.name, 0)
            counters[actor.name] = k + 1
            names.append(invocation_name(actor.name, k))
        task_sequence = tuple(names)
    return TaskPlan(
        task_graph=task_graph,
        task_sequence=task_sequence,
        homogeneous=homogeneous,
        pass_firings=tuple(pass_firings),
    )


def build_selftimed_schedule(
    graph: DataflowGraph,
    partition: Partition,
    plan: Optional[TaskPlan] = None,
) -> SelfTimedSchedule:
    """Derive a self-timed schedule from a deterministic PASS.

    Multirate graphs are HSDF-expanded first; each invocation inherits the
    PE of its actor.  The per-PE order is the order in which the PASS
    fires the invocations, which guarantees an admissible (deadlock-free)
    self-timed execution given sufficient buffer space.  ``plan`` may
    carry the precomputed partition-independent work (see
    :func:`task_plan`).
    """
    if plan is None:
        plan = task_plan(graph)
    task_graph = plan.task_graph
    task_sequence = plan.task_sequence
    if plan.homogeneous:
        task_pe = {a.name: partition.pe_of(a) for a in graph.actors}
    else:
        task_pe = {
            t.name: partition.assignment[t.params["origin"]]
            for t in task_graph.actors
        }

    orders: Dict[int, List[str]] = {pe: [] for pe in range(partition.n_pes)}
    for task in task_sequence:
        orders[task_pe[task]].append(task)

    schedule = SelfTimedSchedule(
        graph=graph,
        partition=partition,
        orders=orders,
        task_graph=task_graph,
        task_pe=task_pe,
        pass_firings=plan.pass_firings,
    )
    schedule.validate()
    return schedule


def batch_is_admissible(schedule: SelfTimedSchedule, batch: int) -> bool:
    """Is a *blocked* execution with blocking factor ``batch`` deadlock-free?

    Under batched execution every task of every PE runs ``batch``
    logical firings atomically per macro-pass (a blocked schedule in the
    Lee/Messerschmitt sense): one task execution consumes/produces
    ``batch * rate`` tokens in one burst.  That is admissible iff a
    symbolic token simulation of one macro-pass completes — each PE
    advances through its cyclic order, a task fires only when every
    input edge of the task graph holds the full burst.  One macro-pass
    suffices: a consistent graph returns to its initial token state
    after any whole number of iterations.

    Feedback edges whose delay is below the burst size are exactly what
    fails here (the particle filter's capacity loop clamps to 1).
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if batch == 1:
        return True  # the PASS-derived orders are admissible by construction
    task_graph = schedule.task_graph
    tokens: Dict[Tuple[str, str, int], int] = {}
    in_edges: Dict[str, list] = {t.name: [] for t in task_graph.actors}
    out_edges: Dict[str, list] = {t.name: [] for t in task_graph.actors}
    for i, edge in enumerate(task_graph.edges):
        key = (edge.src_actor.name, edge.snk_actor.name, i)
        tokens[key] = edge.delay
        in_edges[edge.snk_actor.name].append((key, edge.cons_rate))
        out_edges[edge.src_actor.name].append((key, edge.prod_rate))

    pointers = {pe: 0 for pe in schedule.orders}
    remaining = sum(len(order) for order in schedule.orders.values())
    while remaining:
        advanced = False
        for pe, order in schedule.orders.items():
            i = pointers[pe]
            if i >= len(order):
                continue
            task = order[i]
            if all(
                tokens[key] >= batch * rate for key, rate in in_edges[task]
            ):
                for key, rate in in_edges[task]:
                    tokens[key] -= batch * rate
                for key, rate in out_edges[task]:
                    tokens[key] += batch * rate
                pointers[pe] = i + 1
                remaining -= 1
                advanced = True
        if not advanced:
            return False
    return True


def max_feasible_batch(schedule: SelfTimedSchedule, requested: int) -> int:
    """Largest admissible blocking factor ``<= requested`` (>= 1)."""
    if requested < 1:
        raise ValueError("requested batch must be >= 1")
    for batch in range(requested, 1, -1):
        if batch_is_admissible(schedule, batch):
            return batch
    return 1
