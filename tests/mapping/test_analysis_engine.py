"""Property and exactness tests for the array-backed analysis engine.

Covers the analysis stages end to end against the reference forms in
:mod:`tests.mapping.analysis_reference`: Howard's-iteration MCM against
Lawler's binary search and the self-timed simulation, exactness on the
deadlock / acyclic / parallel-edge / self-loop corners, the incremental
all-pairs min-delay oracle against full recomputation, the memoized
``min_delay_paths`` invalidation rules, deterministic topological
ordering, the closed-form HSDF expansion against per-token enumeration,
resynchronization (the oracle-driven prune and the screened addition
search against the unscreened ones, on random and on real compile
traffic), the self-timed sweep against a fixpoint form of eq. 3, the
absence of any engine switch, and the branch-and-bound exhaustive
partitioner.
"""

import inspect
import math
import random

import pytest

import repro.dataflow.hsdf as hsdf_module
import repro.spi.runtime as runtime
from repro.apps.lpc import build_parallel_error_graph, frame_stream
from repro.apps.particle_filter import (
    CrackGrowthModel,
    build_particle_filter_graph,
    simulate_crack_history,
)
from repro.conformance.generator import GraphShape, generate_spec
from repro.conformance.spec import build_case
from repro.dataflow import DataflowGraph
from repro.dataflow.hsdf import hsdf_expand
from repro.mapping import (
    EdgeKind,
    MinDelayOracle,
    Partition,
    SynchronizationGraph,
    TimedEdge,
    TimedGraph,
    TimedVertex,
    maximum_cycle_mean,
    maximum_cycle_mean_result,
    remove_redundant_synchronizations,
    resynchronize,
    simulate_selftimed,
)
from repro.mapping.mcm import zero_delay_topological_order
from repro.spi import SpiConfig, SpiSystem
from tests.mapping.analysis_reference import (
    hsdf_dependencies_enumerate,
    lawler_mcm,
    remove_redundant_unscreened,
    resynchronize_unscreened,
)


def ring(cycles, delays, name="ring"):
    graph = TimedGraph(name)
    n = len(cycles)
    for i, c in enumerate(cycles):
        graph.add_vertex(TimedVertex(f"t{i}", cycles=c, pe=i))
    for i in range(n):
        graph.add_edge(TimedEdge(f"t{i}", f"t{(i + 1) % n}", delay=delays[i]))
    return graph


def random_timed_graph(rng, max_vertices=10, max_edges=24, max_delay=4):
    graph = TimedGraph("random")
    n = rng.randint(1, max_vertices)
    for i in range(n):
        graph.add_vertex(
            TimedVertex(f"v{i}", cycles=rng.randint(0, 9), pe=0)
        )
    for _ in range(rng.randint(0, max_edges)):
        graph.add_edge(
            TimedEdge(
                src=f"v{rng.randrange(n)}",
                snk=f"v{rng.randrange(n)}",
                delay=rng.randint(0, max_delay),
                kind=EdgeKind.SYNC,
            )
        )
    return graph


def assert_witness_consistent(graph, result):
    """The witness must be a real cycle whose ratio is the value."""
    if not result.cycle:
        return
    assert result.value == result.total_cycles / result.total_delay
    edge_pairs = {(e.src, e.snk) for e in graph.edges}
    n = len(result.cycle)
    for i, src in enumerate(result.cycle):
        snk = result.cycle[(i + 1) % n]
        assert (src, snk) in edge_pairs
    assert result.total_cycles == sum(
        graph.vertex(name).cycles for name in result.cycle
    )


#: 50-seed equivalence campaign spanning the generator's regimes:
#: plain multirate, collective connections, batched/heterogeneous.
_CAMPAIGN = (
    [(seed, GraphShape()) for seed in range(20)]
    + [
        (seed, GraphShape(collective_prob=0.9, max_pes=3))
        for seed in range(20, 35)
    ]
    + [
        (seed, GraphShape(batch_prob=0.9, max_batch=4, max_pes=3))
        for seed in range(35, 50)
    ]
)


class TestHowardEquivalenceCampaign:
    @pytest.mark.parametrize("seed,shape", _CAMPAIGN)
    def test_howard_matches_lawler_and_simulation(self, seed, shape):
        case = build_case(generate_spec(seed, shape))
        system = SpiSystem.compile(case.graph, case.partition, SpiConfig())
        reference = (
            system.resync_result.graph
            if system.resync_result is not None
            else system.sync_graph
        )
        howard = maximum_cycle_mean_result(reference)
        lawler = lawler_mcm(reference)
        if math.isinf(lawler) or math.isinf(howard.value):
            assert math.isinf(lawler) and math.isinf(howard.value)
            return
        assert howard.value == pytest.approx(lawler, rel=1e-5, abs=1e-5)
        assert_witness_consistent(reference, howard)

        # The self-timed makespan grows at exactly the MCM rate once the
        # transient settles; the window-averaged slope converges with an
        # O(1/window) error bounded by the schedule's time spread.
        iterations = 120
        window = 60
        trace = simulate_selftimed(reference, iterations=iterations)
        makespan = [
            max(
                trace.end[(v.name, k)]
                for v in reference.vertices
            )
            for k in (iterations - 1 - window, iterations - 1)
        ]
        slope = (makespan[1] - makespan[0]) / window
        spread = sum(v.cycles for v in reference.vertices)
        assert slope == pytest.approx(
            howard.value, abs=2 * spread / window + 1e-6
        )
        assert slope >= howard.value - 1e-6


class TestHowardExactness:
    def test_zero_delay_cycle_is_infinite_with_witness(self):
        graph = ring([1, 2], [0, 0])
        result = maximum_cycle_mean_result(graph)
        assert result.value == math.inf
        assert result.is_deadlock
        assert result.total_delay == 0
        assert set(result.cycle) == {"t0", "t1"}

    def test_acyclic_graph_is_exactly_zero(self):
        graph = TimedGraph()
        graph.add_vertex(TimedVertex("a", 5, 0))
        graph.add_vertex(TimedVertex("b", 7, 1))
        graph.add_edge(TimedEdge("a", "b", delay=0))
        result = maximum_cycle_mean_result(graph)
        assert result.value == 0.0
        assert result.cycle == ()

    def test_exact_value_no_search_tolerance(self):
        # Lawler stops within its binary-search tolerance; Howard's
        # answer is the exact quotient of integer sums.
        graph = ring([10, 10, 10], [0, 0, 3])
        result = maximum_cycle_mean_result(graph)
        assert result.value == 10.0
        assert (result.total_cycles, result.total_delay) == (30, 3)

    def test_exact_rational_value(self):
        graph = ring([1, 0, 0], [1, 1, 1])
        result = maximum_cycle_mean_result(graph)
        assert result.value == 1 / 3

    def test_parallel_edges_use_min_delay(self):
        graph = ring([10, 20], [0, 3])
        # A tighter parallel edge dominates the slack one.
        graph.add_edge(TimedEdge("t1", "t0", delay=1))
        result = maximum_cycle_mean_result(graph)
        assert result.value == 30.0
        assert result.total_delay == 1

    def test_self_loop(self):
        graph = TimedGraph()
        graph.add_vertex(TimedVertex("solo", 7, 0))
        graph.add_edge(TimedEdge("solo", "solo", delay=2))
        result = maximum_cycle_mean_result(graph)
        assert result.value == 3.5
        assert result.cycle == ("solo",)

    def test_self_loop_competing_with_ring(self):
        graph = ring([3, 3], [1, 1])  # ring MCM = 3
        graph.add_edge(TimedEdge("t0", "t0", delay=1))  # self-loop 3/1 = 3
        graph.add_vertex(TimedVertex("hot", 9, 2))
        graph.add_edge(TimedEdge("hot", "hot", delay=2))  # 4.5 wins
        result = maximum_cycle_mean_result(graph)
        assert result.value == 4.5
        assert result.cycle == ("hot",)

    def test_random_graphs_match_lawler(self):
        rng = random.Random(2024)
        for _ in range(150):
            graph = random_timed_graph(rng)
            howard = maximum_cycle_mean_result(graph)
            lawler = lawler_mcm(graph)
            if math.isinf(lawler):
                assert howard.value == math.inf
                continue
            assert howard.value == pytest.approx(lawler, rel=1e-5, abs=1e-5)
            assert_witness_consistent(graph, howard)


class TestMinDelayOracle:
    def test_matches_full_recompute_under_random_mutations(self):
        rng = random.Random(99)
        for _ in range(60):
            graph = random_timed_graph(rng, max_vertices=9, max_edges=20)
            edges = list(graph.edges)
            oracle = MinDelayOracle(graph)
            for _ in range(rng.randint(1, 10)):
                if edges and rng.random() < 0.6:
                    victim = edges.pop(rng.randrange(len(edges)))
                    oracle.remove_edge(victim)
                else:
                    n = len(graph.vertices)
                    edge = TimedEdge(
                        src=f"v{rng.randrange(n)}",
                        snk=f"v{rng.randrange(n)}",
                        delay=rng.randint(0, 4),
                        kind=EdgeKind.SYNC,
                    )
                    oracle.add_edge(edge)
                    edges.append(edge)
                got = {u: dict(row) for u, row in oracle.table().items()}
                graph._min_delay_cache = None
                want = graph.min_delay_paths()
                assert got == want
                graph._install_min_delay_cache(oracle.table())

    def test_oracle_feeds_the_graph_memo(self):
        graph = ring([1, 1, 1], [1, 0, 2])
        oracle = MinDelayOracle(graph)
        extra = TimedEdge("t0", "t2", delay=0, kind=EdgeKind.SYNC)
        oracle.add_edge(extra)
        # min_delay_paths() returns the repaired table without recompute
        assert graph.min_delay_paths() is oracle.table()


class TestMinDelayMemo:
    def test_repeated_calls_return_memo(self):
        graph = ring([1, 1], [1, 1])
        first = graph.min_delay_paths()
        assert graph.min_delay_paths() is first

    def test_add_edge_invalidates(self):
        graph = ring([1, 1], [3, 3])
        before = graph.min_delay_paths()
        graph.add_edge(TimedEdge("t0", "t1", delay=1, kind=EdgeKind.SYNC))
        after = graph.min_delay_paths()
        assert after is not before
        assert after["t0"]["t1"] == 1

    def test_remove_edge_invalidates(self):
        graph = ring([1, 1], [3, 3])
        shortcut = TimedEdge("t0", "t1", delay=1, kind=EdgeKind.SYNC)
        graph.add_edge(shortcut)
        assert graph.min_delay_paths()["t0"]["t1"] == 1
        graph.remove_edge(shortcut)
        assert graph.min_delay_paths()["t0"]["t1"] == 3

    def test_add_vertex_invalidates(self):
        graph = ring([1, 1], [1, 1])
        before = graph.min_delay_paths()
        graph.add_vertex(TimedVertex("new", 1, 0))
        after = graph.min_delay_paths()
        assert after is not before
        assert "new" in after


class TestTopologicalDeterminism:
    def test_order_independent_of_insertion_order(self):
        def build(vertex_order, edge_order):
            graph = TimedGraph("topo")
            for name in vertex_order:
                graph.add_vertex(TimedVertex(name, 1, 0))
            for src, snk in edge_order:
                graph.add_edge(TimedEdge(src, snk, delay=0))
            return graph

        edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        orders = set()
        rng = random.Random(5)
        for _ in range(6):
            vertices = ["a", "b", "c", "d"]
            shuffled = list(edges)
            rng.shuffle(vertices)
            rng.shuffle(shuffled)
            graph = build(vertices, shuffled)
            orders.add(tuple(zero_delay_topological_order(graph)))
        # The heap-based Kahn order is the unique lexicographically
        # smallest topological order, whatever the insertion order.
        assert orders == {("a", "b", "c", "d")}


def _selftimed_fixpoint(graph, iterations):
    """Eq. 3 by relaxation: per iteration, raise every start time to the
    latest in-edge end time until nothing moves.  No topological order
    is used, so this checks the sweep's ordering as well as its sums."""
    start, end = {}, {}
    for k in range(iterations):
        for v in graph.vertices:
            start[(v.name, k)] = 0
            end[(v.name, k)] = v.cycles
        changed = True
        while changed:
            changed = False
            for edge in graph.edges:
                if k - edge.delay < 0:
                    continue
                ready = end[(edge.src, k - edge.delay)]
                if ready > start[(edge.snk, k)]:
                    start[(edge.snk, k)] = ready
                    end[(edge.snk, k)] = (
                        ready + graph.vertex(edge.snk).cycles
                    )
                    changed = True
    return start, end


class TestSelfTimedSimulation:
    def test_matches_fixpoint_definition(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(40):
            graph = random_timed_graph(rng, max_vertices=8, max_edges=16)
            if graph.has_zero_delay_cycle():
                continue
            trace = simulate_selftimed(graph, 15)
            start, end = _selftimed_fixpoint(graph, 15)
            assert trace.start == start
            assert trace.end == end
            checked += 1
        assert checked >= 20

    def test_ring_settles_to_mcm_period(self):
        graph = ring([3, 5, 2], [1, 0, 2])
        trace = simulate_selftimed(graph, 15)
        start, end = _selftimed_fixpoint(graph, 15)
        assert (trace.start, trace.end) == (start, end)
        # Past the transient the schedule repeats every total_delay
        # iterations, shifted by the critical cycle's total_cycles.
        mcm = maximum_cycle_mean_result(graph)
        assert (mcm.total_cycles, mcm.total_delay) == (10, 3)
        for k in range(2, 12):
            assert trace.start[("t0", k + 3)] - trace.start[("t0", k)] == 10


class TestSingleEngine:
    """Each analysis stage has one code path: the engine switches are
    gone from the signatures and the environment cannot select one."""

    @pytest.mark.parametrize(
        "function,parameter",
        [
            (maximum_cycle_mean, "algorithm"),
            (maximum_cycle_mean, "tolerance"),
            (maximum_cycle_mean_result, "algorithm"),
            (maximum_cycle_mean_result, "tolerance"),
            (simulate_selftimed, "engine"),
            (hsdf_expand, "method"),
            (remove_redundant_synchronizations, "incremental"),
            (resynchronize, "incremental"),
        ],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_no_engine_switch_parameter(self, function, parameter):
        assert parameter not in inspect.signature(function).parameters

    def test_engine_environment_variable_ignored(self, monkeypatch):
        graph = ring([10, 20], [0, 1])
        plain = maximum_cycle_mean_result(graph)
        monkeypatch.setenv("REPRO_ANALYSIS_ENGINE", "legacy")
        assert maximum_cycle_mean_result(graph) == plain
        assert plain.cycle and plain.value == 30.0


def _random_sync_graph(rng, trial):
    graph = SynchronizationGraph(f"sync{trial}")
    n = rng.randint(3, 10)
    for i in range(n):
        graph.add_vertex(
            TimedVertex(f"v{i}", cycles=rng.randint(1, 6), pe=rng.randrange(3))
        )
    for i in range(n):
        graph.add_edge(
            TimedEdge(
                f"v{i}",
                f"v{(i + 1) % n}",
                delay=1 if i == n - 1 else rng.randint(0, 1),
                kind=EdgeKind.IPC,
            )
        )
    for _ in range(rng.randint(0, 12)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        graph.add_edge(
            TimedEdge(
                f"v{a}",
                f"v{b}",
                delay=rng.randint(0, 3),
                kind=rng.choice([EdgeKind.SYNC, EdgeKind.ACK]),
            )
        )
    return graph


def _random_selftimed_sync_graph(rng, trial):
    """A sync graph shaped like a self-timed schedule's: every PE runs
    its tasks in a zero-delay chain closed by a unit-delay wrap-around,
    and random cross-PE sync/ack edges join the chains.  The chains give
    a new edge paths to make several others redundant, so the addition
    search adopts edges far more often than on :func:`_random_sync_graph`."""
    graph = SynchronizationGraph(f"selftimed{trial}")
    n = rng.randint(4, 10)
    chains = {}
    for i in range(n):
        pe = rng.randrange(rng.randint(2, 3))
        graph.add_vertex(TimedVertex(f"v{i}", cycles=rng.randint(1, 6), pe=pe))
        chains.setdefault(pe, []).append(f"v{i}")
    for names in chains.values():
        for a, b in zip(names, names[1:]):
            graph.add_edge(TimedEdge(a, b, delay=0, kind=EdgeKind.INTRA))
        graph.add_edge(
            TimedEdge(names[-1], names[0], delay=1, kind=EdgeKind.INTRA)
        )
    for _ in range(rng.randint(2, 14)):
        a, b = rng.randrange(n), rng.randrange(n)
        graph.add_edge(
            TimedEdge(
                f"v{a}",
                f"v{b}",
                delay=rng.randint(0 if a < b else 1, 2),
                kind=rng.choice([EdgeKind.SYNC, EdgeKind.ACK]),
            )
        )
    return graph


def _edge_key(edge):
    return (edge.src, edge.snk, edge.delay, edge.kind)


def _resync_summary(result):
    return (
        list(map(_edge_key, result.removed)),
        list(map(_edge_key, result.added)),
        list(map(_edge_key, result.graph.edges)),
        result.cost_before,
        result.cost_after,
        result.mcm_before,
        result.mcm_after,
    )


def _assert_screened_matches_oracle(graph):
    """The screened search against the unscreened reference: same
    removals, additions, final edge list, costs and MCMs.  Returns
    whether the search added an edge."""
    fast = resynchronize(graph)
    slow = resynchronize_unscreened(graph)
    assert _resync_summary(fast) == _resync_summary(slow), graph.name
    return bool(fast.added)


def _captured_sync_graphs(monkeypatch, systems):
    """The sync graphs ``SpiSystem.compile`` hands to ``resynchronize``
    (acks included) for each ``(graph, partition)``."""
    captured = []
    real = runtime.resynchronize

    def capture(sync_graph):
        captured.append(sync_graph.copy())
        return real(sync_graph)

    monkeypatch.setattr(runtime, "resynchronize", capture)
    for graph, partition in systems:
        SpiSystem.compile(graph, partition)
    return captured


class TestIncrementalResynchronization:
    def test_pruning_identical_to_legacy(self):
        rng = random.Random(17)
        for trial in range(30):
            graph = _random_sync_graph(rng, trial)
            fast, removed_fast = remove_redundant_synchronizations(graph)
            slow, removed_slow = remove_redundant_unscreened(graph)
            assert list(map(_edge_key, removed_fast)) == list(
                map(_edge_key, removed_slow)
            )
            assert list(map(_edge_key, fast.edges)) == list(
                map(_edge_key, slow.edges)
            )

    def test_full_resynchronize_identical_to_legacy(self):
        rng = random.Random(23)
        graphs = [_random_sync_graph(rng, trial) for trial in range(12)]
        graphs += [
            _random_selftimed_sync_graph(rng, trial) for trial in range(40)
        ]
        additions = sum(map(_assert_screened_matches_oracle, graphs))
        # 10 of the 52 graphs add an edge: the search really runs
        assert additions >= 8

    def test_screen_identical_to_oracle_on_real_traffic(self, monkeypatch):
        """Sync graphs from the fig. 6 / fig. 7 n = 2 points (where the
        addition search runs on every compile) and from 100 conformance
        seeds under the default and the collective shape."""
        model = CrackGrowthModel()
        observations = simulate_crack_history(model, steps=6, seed=1)[1]
        systems = []
        for size in (128, 192, 256, 384, 512, 640):
            frames = frame_stream(
                total_samples=2 * size, frame_size=size, seed=1
            )
            lpc = build_parallel_error_graph(frames, order=8, n_units=2)
            systems.append((lpc.graph, lpc.partition))
        for particles in (50, 100, 150, 200, 250, 300):
            pf = build_particle_filter_graph(
                model, observations, n_particles=particles, n_pes=2, seed=1
            )
            systems.append((pf.graph, pf.partition))
        for shape in (GraphShape(), GraphShape(collective_prob=0.7)):
            for seed in range(100):
                case = build_case(generate_spec(seed, shape))
                systems.append((case.graph, case.partition))
        graphs = _captured_sync_graphs(monkeypatch, systems)
        assert len(graphs) == len(systems)
        assert all(len(g) <= 24 for g in graphs[:12])
        additions = sum(map(_assert_screened_matches_oracle, graphs))
        # 8 of the 212 graphs (all conformance seeds) add an edge
        assert additions >= 5


class TestClosedFormHsdf:
    def _graphs(self):
        rng = random.Random(11)
        for trial in range(25):
            graph = DataflowGraph(f"mr{trial}")
            n = rng.randint(2, 5)
            # Derive consistent rates from a target repetitions vector:
            # for q_a firings of the producer and q_b of the consumer,
            # rates (q_b/g, q_a/g) balance the edge exactly.
            reps = [rng.randint(1, 4) for _ in range(n)]
            actors = [
                graph.actor(f"A{i}", cycles=rng.randint(1, 5))
                for i in range(n)
            ]

            def balanced_rates(i, j):
                g = math.gcd(reps[i], reps[j])
                scale = rng.randint(1, 2)
                return reps[j] // g * scale, reps[i] // g * scale

            for i in range(n - 1):
                p, c = balanced_rates(i, i + 1)
                out = actors[i].add_output(f"o{i}", rate=p)
                inp = actors[i + 1].add_input(f"i{i}", rate=c)
                graph.connect(out, inp, delay=rng.randint(0, 6))
            p, c = balanced_rates(n - 1, 0)
            out = actors[-1].add_output("fb_o", rate=p)
            inp = actors[0].add_input("fb_i", rate=c)
            graph.connect(out, inp, delay=rng.randint(24, 48))
            yield graph

    @staticmethod
    def _shape(expanded):
        return (
            sorted(a.name for a in expanded.actors),
            sorted(
                (
                    e.src_actor.name,
                    e.snk_actor.name,
                    e.source.name,
                    e.sink.name,
                    e.delay,
                    e.name,
                )
                for e in expanded.edges
            ),
        )

    def test_closed_form_identical_to_enumeration(self, monkeypatch):
        graphs = list(self._graphs())
        fast = [self._shape(hsdf_expand(graph)) for graph in graphs]
        monkeypatch.setattr(
            hsdf_module, "_edge_dependencies", hsdf_dependencies_enumerate
        )
        slow = [self._shape(hsdf_expand(graph)) for graph in graphs]
        assert fast == slow


class TestExhaustiveBranchAndBound:
    def _graph(self, rng, n):
        graph = DataflowGraph("bb")
        actors = [graph.actor(f"A{i}", cycles=rng.randint(1, 9)) for i in range(n)]
        for i in range(n - 1):
            out = actors[i].add_output(f"o{i}", rate=1)
            inp = actors[i + 1].add_input(f"i{i}", rate=1)
            graph.connect(out, inp, delay=0)
        out = actors[-1].add_output("fb_o", rate=1)
        inp = actors[0].add_input("fb_i", rate=1)
        graph.connect(out, inp, delay=n)
        return graph

    def test_pruned_search_matches_unpruned(self):
        from repro.mapping.ipc_graph import build_ipc_graph
        from repro.mapping.mcm import maximum_cycle_mean as mcm
        from repro.mapping.selftimed import build_selftimed_schedule

        def reference_cost(candidate):
            schedule = build_selftimed_schedule(candidate.graph, candidate)
            ipc = build_ipc_graph(schedule)
            return mcm(ipc) + 2.0 * len(candidate.interprocessor_edges())

        rng = random.Random(41)
        for n in (3, 4, 5):
            graph = self._graph(rng, n)
            pruned = Partition.exhaustive(graph, 2)
            # passing the same cost explicitly disables pruning, so this
            # walks every candidate exactly like the legacy product loop
            unpruned = Partition.exhaustive(graph, 2, cost=reference_cost)
            assert pruned.assignment == unpruned.assignment
