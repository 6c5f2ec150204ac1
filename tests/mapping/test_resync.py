"""Unit and property tests for resynchronization (paper §4.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mapping.resync as resync_module
from repro.mapping import (
    EdgeKind,
    TimedEdge,
    TimedVertex,
    maximum_cycle_mean,
    remove_redundant_synchronizations,
    resynchronize,
)
from repro.mapping.sync_graph import SynchronizationGraph, is_redundant
from tests.mapping import analysis_reference


def fan_graph(n_targets=3):
    """One producer PE fanning out sync edges to n consumer tasks that
    are chained on one other PE — the textbook resynchronization case:
    a single sync to the head of the chain subsumes all the others."""
    graph = SynchronizationGraph("fan")
    graph.add_vertex(TimedVertex("src", cycles=1, pe=0))
    previous = None
    for i in range(n_targets):
        name = f"t{i}"
        graph.add_vertex(TimedVertex(name, cycles=1, pe=1))
        if previous is not None:
            graph.add_edge(
                TimedEdge(previous, name, delay=0, kind=EdgeKind.INTRA)
            )
        graph.add_edge(
            TimedEdge("src", name, delay=0, kind=EdgeKind.SYNC)
        )
        previous = name
    return graph


class TestRemoveRedundant:
    def test_fan_collapses_to_head_sync(self):
        graph = fan_graph(3)
        pruned, removed = remove_redundant_synchronizations(graph)
        # syncs to t1 and t2 are implied by the sync to t0 + intra chain
        assert len(removed) == 2
        survivors = {
            (e.src, e.snk)
            for e in pruned.edges
            if e.kind == EdgeKind.SYNC
        }
        assert survivors == {("src", "t0")}

    def test_mutually_vouching_pair_keeps_one(self):
        graph = SynchronizationGraph()
        graph.add_vertex(TimedVertex("a", 1, 0))
        graph.add_vertex(TimedVertex("b", 1, 1))
        graph.add_edge(TimedEdge("a", "b", delay=0, kind=EdgeKind.SYNC))
        graph.add_edge(TimedEdge("a", "b", delay=0, kind=EdgeKind.SYNC))
        pruned, removed = remove_redundant_synchronizations(graph)
        assert len(removed) == 1
        assert len(pruned.edges) == 1

    def test_intra_edges_never_removed(self):
        graph = fan_graph(3)
        pruned, _ = remove_redundant_synchronizations(graph)
        intra = pruned.edges_of_kind(EdgeKind.INTRA)
        assert len(intra) == 2

    def test_semantics_preserved(self):
        """Every removed constraint stays implied by the pruned graph."""
        graph = fan_graph(4)
        pruned, removed = remove_redundant_synchronizations(graph)
        rho = pruned.min_delay_paths()
        for edge in removed:
            assert rho[edge.src].get(edge.snk, edge.delay + 1) <= edge.delay


class TestResynchronize:
    def test_reports_costs(self):
        graph = fan_graph(3)
        result = resynchronize(graph)
        assert result.cost_before == 3
        assert result.cost_after <= 1
        assert result.net_savings >= 2

    def test_never_increases_mcm(self):
        graph = fan_graph(3)
        # close the loop so there is a finite MCM to preserve
        graph.add_edge(TimedEdge("t2", "src", delay=1, kind=EdgeKind.SYNC))
        before = maximum_cycle_mean(graph)
        result = resynchronize(graph)
        assert result.mcm_after <= before * (1 + 1e-5) + 1e-5

    def test_no_zero_delay_cycles_introduced(self):
        graph = fan_graph(4)
        result = resynchronize(graph)
        assert not result.graph.has_zero_delay_cycle()

    def test_ack_edges_removable(self):
        """A redundant acknowledgment edge disappears (the paper's SPI
        optimisation: redundant acks are never sent)."""
        graph = SynchronizationGraph()
        graph.add_vertex(TimedVertex("send", 1, 0))
        graph.add_vertex(TimedVertex("recv", 1, 1))
        graph.add_vertex(TimedVertex("reply", 1, 1))
        graph.add_vertex(TimedVertex("home", 1, 0))
        graph.add_edge(TimedEdge("send", "recv", delay=0, kind=EdgeKind.IPC))
        graph.add_edge(TimedEdge("recv", "reply", delay=0, kind=EdgeKind.INTRA))
        graph.add_edge(TimedEdge("reply", "home", delay=0, kind=EdgeKind.IPC))
        graph.add_edge(TimedEdge("home", "send", delay=1, kind=EdgeKind.INTRA))
        ack = graph.add_edge(
            TimedEdge("recv", "send", delay=4, kind=EdgeKind.ACK)
        )
        assert is_redundant(graph, ack)
        pruned, removed = remove_redundant_synchronizations(graph)
        assert ack in removed
        assert not pruned.edges_of_kind(EdgeKind.ACK)

    def test_resync_preserves_all_original_constraints(self):
        graph = fan_graph(5)
        result = resynchronize(graph)
        rho = result.graph.min_delay_paths()
        for edge in graph.edges:
            # implied: a path with at most the original delay exists
            assert rho[edge.src].get(edge.snk, edge.delay + 1) <= edge.delay

    @given(n=st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_fan_always_improves_or_holds(self, n):
        graph = fan_graph(n)
        result = resynchronize(graph)
        assert result.cost_after <= result.cost_before
        # at minimum the chain head sync remains
        assert result.cost_after >= 1


def two_chain_graph(sync_pairs, back_delay):
    """Two-PE graph: chains a0 -> a1 on PE 0 and b0 -> b1 on PE 1 (each
    with its unit-delay wrap-around), zero-delay sync edges ``a* -> b*``
    and one IPC edge ``b1 -> a0`` closing a cross-PE cycle, so every
    ``a* -> b*`` candidate has a finite back path."""
    graph = SynchronizationGraph("two_chain")
    for pe, names in ((0, ("a0", "a1")), (1, ("b0", "b1"))):
        for name in names:
            graph.add_vertex(TimedVertex(name, cycles=1, pe=pe))
        graph.add_edge(TimedEdge(*names, delay=0, kind=EdgeKind.INTRA))
        graph.add_edge(
            TimedEdge(names[1], names[0], delay=1, kind=EdgeKind.INTRA)
        )
    for src, snk in sync_pairs:
        graph.add_edge(TimedEdge(src, snk, delay=0, kind=EdgeKind.SYNC))
    graph.add_edge(TimedEdge("b1", "a0", delay=back_delay, kind=EdgeKind.IPC))
    return graph


def edge_key(edge):
    return (edge.src, edge.snk, edge.delay, edge.kind)


class TestGainScreen:
    """The addition search skips every candidate whose gain bound (the
    edges it could make redundant) cannot pay for the edge it adds."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = {"mcm": 0, "copy": 0}
        real_mcm = resync_module.maximum_cycle_mean
        real_copy = SynchronizationGraph.copy

        def mcm(graph):
            calls["mcm"] += 1
            return real_mcm(graph)

        def copy(graph, name=None):
            calls["copy"] += 1
            return real_copy(graph, name)

        monkeypatch.setattr(resync_module, "maximum_cycle_mean", mcm)
        monkeypatch.setattr(analysis_reference, "maximum_cycle_mean", mcm)
        monkeypatch.setattr(SynchronizationGraph, "copy", copy)
        return calls

    def test_single_gain_candidate_rejected_without_probe_or_copy(
        self, monkeypatch
    ):
        graph = two_chain_graph([("a0", "b1")], back_delay=1)
        # (a1, b0) does make the one sync edge redundant, and its back
        # path b0 -> b1 -> a0 -> a1 has delay 1, so the MCM bound
        # (total_exec / 1) alone would still copy the graph and probe
        trial = graph.copy()
        trial.add_edge(TimedEdge("a1", "b0", delay=0, kind=EdgeKind.SYNC))
        pruned, removed = remove_redundant_synchronizations(trial)
        assert list(map(edge_key, removed)) == [
            ("a0", "b1", 0, EdgeKind.SYNC)
        ]
        assert pruned.sync_cost() == graph.sync_cost()
        assert graph.min_delay_paths()["b0"]["a1"] == 1
        assert sum(v.cycles for v in graph.vertices) > maximum_cycle_mean(
            graph
        )

        calls = self.count_calls(monkeypatch)
        result = resynchronize(graph)
        assert result.added == []
        assert result.cost_after == result.cost_before == 2
        # mcm_before is the only MCM call, the initial pruning's the
        # only copy
        assert calls == {"mcm": 1, "copy": 1}

    def test_double_gain_candidate_adopted(self):
        graph = two_chain_graph([("a0", "b0"), ("a1", "b1")], back_delay=2)
        for search in (
            resynchronize,
            analysis_reference.resynchronize_unscreened,
        ):
            result = search(graph)
            assert list(map(edge_key, result.added)) == [
                ("a1", "b0", 0, EdgeKind.SYNC)
            ]
            assert sorted(map(edge_key, result.removed)) == [
                ("a0", "b0", 0, EdgeKind.SYNC),
                ("a1", "b1", 0, EdgeKind.SYNC),
            ]
            assert (result.cost_before, result.cost_after) == (3, 2)
            assert result.mcm_after <= result.mcm_before

    @pytest.mark.parametrize("screened", [True, False])
    def test_no_final_mcm_call_without_additions(self, monkeypatch, screened):
        graph = fan_graph(3)
        graph.add_edge(TimedEdge("t2", "src", delay=1, kind=EdgeKind.SYNC))
        calls = self.count_calls(monkeypatch)
        search = (
            resynchronize
            if screened
            else analysis_reference.resynchronize_unscreened
        )
        result = search(graph, max_addition_vertices=0)
        assert result.added == [] and result.removed
        assert calls["mcm"] == 1
        assert result.mcm_after == result.mcm_before
        assert result.mcm_after == maximum_cycle_mean(result.graph)
