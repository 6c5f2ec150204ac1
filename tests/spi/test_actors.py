"""Unit tests for run-time SPI actors and local FIFOs."""

import pytest

from repro.dataflow import DataflowGraph, PackedToken
from repro.platform import PEClass, ProcessingElement
from repro.spi.actors import (
    INIT_CYCLES,
    ComputationTask,
    LocalFifo,
    SpiInitTask,
    payload_nbytes,
)


def make_edge(delay=0, initial=None):
    graph = DataflowGraph("f")
    a = graph.actor("A")
    b = graph.actor("B")
    a.add_output("o")
    b.add_input("i")
    edge = graph.connect((a, "o"), (b, "i"), delay=delay)
    if initial is not None:
        edge.set_initial_tokens(initial)
    return edge


class TestLocalFifo:
    def test_initial_tokens_from_delay(self):
        fifo = LocalFifo(make_edge(delay=3))
        assert len(fifo) == 3
        assert fifo.pop(3) == [None, None, None]

    def test_initial_values_used_when_present(self):
        fifo = LocalFifo(make_edge(delay=2, initial=[7, 8]))
        assert fifo.pop(2) == [7, 8]

    def test_fifo_order_and_high_water(self):
        fifo = LocalFifo(make_edge())
        fifo.push([1, 2])
        fifo.push([3])
        assert fifo.high_water == 3
        assert fifo.pop(2) == [1, 2]
        fifo.push([4])
        assert fifo.pop(2) == [3, 4]
        assert fifo.high_water == 3

    def test_underflow_raises(self):
        fifo = LocalFifo(make_edge())
        fifo.push([1])
        with pytest.raises(RuntimeError, match="popping"):
            fifo.pop(2)


class TestPayloadBytes:
    def test_plain_tokens_use_default(self):
        assert payload_nbytes([1, 2, 3], default_token_bytes=4) == 12

    def test_packed_tokens_know_their_size(self):
        token = PackedToken.pack([1, 2, 3, 4, 5], raw_token_bytes=2)
        assert payload_nbytes([token], default_token_bytes=99) == 10

    def test_mixed(self):
        token = PackedToken.pack([1], raw_token_bytes=8)
        assert payload_nbytes([token, 0], default_token_bytes=4) == 12

    def test_empty(self):
        assert payload_nbytes([], default_token_bytes=4) == 0


class TestSpiInit:
    def test_charges_once(self):
        task = SpiInitTask(0)
        assert task.ready(0)
        assert task.start(0) == INIT_CYCLES
        task.finish(INIT_CYCLES)
        assert task.start(INIT_CYCLES) == 0


def doubler_graph(cycles=7):
    """A --2--> B --1--> C; B's kernel sums its two inputs."""
    graph = DataflowGraph("dbl")

    def add(k, inputs):
        return {"o": [sum(inputs["i"])]}

    a = graph.actor("A")
    b = graph.actor("B", kernel=add, cycles=cycles)
    c = graph.actor("C")
    a.add_output("o", rate=2)
    b.add_input("i", rate=2)
    b.add_output("o")
    c.add_input("i")
    into = graph.connect((a, "o"), (b, "i"))
    out = graph.connect((b, "o"), (c, "i"))
    return b, LocalFifo(into), LocalFifo(out)


class TestComputationTask:
    def test_guard_wait_chain_and_firing(self):
        actor, into, out = doubler_graph()
        task = ComputationTask(actor, {"i": into}, {"o": out})
        into.push([3])
        assert not task.ready(0)
        assert task.wait_on(0) == [into.waitset]
        assert "'A.o->B.i' (has 1, needs 2)" in task.blocked_reason(0)
        into.push([4])
        assert task.ready(0)
        assert task.wait_on(0) == []
        assert task.blocked_reason(0) is None
        assert task.start(0) == 7
        assert len(into) == 0  # consumed at start
        task.finish(7)
        assert list(out.tokens) == [7]
        assert task.firing_index == 1

    def test_static_cycles_skip_the_cycle_model(self, monkeypatch):
        actor, into, out = doubler_graph(cycles=9)
        task = ComputationTask(actor, {"i": into}, {"o": out})

        def never(*args):
            raise AssertionError("static cycles must not call the model")

        monkeypatch.setattr(actor, "execution_cycles", never)
        into.push([1, 2])
        assert task.start(0) == 9

    def test_callable_cycles_see_index_and_tokens(self):
        seen = []

        def cost(k, inputs):
            seen.append((k, list(inputs["i"])))
            return 10 + k

        actor, into, out = doubler_graph(cycles=cost)
        task = ComputationTask(actor, {"i": into}, {"o": out})
        into.push([1, 2, 3, 4])
        assert task.start(0) == 10
        task.finish(10)
        assert task.start(10) == 11
        assert seen == [(0, [1, 2]), (1, [3, 4])]

    def test_scatter_output_slices_per_branch(self):
        graph = DataflowGraph("split")
        src = graph.actor(
            "src", kernel=lambda k, inputs: {"o": [1, 2, 3]}, cycles=1
        )
        src.add_output("o", rate=3)
        a = graph.actor("a")
        a.add_input("i", rate=1)
        b = graph.actor("b")
        b.add_input("i", rate=2)
        conn = graph.add_scatter("src.o", ["a.i", "b.i"], chunks=[1, 2])
        fifo_a, fifo_b = (LocalFifo(edge) for edge in conn.edges)
        # branch order comes from the edges, not the list order
        task = ComputationTask(src, {}, {"o": [fifo_b, fifo_a]})
        task.start(0)
        task.finish(1)
        assert list(fifo_a.tokens) == [1]
        assert list(fifo_b.tokens) == [2, 3]

    def test_reduce_input_combines_branches(self):
        graph = DataflowGraph("sum")
        sources = []
        for name in ("p", "q"):
            actor = graph.actor(name)
            actor.add_output("o", rate=2)
            sources.append(f"{name}.o")
        sink = graph.actor(
            "s", kernel=lambda k, inputs: {"o": list(inputs["i"])}, cycles=1
        )
        sink.add_input("i", rate=2)
        sink.add_output("o", rate=2)
        tail = graph.actor("t")
        tail.add_input("i", rate=2)
        conn = graph.add_reduce(sources, "s.i")
        out = LocalFifo(graph.connect((sink, "o"), (tail, "i")))
        fifo_p, fifo_q = (LocalFifo(edge) for edge in conn.edges)
        task = ComputationTask(sink, {"i": [fifo_q, fifo_p]}, {"o": out})
        fifo_p.push([1, 2])
        assert not task.ready(0)
        assert task.wait_on(0) == [fifo_q.waitset]
        fifo_q.push([10, 20])
        task.start(0)
        task.finish(1)
        assert list(out.tokens) == [11, 22]

    def test_accelerator_single_firing_pays_dispatch(self):
        accel = PEClass(
            kind="accelerator", dispatch_cycles=20, cycles_per_element=0.5
        )
        actor, into, out = doubler_graph(cycles=8)
        task = ComputationTask(
            actor, {"i": into}, {"o": out}, pe_class=accel
        )
        into.push([1, 2])
        assert task.start(0) == 20 + 4
        task.finish(24)
        assert list(out.tokens) == [3]

    def test_batched_burst_follows_pass_cursor(self):
        accel = PEClass(
            kind="accelerator", dispatch_cycles=20, cycles_per_element=0.5
        )
        pe = ProcessingElement(1, pe_class=accel)
        actor, into, out = doubler_graph(cycles=8)
        task = ComputationTask(
            actor,
            {"i": into},
            {"o": out},
            batch_counts=[2, 1],
            pe_class=accel,
            pe=pe,
        )
        into.push([1, 2])
        assert not task.ready(0)  # a burst of 2 needs 4 tokens
        into.push([3, 4, 5, 6])
        assert task.start(0) == 20 + 2 * 4
        task.finish(28)
        assert list(out.tokens) == [3, 7]
        assert pe.batch_dispatches == 1
        assert task.burst == 1  # tail pass
        assert task.start(28) == 20 + 4
        task.finish(52)
        assert list(out.tokens) == [3, 7, 11]
        assert task.firing_index == 3
