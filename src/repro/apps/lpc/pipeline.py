"""Graph builders for the LPC application.

Two systems, matching the paper's §5.2:

* :func:`build_adc_graph` — the full five-actor ADC pipeline of
  figure 2 (used functionally, and as the hardware/software co-design
  context of the experiment);
* :func:`build_parallel_error_graph` — the parallelised error-generation
  subsystem of figure 3: ``n`` hardware PEs each compute the prediction
  errors of one overlapping frame section; per-PE I/O interface actors
  (hosted on a shared I/O processor, PE 0) send the frame subsections
  and the predictor coefficients and receive the error values.  Frame
  size and model order are only known at run time, so every
  interprocessor edge is dynamic and handled by SPI_dynamic over VTS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.lpc.actors import (
    CoefficientSolver,
    ErrorGenerator,
    FrameReader,
    HuffmanEncoder,
    SpectralAnalyzer,
    error_unit_resources,
    fft_resources,
    huffman_resources,
    io_interface_resources,
    next_pow2,
    reader_resources,
    solver_resources,
)
from repro.apps.lpc.lpc import error_cycles, lpc_coefficients, prediction_error
from repro.dataflow.dynamic import DynamicRate
from repro.dataflow.graph import DataflowGraph
from repro.mapping.partition import Partition

__all__ = [
    "build_adc_graph",
    "AdcPipeline",
    "ParallelErrorSystem",
    "build_parallel_error_graph",
]

SAMPLE_BYTES = 2  # 16-bit audio samples
COEF_BYTES = 4  # 32-bit fixed-point predictor coefficients


@dataclass
class AdcPipeline:
    """The figure-2 graph plus handles to its stateful actors."""

    graph: DataflowGraph
    reader: FrameReader
    encoder: HuffmanEncoder
    solver: CoefficientSolver


def build_adc_graph(
    frames: Sequence[np.ndarray],
    order: int = 8,
) -> AdcPipeline:
    """The five-actor ADC pipeline A -> B -> C -> D -> E (paper fig. 2)."""
    frame_size = int(np.asarray(frames[0]).shape[0])
    graph = DataflowGraph("lpc_adc")
    reader = FrameReader(frames)
    analyzer = SpectralAnalyzer()
    solver = CoefficientSolver(order)
    error_gen = ErrorGenerator()
    encoder = HuffmanEncoder()

    frame_bytes = frame_size * SAMPLE_BYTES
    a = graph.actor("A", kernel=reader.kernel, cycles=reader.cycles,
                    params={"resources": reader_resources(frame_bytes)})
    b = graph.actor("B", kernel=analyzer.kernel, cycles=analyzer.cycles,
                    params={"resources": fft_resources(next_pow2(frame_size))})
    c = graph.actor("C", kernel=solver.kernel, cycles=solver.cycles,
                    params={"resources": solver_resources(order)})
    d = graph.actor("D", kernel=error_gen.kernel, cycles=error_gen.cycles,
                    params={"resources": error_unit_resources(order, frame_bytes)})
    e = graph.actor("E", kernel=encoder.kernel, cycles=encoder.cycles,
                    params={"resources": huffman_resources()})

    a.add_output("frame", token_bytes=frame_bytes)
    b.add_input("frame", token_bytes=frame_bytes)
    b.add_output("analyzed", token_bytes=frame_bytes)
    c.add_input("analyzed", token_bytes=frame_bytes)
    c.add_output("model", token_bytes=frame_bytes + order * COEF_BYTES)
    d.add_input("model", token_bytes=frame_bytes + order * COEF_BYTES)
    d.add_output("errors", token_bytes=frame_bytes)
    e.add_input("errors", token_bytes=frame_bytes)
    e.add_output("compressed", token_bytes=frame_bytes)
    graph.mark_interface(e.port("compressed"))

    graph.connect((a, "frame"), (b, "frame"))
    graph.connect((b, "analyzed"), (c, "analyzed"))
    graph.connect((c, "model"), (d, "model"))
    graph.connect((d, "errors"), (e, "errors"))
    graph.validate()
    return AdcPipeline(graph=graph, reader=reader, encoder=encoder, solver=solver)


class _IoSource:
    """One PE's I/O interface, send side: frame subsection + coefficients.

    Frames (and therefore chunk lengths and coefficient counts) may vary
    per iteration — this is the run-time variability that forces
    SPI_dynamic.
    """

    def __init__(
        self,
        frames: Sequence[np.ndarray],
        coefficient_sets: Sequence[np.ndarray],
        n_units: int,
        unit_index: int,
    ) -> None:
        self.frames = [np.asarray(f, dtype=np.float64) for f in frames]
        self.coefficient_sets = [
            np.asarray(c, dtype=np.float64) for c in coefficient_sets
        ]
        if len(self.frames) != len(self.coefficient_sets):
            raise ValueError("need one coefficient set per frame")
        self.n_units = n_units
        self.unit_index = unit_index

    def _bounds(self, frame_size: int, order: int) -> Tuple[int, int, int]:
        chunk = -(-frame_size // self.n_units)
        start = self.unit_index * chunk
        stop = min(frame_size, start + chunk)
        overlap = 0 if self.unit_index == 0 else order
        if start - overlap < 0:
            raise ValueError(
                f"frame of {frame_size} samples too short for unit "
                f"{self.unit_index} with order {order}"
            )
        return start, stop, overlap

    def kernel(self, firing_index: int, inputs: Dict[str, list]) -> Dict[str, list]:
        frame = self.frames[firing_index % len(self.frames)]
        coefs = self.coefficient_sets[firing_index % len(self.coefficient_sets)]
        start, stop, overlap = self._bounds(frame.shape[0], coefs.shape[0])
        return {
            "chunk": frame[start - overlap : stop].tolist(),
            "coefs": coefs.tolist(),
        }

    def cycles(self, firing_index: int, inputs: Dict[str, list]) -> int:
        frame = self.frames[firing_index % len(self.frames)]
        coefs = self.coefficient_sets[firing_index % len(self.coefficient_sets)]
        start, stop, overlap = self._bounds(frame.shape[0], coefs.shape[0])
        # read the subsection and the coefficients out of frame memory
        return (stop - start + overlap) + coefs.shape[0]


class _ErrorUnit:
    """One hardware PE of the parallel error computation (actor D_i)."""

    def __init__(self, unit_index: int) -> None:
        self.unit_index = unit_index

    def kernel(self, firing_index: int, inputs: Dict[str, list]) -> Dict[str, list]:
        chunk = np.asarray(inputs["chunk"], dtype=np.float64)
        coefs = np.asarray(inputs["coefs"], dtype=np.float64)
        overlap = 0 if self.unit_index == 0 else coefs.shape[0]
        errors = prediction_error(chunk, coefs)[overlap:]
        return {"errors": errors.tolist()}

    def cycles(self, firing_index: int, inputs: Dict[str, list]) -> int:
        chunk = inputs.get("chunk") or []
        coefs = inputs.get("coefs") or []
        if not chunk or not coefs:
            return error_cycles(64, 8)
        overlap = 0 if self.unit_index == 0 else len(coefs)
        return error_cycles(len(chunk) - overlap, len(coefs))


class _IoSink:
    """One PE's I/O interface, receive side: collects the error values."""

    def __init__(self, collector: List[dict], unit_index: int) -> None:
        self.collector = collector
        self.unit_index = unit_index

    def kernel(self, firing_index: int, inputs: Dict[str, list]) -> Dict[str, list]:
        errors = list(inputs["errors"])
        self.collector.append(
            {
                "iteration": firing_index,
                "unit": self.unit_index,
                "errors": errors,
            }
        )
        return {}

    def cycles(self, firing_index: int, inputs: Dict[str, list]) -> int:
        return max(1, len(inputs.get("errors") or []))


@dataclass
class ParallelErrorSystem:
    """The figure-3 subsystem: graph, partition and result collector."""

    graph: DataflowGraph
    partition: Partition
    n_units: int
    collected: List[dict] = field(default_factory=list)

    def assembled_errors(self, iteration: int, frame_size: int) -> np.ndarray:
        """Reassemble one frame's error signal from the per-PE pieces."""
        pieces = sorted(
            (r for r in self.collected if r["iteration"] == iteration),
            key=lambda r: r["unit"],
        )
        if len(pieces) != self.n_units:
            raise ValueError(
                f"iteration {iteration}: have {len(pieces)} of "
                f"{self.n_units} sections"
            )
        flat: List[float] = []
        for piece in pieces:
            flat.extend(piece["errors"])
        return np.asarray(flat[:frame_size])


def build_parallel_error_graph(
    frames: Sequence[np.ndarray],
    order: int,
    n_units: int,
    max_frame_size: Optional[int] = None,
    max_order: Optional[int] = None,
) -> ParallelErrorSystem:
    """The paper's figure-3 system for ``n_units`` error PEs.

    PE 0 hosts the I/O interface actors (one source/sink pair per error
    unit, serialised on the shared interface — the serialization that
    bounds speedup); PEs ``1..n`` host the error-generation datapaths.
    Predictor coefficients are computed per frame up front (they come
    from the software side of the paper's hardware/software co-design).
    """
    if n_units < 1:
        raise ValueError("n_units must be >= 1")
    frames = [np.asarray(f, dtype=np.float64) for f in frames]
    max_n = max_frame_size or max(f.shape[0] for f in frames)
    max_m = max_order or order
    chunk_bound = -(-max_n // n_units) + max_m
    error_bound = -(-max_n // n_units)

    coefficient_sets = [lpc_coefficients(f, order) for f in frames]

    graph = DataflowGraph(f"lpc_parallel_d_{n_units}pe")
    collected: List[dict] = []
    assignment: Dict[str, int] = {}
    chunk_bytes = chunk_bound * SAMPLE_BYTES

    for unit in range(n_units):
        source = _IoSource(frames, coefficient_sets, n_units, unit)
        error_unit = _ErrorUnit(unit)
        sink = _IoSink(collected, unit)

        # timing_periodic: execution times and production volumes cycle
        # with the fixed frame list (firing_index % len(frames)), so the
        # steady-state warp is exact despite the callable cycle models
        # and dynamic rates.
        src_actor = graph.actor(
            f"io_src_{unit}", kernel=source.kernel, cycles=source.cycles,
            params={"resources": io_interface_resources(chunk_bytes),
                    "timing_periodic": True},
        )
        d_actor = graph.actor(
            f"D_{unit}", kernel=error_unit.kernel, cycles=error_unit.cycles,
            params={"resources": error_unit_resources(max_m, chunk_bytes),
                    "timing_periodic": True},
        )
        snk_actor = graph.actor(
            f"io_snk_{unit}", kernel=sink.kernel, cycles=sink.cycles,
            params={"resources": io_interface_resources(
                error_bound * SAMPLE_BYTES),
                    "timing_periodic": True},
        )

        src_actor.add_output(
            "chunk", rate=DynamicRate(chunk_bound), token_bytes=SAMPLE_BYTES
        )
        src_actor.add_output(
            "coefs", rate=DynamicRate(max_m), token_bytes=COEF_BYTES
        )
        d_actor.add_input(
            "chunk", rate=DynamicRate(chunk_bound), token_bytes=SAMPLE_BYTES
        )
        d_actor.add_input(
            "coefs", rate=DynamicRate(max_m), token_bytes=COEF_BYTES
        )
        d_actor.add_output(
            "errors", rate=DynamicRate(error_bound), token_bytes=SAMPLE_BYTES
        )
        snk_actor.add_input(
            "errors", rate=DynamicRate(error_bound), token_bytes=SAMPLE_BYTES
        )

        graph.connect((src_actor, "chunk"), (d_actor, "chunk"))
        graph.connect((src_actor, "coefs"), (d_actor, "coefs"))
        graph.connect((d_actor, "errors"), (snk_actor, "errors"))

        assignment[src_actor.name] = 0
        assignment[snk_actor.name] = 0
        assignment[d_actor.name] = unit + 1

    graph.validate()
    partition = Partition.manual(graph, assignment)
    return ParallelErrorSystem(
        graph=graph,
        partition=partition,
        n_units=n_units,
        collected=collected,
    )
