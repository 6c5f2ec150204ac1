"""Single-PE reference execution for conformance cases.

This is the semantic ground truth the differential oracles compare
against: a direct interpreter that fires the PASS (periodic admissible
sequential schedule) of the case's graph, moving tokens through plain
FIFOs with no timing model, no protocols and no message passing — just
SDF firing rules.  The firing loop is :class:`~repro.dataflow.sdf
.PassProgram`, the same one that completes the warped iterations of a
steady-state SPI run.  Dynamic graphs are VTS-converted first (rates become
1/1 packed tokens), and because the conversion *wraps* the original
kernels, the shared :class:`~repro.conformance.spec.TokenTap` still
observes the raw token streams, directly comparable to the SPI and MPI
runs of the same case.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from repro.conformance.spec import ConformanceCase
from repro.dataflow.sdf import PassProgram, PassStarvedError
from repro.dataflow.vts import vts_convert

__all__ = ["ReferenceError", "run_reference"]


class ReferenceError(RuntimeError):
    """The reference execution itself could not complete."""


def run_reference(
    case: ConformanceCase, iterations: int, label: str = "reference"
) -> Dict[str, List[tuple]]:
    """Execute ``iterations`` graph iterations on a conceptual single PE.

    Records every firing through ``case.tap`` under ``label`` and returns
    the recorded streams (``actor name -> [(firing, inputs, outputs)]``).
    """
    if iterations < 1:
        raise ReferenceError("iterations must be >= 1")
    graph = case.graph
    if graph.is_dynamic:
        graph = vts_convert(graph).graph

    fifos = {}
    for edge in graph.edges:
        initial = edge.initial_tokens
        if initial is None:
            initial = [None] * edge.delay
        fifos[edge.edge_id] = deque(initial)

    case.tap.begin(label)
    try:
        PassProgram(graph).run(
            fifos, {actor.name: 0 for actor in graph.actors}, iterations
        )
    except PassStarvedError as exc:
        raise ReferenceError(str(exc)) from exc
    return case.tap.streams(label)
