"""Array-backed analysis engine for timed graphs (the §3/§4 fast path).

Every exact analysis the SPI methodology runs per graph — maximum cycle
mean, redundancy detection, resynchronization scoring — used to walk the
:class:`~repro.mapping.timed_graph.TimedGraph` object graph with
superlinear pure-Python loops.  This module is the shared fast engine
underneath them:

* :class:`GraphArrays` — a CSR-style numpy view of a timed graph
  (vertex execution times, edge endpoint/delay arrays, out-edges grouped
  by source vertex) built once per analysis;
* :func:`strongly_connected_components` — iterative Tarjan over the CSR
  arrays;
* :func:`howard_mcm` — Howard's policy iteration for the maximum
  cycle-ratio problem ``max over cycles C of sum(t(src)) / sum(delay)``.
  Unlike Lawler's binary search (~50 Bellman–Ford probes of O(V·E)
  each), Howard runs a handful of O(V+E) policy-evaluation sweeps and
  terminates with an **exact** answer: the value is recomputed from the
  critical cycle's integer execution-time and delay sums, so there is no
  search tolerance, and the critical cycle itself is returned as a
  witness;
* :class:`MinDelayOracle` — the all-pairs minimum path-delay table
  maintained *incrementally* under single-edge removal and insertion
  (affected-pairs repair via Dijkstra from the sources whose rows can
  change, instead of a full Floyd–Warshall per mutation), feeding the
  :meth:`~repro.mapping.timed_graph.TimedGraph.min_delay_paths` memo so
  redundancy checks stay O(1) lookups during a pruning fixpoint.

Precondition shared by the MCM entry points: the caller has already
ruled out zero-total-delay cycles (deadlock → the MCM is ``math.inf``
and there is no finite ratio to iterate towards).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mapping.timed_graph import TimedGraph

__all__ = [
    "GraphArrays",
    "MinDelayOracle",
    "howard_mcm",
    "strongly_connected_components",
]


class GraphArrays:
    """CSR-style numpy adjacency view of a :class:`TimedGraph`.

    ``edge_src``/``edge_snk``/``edge_delay`` are parallel int64 arrays in
    the graph's edge order (so edge ids are positions), ``cycles`` holds
    per-vertex execution times, and ``csr_edges[csr_start[u]:
    csr_start[u+1]]`` lists the out-edge ids of vertex ``u`` in edge-id
    order — the deterministic iteration order every algorithm here uses.
    """

    def __init__(self, graph: TimedGraph) -> None:
        vertices = graph.vertices
        self.names: List[str] = [v.name for v in vertices]
        self.index: Dict[str, int] = {
            name: i for i, name in enumerate(self.names)
        }
        self.n = len(self.names)
        self.cycles = np.fromiter(
            (v.cycles for v in vertices), dtype=np.int64, count=self.n
        )
        edges = graph.edges
        self.m = len(edges)
        self.edge_src = np.fromiter(
            (self.index[e.src] for e in edges), dtype=np.int64, count=self.m
        )
        self.edge_snk = np.fromiter(
            (self.index[e.snk] for e in edges), dtype=np.int64, count=self.m
        )
        self.edge_delay = np.fromiter(
            (e.delay for e in edges), dtype=np.int64, count=self.m
        )
        # Group out-edges by source; stable sort keeps edge-id order
        # within each source bucket.
        order = np.argsort(self.edge_src, kind="stable")
        self.csr_edges = order
        counts = np.bincount(self.edge_src, minlength=self.n)
        self.csr_start = np.concatenate(
            ([0], np.cumsum(counts))
        ).astype(np.int64)


def strongly_connected_components(arrays: GraphArrays) -> List[List[int]]:
    """Iterative Tarjan over the CSR arrays (vertex-id components)."""
    n = arrays.n
    snk = arrays.edge_snk
    csr_start = arrays.csr_start
    csr_edges = arrays.csr_edges
    ids = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    ptr = [0] * n
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0
    for root in range(n):
        if ids[root] != -1:
            continue
        work = [root]
        while work:
            u = work[-1]
            if ids[u] == -1:
                ids[u] = low[u] = counter
                counter += 1
                stack.append(u)
                on_stack[u] = True
            recursed = False
            degree = int(csr_start[u + 1] - csr_start[u])
            while ptr[u] < degree:
                eid = int(csr_edges[csr_start[u] + ptr[u]])
                ptr[u] += 1
                x = int(snk[eid])
                if ids[x] == -1:
                    work.append(x)
                    recursed = True
                    break
                if on_stack[x] and ids[x] < low[u]:
                    low[u] = ids[x]
            if recursed:
                continue
            work.pop()
            if low[u] == ids[u]:
                component = []
                while True:
                    x = stack.pop()
                    on_stack[x] = False
                    component.append(x)
                    if x == u:
                        break
                components.append(component)
            if work:
                parent = work[-1]
                if low[u] < low[parent]:
                    low[parent] = low[u]
    return components


def _evaluate_policy(
    n: int,
    pol_snk: List[int],
    pol_w: List[int],
    pol_tau: List[int],
    pol_eid: List[int],
) -> Tuple[List[float], List[float], List[Tuple[int, int, List[int]]]]:
    """Value determination for one policy (a functional graph).

    Returns per-vertex cycle ratios ``eta``, bias values ``v`` and the
    list of policy cycles as ``(w_sum, tau_sum, edge ids)`` with exact
    integer sums.  Every vertex's policy path leads to exactly one
    cycle; its ``eta`` is that cycle's ratio and its bias solves
    ``v[u] = w(u) - eta[u] * tau(u) + v[succ(u)]`` with one cycle vertex
    anchored at 0.
    """
    color = [0] * n  # 0 unvisited, 1 on current path, 2 finished
    eta = [0.0] * n
    bias = [0.0] * n
    cycles: List[Tuple[int, int, List[int]]] = []
    for start in range(n):
        if color[start]:
            continue
        path: List[int] = []
        u = start
        while color[u] == 0:
            color[u] = 1
            path.append(u)
            u = pol_snk[u]
        if color[u] == 1:
            # Found a new policy cycle: path[k:] where path[k] == u.
            k = path.index(u)
            cyc = path[k:]
            w_sum = sum(pol_w[node] for node in cyc)
            tau_sum = sum(pol_tau[node] for node in cyc)
            ratio = w_sum / tau_sum
            cycles.append((w_sum, tau_sum, [pol_eid[node] for node in cyc]))
            # Anchor the entry vertex and unroll the recurrence backwards
            # around the cycle (the full loop is consistent because
            # sum(w - ratio * tau) is 0 around it by construction).
            bias[cyc[0]] = 0.0
            for idx in range(len(cyc) - 1, 0, -1):
                node = cyc[idx]
                succ = pol_snk[node]
                bias[node] = (
                    pol_w[node] - ratio * pol_tau[node] + bias[succ]
                )
            for node in cyc:
                eta[node] = ratio
                color[node] = 2
        # Unwind the acyclic suffix (and, after a cycle, the prefix that
        # leads into it) in reverse: each vertex's successor is done.
        for node in reversed(path):
            if color[node] == 2:
                continue
            succ = pol_snk[node]
            eta[node] = eta[succ]
            bias[node] = pol_w[node] - eta[node] * pol_tau[node] + bias[succ]
            color[node] = 2
    return eta, bias, cycles


def _howard_component(
    arrays: GraphArrays,
    component: List[int],
    component_edges: List[int],
) -> Optional[Tuple[int, int, List[int]]]:
    """Maximum cycle ratio of one strongly connected component.

    Returns ``(w_sum, tau_sum, edge ids)`` of a critical cycle, or
    ``None`` when the component carries no cycle (single vertex without
    a self-loop).
    """
    local = {v: i for i, v in enumerate(component)}
    n = len(component)
    out: List[List[Tuple[int, int, int, int]]] = [[] for _ in range(n)]
    for eid in sorted(component_edges):
        src = int(arrays.edge_src[eid])
        out[local[src]].append(
            (
                int(arrays.cycles[src]),
                int(arrays.edge_delay[eid]),
                local[int(arrays.edge_snk[eid])],
                eid,
            )
        )
    if any(not edges for edges in out):
        # Only possible for a trivial SCC: no cycle through here.
        return None

    # Edge arrays of the component, for the vectorized improvement scan.
    ce_w: List[int] = []
    ce_tau: List[int] = []
    ce_src: List[int] = []
    ce_snk: List[int] = []
    ce_eid: List[int] = []
    for u, edges in enumerate(out):
        for w, tau, x, eid in edges:
            ce_w.append(w)
            ce_tau.append(tau)
            ce_src.append(u)
            ce_snk.append(x)
            ce_eid.append(eid)
    ce_w_arr = np.array(ce_w, dtype=np.float64)
    ce_tau_arr = np.array(ce_tau, dtype=np.float64)
    ce_src_arr = np.array(ce_src, dtype=np.int64)
    ce_snk_arr = np.array(ce_snk, dtype=np.int64)

    # Initial policy: the lowest-id out-edge of every vertex.
    pol_w = [out[u][0][0] for u in range(n)]
    pol_tau = [out[u][0][1] for u in range(n)]
    pol_snk = [out[u][0][2] for u in range(n)]
    pol_eid = [out[u][0][3] for u in range(n)]

    eps = 1e-10 * (1.0 + float(sum(pol_w)) + float(arrays.cycles.sum()))
    best: Optional[Tuple[int, int, List[int]]] = None
    # Policy iteration converges in far fewer rounds; the cap is a
    # backstop against float-noise oscillation, after which the current
    # (still valid, possibly sub-optimal) policy cycle is returned.
    for _ in range(4 * (n + len(ce_w)) + 16):
        eta, bias, cycles = _evaluate_policy(
            n, pol_snk, pol_w, pol_tau, pol_eid
        )
        best = max(cycles, key=lambda c: (c[0] / c[1], -len(c[2])))
        eta_arr = np.array(eta)
        bias_arr = np.array(bias)

        improved = False
        # Phase 1 — ratio improvement: point u at a successor whose
        # policy cycle has a strictly larger ratio.
        gain = eta_arr[ce_snk_arr] - eta_arr[ce_src_arr]
        candidates = np.nonzero(gain > eps)[0]
        if candidates.size:
            chosen: Dict[int, Tuple[float, int]] = {}
            for k in candidates.tolist():
                u = ce_src[k]
                key = (eta[ce_snk[k]], -ce_eid[k])
                if u not in chosen or key > chosen[u]:
                    chosen[u] = key
                    pol_w[u] = ce_w[k]
                    pol_tau[u] = ce_tau[k]
                    pol_snk[u] = ce_snk[k]
                    pol_eid[u] = ce_eid[k]
            improved = True
        else:
            # Phase 2 — bias improvement at the fixed ratio.
            slack = (
                ce_w_arr
                - eta_arr[ce_src_arr] * ce_tau_arr
                + bias_arr[ce_snk_arr]
                - bias_arr[ce_src_arr]
            )
            same_ratio = eta_arr[ce_snk_arr] >= eta_arr[ce_src_arr] - eps
            candidates = np.nonzero((slack > eps) & same_ratio)[0]
            if candidates.size:
                chosen2: Dict[int, Tuple[float, int]] = {}
                for k in candidates.tolist():
                    u = ce_src[k]
                    key = (float(slack[k]), -ce_eid[k])
                    if u not in chosen2 or key > chosen2[u]:
                        chosen2[u] = key
                        pol_w[u] = ce_w[k]
                        pol_tau[u] = ce_tau[k]
                        pol_snk[u] = ce_snk[k]
                        pol_eid[u] = ce_eid[k]
                improved = True
        if not improved:
            break
    assert best is not None
    return best


def howard_mcm(
    arrays: GraphArrays,
) -> Tuple[float, int, int, List[int]]:
    """Exact maximum cycle ratio of a timed graph, with witness.

    Precondition: no zero-total-delay cycle (the caller returns
    ``math.inf`` for those before building arrays).  Returns
    ``(value, total_cycles, total_delay, edge ids of a critical cycle)``;
    acyclic graphs yield ``(0.0, 0, 0, [])``.  The value is computed as
    the float division of the witness cycle's exact integer sums, so it
    carries no search tolerance.
    """
    if arrays.m == 0:
        return 0.0, 0, 0, []
    components = strongly_connected_components(arrays)
    component_of = [0] * arrays.n
    for cid, component in enumerate(components):
        for v in component:
            component_of[v] = cid
    buckets: Dict[int, List[int]] = {}
    for eid in range(arrays.m):
        src = int(arrays.edge_src[eid])
        if component_of[src] == component_of[int(arrays.edge_snk[eid])]:
            buckets.setdefault(component_of[src], []).append(eid)
    best: Optional[Tuple[int, int, List[int]]] = None
    for cid, edge_ids in sorted(buckets.items()):
        result = _howard_component(arrays, components[cid], edge_ids)
        if result is None:
            continue
        if best is None or result[0] * best[1] > best[0] * result[1]:
            best = result
    if best is None:
        return 0.0, 0, 0, []
    w_sum, tau_sum, edge_ids = best
    return w_sum / tau_sum, w_sum, tau_sum, edge_ids


class MinDelayOracle:
    """All-pairs minimum path delay under single-edge mutation.

    Wraps a :class:`TimedGraph`: route ``remove_edge`` / ``add_edge``
    through the oracle and :meth:`table` stays exactly equal to
    ``graph.min_delay_paths()`` — at the cost of an affected-pairs
    repair instead of a full Floyd–Warshall per mutation.

    * **Removal** of ``(u, v, d)`` can only change rows of sources whose
      shortest path to ``v`` went through the edge; by the subpath
      property those are exactly the sources with
      ``dist[i][v] == dist[i][u] + d``.  Only those rows are recomputed
      (Dijkstra, non-negative integer delays).
    * **Insertion** relaxes every pair once through the new edge
      (``dist[i][j] = min(dist[i][j], dist[i][u] + d + dist[v][j])``) —
      sound because a minimum-delay walk never needs the new edge twice
      (delays are non-negative, so excising the implied cycle never
      hurts).

    After every repair the table is re-installed as the graph's
    ``min_delay_paths`` memo, so interleaved redundancy checks cost a
    dictionary lookup, never a recompute.
    """

    def __init__(self, graph: TimedGraph) -> None:
        self.graph = graph
        self._dist = graph.min_delay_paths()

    def table(self) -> Dict[str, Dict[str, int]]:
        return self._dist

    def _adjacency(self) -> Dict[str, List[Tuple[str, int]]]:
        adjacency: Dict[str, Dict[str, int]] = {
            v.name: {} for v in self.graph.vertices
        }
        for edge in self.graph.edges:
            current = adjacency[edge.src].get(edge.snk)
            if current is None or edge.delay < current:
                adjacency[edge.src][edge.snk] = edge.delay
        return {
            name: sorted(row.items()) for name, row in adjacency.items()
        }

    @staticmethod
    def _dijkstra_row(
        source: str, adjacency: Dict[str, List[Tuple[str, int]]]
    ) -> Dict[str, int]:
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, d):
                continue
            for x, w in adjacency[u]:
                nd = d + w
                known = dist.get(x)
                if known is None or nd < known:
                    dist[x] = nd
                    heapq.heappush(heap, (nd, x))
        return dist

    def _install(self) -> None:
        self.graph._install_min_delay_cache(self._dist)

    def remove_edge(self, edge) -> None:
        """Remove ``edge`` from the graph and repair the table."""
        self.graph.remove_edge(edge)
        u, v, d = edge.src, edge.snk, edge.delay
        dist = self._dist
        affected = [
            i
            for i, row in dist.items()
            if row.get(u) is not None and row.get(v) == row[u] + d
        ]
        if affected:
            adjacency = self._adjacency()
            for i in affected:
                dist[i] = self._dijkstra_row(i, adjacency)
        self._install()

    def add_edge(self, edge) -> None:
        """Insert ``edge`` into the graph and repair the table."""
        self.graph.add_edge(edge)
        u, v, d = edge.src, edge.snk, edge.delay
        dist = self._dist
        vrow = dist[v]
        for row in dist.values():
            diu = row.get(u)
            if diu is None:
                continue
            base = diu + d
            for j, dvj in vrow.items():
                nd = base + dvj
                current = row.get(j)
                if current is None or nd < current:
                    row[j] = nd
        self._install()
