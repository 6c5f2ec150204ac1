"""Content-addressed cache for SPI compile-time analysis results.

Campaigns (the conformance fuzzer, the fig6/fig7 sweeps, ablations) run
the *same* graph through :meth:`repro.spi.runtime.SpiSystem.compile`
many times — across repeated seeds, across processes, across CI jobs —
and every run re-derives the same repetitions vector, channel plans
(protocol + ``B(e)``), resynchronization solution and MCM bound from
scratch.  Profiling puts resynchronization alone at ~97% of compile
time, so memoising these four analyses is where campaign throughput
comes from.

The cache is **content-addressed**: keys are SHA-256 digests over a
canonical JSON rendering of the graph structure, the partition and the
analysis-relevant :class:`~repro.spi.runtime.SpiConfig` fields.  Two
``DataflowGraph`` objects that describe the same application hash to
the same key no matter how or where they were built, which is what
makes the cache shareable across shard processes (via an optional disk
directory) and across repeated seeds of a campaign.

Correctness notes:

* graphs with *callable* ``Actor.cycles`` (data-dependent timing) have
  no canonical content, so :func:`graph_fingerprint` returns ``None``
  and every lookup silently bypasses the cache;
* ``SpiConfig.resynchronize`` is part of the analysis key — a cached
  channel plan records the *final* ``acks_enabled`` decision, which is
  only sound together with the resynchronization edges that licensed
  it;
* resynchronization solutions are stored as removed/added edge
  *descriptors* and replayed onto a freshly derived synchronization
  graph (``TimedEdge`` compares by value, not uid); any descriptor that
  no longer matches turns the lookup into a miss and the solution is
  recomputed.

Hit/miss counters are kept per analysis kind and can be flushed into a
:class:`repro.observability.metrics.MetricsRegistry` so cache
effectiveness flows through the standard metrics document.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.mapping.mcm import McmResult
from repro.mapping.resync import ResynchronizationResult, resynchronize
from repro.mapping.timed_graph import TimedEdge

__all__ = [
    "AnalysisCache",
    "CacheReplayError",
    "analysis_key",
    "graph_fingerprint",
]

#: SpiConfig fields that change the *analysis* outputs (channel plans,
#: sync graph, resync solution, MCM).  Transport/clock/link knobs only
#: affect execution, never the compile-time analyses, so they are
#: deliberately not part of the key — a p2p run and a shared-bus run of
#: the same graph share cache entries.
_ANALYSIS_CONFIG_FIELDS = (
    "resynchronize",
    "ubs_window",
    "max_bbs_messages",
    "protocol_policy",
    "word_bytes",
)


class CacheReplayError(ValueError):
    """A cached solution no longer applies to the given graph."""


def _canonical_rate(rate) -> object:
    if isinstance(rate, int):
        return rate
    # DynamicRate: bounded dynamic rate — canonical by its bounds
    return {"bound": rate.bound, "minimum": rate.minimum}


def graph_fingerprint(graph) -> Optional[str]:
    """SHA-256 digest of a graph's analysis-relevant content.

    Returns ``None`` when the graph has no canonical content (an actor
    with a callable cycle model); callers must then bypass the cache.
    The graph *name* is excluded on purpose: ``conform_seed17`` and
    ``conform_seed42`` with identical structure must collide.
    """
    actors = []
    for actor in sorted(graph.actors, key=lambda a: a.name):
        if not isinstance(actor.cycles, int):
            return None
        actors.append(
            {
                "name": actor.name,
                "cycles": actor.cycles,
                "ports": [
                    {
                        "name": port.name,
                        "direction": str(port.direction),
                        "rate": _canonical_rate(port.rate),
                        "token_bytes": port.token_bytes,
                    }
                    for port in sorted(actor.ports, key=lambda p: p.name)
                ],
            }
        )
    edges = sorted(
        (
            {
                "src": edge.source.qualified_name,
                "snk": edge.sink.qualified_name,
                "delay": edge.delay,
            }
            for edge in graph.edges
        ),
        key=lambda e: (e["src"], e["snk"], e["delay"]),
    )
    content = {"actors": actors, "edges": edges}
    # Collective connections change rate overrides, lowering, and the
    # B(e) accounting, so they must key the cache — but pure
    # point-to-point graphs keep their pre-collective fingerprints
    # (stable committed benchmark baselines).
    collectives = [
        {
            "kind": conn.kind,
            "members": [
                {
                    "src": edge.source.qualified_name,
                    "snk": edge.sink.qualified_name,
                }
                for edge in conn.edges
            ],
            "chunks": list(conn.chunks) if conn.chunks else None,
        }
        for conn in getattr(graph, "collective_connections", ())
    ]
    if collectives:
        content["collectives"] = collectives
    payload = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _partition_content(partition) -> Dict[str, object]:
    content: Dict[str, object] = {
        "n_pes": partition.n_pes,
        "assignment": sorted(partition.assignment.items()),
    }
    # Heterogeneity keys enter the fingerprint only when they deviate
    # from the homogeneous default, so every pre-existing cache entry
    # (and committed baseline) keeps its key.
    pe_classes = getattr(partition, "pe_classes", None)
    if pe_classes:
        content["pe_classes"] = sorted(
            (
                pe,
                [
                    kind.kind,
                    kind.dispatch_cycles,
                    kind.cycles_per_element,
                    kind.resource_cost,
                ],
            )
            for pe, kind in pe_classes.items()
        )
    batch_size = getattr(partition, "batch_size", 1)
    if batch_size != 1:
        content["batch_size"] = batch_size
    return content


def _digest(parts: Dict[str, object]) -> str:
    payload = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def analysis_key(graph, partition, config) -> Optional[str]:
    """Content key covering graph + partition + analysis config."""
    fingerprint = graph_fingerprint(graph)
    if fingerprint is None:
        return None
    return _digest(
        {
            "graph": fingerprint,
            "partition": _partition_content(partition),
            "config": {
                name: getattr(config, name)
                for name in _ANALYSIS_CONFIG_FIELDS
            },
        }
    )


def structure_key(graph, partition, config) -> Optional[str]:
    """Key for analyses that depend only on structure, not policy.

    The repetitions vector of the SPI-inserted graph is invariant under
    protocol policy / window / resynchronization choices, so it gets a
    coarser key and is shared across the whole oracle run matrix.
    """
    fingerprint = graph_fingerprint(graph)
    if fingerprint is None:
        return None
    return _digest(
        {
            "graph": fingerprint,
            "partition": _partition_content(partition),
            "word_bytes": config.word_bytes,
        }
    )


def _encode_edge(edge: TimedEdge) -> Dict[str, object]:
    return {
        "src": edge.src,
        "snk": edge.snk,
        "delay": edge.delay,
        "kind": edge.kind,
        "payload_bytes": edge.payload_bytes,
        "origin_edge": edge.origin_edge,
    }


def _decode_edge(raw: Dict[str, object]) -> TimedEdge:
    return TimedEdge(
        src=raw["src"],
        snk=raw["snk"],
        delay=raw["delay"],
        kind=raw["kind"],
        payload_bytes=raw["payload_bytes"],
        origin_edge=raw["origin_edge"],
    )


def _encode_resync(result: ResynchronizationResult) -> Dict[str, object]:
    return {
        "removed": [_encode_edge(e) for e in result.removed],
        "added": [_encode_edge(e) for e in result.added],
        "cost_before": result.cost_before,
        "cost_after": result.cost_after,
        "mcm_before": result.mcm_before,
        "mcm_after": result.mcm_after,
    }


def _replay_resync(sync_graph, raw: Dict[str, object]) -> ResynchronizationResult:
    """Apply a stored resynchronization solution to a fresh sync graph.

    Raises :class:`CacheReplayError` when any removed-edge descriptor
    fails to match an edge of ``sync_graph`` — the caller treats that
    as a miss and recomputes.
    """
    pruned = sync_graph.copy()
    removed: List[TimedEdge] = []
    for descriptor in raw["removed"]:
        candidate = _decode_edge(descriptor)
        if candidate not in pruned.edges:
            raise CacheReplayError(
                f"cached resync removal {candidate.src}->{candidate.snk} "
                f"does not match the derived synchronization graph"
            )
        pruned.remove_edge(candidate)
        removed.append(candidate)
    added = [_decode_edge(descriptor) for descriptor in raw["added"]]
    for edge in added:
        pruned.add_edge(edge)
    return ResynchronizationResult(
        graph=pruned,
        removed=removed,
        added=added,
        cost_before=raw["cost_before"],
        cost_after=raw["cost_after"],
        mcm_before=raw["mcm_before"],
        mcm_after=raw["mcm_after"],
    )


class AnalysisCache:
    """In-memory (optionally disk-backed) analysis memo with counters.

    ``path=None`` keeps everything in this process.  With a directory
    the cache also persists every entry as
    ``<path>/<key[:2]>/<key>.<kind>.json`` (written atomically via
    rename), which is how shard processes of one campaign share work.
    """

    KINDS = ("repetitions", "channel_plans", "resync", "mcm", "period")

    def __init__(self, path: Optional[os.PathLike] = None) -> None:
        self.path = Path(path) if path is not None else None
        self._memory: Dict[str, object] = {}
        self.hits: Dict[str, int] = {kind: 0 for kind in self.KINDS}
        self.misses: Dict[str, int] = {kind: 0 for kind in self.KINDS}

    # -- keying ------------------------------------------------------------

    def key_for(self, graph, partition, config) -> Optional[str]:
        return analysis_key(graph, partition, config)

    def structure_key_for(self, graph, partition, config) -> Optional[str]:
        return structure_key(graph, partition, config)

    # -- storage -----------------------------------------------------------

    def _disk_file(self, key: str, kind: str) -> Path:
        assert self.path is not None
        return self.path / key[:2] / f"{key}.{kind}.json"

    def _load(self, key: str, kind: str) -> Optional[object]:
        entry = self._memory.get(f"{key}.{kind}")
        if entry is not None:
            return entry
        if self.path is None:
            return None
        target = self._disk_file(key, kind)
        try:
            entry = json.loads(target.read_text())
        except (OSError, ValueError):
            return None
        self._memory[f"{key}.{kind}"] = entry
        return entry

    def _store(self, key: str, kind: str, value: object) -> None:
        self._memory[f"{key}.{kind}"] = value
        if self.path is None:
            return
        target = self._disk_file(key, kind)
        target.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publish: concurrent shards may race on the same key,
        # but a rename never exposes a half-written file.
        fd, tmp = tempfile.mkstemp(
            dir=str(target.parent), suffix=".tmp", prefix=target.name
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(value, handle)
            os.replace(tmp, target)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def _note(self, kind: str, hit: bool) -> None:
        if hit:
            self.hits[kind] += 1
        else:
            self.misses[kind] += 1

    # -- analyses ----------------------------------------------------------

    def repetitions(
        self, key: Optional[str], compute: Callable[[], Dict[str, int]]
    ) -> Dict[str, int]:
        """Repetitions vector of the SPI-inserted graph."""
        if key is None:
            return compute()
        cached = self._load(key, "repetitions")
        if cached is not None:
            self._note("repetitions", True)
            return dict(cached)
        self._note("repetitions", False)
        value = compute()
        self._store(key, "repetitions", dict(value))
        return dict(value)

    def mcm(
        self, key: Optional[str], compute: Callable[[], McmResult]
    ) -> McmResult:
        """MCM of the (resynchronized) sync graph, with witness.

        The stored payload carries the critical-cycle witness alongside
        the bound; entries written before the witness existed (bare
        ``{"value": ...}``) still load, as witness-less results.
        """
        if key is None:
            return compute()
        cached = self._load(key, "mcm")
        if cached is not None:
            self._note("mcm", True)
            return McmResult.from_dict(cached)
        self._note("mcm", False)
        result = compute()
        self._store(key, "mcm", result.to_dict())
        return result

    def channel_decisions(
        self, key: Optional[str]
    ) -> Optional[Dict[str, Dict[str, object]]]:
        """Stored per-channel (protocol, capacity, acks) decisions."""
        if key is None:
            return None
        cached = self._load(key, "channel_plans")
        self._note("channel_plans", cached is not None)
        return cached

    def store_channel_decisions(self, key: Optional[str], plans) -> None:
        """Record the *final* decisions of every channel plan."""
        if key is None:
            return
        self._store(
            key,
            "channel_plans",
            {
                name: {
                    "protocol": plan.protocol,
                    "capacity_messages": plan.capacity_messages,
                    "acks_enabled": plan.acks_enabled,
                }
                for name, plan in plans.items()
            },
        )

    def period_hint(self, key: Optional[str]) -> Optional[Tuple[int, int]]:
        """Observed steady-state period ``(iterations, cycles)`` of a
        previous run of the same system (same graph + execution knobs).

        The hint is advisory: the steady-state tracker still requires an
        exact kernel-state recurrence with matching period before it
        warps, so a stale or wrong hint costs nothing but the shortcut.
        """
        if key is None:
            return None
        cached = self._load(key, "period")
        self._note("period", cached is not None)
        if cached is None:
            return None
        return (int(cached["iterations"]), int(cached["cycles"]))

    def store_period(
        self, key: Optional[str], period_iterations: int, period_cycles: int
    ) -> None:
        """Record a confirmed steady-state period for future runs."""
        if key is None:
            return
        self._store(
            key,
            "period",
            {"iterations": period_iterations, "cycles": period_cycles},
        )

    def resynchronize(self, key: Optional[str], sync_graph) -> ResynchronizationResult:
        """Replay the cached resynchronization solution, or compute it."""
        if key is None:
            return resynchronize(sync_graph)
        raw = self._load(key, "resync")
        if raw is not None:
            try:
                result = _replay_resync(sync_graph, raw)
            except CacheReplayError:
                pass
            else:
                self._note("resync", True)
                return result
        self._note("resync", False)
        result = resynchronize(sync_graph)
        self._store(key, "resync", _encode_resync(result))
        return result

    # -- reporting ---------------------------------------------------------

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    def hit_rate(self) -> float:
        total = self.total_hits + self.total_misses
        return self.total_hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        return {
            "hits": self.total_hits,
            "misses": self.total_misses,
            "hit_rate": self.hit_rate(),
            "by_kind": {
                kind: {"hits": self.hits[kind], "misses": self.misses[kind]}
                for kind in self.KINDS
            },
        }

