#!/usr/bin/env python
"""Gate a BENCH document against its committed baseline.

Usage::

    python benchmarks/check_regression.py BASELINE.json CURRENT.json

Both files are ``repro.bench/1`` documents of the same benchmark, and
their ``name`` picks the gates.  Most gates are rows of ``TABLES``, one
tuple per benchmark.  A row names a value by path and bounds it with one
of three comparisons:

* ``floor`` — the value is at least the bound (``strict``: above it).
  With a reference the bounded number is a ratio: value / sibling
  (``over=``), or the host-normalized ratio to the baseline, current /
  baseline (baseline / current for ``lower``-is-better metrics such as
  seconds).  ``best`` rows need only their best item to pass.
* ``ceiling`` — the value is at most the bound times its reference (the
  baseline's value or a sibling field).
* ``equal`` — the value equals a constant or a sibling field.

The constructors below name the usual rows: ``ratio`` (floor against the
baseline), ``tolerance`` (a ``1 - tol`` ratio between documents of the
same mode), ``no_growth`` (a deterministic count may not exceed the
baseline's in the same mode).  A row may apply only when the current
document is full or quick mode (``when="full"``/``"quick"``) or when
both documents share the ``quick`` flag (``when="same"``).

Paths are dot-separated keys: ``*`` stands for every value of a mapping
and ``rows[n_pes]`` for every item of a list, labelled by its
``n_pes``.  A row against the baseline visits the baseline's items, and
each must exist in the current document too.  Gates that relate several
items (the collectives p >= 4 win and largest-p reduction, the batching
hetero-vs-homo win) are the small functions in ``STRUCTURAL``.

Exit status 0 = pass, 1 = regression, 2 = unusable input: an unreadable
file, a wrong schema or name, or a missing key.  The message names the
document and the key.
"""

import json
import sys
from dataclasses import dataclass
from pathlib import Path

SCHEMA = "repro.bench/1"
#: ``Gate.ref`` value that compares with the baseline document
BASELINE = "<baseline>"


class Malformed(Exception):
    """The documents cannot be gated (exit status 2)."""


@dataclass(frozen=True)
class Gate:
    kind: str  # "floor" | "ceiling" | "equal"
    path: str
    bound: float = 1.0
    ref: str = ""  # "", BASELINE, or a sibling field of the same item
    when: str = ""  # "", "full"/"quick" (current's mode) or "same"
    lower: bool = False  # floor against a reference: ref / value
    strict: bool = False  # floor: the bound itself fails
    best: bool = False  # floor: only the best item must pass


def floor(path, bound, over="", **options) -> Gate:
    return Gate("floor", path, bound, ref=over, **options)


def ratio(path, bound, **options) -> Gate:
    return Gate("floor", path, bound, ref=BASELINE, **options)


def tolerance(path, tol, **options) -> Gate:
    return ratio(path, 1.0 - tol, when="same", **options)


def no_growth(path) -> Gate:
    return Gate("ceiling", path, 1.0, ref=BASELINE, when="same")


def ceiling(path, bound, ref) -> Gate:
    return Gate("ceiling", path, bound, ref=ref)


def equal(path, bound=0, ref="") -> Gate:
    return Gate("equal", path, bound, ref=ref)


TABLES = {
    "analysis": (
        # cold-analysis wall in host reference loops, per case
        ratio("extra.cases.*.normalized_seconds", 0.6, lower=True),
        tolerance("extra.cases.*.normalized_seconds", 0.25, lower=True),
        ratio(
            "extra.cases.large_rep.normalized_seconds",
            1 / 1.28,
            lower=True,
            when="full",
        ),
    ),
    "batching": (
        # best batched fig6 configuration vs batch=1, in cycles
        floor("extra.fig6_batch1_cycles", 1.5, over="fig6_best_cycles",
              when="full"),
        floor("extra.fig6_batch1_cycles", 1.2, over="fig6_best_cycles",
              when="quick"),
        # the particle filter's feedback loop admits no blocking factor
        equal("extra.fig7.effective_batch", 1),
        equal("extra.fig7.batch_dispatches", 0),
        # vectorized host kernels beat their reference loops (wall clock)
        floor("extra.kernels[name].speedup", 1.0, strict=True, when="full"),
        no_growth("extra.rows[n_units,requested_batch].cycles"),
    ),
    "campaign": (
        floor("extra.speedup", 3.0, when="full"),
        floor("extra.speedup", 1.5, when="quick"),
        floor("extra.cache.hit_rate", 0.9),
        equal("extra.service.failed_units", 0),
        ratio("extra.cold_miss.runs_per_reference_loop", 0.6),
        tolerance("extra.speedup", 0.30),
        tolerance("extra.service.runs_per_sec", 0.30),
    ),
    "collectives": (
        no_growth("extra.rows[n_pes].collective.wire_messages"),
        no_growth("extra.rows[n_pes].collective.wire_bytes"),
    ),
    "kernel": (
        # a targeted wakeup reaches only a sequencer whose guard holds
        equal("extra.workloads.*.spurious_wakeups", 0),
        # fig6's detected period: the bench declares a periodic workload
        floor("iteration_period_cycles", 0, strict=True),
        # auto vs off wall outside Actor.fire, best fig of the sweep
        floor("extra.steady_state.*.simulation_speedup", 5.0, best=True,
              when="full"),
        floor("extra.steady_state.*.simulation_speedup", 2.0, best=True,
              when="quick"),
        # a warp skips no kernel firing
        equal("extra.steady_state.*.compiled_firings_off",
              ref="compiled_firings"),
        # auto costs about nothing where it declines
        ceiling("extra.steady_state.*.auto_wall_seconds", 1.15,
                ref="off_wall_seconds"),
        ratio("extra.workloads.*.events_per_reference_loop", 0.6),
        tolerance("extra.workloads.*.events_per_second", 0.20),
    ),
}


def _get(node, path: str, source: str, label: str = ""):
    """The value at the plain dotted ``path`` under ``node``."""
    for key in path.split("."):
        label = f"{label}.{key}" if label else key
        if not isinstance(node, dict) or key not in node:
            raise Malformed(f"{source}: missing key {label!r}")
        node = node[key]
    return node


def _walk(doc: dict, path: str, source: str) -> dict:
    """``{label: node}`` for every node ``path`` names."""
    nodes = {"": doc}
    for step in filter(None, path.split(".")):
        name, _, fields = step.rstrip("]").partition("[")
        found = {}
        for label, node in nodes.items():
            prefix = f"{label}." if label else ""
            if name == "*":
                if not isinstance(node, dict) or not node:
                    raise Malformed(f"{source}: no entries under {label!r}")
                found.update((prefix + str(k), v) for k, v in node.items())
            elif fields:
                items = _get(node, name, source, label)
                if not isinstance(items, list) or not items:
                    raise Malformed(f"{source}: no items in {prefix + name!r}")
                for item in items:
                    tag = ",".join(
                        f"{field}={_get(item, field, source, prefix + name)}"
                        for field in fields.split(",")
                    )
                    found[f"{prefix}{name}[{tag}]"] = item
            else:
                found[prefix + name] = _get(node, name, source, label)
        nodes = found
    return nodes


def _number(node, key: str, source: str, label: str):
    value = _get(node, key, source, label)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise Malformed(f"{source}: {label or key!r} is not a number")
    return value


def _passes(gate: Gate, value, ref) -> bool:
    if gate.kind == "equal":
        return value == (gate.bound if ref is None else ref)
    if gate.kind == "ceiling":
        return value <= gate.bound * ref
    if ref is not None:
        num, den = (ref, value) if gate.lower else (value, ref)
        if not den:
            return False  # the ratio is undefined: nothing was measured
        value = num / den
    return value > gate.bound if gate.strict else value >= gate.bound


def _rule(gate: Gate) -> str:
    other = "baseline" if gate.ref == BASELINE else gate.ref
    if gate.kind == "equal":
        rule = f"== {other or gate.bound}"
    elif gate.kind == "ceiling":
        rule = f"<= {gate.bound:g} x {other}"
    else:
        measure = f"{other}/value" if gate.lower else f"value/{other}"
        op = ">" if gate.strict else ">="
        rule = f"{measure if other else 'value'} {op} {gate.bound:g}"
    rule = f"best item {rule}" if gate.best else rule
    return f"{rule} ({gate.when} mode)" if gate.when else rule


def _check_gate(gate: Gate, baseline: dict, current: dict, sources) -> list:
    parent, _, leaf = gate.path.rpartition(".")
    items = _walk(current, parent, sources[1])
    if gate.ref == BASELINE:
        base_items = _walk(baseline, parent, sources[0])
        missing = sorted(base_items.keys() - items.keys())
        if missing:
            raise Malformed(f"{sources[1]}: missing key {missing[0]!r}")
        refs = {
            label: _number(item, leaf, sources[0], label)
            for label, item in base_items.items()
        }
    else:
        refs = {
            label: _number(item, gate.ref, sources[1], label)
            if gate.ref else None
            for label, item in items.items()
        }
    failures = []
    for label, ref in refs.items():
        value = _number(items[label], leaf, sources[1], label)
        if _passes(gate, value, ref):
            if gate.best:
                return []
            continue
        against = "" if ref is None else f" ({ref:.6g})"
        failures.append(
            f"{label}.{leaf} = {value:.6g}{against}: needs {_rule(gate)}"
            .lstrip(".")
        )
    return failures


def _hetero_win(current: dict, source: str) -> list:
    """The equal-budget heterogeneous platform beats the homogeneous one."""
    hetero = _get(current, "extra.hetero_vs_homo.hetero_cycles", source)
    homo = _get(current, "extra.hetero_vs_homo.homo_cycles", source)
    if hetero >= homo:
        return [
            f"equal-budget ablation: heterogeneous {hetero} cycles not "
            f"below homogeneous {homo}"
        ]
    return []


def _collective_win(current: dict, source: str) -> list:
    """At every p >= 4 the collective build moves strictly fewer wire
    messages and strictly fewer wire bytes than the p2p fan-out."""
    failures = []
    for label, row in _walk(current, "extra.rows[n_pes]", source).items():
        if row["n_pes"] < 4:
            continue
        for metric in ("wire_messages", "wire_bytes"):
            coll = _get(row, f"collective.{metric}", source, label)
            p2p = _get(row, f"p2p.{metric}", source, label)
            if coll >= p2p:
                failures.append(
                    f"{label}: collective {metric} {coll} not below "
                    f"p2p {p2p}"
                )
    return failures


def _collective_reduction(current: dict, source: str) -> list:
    """At the largest PE count the p2p/collective wire-message ratio is
    at least 1.25 (a property of the lowering, so it holds in any mode)."""
    rows = _walk(current, "extra.rows[n_pes]", source)
    label, row = max(rows.items(), key=lambda item: item[1]["n_pes"])
    coll = _get(row, "collective.wire_messages", source, label)
    p2p = _get(row, "p2p.wire_messages", source, label)
    if coll <= 0 or p2p / coll < 1.25:
        return [f"{label}: wire messages p2p {p2p} / collective {coll} below 1.25"]
    return []


STRUCTURAL = {
    "batching": (_hetero_win,),
    "collectives": (_collective_win, _collective_reduction),
}


def load(path: str) -> dict:
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise Malformed(f"cannot read {path}: {exc}") from None
    if not isinstance(document, dict) or document.get("schema") != SCHEMA:
        raise Malformed(f"{path}: not a {SCHEMA} document")
    if document.get("name") not in TABLES:
        raise Malformed(
            f"{path}: no gates for bench name {document.get('name')!r} "
            f"(known: {', '.join(sorted(TABLES))})"
        )
    _get(document, "quick", path)
    return document


def check(baseline: dict, current: dict, sources=("baseline", "current")):
    """Return the failure strings (empty = pass); raise ``Malformed``."""
    if baseline["name"] != current["name"]:
        raise Malformed(
            f"{sources[1]} is a {current['name']!r} document, "
            f"{sources[0]} a {baseline['name']!r} one"
        )
    same_mode = baseline["quick"] == current["quick"]
    applies = {
        "": True,
        "full": not current["quick"],
        "quick": bool(current["quick"]),
        "same": same_mode,
    }
    failures = []
    for gate in TABLES[current["name"]]:
        if applies[gate.when]:
            failures += _check_gate(gate, baseline, current, sources)
    for gate in STRUCTURAL.get(current["name"], ()):
        failures += gate(current, sources[1])
    return failures


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    try:
        baseline, current = load(argv[1]), load(argv[2])
        failures = check(baseline, current, argv[1:])
    except Malformed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = current["name"]
    if baseline["quick"] != current["quick"]:
        print("note: quick flags differ; same-mode gates skipped")
    if failures:
        print(f"{name} benchmark regression:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"{name} benchmark OK against {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
