#!/usr/bin/env python
"""Gate the analysis benchmark against its committed baseline.

Usage::

    python benchmarks/check_analysis_regression.py BASELINE.json CURRENT.json

Each case's ``normalized_seconds`` (cold-analysis wall divided by the
host reference loop's wall, see ``bench_analysis.py``) is compared with
the baseline's.  Quick and full mode compile the same cases, so any
pair of documents is comparable.  A case fails when its host-normalized
throughput (baseline / current normalized time) falls below the
strongest applicable floor:

* ``NORMALIZED_FLOOR`` (always, every case) — at most 1.67x slower;
* ``1 - TOLERANCE`` (baseline and current share the ``quick`` flag) —
  at most 1.33x slower;
* ``LARGE_REP_FLOOR`` (``large_rep``, full-mode current only) — at most
  1.28x slower.

Exit status 0 = pass, 1 = regression, 2 = unusable input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: share of the baseline's host-normalized throughput every case keeps
#: in any mode (the kernel gate's floor)
NORMALIZED_FLOOR = 0.6

#: fraction of the baseline a same-mode run may lose
TOLERANCE = 0.25

#: the large-repetition-vector case's full-mode floor
LARGE_REP_FLOOR = 1 / 1.28


def _load(path: str) -> dict:
    document = json.loads(Path(path).read_text())
    if (
        document.get("schema") != "repro.bench/1"
        or document.get("name") != "analysis"
    ):
        raise ValueError(f"{path}: not an analysis bench document")
    return document


def _floor(name: str, baseline: dict, current: dict) -> float:
    floor = NORMALIZED_FLOOR
    if baseline.get("quick") == current.get("quick"):
        floor = max(floor, 1.0 - TOLERANCE)
    if name == "large_rep" and not current.get("quick"):
        floor = max(floor, LARGE_REP_FLOOR)
    return floor


def check(baseline: dict, current: dict) -> list:
    """Return a list of human-readable failure strings (empty = pass)."""
    failures = []
    cases = current["extra"]["cases"]
    for name, base in sorted(baseline["extra"]["cases"].items()):
        cur = cases.get(name)
        if cur is None:
            failures.append(f"case {name!r} missing from current run")
            continue
        ratio = base["normalized_seconds"] / cur["normalized_seconds"]
        floor = _floor(name, baseline, current)
        if ratio < floor:
            failures.append(
                f"{name}: host-normalized cold analysis "
                f"{base['normalized_seconds']:.2f} -> "
                f"{cur['normalized_seconds']:.2f} reference loops "
                f"({1 / ratio:.2f}x slower, limit {1 / floor:.2f}x)"
            )
    return failures


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    try:
        baseline = _load(argv[1])
        current = _load(argv[2])
        failures = check(baseline, current)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}")
        return 2
    if failures:
        print("analysis benchmark regression:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    base_cases = baseline["extra"]["cases"]
    summary = ", ".join(
        f"{name} {case['normalized_seconds']:.2f} "
        f"(baseline {base_cases[name]['normalized_seconds']:.2f})"
        for name, case in sorted(current["extra"]["cases"].items())
        if name in base_cases
    )
    print(
        f"analysis benchmark OK, host-normalized cold analysis in "
        f"reference loops: {summary}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
