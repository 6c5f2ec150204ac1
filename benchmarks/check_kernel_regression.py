#!/usr/bin/env python
"""Gate the kernel benchmark against its committed baseline.

Usage::

    python benchmarks/check_kernel_regression.py BASELINE.json CURRENT.json

Gates, strongest applicable wins:

* **no spurious wakeups** (always, on the current document) — every
  kernel workload (wide, deep, contended) must report
  ``spurious_wakeups == 0``: a targeted wakeup reaches only a sequencer
  whose guard now holds.  The counter is deterministic and independent
  of machine and mode, so a quick CI run applies it in full.
* **steady-state floor** (always, on the current document) — the best
  steady-state auto-vs-off ``simulation_speedup`` across the fig6/fig7
  sweep (wall time minus the time inside ``Actor.fire``: both modes run
  every kernel, the warp removes the simulation around them) must stay
  >= 5x in full mode (2x quick), both modes must fire the same number
  of kernels, auto must never be meaningfully slower than off on any
  application, and the document must report a real (> 0) iteration
  period for its periodic workload.
* **host-normalized throughput floor** (always, needs both documents)
  — each workload's ``events_per_reference_loop`` (events/sec times
  the wall of a fixed pure-python event loop timed next to it, see
  ``bench_kernel.py``) is throughput in host-independent units, and a
  quick run measures close to a full one.
  No workload may fall below ``NORMALIZED_FLOOR`` of the baseline's
  normalized throughput, so a quick CI run still catches a kernel
  slowdown against the committed full-mode baseline.
* **per-workload comparison** (same-mode runs only) — when baseline and
  current were produced with the same ``quick`` flag, the events/sec of
  no workload may regress by more than the tolerance.  Quick-vs-full
  pairs skip this (the workload sizes differ, so the numbers are
  incomparable) and rely on the other gates.

Exit status 0 = pass, 1 = regression, 2 = unusable input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: fraction of the baseline a metric may lose before the gate fails
TOLERANCE = 0.20

#: share of the baseline's host-normalized events/sec every workload
#: must keep, in any mode pairing
NORMALIZED_FLOOR = 0.6

#: synthetic kernel workloads whose wakeups must all be productive
KERNEL_WORKLOADS = ("wide", "deep", "contended")

#: best fig6/fig7 steady-state auto-vs-off speedup floor outside the
#: host kernels, by mode
STEADY_FLOOR_FULL = 5.0
STEADY_FLOOR_QUICK = 2.0

#: auto may cost at most this factor over off on a workload where it
#: declines (tracker/eligibility overhead + timer noise on sub-100ms
#: walls; best-of-REPEATS keeps real runs well under it)
STEADY_SLOWDOWN_BOUND = 1.15


def check_steady_state(current: dict) -> list:
    """Current-document steady-state gates (no baseline needed)."""
    failures = []
    steady = current["extra"].get("steady_state")
    if not steady:
        failures.append(
            "extra.steady_state sweep missing from the current document"
        )
        return failures
    period = current.get("iteration_period_cycles", 0.0)
    if not period > 0:
        failures.append(
            f"iteration_period_cycles is {period!r}; the kernel bench "
            f"declares a periodic workload and must report fig6's "
            f"detected period"
        )
    floor = STEADY_FLOOR_QUICK if current.get("quick") else STEADY_FLOOR_FULL
    best = max(stats.get("simulation_speedup", 0.0) for stats in steady.values())
    if best < floor:
        failures.append(
            f"best steady-state auto/off speedup outside the kernels "
            f"{best:.2f}x fell below the {floor:.1f}x floor"
        )
    for fig, stats in sorted(steady.items()):
        if stats.get("compiled_firings_off") != stats["compiled_firings"]:
            failures.append(
                f"{fig}: auto fired {stats['compiled_firings']} kernels, "
                f"off {stats.get('compiled_firings_off')} (a warp must "
                f"skip no kernel firing)"
            )
        off = stats["off_wall_seconds"]
        auto = stats["auto_wall_seconds"]
        if auto > off * STEADY_SLOWDOWN_BOUND:
            failures.append(
                f"{fig}: steady-state auto wall {auto:.3f}s exceeds "
                f"off wall {off:.3f}s by more than "
                f"{STEADY_SLOWDOWN_BOUND:.2f}x (auto must cost ~nothing "
                f"when it declines)"
            )
    return failures


def _load(path: str) -> dict:
    document = json.loads(Path(path).read_text())
    if document.get("schema") != "repro.bench/1" or document.get("name") != "kernel":
        raise ValueError(f"{path}: not a kernel bench document")
    return document


def check_spurious_wakeups(current: dict) -> list:
    """Every kernel workload must wake only sequencers that can run."""
    failures = []
    workloads = current["extra"]["workloads"]
    for name in KERNEL_WORKLOADS:
        stats = workloads.get(name)
        if stats is None:
            failures.append(f"workload {name!r} missing from current run")
        elif stats["spurious_wakeups"] != 0:
            failures.append(
                f"{name}: {stats['spurious_wakeups']} spurious wakeups "
                f"(a targeted wakeup must find its guard open)"
            )
    return failures


def check_normalized_throughput(baseline: dict, current: dict) -> list:
    """Host-normalized events/sec must keep NORMALIZED_FLOOR of baseline."""
    failures = []
    base_workloads = baseline["extra"]["workloads"]
    cur_workloads = current["extra"]["workloads"]
    for name in KERNEL_WORKLOADS:
        if name not in base_workloads or name not in cur_workloads:
            continue  # reported by the spurious-wakeup gate
        base = base_workloads[name].get("events_per_reference_loop")
        cur = cur_workloads[name].get("events_per_reference_loop")
        if not base or not cur:
            failures.append(
                f"{name}: events_per_reference_loop missing (regenerate "
                f"both documents with benchmarks/bench_kernel.py)"
            )
        elif cur < base * NORMALIZED_FLOOR:
            failures.append(
                f"{name}: host-normalized throughput {cur:.0f} fell below "
                f"{NORMALIZED_FLOOR:.0%} of the baseline's {base:.0f} "
                f"(events per reference-loop wall)"
            )
    return failures


def check(baseline: dict, current: dict) -> list:
    """Return a list of human-readable failure strings (empty = pass)."""
    failures = check_spurious_wakeups(current)
    failures.extend(check_steady_state(current))
    failures.extend(check_normalized_throughput(baseline, current))

    if baseline.get("quick") == current.get("quick"):
        base_workloads = baseline["extra"]["workloads"]
        cur_workloads = current["extra"]["workloads"]
        for key, base_stats in sorted(base_workloads.items()):
            cur_stats = cur_workloads.get(key)
            if cur_stats is None:
                failures.append(f"workload {key!r} missing from current run")
                continue
            base_eps = base_stats["events_per_second"]
            cur_eps = cur_stats["events_per_second"]
            if cur_eps < base_eps * (1.0 - TOLERANCE):
                failures.append(
                    f"{key}: events/sec regressed {base_eps:.0f} -> "
                    f"{cur_eps:.0f} (> {TOLERANCE:.0%} loss)"
                )
    else:
        print(
            "note: baseline/current quick flags differ; raw events/sec "
            "comparison skipped (the other gates still apply)"
        )
    return failures


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    try:
        baseline = _load(argv[1])
        current = _load(argv[2])
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}")
        return 2
    failures = check(baseline, current)
    if failures:
        print("kernel benchmark regression:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    steady = current["extra"].get("steady_state") or {}
    best_steady = max(
        (s["simulation_speedup"] for s in steady.values()), default=0.0
    )
    print(
        "kernel benchmark OK: no spurious wakeups on "
        f"{', '.join(KERNEL_WORKLOADS)}, host-normalized throughput "
        f"above {NORMALIZED_FLOOR:.0%} of baseline, best steady-state "
        f"auto/off speedup outside the kernels {best_steady:.2f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
