"""The BENCH regression gate (``benchmarks/check_regression.py``).

Every committed baseline passes against itself and against its
committed quick-mode document.  Every table row and every structural
gate is pushed exactly to its bound (exit 0, or 1 for a strict bound)
and just past it (exit 1).  Unusable input exits 2 and names the
document and the key.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"
#: quick-mode documents of the committed baselines' benches
QUICK = Path(__file__).parent / "data" / "bench"


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_regression", ROOT / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()
NAMES = sorted(checker.TABLES)

#: (baseline quick, current quick) under which a row applies and no
#: other row of the same value binds first
MODES = {
    "": (False, True),
    "quick": (False, True),
    "full": (True, False),
    "same": (True, True),
}
#: where a mutated value sits: -1 just past the bound, +1 just inside
STEPS = {"past": -1, "at": 0, "inside": 1}


def committed(name: str) -> dict:
    return json.loads((RESULTS / f"BENCH_{name}.json").read_text())


def _items(doc: dict, path: str) -> list:
    return list(checker._walk(doc, path, "test").values())


def row_documents(name: str, gate, position: str):
    """(baseline, current) with ``gate`` at, just past or just inside its
    bound.  References are powers of two, so "at" is exact in floats."""
    baseline = committed(name)
    current = copy.deepcopy(baseline)
    baseline["quick"], current["quick"] = MODES[gate.when]
    step = STEPS[position]
    parent, _, leaf = gate.path.rpartition(".")
    items = _items(current, parent)
    ref_items, ref_key = (
        (_items(baseline, parent), leaf)
        if gate.ref == checker.BASELINE
        else (items, gate.ref)
    )
    ref = None
    if gate.ref:
        ref = 2.0 ** math.floor(
            math.log2(min(item[ref_key] for item in ref_items))
        )
    if gate.kind == "equal":
        value = (gate.bound if ref is None else ref) + (step < 0)
    elif gate.kind == "ceiling":
        value = ref * gate.bound * (1 - step / 64)
    elif ref is None:
        value = gate.bound + step * max(abs(gate.bound), 1) / 64
    elif gate.lower:
        ref, value = ref * gate.bound, ref * (1 - step / 64)
    else:
        value = ref * gate.bound * (1 + step / 64)
    for item in items:
        item[leaf] = value
    if ref is not None:
        for item in ref_items:
            item[ref_key] = ref
    return baseline, current


def _structural_documents():
    """(id, name, baseline, current, expected exit) per structural gate,
    each mutated exactly to its bound and one step past it."""
    cases = []
    for metric in ("wire_messages", "wire_bytes"):
        for position, gap in (("at", 1), ("past", 0)):
            doc = committed("collectives")
            row = next(r for r in doc["extra"]["rows"] if r["n_pes"] == 4)
            row["p2p"][metric] = row["collective"][metric] + gap
            cases.append(
                (f"collectives-p4-win-{metric}-{position}", "collectives",
                 committed("collectives"), doc, int(position == "past"))
            )
    for position, p2p in (("at", 80), ("past", 79)):
        doc = committed("collectives")
        largest = max(doc["extra"]["rows"], key=lambda r: r["n_pes"])
        largest["collective"]["wire_messages"] = 64
        largest["p2p"]["wire_messages"] = p2p
        cases.append(
            (f"collectives-reduction-{position}", "collectives",
             committed("collectives"), doc, int(position == "past"))
        )
    for position, gap in (("at", 1), ("past", 0)):
        doc = committed("batching")
        ablation = doc["extra"]["hetero_vs_homo"]
        ablation["hetero_cycles"] = ablation["homo_cycles"] - gap
        cases.append(
            (f"batching-hetero-win-{position}", "batching",
             committed("batching"), doc, int(position == "past"))
        )
    return cases


def mutated_documents():
    """Every mutated pair of this module with the exit status it must
    give: (id, name, baseline, current, expected)."""
    cases = []
    for name in NAMES:
        for index, gate in enumerate(checker.TABLES[name]):
            for position in STEPS:
                expected = 1 if position == "past" else 0
                if position == "at" and gate.strict:
                    expected = 1
                baseline, current = row_documents(name, gate, position)
                cases.append(
                    (f"{name}-{index}-{position}", name, baseline, current,
                     expected)
                )
    return cases + _structural_documents()


def run(tmp_path, baseline: dict, current: dict):
    base_path = tmp_path / "baseline.json"
    cur_path = tmp_path / "current.json"
    base_path.write_text(json.dumps(baseline))
    cur_path.write_text(json.dumps(current))
    return checker.main(["check_regression.py", str(base_path), str(cur_path)])


@pytest.mark.parametrize("name", NAMES)
def test_committed_baseline_passes_against_itself(name):
    path = str(RESULTS / f"BENCH_{name}.json")
    assert checker.main(["check_regression.py", path, path]) == 0


@pytest.mark.parametrize("name", NAMES)
def test_committed_baseline_passes_against_its_quick_document(name):
    baseline = RESULTS / f"BENCH_{name}.json"
    current = QUICK / f"BENCH_{name}.quick.json"
    assert json.loads(current.read_text())["quick"] is True
    assert (
        checker.main(["check_regression.py", str(baseline), str(current)])
        == 0
    )


@pytest.mark.parametrize(
    "case", mutated_documents(), ids=lambda case: case[0]
)
def test_gate_bounds(tmp_path, case):
    _, _, baseline, current, expected = case
    assert run(tmp_path, baseline, current) == expected


def test_bounds_keep_their_values():
    """The carried-over bounds, so that loosening one shows in a diff."""
    bounds = {
        (name, gate.path, gate.when): gate.bound
        for name, gates in checker.TABLES.items()
        for gate in gates
    }
    cases = "extra.cases.*.normalized_seconds"
    assert bounds[("analysis", cases, "")] == 0.6
    assert bounds[("analysis", cases, "same")] == 1 - 0.25
    assert bounds[
        ("analysis", "extra.cases.large_rep.normalized_seconds", "full")
    ] == 1 / 1.28
    assert bounds[("batching", "extra.fig6_batch1_cycles", "full")] == 1.5
    assert bounds[("batching", "extra.fig6_batch1_cycles", "quick")] == 1.2
    assert bounds[("campaign", "extra.speedup", "full")] == 3.0
    assert bounds[("campaign", "extra.speedup", "quick")] == 1.5
    assert bounds[("campaign", "extra.speedup", "same")] == 1 - 0.30
    assert bounds[("campaign", "extra.cache.hit_rate", "")] == 0.9
    assert bounds[
        ("campaign", "extra.cold_miss.runs_per_reference_loop", "")
    ] == 0.6
    steady = "extra.steady_state.*.simulation_speedup"
    assert bounds[("kernel", steady, "full")] == 5.0
    assert bounds[("kernel", steady, "quick")] == 2.0
    assert bounds[
        ("kernel", "extra.steady_state.*.auto_wall_seconds", "")
    ] == 1.15
    assert bounds[
        ("kernel", "extra.workloads.*.events_per_reference_loop", "")
    ] == 0.6
    assert bounds[
        ("kernel", "extra.workloads.*.events_per_second", "same")
    ] == 1 - 0.20


def _expect_unusable(tmp_path, capsys, baseline, current, *fragments):
    assert run(tmp_path, baseline, current) == 2
    err = capsys.readouterr().err
    for fragment in fragments:
        assert fragment in err


@pytest.mark.parametrize("name", NAMES)
def test_wrong_name_exits_2(tmp_path, capsys, name):
    current = committed(name)
    current["name"] = "bogus"
    _expect_unusable(
        tmp_path, capsys, committed(name), current, "current.json", "bogus"
    )


def test_mismatched_names_exit_2(tmp_path, capsys):
    _expect_unusable(
        tmp_path, capsys, committed("kernel"), committed("analysis"),
        "current.json", "'analysis'", "'kernel'",
    )


@pytest.mark.parametrize("name", NAMES)
def test_wrong_schema_exits_2(tmp_path, capsys, name):
    current = committed(name)
    current["schema"] = "repro.bench/0"
    _expect_unusable(
        tmp_path, capsys, committed(name), current, "current.json",
        "repro.bench/1",
    )


@pytest.mark.parametrize(
    "name, index",
    [(name, index) for name in NAMES
     for index in range(len(checker.TABLES[name]))],
)
def test_missing_key_exits_2(tmp_path, capsys, name, index):
    gate = checker.TABLES[name][index]
    baseline, current = row_documents(name, gate, "at")
    parent, _, leaf = gate.path.rpartition(".")
    del _items(current, parent)[0][leaf]
    _expect_unusable(
        tmp_path, capsys, baseline, current, "current.json",
        "missing key", leaf,
    )


def test_structural_missing_key_exits_2(tmp_path, capsys):
    current = committed("batching")
    del current["extra"]["hetero_vs_homo"]
    _expect_unusable(
        tmp_path, capsys, committed("batching"), current, "current.json",
        "missing key 'extra.hetero_vs_homo'",
    )


def test_document_without_workloads_exits_2(tmp_path, capsys):
    current = {
        "schema": "repro.bench/1", "name": "kernel", "quick": True,
        "extra": {},
    }
    _expect_unusable(
        tmp_path, capsys, committed("kernel"), current, "current.json",
        "missing key 'extra.workloads'",
    )


def test_unreadable_input_and_usage_exit_2(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    path = str(RESULTS / "BENCH_kernel.json")
    assert checker.main(["check_regression.py", path, str(broken)]) == 2
    assert checker.main(["check_regression.py", path]) == 2
