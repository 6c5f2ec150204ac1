"""Campaign throughput: the sharded service vs one process per run.

The workload is the ISSUE's *repeated-graph campaign*: N ``conform.seed``
units cycling through D distinct seeds — the shape every parameter
sweep and soak campaign has (many runs, few distinct graphs).  Two ways
to execute it are measured:

* **serial baseline** — one fresh ``python -m repro.cli conform
  --replay SEED`` process per run, the pre-service workflow: every run
  pays interpreter + import startup and recomputes every compile-time
  analysis from scratch (a sample of runs is measured and the rate
  extrapolated);
* **service campaign** — one ``repro.service`` campaign over the same
  unit list: shard pool (work stealing), run-lifecycle records, and the
  content-addressed analysis cache shared across the repeated graphs.

A third, **cold-miss** campaign runs distinct seeds with the cache off,
so its rate is set by the analysis pipeline itself.  Its unit list is
the same in quick and full mode, and its runs/s is host-normalized by
the reference loop (``conftest.reference_seconds``) timed around it.

``BENCH_campaign.json`` records the rates, the service-vs-serial ratio,
and the cache hit/miss counters; ``check_regression.py`` gates
CI on the throughput floor, the >= 0.9 hit rate, and the normalized
cold-miss rate against the committed baseline.
"""

import os
import statistics
import subprocess
import sys
import time

import pytest

from conftest import QUICK, emit, reference_seconds, save_bench_json

#: campaign size / distinct-graph pool (full mode is the ISSUE's
#: 200-seed repeated-graph campaign)
RUNS = 50 if QUICK else 200
DISTINCT = 4 if QUICK else 10
SEED_START = 0
#: cold-miss campaign: every seed distinct, cache off — each run pays
#: the full analysis pipeline, so this measures raw analysis throughput
#: rather than cache amortization.  One unit list (full conformance
#: oracles) in both modes, so quick runs compare with the baseline.
COLD_RUNS = 200
COLD_SEED_START = 10_000
#: one-process-per-run sample size (each costs a full interpreter
#: startup, so the baseline is extrapolated from a sample)
SERIAL_SAMPLE = 4 if QUICK else 8
#: shard pool size.  The default of 1 keeps the gated cache hit-rate
#: measurement deterministic (each shard process holds its own memory
#: cache, so fan-out multiplies the cold misses); the multiprocess path
#: is exercised by tests/service and the conformance-smoke CI job.
WORKERS = max(1, int(os.environ.get("REPRO_CAMPAIGN_WORKERS", "1")))

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results", "campaign_runs"
)


def _campaign_seeds():
    """The repeated-graph unit list: RUNS units over DISTINCT seeds."""
    return [SEED_START + index % DISTINCT for index in range(RUNS)]


def _serial_one_process_per_run() -> dict:
    """Time a sample of runs the pre-service way: one CLI process each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    seeds = _campaign_seeds()[:SERIAL_SAMPLE]
    started = time.perf_counter()
    for seed in seeds:
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "conform",
            "--replay",
            str(seed),
            "--no-shrink",
        ]
        if QUICK:
            command.append("--quick")
        completed = subprocess.run(
            command,
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        assert completed.returncode == 0, completed.stderr.decode()
    wall = time.perf_counter() - started
    return {
        "runs_measured": len(seeds),
        "wall_seconds": wall,
        "runs_per_sec": len(seeds) / wall,
    }


def _service_campaign() -> dict:
    """Run the full unit list through the service campaign engine."""
    from repro.service import CampaignPlan, run_service_campaign

    plan = CampaignPlan(
        operation="conform.seed",
        units=[
            {"seed": seed, "quick": QUICK, "shrink": False}
            for seed in _campaign_seeds()
        ],
        workers=WORKERS,
        runs_dir=RUNS_DIR,
        quick=QUICK,
        name="bench",
    )
    report = run_service_campaign(plan)
    wall = report["bench"]["wall_seconds"]
    failing_cases = sum(
        1
        for result in report["results"]
        if result is not None and not result["payload"]["case"]["ok"]
    )
    return {
        "report": report,
        "wall_seconds": wall,
        "runs_per_sec": len(report["results"]) / wall,
        "failed_units": len(report["failures"]),
        "failing_cases": failing_cases,
    }


def _cold_miss_campaign() -> dict:
    """Run COLD_RUNS *distinct* seeds with the cache off.

    Every unit is a cold miss, so the runs/sec is set by the analysis
    pipeline itself.  ``runs_per_reference_loop`` — runs/sec times the
    median wall of the reference loops timed before and after — is the
    host-normalized rate.
    """
    from repro.service import CampaignPlan, run_service_campaign

    plan = CampaignPlan(
        operation="conform.seed",
        units=[
            {"seed": COLD_SEED_START + index, "quick": False, "shrink": False}
            for index in range(COLD_RUNS)
        ],
        workers=1,
        use_cache=False,
        name="bench-cold",
    )
    before = [reference_seconds() for _ in range(2)]
    report = run_service_campaign(plan)
    after = [reference_seconds() for _ in range(3)]
    wall = report["bench"]["wall_seconds"]
    assert not report["failures"]
    reference = statistics.median(before + after)
    return {
        "runs": COLD_RUNS,
        "wall_seconds": wall,
        "runs_per_sec": COLD_RUNS / wall,
        "reference_seconds": reference,
        "runs_per_reference_loop": COLD_RUNS * reference / wall,
    }


@pytest.fixture(scope="module")
def campaign():
    # cold misses first, so the quick and full runs time them from the
    # same fresh process state
    cold_miss = _cold_miss_campaign()
    serial = _serial_one_process_per_run()
    service = _service_campaign()
    return {
        "serial": serial,
        "service": service,
        "speedup": service["runs_per_sec"] / serial["runs_per_sec"],
        "cold_miss": cold_miss,
    }


def test_campaign_report(campaign):
    cache = campaign["service"]["report"]["cache"]
    emit(
        "Campaign throughput (service vs one process per run)",
        "\n".join(
            [
                f"workload: {RUNS} conform.seed runs over {DISTINCT} "
                f"distinct graphs, {WORKERS} worker(s)",
                f"serial:  {campaign['serial']['runs_per_sec']:.2f} runs/s "
                f"({campaign['serial']['runs_measured']} runs sampled in "
                f"{campaign['serial']['wall_seconds']:.2f} s)",
                f"service: {campaign['service']['runs_per_sec']:.2f} runs/s "
                f"({RUNS} runs in "
                f"{campaign['service']['wall_seconds']:.2f} s)",
                f"speedup: {campaign['speedup']:.2f}x",
                f"cache:   {cache['hits']} hits / {cache['misses']} misses "
                f"(hit rate {cache['hit_rate']:.3f})",
                f"cold-miss (cache off, {COLD_RUNS} distinct seeds): "
                f"{campaign['cold_miss']['runs_per_sec']:.2f} runs/s = "
                f"{campaign['cold_miss']['runs_per_reference_loop']:.2f} "
                f"runs per reference loop",
            ]
        ),
    )


def test_campaign_all_units_complete(campaign):
    """Failure isolation aside, a healthy campaign completes everything
    and no conformance seed regresses."""
    assert campaign["service"]["failed_units"] == 0
    assert campaign["service"]["failing_cases"] == 0


def test_campaign_throughput_beats_serial(campaign):
    """Loose in-test floor; the committed-baseline gate in
    check_regression.py is the strict one (3x full mode)."""
    floor = 1.2 if QUICK else 2.0
    assert campaign["speedup"] >= floor, (
        f"campaign speedup {campaign['speedup']:.2f}x below {floor}x"
    )


def test_campaign_cache_hit_rate(campaign):
    """Repeated-graph workload: all but the first visit of each of the
    DISTINCT graphs must hit the analysis cache."""
    cache = campaign["service"]["report"]["cache"]
    assert cache["hit_rate"] >= 0.9, (
        f"cache hit rate {cache['hit_rate']:.3f} below 0.9"
    )


def test_campaign_lifecycle_records_persisted(campaign):
    """One run record per unit, all terminal, none still queued."""
    from repro.service import RunStore

    records = RunStore(RUNS_DIR).list()
    assert len(records) >= RUNS
    states = {record.state for record in records}
    assert states <= {"done", "failed"}


def test_campaign_bench_export(campaign):
    report = campaign["service"]["report"]
    path = save_bench_json(
        "campaign",
        makespan_cycles=report["bench"]["makespan_cycles"],
        iteration_period_cycles=0.0,
        wall_seconds=campaign["service"]["wall_seconds"],
        extra={
            "runs": RUNS,
            "distinct_graphs": DISTINCT,
            "workers": WORKERS,
            "serial": campaign["serial"],
            "service": {
                "wall_seconds": campaign["service"]["wall_seconds"],
                "runs_per_sec": campaign["service"]["runs_per_sec"],
                "failed_units": campaign["service"]["failed_units"],
                "failing_cases": campaign["service"]["failing_cases"],
            },
            "speedup": campaign["speedup"],
            "cache": report["cache"],
            "cold_miss": campaign["cold_miss"],
        },
    )
    assert path.exists()
