"""Kernel oracle: targeted wakeups never change simulated behaviour.

For every seed, the SPI stack and the MPI baseline simulated on the
production kernel (with the lost-wakeup audit armed) must produce
bit-identical token streams, the same makespan and the same message
counts as the polling reference kernel of :mod:`tests.polling_kernel`,
which ignores waitsets and re-runs every parked sequencer after each
event.  Token values depend only on per-edge FIFO order — which wakeup
delivery cannot reorder, since wakes go through the event heap at the
current time after the mutating event — so any divergence here is a
kernel bug, not nondeterminism.  The SPI stack is also checked on both
bus transports, whose arbitration depends on same-time event order.
"""

import pytest

from repro.conformance import build_case, generate_spec
from repro.mpi import MpiSystem
from repro.mpi import baseline as mpi_baseline
from repro.spi import SpiConfig, SpiSystem
from repro.spi import runtime as spi_runtime
from tests.polling_kernel import PollingSimulator

SEED_COUNT = 50
ITERATIONS = 4

SYSTEMS = {
    "spi": (SpiSystem, spi_runtime, None),
    "spi-shared_bus": (SpiSystem, spi_runtime, SpiConfig(transport="shared_bus")),
    "spi-ordered_bus": (
        SpiSystem,
        spi_runtime,
        SpiConfig(transport="ordered_bus"),
    ),
    "mpi": (MpiSystem, mpi_baseline, None),
}


def _runnable(seed: int, system_cls, config) -> bool:
    """False for an all-local partition on the ordered-transaction bus,
    which has no interprocessor channel to schedule."""
    if config is None or config.transport != "ordered_bus":
        return True
    case = build_case(generate_spec(seed))
    system = system_cls.compile(case.graph, case.partition, config)
    return bool(system.channel_plans)


def _run(seed: int, system_cls, label: str, config=None):
    """Fresh case per run: stateful actor kernels must not leak across."""
    case = build_case(generate_spec(seed))
    system = system_cls.compile(case.graph, case.partition, config)
    case.tap.begin(label)
    result = system.run(
        iterations=ITERATIONS,
        max_cycles=10_000_000,
        check_lost_wakeups=True,
    )
    return case.tap.streams(label), result


@pytest.mark.parametrize("stack", sorted(SYSTEMS))
def test_targeted_kernel_matches_polling_oracle(stack, monkeypatch):
    system_cls, module, config = SYSTEMS[stack]
    seeds = [
        seed
        for seed in range(SEED_COUNT)
        if _runnable(seed, system_cls, config)
    ]
    assert len(seeds) >= SEED_COUNT // 2
    targeted = [_run(seed, system_cls, "targeted", config) for seed in seeds]
    monkeypatch.setattr(module, "Simulator", PollingSimulator)
    diverged = []
    for seed, (streams, result) in zip(seeds, targeted):
        oracle_streams, oracle = _run(seed, system_cls, "polling", config)
        if streams != oracle_streams:
            diverged.append(f"seed {seed}: token streams")
        if result.cycles != oracle.cycles:
            diverged.append(
                f"seed {seed}: cycles {result.cycles} != {oracle.cycles}"
            )
        if result.data_messages != oracle.data_messages:
            diverged.append(
                f"seed {seed}: data messages {result.data_messages} "
                f"!= {oracle.data_messages}"
            )
        if result.iteration_period_cycles != oracle.iteration_period_cycles:
            diverged.append(
                f"seed {seed}: period {result.iteration_period_cycles} "
                f"!= {oracle.iteration_period_cycles}"
            )
    assert not diverged, "; ".join(diverged)


def test_oracle_really_polls(monkeypatch):
    """The oracle must not lean on waitsets: it never delivers a
    targeted wakeup, yet still drains the run."""
    kernels = []

    class Recording(PollingSimulator):
        def __init__(self, check_lost_wakeups=False):
            super().__init__(check_lost_wakeups)
            kernels.append(self)

    monkeypatch.setattr(spi_runtime, "Simulator", Recording)
    for seed in range(5):
        _run(seed, SpiSystem, "polling")
    assert len(kernels) == 5
    assert sum(kernel.parks for kernel in kernels) > 0
    assert all(kernel.targeted_wakeups == 0 for kernel in kernels)
