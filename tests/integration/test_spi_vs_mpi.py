"""Integration: SPI against the MPI baseline on the paper applications."""


from repro.apps.lpc import build_parallel_error_graph
from repro.apps.particle_filter import build_particle_filter_graph
from repro.mpi import MpiSystem
from repro.spi import SpiSystem


class TestLpcComparison:
    def test_spi_faster_on_parallel_error(self, speech_frames):
        system = build_parallel_error_graph(speech_frames, order=8, n_units=2)
        spi = SpiSystem.compile(system.graph, system.partition).run(
            iterations=4
        )
        system2 = build_parallel_error_graph(speech_frames, order=8, n_units=2)
        mpi = MpiSystem.compile(system2.graph, system2.partition).run(
            iterations=4
        )
        assert spi.execution_time_us < mpi.execution_time_us

    def test_spi_less_overhead_bytes(self, speech_frames):
        system = build_parallel_error_graph(speech_frames, order=8, n_units=2)
        spi = SpiSystem.compile(system.graph, system.partition).run(
            iterations=4
        )
        system2 = build_parallel_error_graph(speech_frames, order=8, n_units=2)
        mpi = MpiSystem.compile(system2.graph, system2.partition).run(
            iterations=4
        )
        assert spi.overhead_bytes < mpi.overhead_bytes
        # same application data moved either way
        assert spi.payload_bytes == mpi.payload_bytes

    def test_mpi_functionally_correct_too(self, speech_frames):
        """The baseline must be a *fair* baseline: same results."""
        import numpy as np

        from repro.apps.lpc import lpc_coefficients, prediction_error

        system = build_parallel_error_graph(speech_frames, order=8, n_units=2)
        MpiSystem.compile(system.graph, system.partition).run(iterations=2)
        frame = speech_frames[0]
        reference = prediction_error(frame, lpc_coefficients(frame, 8))
        assembled = system.assembled_errors(0, frame.shape[0])
        assert np.allclose(assembled, reference, atol=1e-9)


class TestPfComparison:
    def test_spi_faster_on_particle_filter(self, crack_setup):
        model, _, observations = crack_setup
        system = build_particle_filter_graph(
            model, observations, n_particles=100, n_pes=2
        )
        spi = SpiSystem.compile(system.graph, system.partition).run(
            iterations=6
        )
        system2 = build_particle_filter_graph(
            model, observations, n_particles=100, n_pes=2
        )
        mpi = MpiSystem.compile(system2.graph, system2.partition).run(
            iterations=6
        )
        assert spi.execution_time_us < mpi.execution_time_us

    def test_ablation_runs_with_collectives_on_both_sides(self, crack_setup):
        """The apples-to-apples ablation: both layers lower the same
        S1 weight-sum broadcasts as collectives (SPI shares the wire,
        MPI amortizes the software send path a la MPI_Bcast)."""
        import numpy as np

        model, _, observations = crack_setup
        system = build_particle_filter_graph(
            model, observations, n_particles=80, n_pes=4, collectives=True
        )
        spi = SpiSystem.compile(system.graph, system.partition).run(
            iterations=6
        )
        system2 = build_particle_filter_graph(
            model, observations, n_particles=80, n_pes=4, collectives=True
        )
        mpi = MpiSystem.compile(system2.graph, system2.partition).run(
            iterations=6
        )
        assert spi.execution_time_us < mpi.execution_time_us
        np.testing.assert_allclose(system.estimates(), system2.estimates())
    def test_spi_fabric_smaller_than_mpi(self, speech_frames):
        system = build_parallel_error_graph(speech_frames, order=8, n_units=2)
        spi = SpiSystem.compile(system.graph, system.partition)
        mpi = MpiSystem.compile(system.graph, system.partition)
        assert (
            spi.spi_library_resources().slices
            < mpi.library_resources().slices
        )


class TestAblationFairness:
    """SPI and MPI differ only in the communication layer: computation
    actors fire through the very same task class under both."""

    @staticmethod
    def _programs(monkeypatch, module):
        programs = []

        class Recording(module.PESequencer):
            def __init__(self, sim, pe, program, *args, **kwargs):
                super().__init__(sim, pe, program, *args, **kwargs)
                programs.append(self.program)

        monkeypatch.setattr(module, "PESequencer", Recording)
        return programs

    @staticmethod
    def _computation_tasks(programs):
        tasks = {}
        for program in programs:
            for task in program:
                while hasattr(task, "inner"):  # resynchronization wrapper
                    task = task.inner
                if task.name.startswith("fire:"):
                    tasks[task.name] = task
        return tasks

    def test_same_firing_task_class(self, speech_frames, monkeypatch):
        from repro.mpi import baseline as mpi_baseline
        from repro.spi import ComputationTask
        from repro.spi import runtime as spi_runtime

        spi_programs = self._programs(monkeypatch, spi_runtime)
        mpi_programs = self._programs(monkeypatch, mpi_baseline)
        system = build_parallel_error_graph(speech_frames, order=8, n_units=2)
        spi = SpiSystem.compile(system.graph, system.partition).run(
            iterations=2
        )
        system2 = build_parallel_error_graph(speech_frames, order=8, n_units=2)
        MpiSystem.compile(system2.graph, system2.partition).run(iterations=2)

        spi_tasks = self._computation_tasks(spi_programs)
        mpi_tasks = self._computation_tasks(mpi_programs)
        assert spi_tasks and set(spi_tasks) == set(mpi_tasks)
        classes = {type(t) for t in spi_tasks.values()}
        classes |= {type(t) for t in mpi_tasks.values()}
        assert classes == {ComputationTask}
        # every SPI computation firing is counted, none extrapolated here
        assert spi.compiled_firings == sum(
            t.firing_index for t in spi_tasks.values()
        )
