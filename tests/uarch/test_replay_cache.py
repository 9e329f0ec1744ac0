"""Cross-run replay-cache regression tests.

The machine keeps the saturated timeline tree of its loaded binary,
with the (noise model, uarch config, backend kind) it was grown under,
so repeated runs over one binary reuse the tree across ``run()``
calls.  The dangerous failure mode is a *stale*
tree: reusing cached probabilities/readout after the noise model or
configuration changed would silently corrupt the emitted distribution —
these tests pin the invalidation behaviour.  The file also covers the
mid-stream :class:`EngineStats` snapshot used by long sweeps.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import Assembler, two_qubit_instantiation
from repro.experiments.reset import FIG4_PROGRAM as ACTIVE_RESET
from repro.quantum import NoiseModel, QuantumPlant
from repro.uarch import QuMAv2, UarchConfig, slip_config


def make_machine(noise=None, seed=0, config=None):
    isa = two_qubit_instantiation()
    plant = QuantumPlant(isa.topology,
                         noise=noise or NoiseModel.noiseless(),
                         rng=np.random.default_rng(seed))
    return QuMAv2(isa, plant, config=config)


def load(machine, text):
    machine.load(Assembler(machine.isa).assemble_text(text))


class TestCrossRunTreeReuse:
    def test_second_run_reuses_the_saturated_tree(self):
        """Noiseless active reset saturates its tree in a handful of
        shots; a second run over the same binary must be pure replay —
        zero interpreter shots, segment hits carried across run()."""
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run(50)
        first = machine.engine_stats
        assert first.engine == "replay"
        assert not first.tree_reused
        assert first.interpreter_shots > 0

        machine.run(50)
        second = machine.engine_stats
        assert second.tree_reused
        assert second.interpreter_shots == 0
        assert second.replay_shots == 50
        assert second.segment_cache_hits == 50
        assert second.tree_paths == first.tree_paths

    def test_reloading_the_same_binary_still_reuses(self):
        machine = make_machine(seed=3)
        assembled = Assembler(machine.isa).assemble_text(ACTIVE_RESET)
        machine.load(assembled)
        machine.run(40)
        machine.load(assembled)  # e.g. a sweep re-loading per point
        machine.run(40)
        assert machine.engine_stats.tree_reused
        assert machine.engine_stats.interpreter_shots == 0

    def test_noise_model_change_invalidates(self):
        """The stale-cache guard: after swapping in a noiseless model,
        a reused tree would keep sampling the old readout-error rates.
        The key must miss, the tree regrow, and noiseless active reset
        become perfect."""
        machine = make_machine(noise=NoiseModel(), seed=7)
        load(machine, ACTIVE_RESET)
        machine.run(200)
        assert machine.engine_stats.engine == "replay"

        machine.plant.noise = NoiseModel.noiseless()
        traces = machine.run(100)
        stats = machine.engine_stats
        assert not stats.tree_reused
        assert stats.interpreter_shots > 0  # the tree was regrown
        # Noiseless reset is exact; a stale tree would keep emitting
        # ~9.5% readout flips on the final measurement.
        assert all(trace.last_result(2) == 0 for trace in traces)

    def test_config_change_invalidates(self):
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run(30)
        machine.config = slip_config(machine.config)
        machine.run(30)
        assert not machine.engine_stats.tree_reused

    def test_config_swap_reaches_the_measurement_unit(self):
        """A swapped config times measurement results exactly as a
        machine built with that config does (result transport and
        integration window live in the measurement unit)."""
        program = """
        SMIS S2, {2}
        QWAIT 100
        MEASZ S2
        QWAIT 50
        STOP
        """
        config = replace(UarchConfig(), result_transport_ns=128.0)
        swapped = make_machine(seed=3)
        load(swapped, program)
        default_arrival = swapped.run_shot().results[0].arrival_ns
        swapped.config = config
        built = make_machine(seed=3, config=config)
        load(built, program)
        arrival = swapped.run_shot().results[0].arrival_ns
        assert arrival == built.run_shot().results[0].arrival_ns
        assert arrival != default_arrival
        assert swapped.measurement_unit.config is config

    def test_different_binary_does_not_reuse(self):
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run(30)
        load(machine, """
        SMIS S2, {2}
        QWAIT 10000
        X90 S2
        MEASZ S2
        QWAIT 50
        STOP
        """)
        machine.run(30)
        assert not machine.engine_stats.tree_reused

    def test_interpreter_runs_leave_the_cache_intact(self):
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run(40)
        machine.run(10, use_replay=False)
        assert machine.last_run_engine == "interpreter"
        machine.run(40)
        assert machine.engine_stats.tree_reused
        assert machine.engine_stats.interpreter_shots == 0

    def test_clear_replay_cache_forces_regrowth(self):
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run(40)
        machine.clear_replay_cache()
        machine.run(40)
        stats = machine.engine_stats
        assert not stats.tree_reused
        assert stats.interpreter_shots > 0

    def test_clear_replay_cache_also_drops_dataflow_reports(self):
        """The explicit hatch's contract is *no derived state
        survives*: the dataflow report of the loaded binary must clear
        alongside the tree, so a cleared machine re-derives everything
        from the binary words."""
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run(20)
        report = machine.data_memory_report()
        assert machine._tree is not None
        assert machine._data_memory_report is report

        machine.clear_replay_cache()
        assert machine._tree is None
        assert machine._data_memory_report is None
        # The next request recomputes (a fresh object, same verdict).
        fresh = machine.data_memory_report()
        assert fresh is not report
        assert fresh.cross_run_cacheable == report.cross_run_cacheable

    def test_load_bearing_program_is_never_cached_across_runs(self):
        """Data memory is the host communication channel: a program
        whose LD steers control flow must re-grow its tree every run(),
        because the host may rewrite the loaded address in between —
        state the (binary, noise, config) cache key cannot see."""
        machine = make_machine(seed=2)
        load(machine, """
        SMIS S0, {0}
        LDI R0, 1
        LDI R1, 32
        LD R2, R1(0)
        CMP R2, R0
        BR EQ, one
        X S0
        BR ALWAYS, join
        one:
        Y S0
        join:
        QWAIT 50
        STOP
        """)

        def applied(traces):
            return [t.name for trace in traces
                    for t in trace.triggers if t.executed]

        first = machine.run(3)
        assert machine.last_run_engine == "replay"  # no ST: replayable
        assert not machine.engine_stats.tree_reused
        assert applied(first) == ["X"] * 3          # memory[32] == 0

        machine.memory.store(32, 1)                 # host flips the knob
        second = machine.run(3)
        assert not machine.engine_stats.tree_reused
        assert applied(second) == ["Y"] * 3         # fresh tree sees it

    def test_experiment_setup_exposes_cache_controls(self):
        from repro.experiments.runner import ExperimentSetup
        setup = ExperimentSetup.create(seed=11)
        assembled = setup.assemble_text(ACTIVE_RESET)
        setup.run_counts(assembled, 40)
        setup.run_counts(assembled, 40)
        assert setup.last_engine_stats.tree_reused
        setup.clear_replay_cache()
        setup.run_counts(assembled, 40)
        assert not setup.last_engine_stats.tree_reused


class TestEngineStatsSnapshot:
    def test_snapshot_mid_stream_is_stable(self):
        """Long sweeps report the engine mix mid-flight: the snapshot
        reflects exactly the shots drawn so far and stays frozen while
        the live stats keep counting."""
        machine = make_machine(noise=NoiseModel(), seed=6)
        load(machine, ACTIVE_RESET)
        iterator = machine.run_iter(50)
        for _ in range(10):
            next(iterator)
        snapshot = machine.engine_stats_snapshot()
        assert snapshot.engine == "replay"
        assert snapshot.shots_total == 10
        assert snapshot.interpreter_shots + snapshot.replay_shots == 10

        remaining = sum(1 for _ in iterator)
        assert remaining == 40
        assert snapshot.shots_total == 10          # frozen
        assert machine.engine_stats.shots_total == 50

        snapshot.shots_total = -1                  # mutating the copy...
        assert machine.engine_stats.shots_total == 50  # ...changes nothing

    def test_setup_snapshot_during_streaming(self):
        from repro.experiments.runner import ExperimentSetup
        setup = ExperimentSetup.create(seed=9)
        assembled = setup.assemble_text(ACTIVE_RESET)
        mid_flight = []
        for index, _ in enumerate(setup.run_iter(assembled, 30)):
            if index == 14:
                mid_flight.append(setup.engine_stats_snapshot())
        assert len(mid_flight) == 1
        assert mid_flight[0].shots_total == 15
        assert setup.last_engine_stats.shots_total == 30
