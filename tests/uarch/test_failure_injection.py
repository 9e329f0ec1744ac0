"""Failure-injection tests: the machine under hostile conditions.

Exercises the fault paths a control microarchitecture must handle:
queue saturation, malformed binaries, physically impossible schedules,
runaway control flow, and extreme noise.
"""

import numpy as np
import pytest

from repro.core import Assembler, seven_qubit_instantiation, \
    two_qubit_instantiation
from repro.core.errors import (
    DecodingError,
    EQASMError,
    PlantError,
    RuntimeFault,
)
from repro.quantum import NoiseModel, QuantumPlant
from repro.quantum.noise import DecoherenceModel, GateErrorModel, \
    ReadoutErrorModel
from repro.uarch import QuMAv2, UarchConfig, slip_config


def make_machine(isa=None, config=None, seed=0, noise=None):
    isa = isa or two_qubit_instantiation()
    plant = QuantumPlant(isa.topology,
                         noise=noise or NoiseModel.noiseless(),
                         rng=np.random.default_rng(seed))
    return isa, QuMAv2(isa, plant, config=config)


class TestQueueSaturation:
    def test_tiny_timing_queue_still_correct(self):
        """Depth-1 timing queue serialises but must stay correct."""
        isa, machine = make_machine(config=slip_config(UarchConfig(
            timing_queue_depth=1, late_policy="slip")))
        text = "SMIS S2, {2}\n" + "X S2\n" * 8 + "MEASZ S2\nSTOP"
        machine.load(Assembler(isa).assemble_text(text))
        trace = machine.run_shot()
        # Even number of X gates -> |0>.
        assert trace.last_result(2) == 0

    def test_tiny_event_queue_still_correct(self):
        isa, machine = make_machine(config=slip_config(UarchConfig(
            event_queue_depth=1, late_policy="slip")))
        text = "SMIS S2, {2}\n" + "X S2\n" * 5 + "MEASZ S2\nSTOP"
        machine.load(Assembler(isa).assemble_text(text))
        trace = machine.run_shot()
        assert trace.last_result(2) == 1

    def test_deep_program_with_shallow_queues_slips_not_crashes(self):
        isa, machine = make_machine(
            isa=seven_qubit_instantiation(),
            config=slip_config(UarchConfig(timing_queue_depth=2,
                                           event_queue_depth=2,
                                           late_policy="slip")))
        lines = ["SMIS S7, {0, 1, 2, 3, 4, 5, 6}"]
        lines += ["X S7", "Y S7"] * 20
        lines += ["STOP"]
        machine.load(Assembler(isa).assemble_text("\n".join(lines)))
        machine.run_shot()  # must complete without raising


class TestMalformedBinaries:
    def test_undefined_opcode_word(self):
        isa, machine = make_machine()
        # Opcode 63 is not assigned.
        with pytest.raises(DecodingError):
            machine.load([63 << 25])

    def test_bundle_with_unknown_q_opcode(self):
        isa, machine = make_machine()
        # Bundle flag set, q opcode 0x1FF unassigned.
        word = (1 << 31) | (0x1FF << 22)
        with pytest.raises(EQASMError):
            machine.load([word])

    def test_random_words_never_crash_uncontrolled(self):
        isa, machine = make_machine()
        rng = np.random.default_rng(7)
        for _ in range(200):
            word = int(rng.integers(0, 1 << 32))
            try:
                machine.load([word])
            except EQASMError:
                continue

    def test_overlapping_smit_mask_raises_on_every_run(self):
        """Edges 0 = (2, 0) and 1 = (0, 3) share qubit 0.  The assembler
        refuses the mask, but a raw word decodes; the quantum pipeline
        keeps a SMIT's mask only once it validated, so the error is
        raised again on a second run of the same loaded words."""
        from repro.core.encoding import InstructionEncoder
        from repro.core.errors import TopologyError
        from repro.core.instructions import SMIT, Stop
        isa, machine = make_machine(isa=seven_qubit_instantiation())
        encoder = InstructionEncoder(isa)
        machine.load([
            encoder.encode(SMIT(td=0, pairs=frozenset({(2, 0), (0, 3)}))),
            encoder.encode(Stop())])
        for _ in range(2):
            with pytest.raises(TopologyError):
                machine.run(shots=2)
            with pytest.raises(TopologyError):
                machine.run_shot()


class TestImpossibleSchedules:
    def test_operation_during_measurement_detected(self):
        # No QWAIT after MEASZ: the next gate lands inside the readout
        # window — the plant refuses (paper inserts 1 us precisely to
        # avoid this).
        isa, machine = make_machine()
        machine.load(Assembler(isa).assemble_text("""
        SMIS S2, {2}
        MEASZ S2
        X S2
        STOP
        """))
        with pytest.raises(PlantError):
            machine.run_shot()

    def test_gate_during_cz_detected(self):
        isa, machine = make_machine()
        machine.load(Assembler(isa).assemble_text("""
        SMIS S0, {0}
        SMIT T0, {(0, 2)}
        CZ T0
        X S0
        STOP
        """))
        with pytest.raises(PlantError):
            machine.run_shot()


class TestRunawayControl:
    def test_infinite_loop_bounded(self):
        isa, machine = make_machine()
        machine.load(Assembler(isa).assemble_text("""
        loop:
        NOP
        BR ALWAYS, loop
        """))
        with pytest.raises(RuntimeFault):
            machine.run_shot(max_instructions=500)

    def test_backward_jump_before_program_start(self):
        isa, machine = make_machine()
        machine.load([
            Assembler(isa).assemble_text("BR ALWAYS, -5\nSTOP").words[0]
            if False else 0])
        # Direct word: BR ALWAYS with offset -5 jumps before PC 0 —
        # execution simply falls off and terminates.
        from repro.core.encoding import InstructionEncoder
        from repro.core.instructions import Br
        from repro.core.registers import ComparisonFlag
        encoder = InstructionEncoder(isa)
        word = encoder.encode(Br(condition=ComparisonFlag.ALWAYS,
                                 target=-5))
        machine.load([word])
        trace = machine.run_shot()
        assert not trace.stop_reached


class TestExtremeNoise:
    def test_instant_relaxation(self):
        # T1 of 1 ns: the excited state dies before measurement.
        noise = NoiseModel(
            decoherence=DecoherenceModel(t1_ns=1.0, t2_ns=1.0),
            readout=ReadoutErrorModel(0.0, 0.0),
            gate_error=GateErrorModel(0.0, 0.0))
        isa, machine = make_machine(noise=noise)
        machine.load(Assembler(isa).assemble_text("""
        SMIS S2, {2}
        X S2
        QWAIT 5
        MEASZ S2
        STOP
        """))
        results = [machine.run_shot().last_result(2) for _ in range(20)]
        assert sum(results) == 0

    def test_total_readout_scramble(self):
        # 50 % assignment error on both symbols: results are coin flips
        # regardless of state; the machine must still run.
        noise = NoiseModel(
            decoherence=DecoherenceModel(t1_ns=1e12, t2_ns=1e12),
            readout=ReadoutErrorModel(p01=0.5, p10=0.5),
            gate_error=GateErrorModel(0.0, 0.0))
        isa, machine = make_machine(noise=noise, seed=3)
        machine.load(Assembler(isa).assemble_text("""
        SMIS S2, {2}
        X S2
        MEASZ S2
        QWAIT 50
        STOP
        """))
        results = [machine.run_shot().last_result(2)
                   for _ in range(200)]
        assert 0.3 < sum(results) / len(results) < 0.7

    def test_maximal_gate_error_still_valid_state(self):
        noise = NoiseModel(
            decoherence=DecoherenceModel(t1_ns=1e12, t2_ns=1e12),
            readout=ReadoutErrorModel(0.0, 0.0),
            gate_error=GateErrorModel(single_qubit_error=1.0,
                                      two_qubit_error=1.0))
        isa, machine = make_machine(noise=noise)
        machine.load(Assembler(isa).assemble_text("""
        SMIS S2, {2}
        X S2
        MEASZ S2
        QWAIT 50
        STOP
        """))
        machine.run_shot()
        probabilities = machine.plant.density_matrix().probabilities()
        assert np.all(probabilities >= -1e-12)
        assert np.sum(probabilities) == pytest.approx(1.0)
