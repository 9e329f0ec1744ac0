"""Unit tests for the device layer, measurement unit, trace records,
and microarchitecture configuration."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.core.microcode import (
    DeviceKind,
    MicroOpRole,
    MicrocodeUnit,
)
from repro.core.operations import default_operation_set
from repro.quantum import NoiseModel, QuantumPlant
from repro.topology import surface7, two_qubit_chip
from repro.uarch import (
    DeviceEventDistributor,
    DeviceId,
    EventQueue,
    MeasurementUnit,
    PulseLibrary,
    QubitMicroOp,
    UarchConfig,
    slip_config,
)
from repro.uarch.devices import DeviceOperation
from repro.uarch.trace import (
    ResultRecord,
    ShotTrace,
    SlipRecord,
    TriggerRecord,
)
from machine_probes import has_mock_results


@pytest.fixture(scope="module")
def microcode():
    return MicrocodeUnit(default_operation_set())


def qubit_micro_op(microcode, name, qubit, pair=None):
    micro_ops = microcode.translate_name(name)
    return QubitMicroOp(micro_op=micro_ops[0], qubit=qubit, pair=pair)


class TestDeviceEventDistributor:
    def test_microwave_per_qubit(self, microcode):
        distributor = DeviceEventDistributor(surface7())
        entries = [qubit_micro_op(microcode, "X", 0),
                   qubit_micro_op(microcode, "X", 3)]
        device_ops = distributor.distribute(5, entries)
        devices = {op.device for op in device_ops}
        assert devices == {DeviceId(DeviceKind.MICROWAVE, 0),
                           DeviceId(DeviceKind.MICROWAVE, 3)}

    def test_measurements_share_feedline_device(self, microcode):
        distributor = DeviceEventDistributor(surface7())
        entries = [qubit_micro_op(microcode, "MEASZ", 0),
                   qubit_micro_op(microcode, "MEASZ", 3)]
        device_ops = distributor.distribute(1, entries)
        # Qubits 0 and 3 share feedline 0: one device operation.
        assert len(device_ops) == 1
        assert device_ops[0].device == DeviceId(DeviceKind.MEASUREMENT, 0)
        assert sorted(device_ops[0].qubits()) == [0, 3]

    def test_measurements_on_different_feedlines_split(self, microcode):
        distributor = DeviceEventDistributor(surface7())
        entries = [qubit_micro_op(microcode, "MEASZ", 0),
                   qubit_micro_op(microcode, "MEASZ", 1)]
        device_ops = distributor.distribute(1, entries)
        assert len(device_ops) == 2

    def test_flux_routing(self, microcode):
        distributor = DeviceEventDistributor(surface7())
        src, tgt = microcode.translate_name("CZ")
        entries = [QubitMicroOp(micro_op=src, qubit=2, pair=(2, 0)),
                   QubitMicroOp(micro_op=tgt, qubit=0, pair=(2, 0))]
        device_ops = distributor.distribute(1, entries)
        kinds = {op.device.kind for op in device_ops}
        assert kinds == {DeviceKind.FLUX}

    def test_device_id_str(self):
        assert str(DeviceId(DeviceKind.MICROWAVE, 3)) == "microwave[3]"


class TestPulseLibrary:
    def test_unitary_lookup(self):
        library = PulseLibrary(default_operation_set())
        unitary = library.unitary_for("X90")
        assert unitary.shape == (2, 2)

    def test_measurement_has_no_unitary(self):
        library = PulseLibrary(default_operation_set())
        with pytest.raises(ConfigurationError):
            library.unitary_for("MEASZ")

    def test_durations(self):
        library = PulseLibrary(default_operation_set())
        assert library.duration_cycles("CZ") == 2
        assert library.duration_cycles("MEASZ") == 15


class TestEventQueue:
    def _op(self, microcode):
        return DeviceOperation(
            device=DeviceId(DeviceKind.MICROWAVE, 0), cycle=0,
            micro_ops=(qubit_micro_op(microcode, "X", 0),))

    def test_fifo_order(self, microcode):
        queue = EventQueue(depth=4)
        first = self._op(microcode)
        second = DeviceOperation(
            device=DeviceId(DeviceKind.MICROWAVE, 0), cycle=1,
            micro_ops=(qubit_micro_op(microcode, "Y", 0),))
        queue.push(first)
        queue.push(second)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_overflow_raises(self, microcode):
        queue = EventQueue(depth=1)
        queue.push(self._op(microcode))
        assert queue.full
        with pytest.raises(ConfigurationError):
            queue.push(self._op(microcode))

    def test_len(self, microcode):
        queue = EventQueue(depth=2)
        assert len(queue) == 0
        queue.push(self._op(microcode))
        assert len(queue) == 1


class TestMeasurementUnit:
    def make_unit(self, seed=0):
        plant = QuantumPlant(two_qubit_chip(),
                             noise=NoiseModel.noiseless(),
                             rng=np.random.default_rng(seed))
        return MeasurementUnit(plant, UarchConfig()), plant

    def test_measurement_timing(self):
        unit, _ = self.make_unit()
        pending = unit.start_measurement(0, start_ns=100.0)
        # 15 cycles x 20 ns + 28 ns transport.
        assert pending.arrival_ns == pytest.approx(100 + 300 + 28)

    def test_ground_state_reads_zero(self):
        unit, _ = self.make_unit()
        pending = unit.start_measurement(0, 0.0)
        assert pending.raw_result == 0
        assert pending.reported_result == 0

    def test_mock_results_bypass_plant(self):
        unit, plant = self.make_unit()
        unit.inject_mock_results(2, [1, 0, 1])
        plant.recording = []
        results = [unit.start_measurement(2, t * 1000.0).reported_result
                   for t in range(3)]
        assert results == [1, 0, 1]
        assert plant.recording == []

    def test_mock_exhaustion_falls_back_to_plant(self):
        unit, plant = self.make_unit()
        unit.inject_mock_results(0, [1])
        plant.recording = []
        assert unit.start_measurement(0, 0.0).reported_result == 1
        assert not has_mock_results(unit, 0)
        pending = unit.start_measurement(0, 1000.0)
        assert pending.raw_result == 0  # real plant, ground state
        assert len(plant.recording) == 1

    def test_mock_rejects_non_bits(self):
        unit, _ = self.make_unit()
        with pytest.raises(ConfigurationError):
            unit.inject_mock_results(0, [2])

    def test_mock_rejects_off_chip_qubit(self):
        """A queue for a qubit the chip lacks would never drain (and
        would keep every later run off the fast engines)."""
        unit, _ = self.make_unit()
        with pytest.raises(ConfigurationError, match="not on chip"):
            unit.inject_mock_results(99, [1, 0])
        assert not unit.has_any_mock_results()

    def test_clear_mock_results(self):
        unit, _ = self.make_unit()
        unit.inject_mock_results(0, [1, 1])
        unit.clear_mock_results()
        assert not has_mock_results(unit, 0)


class TestTraceRecords:
    def test_shot_trace_filters(self):
        trace = ShotTrace()
        trace.triggers.append(TriggerRecord(
            name="X", qubits=(0,), cycle=1, trigger_ns=20.0,
            output_ns=80.0, executed=True, condition="ALWAYS"))
        trace.triggers.append(TriggerRecord(
            name="C_X", qubits=(0,), cycle=2, trigger_ns=40.0,
            output_ns=100.0, executed=False, condition="LAST_ONE"))
        executed = [record.executed for record in trace.triggers]
        assert executed == [True, False]

    def test_results_accessors(self):
        trace = ShotTrace()
        trace.results.append(ResultRecord(
            qubit=2, raw_result=1, reported_result=0,
            measure_start_ns=0.0, arrival_ns=328.0))
        assert trace.last_result(2) == 0
        assert trace.last_result(0) is None
        assert len(trace.results_for(2)) == 1

    def test_slip_record(self):
        record = SlipRecord(cycle=10, due_ns=200.0, actual_ns=230.0)
        assert record.slip_ns == pytest.approx(30.0)
        trace = ShotTrace()
        assert trace.max_slip_ns() == 0.0
        trace.slips.append(record)
        assert trace.max_slip_ns() == pytest.approx(30.0)


class TestUarchConfig:
    def test_fast_conditional_path_is_92ns(self):
        assert UarchConfig().fast_conditional_path_ns == pytest.approx(
            92.0)

    def test_invalid_policy(self):
        with pytest.raises(ConfigurationError):
            UarchConfig(late_policy="panic")

    def test_invalid_cycle(self):
        with pytest.raises(ConfigurationError):
            UarchConfig(classical_cycle_ns=0.0)

    def test_invalid_queue_depth(self):
        with pytest.raises(ConfigurationError):
            UarchConfig(timing_queue_depth=0)

    def test_slip_config_copies(self):
        base = UarchConfig(result_transport_ns=99.0)
        slipped = slip_config(base)
        assert slipped.late_policy == "slip"
        assert slipped.result_transport_ns == 99.0
        assert base.late_policy == "strict"
