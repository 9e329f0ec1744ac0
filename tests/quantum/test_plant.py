"""Tests for the timed quantum plant."""

import numpy as np
import pytest

from repro.core.errors import PlantError
from repro.quantum import NoiseModel, QuantumPlant, gates
from repro.quantum.noise import DecoherenceModel, GateErrorModel, \
    ReadoutErrorModel
from repro.topology import surface7, two_qubit_chip


def noiseless_plant(chip=None, seed=0):
    return QuantumPlant(chip or two_qubit_chip(),
                        noise=NoiseModel.noiseless(),
                        rng=np.random.default_rng(seed))


class TestAddressMapping:
    def test_sparse_addresses(self):
        plant = noiseless_plant()
        assert plant.qubit_index(0) == 0
        assert plant.qubit_index(2) == 1

    def test_unknown_address(self):
        plant = noiseless_plant()
        with pytest.raises(PlantError):
            plant.qubit_index(1)


    @pytest.mark.parametrize("backend", ["dense", "stabilizer"])
    def test_off_chip_operation_raises_plant_error(self, backend):
        """An address the chip lacks is a PlantError on every entry
        point and backend, never a bare KeyError from the busy-time
        table; the failed call leaves no trace in the log."""
        plant = QuantumPlant(two_qubit_chip(), noise=NoiseModel.noiseless(),
                             rng=np.random.default_rng(0), backend=backend)
        with pytest.raises(PlantError, match="not on chip"):
            plant.apply_unitary("X", gates.X, (5,), 0.0, 20.0)
        with pytest.raises(PlantError, match="not on chip"):
            plant.apply_unitary("CNOT", gates.CNOT, (0, 5), 0.0, 40.0)
        with pytest.raises(PlantError, match="not on chip"):
            plant.measure(5, start_ns=0.0, duration_ns=300.0)
        assert plant.operations_log == []


class TestUnitaries:
    def test_x_then_measure(self):
        plant = noiseless_plant()
        plant.apply_unitary("X", gates.X, (2,), start_ns=0.0,
                            duration_ns=20.0)
        assert plant.probability_one(2) == pytest.approx(1.0)
        assert plant.measure(2, start_ns=20.0, duration_ns=300.0) == 1

    def test_two_qubit_gate(self):
        plant = noiseless_plant()
        plant.apply_unitary("X", gates.X, (0,), 0.0, 20.0)
        plant.apply_unitary("CNOT", gates.CNOT, (0, 2), 20.0, 40.0)
        assert plant.probability_one(2) == pytest.approx(1.0)

    def test_overlap_detection(self):
        plant = noiseless_plant()
        plant.apply_unitary("X", gates.X, (0,), 0.0, 20.0)
        with pytest.raises(PlantError):
            plant.apply_unitary("Y", gates.Y, (0,), 10.0, 20.0)

    def test_back_to_back_allowed(self):
        plant = noiseless_plant()
        plant.apply_unitary("X", gates.X, (0,), 0.0, 20.0)
        plant.apply_unitary("X", gates.X, (0,), 20.0, 20.0)
        assert plant.probability_one(0) == pytest.approx(0.0)

    def test_empty_qubits_rejected(self):
        plant = noiseless_plant()
        with pytest.raises(PlantError):
            plant.apply_unitary("X", gates.X, (), 0.0, 20.0)

    def test_operations_log(self):
        plant = noiseless_plant()
        plant.apply_unitary("X90", gates.X90, (0,), 0.0, 20.0)
        plant.measure(0, 20.0, 300.0)
        names = [op.name for op in plant.operations_log]
        assert names == ["X90", "MEASZ"]


class TestShotLifecycle:
    def test_reset_shot(self):
        plant = noiseless_plant()
        plant.apply_unitary("X", gates.X, (0,), 0.0, 20.0)
        plant.reset_shot()
        assert plant.probability_one(0) == pytest.approx(0.0)
        assert plant.qubit_free_at(0) == 0.0
        assert plant.operations_log == []

    def test_qubit_free_at(self):
        plant = noiseless_plant()
        plant.apply_unitary("X", gates.X, (2,), 100.0, 20.0)
        assert plant.qubit_free_at(2) == pytest.approx(120.0)
        with pytest.raises(PlantError):
            plant.qubit_free_at(5)


class TestIdleDecoherence:
    def test_t1_decay_during_idle(self):
        noise = NoiseModel(
            decoherence=DecoherenceModel(t1_ns=1000.0, t2_ns=1000.0),
            readout=ReadoutErrorModel(0.0, 0.0),
            gate_error=GateErrorModel(0.0, 0.0))
        plant = QuantumPlant(two_qubit_chip(), noise=noise,
                             rng=np.random.default_rng(0))
        plant.apply_unitary("X", gates.X, (0,), 0.0, 20.0)
        # Idle for one T1: excited population should fall to ~1/e.
        plant.apply_unitary("I", gates.I, (0,), 1020.0, 20.0)
        assert plant.probability_one(0) == pytest.approx(np.exp(-1.0),
                                                         abs=0.01)

    def test_no_decay_when_noiseless(self):
        plant = noiseless_plant()
        plant.apply_unitary("X", gates.X, (0,), 0.0, 20.0)
        plant.apply_unitary("I", gates.I, (0,), 100000.0, 20.0)
        assert plant.probability_one(0) == pytest.approx(1.0, abs=1e-6)

    def test_idle_all_until(self):
        noise = NoiseModel(
            decoherence=DecoherenceModel(t1_ns=1000.0, t2_ns=1000.0),
            readout=ReadoutErrorModel(0.0, 0.0),
            gate_error=GateErrorModel(0.0, 0.0))
        plant = QuantumPlant(two_qubit_chip(), noise=noise,
                             rng=np.random.default_rng(0))
        plant.apply_unitary("X", gates.X, (0,), 0.0, 20.0)
        plant.idle_all_until(1020.0)
        assert plant.probability_one(0) == pytest.approx(np.exp(-1.0),
                                                         abs=0.01)
        # Idling backwards is a no-op, not an error.
        plant.idle_all_until(500.0)


class TestGateError:
    def test_gate_error_reduces_fidelity(self):
        noise = NoiseModel(
            decoherence=DecoherenceModel(t1_ns=1e12, t2_ns=1e12),
            readout=ReadoutErrorModel(0.0, 0.0),
            gate_error=GateErrorModel(single_qubit_error=0.5,
                                      two_qubit_error=0.0))
        plant = QuantumPlant(two_qubit_chip(), noise=noise,
                             rng=np.random.default_rng(0))
        plant.apply_unitary("X", gates.X, (0,), 0.0, 20.0)
        # Depolarizing with p=0.5 leaves P(1) = 1 - p*2/3 = 2/3.
        assert plant.probability_one(0) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_gate_error_can_be_suppressed(self):
        noise = NoiseModel(
            decoherence=DecoherenceModel(t1_ns=1e12, t2_ns=1e12),
            readout=ReadoutErrorModel(0.0, 0.0),
            gate_error=GateErrorModel(single_qubit_error=0.5,
                                      two_qubit_error=0.5))
        plant = QuantumPlant(two_qubit_chip(), noise=noise,
                             rng=np.random.default_rng(0))
        plant.apply_unitary("X", gates.X, (0,), 0.0, 20.0,
                            apply_gate_error=False)
        assert plant.probability_one(0) == pytest.approx(1.0)


class TestMeasurementSampling:
    def test_measure_statistics(self):
        counts = 0
        shots = 1000
        plant = noiseless_plant(seed=123)
        for _ in range(shots):
            plant.reset_shot()
            plant.apply_unitary("X90", gates.X90, (0,), 0.0, 20.0)
            counts += plant.measure(0, 20.0, 300.0)
        assert counts / shots == pytest.approx(0.5, abs=0.05)

    def test_measure_busy_time(self):
        plant = noiseless_plant()
        plant.measure(0, 0.0, 300.0)
        with pytest.raises(PlantError):
            plant.apply_unitary("X", gates.X, (0,), 100.0, 20.0)
        plant.apply_unitary("X", gates.X, (0,), 300.0, 20.0)

    def test_seven_qubit_chip_plant(self):
        plant = noiseless_plant(chip=surface7())
        plant.apply_unitary("X", gates.X, (6,), 0.0, 20.0)
        assert plant.probability_one(6) == pytest.approx(1.0)
        assert plant.probability_one(0) == pytest.approx(0.0)
