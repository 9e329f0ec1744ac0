"""Tests for the timed quantum plant."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core.errors import PlantError
from repro.quantum import DensityMatrix, NoiseModel, QuantumPlant, gates
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
        table; the failed call leaves no trace in the recording."""
        plant = QuantumPlant(two_qubit_chip(), noise=NoiseModel.noiseless(),
                             rng=np.random.default_rng(0), backend=backend)
        plant.recording = []
        with pytest.raises(PlantError, match="not on chip"):
            plant.apply_unitary("X", gates.X, (5,), 0.0, 20.0)
        with pytest.raises(PlantError, match="not on chip"):
            plant.apply_unitary("CNOT", gates.CNOT, (0, 5), 0.0, 40.0)
        with pytest.raises(PlantError, match="not on chip"):
            plant.measure(5, start_ns=0.0, duration_ns=300.0)
        assert plant.recording == []


def backend_state(plant):
    """A copy of the backend's whole state."""
    backend = plant.backend
    if backend.kind == "dense":
        return backend.density_matrix().matrix.copy()
    tableau = backend.tableau
    return list(tableau.x), list(tableau.z), tableau.r


class TestGateEventChecks:
    """A gate event checks every target before any state changes."""

    @pytest.mark.parametrize("backend", ["dense", "stabilizer"])
    @pytest.mark.parametrize("second, match", [(5, "not on chip"),
                                               (2, "overlaps")])
    def test_failing_second_target_changes_nothing(self, backend, second,
                                                   match):
        """A two-qubit event whose first target passes and whose second
        is off-chip or still busy raises, and leaves the state, the
        busy times, the open recording and the RNG as they were."""
        noise = NoiseModel(
            decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
            gate_error=GateErrorModel(single_qubit_error=0.02,
                                      two_qubit_error=0.05))
        plant = QuantumPlant(two_qubit_chip(), noise=noise,
                             rng=np.random.default_rng(3), backend=backend)
        plant.apply_unitary("X90", gates.X90, (0,), 0.0, 20.0)
        plant.apply_unitary("X", gates.X, (2,), 100.0, 20.0)
        plant.recording = []
        state = backend_state(plant)
        free_at = dict(plant._qubit_free_at)
        rng_state = plant.rng.bit_generator.state
        with pytest.raises(PlantError, match=match):
            plant.apply_unitary("CNOT", gates.CNOT, (0, second), 110.0, 40.0)
        after = backend_state(plant)
        if backend == "dense":
            assert np.array_equal(after, state)
        else:
            assert after == state
        assert plant._qubit_free_at == free_at
        assert plant.recording == []
        assert plant.rng.bit_generator.state == rng_state


class TestObservedMeasurement:
    def test_p_one_is_computed_once_with_the_same_draw(self,
                                                       monkeypatch):
        """With the recording open (a replay tree growing) the dense
        P(1) is computed once, recorded and reused for the sample:
        same outcome, same RNG stream as with the recording closed."""
        calls = []
        probability_one = DensityMatrix.probability_one

        def counting(state, qubit):
            calls.append(qubit)
            return probability_one(state, qubit)

        monkeypatch.setattr(DensityMatrix, "probability_one", counting)
        outcomes = {}
        for watched in (False, True):
            plant = QuantumPlant(two_qubit_chip(), noise=NoiseModel(),
                                 rng=np.random.default_rng(5))
            plant.apply_unitary("X90", gates.X90, (2,), 0.0, 20.0)
            if watched:
                plant.recording = []
            calls.clear()
            outcomes[watched] = (plant.measure(2, 20.0, 300.0),
                                 plant.rng.random())
            assert len(calls) == 1
        assert outcomes[True] == outcomes[False]
        (measured,) = plant.recording
        assert measured.p_one == pytest.approx(0.5, abs=0.01)
        assert measured.raw == outcomes[True][0]


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

    def test_recording_holds_the_calls_in_order(self):
        """Closed by default; open, it holds each gate with its unitary
        and each measurement with its pre-collapse P(1) and outcome."""
        plant = noiseless_plant()
        plant.apply_unitary("X", gates.X, (2,), 0.0, 20.0)
        assert plant.recording is None
        plant.recording = []
        plant.apply_unitary("X90", gates.X90, (0,), 0.0, 20.0)
        plant.measure(2, 20.0, 300.0)
        gate, measurement = plant.recording
        assert gate.name == "X90" and gate.qubits == (0,)
        assert gate.unitary is gates.X90 and gate.p_one is None
        assert (gate.start_ns, gate.duration_ns) == (0.0, 20.0)
        assert measurement.name == "MEASZ" and measurement.qubits == (2,)
        assert measurement.unitary is None
        assert (measurement.p_one, measurement.raw) == (1.0, 1)
        assert (measurement.start_ns, measurement.duration_ns) == \
            (20.0, 300.0)


class TestShotLifecycle:
    def test_reset_shot(self):
        plant = noiseless_plant()
        plant.apply_unitary("X", gates.X, (0,), 0.0, 20.0)
        plant.reset_shot()
        assert plant.probability_one(0) == pytest.approx(0.0)
        assert plant._qubit_free_at[0] == 0.0

    def test_qubit_free_at(self):
        plant = noiseless_plant()
        plant.apply_unitary("X", gates.X, (2,), 100.0, 20.0)
        assert plant._qubit_free_at[2] == pytest.approx(120.0)


class TestBackendTable:
    def test_unknown_kind_lists_known_kinds(self):
        with pytest.raises(PlantError, match="dense, stabilizer"):
            noiseless_plant().use_backend("bogus")

    def test_stabilizer_resolves_in_fresh_interpreter(self):
        # No prior import of repro.quantum.stabilizer may be needed.
        script = ("import numpy as np\n"
                  "from repro.quantum.plant import QuantumPlant\n"
                  "from repro.topology import two_qubit_chip\n"
                  "plant = QuantumPlant(two_qubit_chip())\n"
                  "plant.use_backend('stabilizer')\n"
                  "print(plant.backend.kind)\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run([sys.executable, "-c", script], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "stabilizer"


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
