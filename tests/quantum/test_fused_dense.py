"""The dense backend's fused gate events and their superoperator cache.

``DenseBackend.apply_gate_event`` applies a gate event — each target's
idle decay over its gap, the unitary, the depolarizing gate error — as
one cached Liouville superoperator.  The property below pins it
against a verbatim port of the Kraus path it replaced: per-qubit idle
channels, then the unitary, then the gate-error channel, each Kraus
operator applied to a copy of rho through the statevector kernels and
the copies summed (the kernels of ``quantum_oracle``).  Each superoperator is built by one contraction
over its stacked Kraus set, pinned against the ``sum kron(K, K*)``
it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantum_oracle import _apply_unitary_1q, _apply_unitary_2q
from repro.core.errors import PlantError
from repro.obs import Observability
from repro.quantum import DensityMatrix, NoiseModel, QuantumPlant, gates
from repro.quantum.backend import (
    SUPEROP_CACHE_SIZE,
    DenseBackend,
    gate_event_superop,
    idle_superop,
)
from repro.quantum.density_matrix import superoperator
from repro.quantum.noise import DecoherenceModel, GateErrorModel
from repro.topology import surface7, two_qubit_chip


# ----------------------------------------------------------------------
# The Kraus path before fusion, ported verbatim onto a bare matrix.
# ----------------------------------------------------------------------
def _kraus_apply_operator_inplace(matrix, operator, qubits, n):
    flat = matrix.reshape(-1)
    if len(qubits) == 1:
        _apply_unitary_1q(flat, operator, qubits[0])
        _apply_unitary_1q(flat, operator.conj(), qubits[0] + n)
    else:
        _apply_unitary_2q(flat, operator, qubits)
        _apply_unitary_2q(flat, operator.conj(),
                          (qubits[0] + n, qubits[1] + n))


def _kraus_apply_channel(matrix, kraus, qubits, n):
    original = matrix
    accumulated = np.zeros_like(original)
    for operator in kraus:
        copy = original.copy()
        _kraus_apply_operator_inplace(copy, operator, qubits, n)
        accumulated += copy
    return accumulated


def kraus_gate_event(matrix, unitary, qubits, gaps, noise):
    """Idle each target over its gap, the unitary, the gate error."""
    n = matrix.shape[0].bit_length() - 1
    matrix = matrix.copy()
    for qubit, gap in zip(qubits, gaps):
        if gap > 0:
            matrix = _kraus_apply_channel(
                matrix, noise.decoherence.idle_channel(gap), (qubit,), n)
    _kraus_apply_operator_inplace(matrix, unitary, qubits, n)
    return _kraus_apply_channel(
        matrix, noise.gate_error.channel_for(len(qubits)), qubits, n)


# ----------------------------------------------------------------------
# Random inputs
# ----------------------------------------------------------------------
def random_unitary(rng, k):
    dim = 1 << k
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_rho(rng, n):
    dim = 1 << n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


gaps_ns = st.one_of(st.just(0.0), st.floats(0.0, 2e5))


@st.composite
def noise_models(draw):
    t1 = draw(st.floats(1e3, 1e6))
    t2 = draw(st.floats(1e3, 2 * t1))
    return NoiseModel(
        decoherence=DecoherenceModel(t1_ns=t1, t2_ns=t2),
        gate_error=GateErrorModel(single_qubit_error=draw(st.floats(0, 1)),
                                  two_qubit_error=draw(st.floats(0, 1))))


@st.composite
def gate_events(draw, n):
    k = draw(st.integers(1, min(2, n)))
    qubits = tuple(draw(st.permutations(range(n)))[:k])
    gaps = tuple(draw(gaps_ns) for _ in qubits)
    return qubits, gaps, draw(st.integers(0, 2 ** 32 - 1))


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 4))
    events = draw(st.lists(gate_events(n), min_size=1, max_size=4))
    return n, events, draw(noise_models()), draw(st.integers(0, 2 ** 32))


class TestFusedMatchesKrausPath:
    @settings(max_examples=150, deadline=None)
    @given(scenarios())
    def test_gate_events_match_kraus_path(self, scenario):
        n, events, noise, seed = scenario
        rng = np.random.default_rng(seed)
        reference = random_rho(rng, n)
        backend = DenseBackend(n)
        backend.state = DensityMatrix(n, reference)
        for qubits, gaps, unitary_seed in events:
            unitary = random_unitary(np.random.default_rng(unitary_seed),
                                     len(qubits))
            backend.apply_gate_event("U", unitary, qubits, gaps, noise,
                                     rng)
            reference = kraus_gate_event(reference, unitary, qubits, gaps,
                                         noise)
            assert np.max(np.abs(backend.state.matrix - reference)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_idle_matches_kraus_path(self, n, data):
        decoherence = data.draw(noise_models()).decoherence
        qubit = data.draw(st.integers(0, n - 1))
        gap = data.draw(gaps_ns)
        reference = random_rho(
            np.random.default_rng(data.draw(st.integers(0, 2 ** 32))), n)
        backend = DenseBackend(n)
        backend.state = DensityMatrix(n, reference)
        backend.apply_idle(qubit, gap, decoherence)
        expected = _kraus_apply_channel(
            reference, decoherence.idle_channel(gap), (qubit,), n)
        assert np.max(np.abs(backend.state.matrix - expected)) < 1e-12

    @pytest.mark.parametrize("qubits", [(0,), (2,), (1, 3), (3, 0)])
    def test_noiseless_gate_is_the_pure_unitary(self, qubits):
        rng = np.random.default_rng(5)
        start = random_rho(rng, 4)
        unitary = random_unitary(rng, len(qubits))
        backend = DenseBackend(4)
        backend.state = DensityMatrix(4, start)
        backend.apply_gate_event("U", unitary, qubits,
                                 (300.0,) * len(qubits),
                                 NoiseModel.noiseless(), rng)
        expected = DensityMatrix(4, start)
        expected.apply_gate(unitary, qubits)
        assert np.max(np.abs(backend.state.matrix - expected.matrix)) \
            < 1e-12


class TestSuperoperatorContraction:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 6), st.integers(0, 2 ** 32))
    def test_superoperator_is_the_kron_sum(self, k, count, seed):
        """The one-contraction superoperator equals ``sum kron(K,
        K*)`` on a random (not necessarily trace-preserving) Kraus
        set."""
        rng = np.random.default_rng(seed)
        dim = 1 << k
        kraus = [rng.normal(size=(dim, dim)) + 1j * rng.normal(
            size=(dim, dim)) for _ in range(count)]
        expected = sum(np.kron(operator, operator.conj())
                       for operator in kraus)
        assert np.max(np.abs(superoperator(kraus) - expected)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1.0, 2e5), st.floats(1.0, 2e5), noise_models(),
           st.integers(0, 2 ** 32))
    def test_two_qubit_event_with_distinct_gaps(self, gap_a, gap_b, noise,
                                                seed):
        """A 2q event whose targets idled over two different non-zero
        gaps: the einsum-built idle product keeps each gap on its own
        target."""
        if gap_a == gap_b:
            gap_b += 1.0
        rng = np.random.default_rng(seed)
        reference = random_rho(rng, 2)
        unitary = random_unitary(rng, 2)
        state = DensityMatrix(2, reference)
        state.apply_superop(
            gate_event_superop(unitary.tobytes(), (gap_a, gap_b), noise),
            (0, 1))
        expected = kraus_gate_event(reference, unitary, (0, 1),
                                    (gap_a, gap_b), noise)
        assert np.max(np.abs(state.matrix - expected)) < 1e-12


class TestSuperopCache:
    def setup_method(self):
        gate_event_superop.cache_clear()
        idle_superop.cache_clear()

    def test_changed_noise_model_never_reuses_an_entry(self):
        base = NoiseModel()
        variants = [
            NoiseModel(decoherence=DecoherenceModel(t1_ns=30_000.0)),
            NoiseModel(decoherence=DecoherenceModel(t2_ns=20_000.0)),
            NoiseModel(gate_error=GateErrorModel(single_qubit_error=2e-3)),
        ]
        unitary = gates.X90.tobytes()
        first = gate_event_superop(unitary, (40.0,), base)
        # An equal model built anew hits: the key is compared by value.
        assert gate_event_superop(unitary, (40.0,), NoiseModel()) is first
        assert gate_event_superop.cache_info().hits == 1
        for noise in variants:
            superop = gate_event_superop(unitary, (40.0,), noise)
            assert not np.allclose(superop, first, rtol=0, atol=1e-12)
        assert gate_event_superop.cache_info().hits == 1
        assert gate_event_superop.cache_info().currsize == 4

    def test_plant_follows_a_swapped_noise_model(self):
        """Swapping ``plant.noise`` between gates is honoured at once."""
        plant = QuantumPlant(two_qubit_chip(), noise=NoiseModel(),
                             rng=np.random.default_rng(0))
        swapped = NoiseModel(decoherence=DecoherenceModel(t1_ns=2_000.0,
                                                          t2_ns=1_000.0))
        plant.apply_unitary("X", gates.X, (0,), 100.0, 20.0)
        plant.noise = swapped
        plant.apply_unitary("X90", gates.X90, (0,), 600.0, 20.0)
        expected = kraus_gate_event(np.diag([1.0, 0, 0, 0]).astype(complex),
                                    gates.X, (0,), (100.0,), NoiseModel())
        expected = kraus_gate_event(expected, gates.X90, (0,), (480.0,),
                                    swapped)
        assert np.max(np.abs(plant.density_matrix().matrix - expected)) \
            < 1e-12

    def test_distinct_gap_stream_stays_at_the_bound(self):
        """A QWAITR-like stream of ever-new gaps cycles the cache."""
        plant = QuantumPlant(two_qubit_chip(), noise=NoiseModel(),
                             rng=np.random.default_rng(0))
        gate_at = measure_at = 0.0
        for step in range(SUPEROP_CACHE_SIZE + 200):
            gate_at += 20.0 + 20.0 + step     # a new gap every gate
            plant.apply_unitary("X90", gates.X90, (0,), gate_at, 20.0)
            measure_at += 300.0 + 10.0 + step  # and every measurement
            plant.measure(2, measure_at, 300.0)
        assert gate_event_superop.cache_info().currsize == \
            SUPEROP_CACHE_SIZE
        assert idle_superop.cache_info().currsize == SUPEROP_CACHE_SIZE

    def test_cached_superoperators_are_read_only(self):
        superop = gate_event_superop(gates.X.tobytes(), (0.0,), NoiseModel())
        with pytest.raises(ValueError):
            superop[0, 0] = 0.0
        with pytest.raises(ValueError):
            idle_superop(10.0, DecoherenceModel())[0, 0] = 0.0

    def test_unitary_of_the_wrong_arity_raises(self):
        with pytest.raises(PlantError, match="does not match 2 qubits"):
            gate_event_superop(gates.X.tobytes(), (0.0, 0.0), NoiseModel())


class TestPlantGateEvent:
    def test_overlap_raises_before_any_state_change(self):
        plant = QuantumPlant(two_qubit_chip(), noise=NoiseModel(),
                             rng=np.random.default_rng(0))
        plant.apply_unitary("X", gates.X, (2,), 0.0, 500.0)
        before = plant.density_matrix().matrix
        with pytest.raises(PlantError, match="overlaps"):
            plant.apply_unitary("CZ", gates.CZ, (0, 2), 200.0, 40.0)
        assert np.array_equal(plant.density_matrix().matrix, before)
        assert plant._qubit_free_at[0] == 0.0

    @pytest.mark.parametrize("chip", [two_qubit_chip, surface7])
    def test_gate_histogram_records_one_sample_per_gate(self, chip):
        plant = QuantumPlant(chip(), noise=NoiseModel(),
                             rng=np.random.default_rng(0))
        obs = Observability()
        plant.observability = obs
        a, b = plant.topology.qubits[:2]
        time_ns = 0.0
        for _ in range(5):
            time_ns += 60.0
            plant.apply_unitary("X90", gates.X90, (a,), time_ns, 20.0)
            time_ns += 60.0
            plant.apply_unitary("CZ", gates.CZ, (a, b), time_ns, 40.0)
        plant.measure(a, time_ns + 100.0, 300.0)
        plant.idle_all_until(time_ns + 1000.0)
        histogram = obs.metrics.histogram("backend.dense.gate.time_ns")
        assert histogram.count == 10
        assert obs.metrics.histogram(
            "backend.dense.measure.time_ns").count == 1
