"""Stabilizer-tableau backend unit tests.

The tableau must agree *exactly* with the dense density-matrix
simulator on every Clifford circuit: same pre-collapse probabilities
after every gate, same post-collapse states along every forced outcome
path.  The Clifford-action derivation must classify every configured
gate correctly, and the backend must refuse what it cannot represent
(non-Clifford gates, non-Pauli idle decoherence).
"""

import numpy as np
import pytest

from repro.core.errors import PlantError
from repro.quantum import gates
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.noise import (
    DecoherenceModel,
    GateErrorModel,
    NoiseModel,
)
from repro.quantum.stabilizer import (
    StabilizerBackend,
    StabilizerTableau,
    cached_clifford_action,
    clifford_action_of,
    is_clifford,
)

CLIFFORD_1Q = ["I", "X", "Y", "Z", "H", "S", "SDG",
               "X90", "XM90", "Y90", "YM90"]
CLIFFORD_2Q = ["CZ", "CNOT", "SWAP"]


class TestCliffordDetection:
    def test_standard_cliffords_detected(self):
        for name in CLIFFORD_1Q + CLIFFORD_2Q:
            assert is_clifford(gates.STANDARD_GATES[name]), name

    def test_non_cliffords_rejected(self):
        assert not is_clifford(gates.T)
        assert not is_clifford(gates.TDG)
        assert not is_clifford(gates.rx(0.3))
        assert not is_clifford(gates.ry(1.0))

    def test_action_phase_invariant(self):
        """A global phase must not change the derived action."""
        plain = clifford_action_of(gates.H)
        phased = clifford_action_of(np.exp(1j * 0.7) * gates.H)
        assert np.array_equal(plain.bits, phased.bits)
        assert np.array_equal(plain.sign, phased.sign)

    def test_cache_returns_same_object(self):
        assert cached_clifford_action(gates.CZ) is \
            cached_clifford_action(gates.CZ)


class TestTableauVsDense:
    """Differential ground truth: the exact density matrix."""

    def test_random_clifford_circuits_match_dense(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            n = int(rng.integers(1, 5))
            tableau = StabilizerTableau(n)
            dense = DensityMatrix(n)
            for _ in range(12):
                if n >= 2 and rng.random() < 0.35:
                    name = rng.choice(CLIFFORD_2Q)
                    a, b = (int(q) for q in
                            rng.choice(n, size=2, replace=False))
                    targets = (a, b)
                else:
                    name = rng.choice(CLIFFORD_1Q)
                    targets = (int(rng.integers(0, n)),)
                unitary = gates.STANDARD_GATES[name]
                tableau.apply(cached_clifford_action(unitary), targets)
                dense.apply_gate(unitary, targets)
                for qubit in range(n):
                    assert tableau.probability_one(qubit) == \
                        pytest.approx(dense.probability_one(qubit),
                                      abs=1e-9)

    def test_collapse_paths_match_dense(self):
        """Forcing the same outcomes must keep both simulators equal."""
        rng = np.random.default_rng(11)
        for trial in range(10):
            n = 3
            tableau = StabilizerTableau(n)
            dense = DensityMatrix(n)
            for qubit in range(n):
                tableau.apply(cached_clifford_action(gates.H), (qubit,))
                dense.apply_gate(gates.H, (qubit,))
            tableau.apply(cached_clifford_action(gates.CZ), (0, 1))
            dense.apply_gate(gates.CZ, (0, 1))
            for qubit in range(n):
                outcome = int(rng.integers(0, 2))
                dense.collapse(qubit, outcome)
                tableau.collapse(qubit, outcome)
                for probe in range(n):
                    assert tableau.probability_one(probe) == \
                        pytest.approx(dense.probability_one(probe),
                                      abs=1e-9)

    def test_bell_pair_correlations(self):
        tableau = StabilizerTableau(2)
        tableau.apply(cached_clifford_action(gates.H), (0,))
        tableau.apply(cached_clifford_action(gates.CNOT), (0, 1))
        assert tableau.probability_one(0) == 0.5
        tableau.collapse(0, 1)
        assert tableau.probability_one(1) == 1.0   # perfectly correlated


class TestTableauMeasurement:
    def test_deterministic_outcomes(self):
        tableau = StabilizerTableau(2)
        assert tableau.probability_one(0) == 0.0
        tableau.apply(cached_clifford_action(gates.X), (0,))
        assert tableau.probability_one(0) == 1.0
        assert tableau.probability_one(1) == 0.0

    def test_impossible_collapse_raises(self):
        tableau = StabilizerTableau(1)
        tableau.apply(cached_clifford_action(gates.X), (0,))
        with pytest.raises(PlantError, match="probability 0"):
            tableau.collapse(0, 0)

    def test_measure_statistics(self):
        rng = np.random.default_rng(3)
        ones = 0
        for _ in range(400):
            tableau = StabilizerTableau(1)
            tableau.apply(cached_clifford_action(gates.H), (0,))
            ones += tableau.measure(0, rng)
        assert 140 < ones < 260   # ~N(200, 10)

    def test_measurement_collapses(self):
        rng = np.random.default_rng(5)
        tableau = StabilizerTableau(1)
        tableau.apply(cached_clifford_action(gates.H), (0,))
        first = tableau.measure(0, rng)
        assert tableau.probability_one(0) == float(first)
        assert tableau.measure(0, rng) == first

    def test_stabilizer_strings(self):
        tableau = StabilizerTableau(2)
        assert tableau.stabilizer_strings() == ["+ZI", "+IZ"]
        tableau.apply(cached_clifford_action(gates.H), (0,))
        tableau.apply(cached_clifford_action(gates.CNOT), (0, 1))
        assert set(tableau.stabilizer_strings()) == {"+XX", "+ZZ"}


class TestPauliInjection:
    def test_x_error_flips_outcome(self):
        tableau = StabilizerTableau(2)
        tableau.apply_pauli(0b01, (1,))   # X on qubit 1
        assert tableau.probability_one(1) == 1.0
        assert tableau.probability_one(0) == 0.0

    def test_z_error_invisible_on_basis_state(self):
        tableau = StabilizerTableau(1)
        tableau.apply_pauli(0b10, (0,))   # Z on |0> is a no-op
        assert tableau.probability_one(0) == 0.0

    def test_two_qubit_pauli(self):
        tableau = StabilizerTableau(2)
        tableau.apply_pauli(0b0101, (0, 1))   # X on both
        assert tableau.probability_one(0) == 1.0
        assert tableau.probability_one(1) == 1.0


class TestStabilizerBackend:
    def test_snapshot_restore_roundtrip(self):
        backend = StabilizerBackend(2)
        backend.apply_gate("H", gates.H, (0,))
        snapshot = backend.snapshot()
        backend.apply_gate("X", gates.X, (1,))
        assert backend.probability_one(1) == 1.0
        backend.restore(snapshot)
        assert backend.probability_one(1) == 0.0
        assert backend.probability_one(0) == 0.5
        # The snapshot is never aliased: restoring twice works.
        backend.apply_gate("X", gates.X, (1,))
        backend.restore(snapshot)
        assert backend.probability_one(1) == 0.0

    def test_reset(self):
        backend = StabilizerBackend(3)
        backend.apply_gate("X", gates.X, (2,))
        backend.reset()
        for qubit in range(3):
            assert backend.probability_one(qubit) == 0.0

    def test_non_clifford_gate_raises(self):
        backend = StabilizerBackend(1)
        with pytest.raises(PlantError, match="not Clifford"):
            backend.apply_gate("T", gates.T, (0,))

    def test_idle_refused_unless_negligible(self):
        backend = StabilizerBackend(1)
        noiseless = NoiseModel.noiseless()
        backend.apply_idle(0, 500.0, noiseless.decoherence)  # no-op
        with pytest.raises(PlantError, match="not a Pauli channel"):
            backend.apply_idle(0, 500.0, DecoherenceModel())

    def test_gate_error_sampling_statistics(self):
        """p=1 depolarizing on |0>: X or Y flip (2 of 3 Paulis) ->
        P(1) = 2/3 over trials; the Z third leaves |0> alone."""
        rng = np.random.default_rng(17)
        error = GateErrorModel(single_qubit_error=1.0,
                               two_qubit_error=0.07)
        flips = 0
        trials = 600
        for _ in range(trials):
            backend = StabilizerBackend(1)
            backend.apply_gate_error((0,), error, rng)
            flips += backend.probability_one(0) == 1.0
        assert 0.58 < flips / trials < 0.75

    def test_zero_gate_error_is_noop(self):
        backend = StabilizerBackend(1)
        error = GateErrorModel(single_qubit_error=0.0,
                               two_qubit_error=0.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            backend.apply_gate_error((0,), error, rng)
        assert backend.probability_one(0) == 0.0

    def test_density_matrix_not_exposed(self):
        backend = StabilizerBackend(2)
        with pytest.raises(PlantError, match="density matrix"):
            backend.density_matrix()


class BooleanTableau:
    """The pre-bit-packing boolean tableau, ported verbatim as the
    differential reference for the packed implementation: one uint8
    0/1 entry per bit, fancy-indexed gate updates.  Only the paths the
    property tests drive are kept (gates, Pauli injection,
    probabilities, collapse, measurement)."""

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        n = num_qubits
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        self.x[np.arange(n), np.arange(n)] = 1
        self.z[np.arange(n, 2 * n), np.arange(n)] = 1

    def apply(self, action, qubits):
        if len(qubits) == 1:
            a = qubits[0]
            v = self.x[:, a] | (self.z[:, a] << 1)
            image = action.bits[v]
            self.r ^= action.sign[v]
            self.x[:, a] = image & 1
            self.z[:, a] = (image >> 1) & 1
        else:
            a, b = qubits
            v = (self.x[:, a] | (self.z[:, a] << 1) |
                 (self.x[:, b] << 2) | (self.z[:, b] << 3))
            image = action.bits[v]
            self.r ^= action.sign[v]
            self.x[:, a] = image & 1
            self.z[:, a] = (image >> 1) & 1
            self.x[:, b] = (image >> 2) & 1
            self.z[:, b] = (image >> 3) & 1

    def apply_pauli(self, v, qubits):
        anti = np.zeros(2 * self.num_qubits, dtype=np.uint8)
        for slot, qubit in enumerate(qubits):
            if (v >> (2 * slot)) & 1:
                anti ^= self.z[:, qubit]
            if (v >> (2 * slot + 1)) & 1:
                anti ^= self.x[:, qubit]
        self.r ^= anti

    def _phase_exponent(self, x1, z1, x2, z2):
        x1 = x1.astype(np.int8)
        z1 = z1.astype(np.int8)
        x2 = x2.astype(np.int8)
        z2 = z2.astype(np.int8)
        g = np.where(
            (x1 == 1) & (z1 == 1), z2 - x2,
            np.where((x1 == 1) & (z1 == 0), z2 * (2 * x2 - 1),
                     np.where((x1 == 0) & (z1 == 1), x2 * (1 - 2 * z2),
                              0)))
        return int(g.sum())

    def _rowsum(self, h, i):
        total = (2 * int(self.r[h]) + 2 * int(self.r[i]) +
                 self._phase_exponent(self.x[i], self.z[i],
                                      self.x[h], self.z[h]))
        self.r[h] = (total % 4) // 2
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]

    def _deterministic_outcome(self, a):
        n = self.num_qubits
        sx = np.zeros(n, dtype=np.uint8)
        sz = np.zeros(n, dtype=np.uint8)
        total = 0
        for i in np.nonzero(self.x[:n, a])[0]:
            total += (2 * int(self.r[i + n]) +
                      self._phase_exponent(self.x[i + n], self.z[i + n],
                                           sx, sz))
            sx ^= self.x[i + n]
            sz ^= self.z[i + n]
        return (total % 4) // 2

    def probability_one(self, a):
        if self.x[self.num_qubits:, a].any():
            return 0.5
        return float(self._deterministic_outcome(a))

    def collapse(self, a, result):
        n = self.num_qubits
        anticommuting = np.nonzero(self.x[n:, a])[0]
        if anticommuting.size == 0:
            assert self._deterministic_outcome(a) == result
            return
        p = int(anticommuting[0]) + n
        for h in np.nonzero(self.x[:, a])[0]:
            if h != p:
                self._rowsum(int(h), p)
        self.x[p - n] = self.x[p]
        self.z[p - n] = self.z[p]
        self.r[p - n] = self.r[p]
        self.x[p] = 0
        self.z[p] = 0
        self.z[p, a] = 1
        self.r[p] = result

    def measure(self, a, rng):
        p_one = self.probability_one(a)
        if p_one == 0.5:
            result = 1 if rng.random() < 0.5 else 0
        else:
            result = int(p_one)
        self.collapse(a, result)
        return result


def _assert_same_state(packed: StabilizerTableau,
                       boolean: BooleanTableau) -> None:
    """Word-level equality: the packed tableau's canonical unpacked
    image must match the boolean reference bit for bit — state AND
    phase rows, destabilizers included."""
    np.testing.assert_array_equal(packed.x_bits(), boolean.x)
    np.testing.assert_array_equal(packed.z_bits(), boolean.z)
    np.testing.assert_array_equal(packed.r_bits(), boolean.r)


try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:          # pragma: no cover - baked into the image
    HAVE_HYPOTHESIS = False


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis missing")
class TestPackedVsBooleanProperty:
    """Property tier: the bit-packed tableau is *exactly* the boolean
    tableau under random Clifford sequences, Pauli injections and
    measurements — same packed-word state, same phases, same RNG
    consumption, same outcomes."""

    @staticmethod
    def _op_strategy():
        return st.one_of(
            st.tuples(st.just("1q"),
                      st.sampled_from(CLIFFORD_1Q),
                      st.integers(0, 63)),
            st.tuples(st.just("2q"),
                      st.sampled_from(CLIFFORD_2Q),
                      st.integers(0, 63), st.integers(0, 63)),
            st.tuples(st.just("pauli"),
                      st.integers(1, 3), st.integers(0, 63)),
            st.tuples(st.just("measure"), st.integers(0, 63)))

    @given(num_qubits=st.integers(1, 6),
           seed=st.integers(0, 2 ** 31),
           ops=st.lists(_op_strategy(), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_random_sequences_equal(self, num_qubits, seed, ops):
        packed = StabilizerTableau(num_qubits)
        boolean = BooleanTableau(num_qubits)
        rng_packed = np.random.default_rng(seed)
        rng_boolean = np.random.default_rng(seed)
        for op in ops:
            if op[0] == "1q":
                _, name, raw = op
                targets = (raw % num_qubits,)
                action = cached_clifford_action(
                    gates.STANDARD_GATES[name])
                packed.apply(action, targets)
                boolean.apply(action, targets)
            elif op[0] == "2q":
                if num_qubits < 2:
                    continue
                _, name, raw_a, raw_b = op
                a = raw_a % num_qubits
                b = raw_b % num_qubits
                if a == b:
                    b = (a + 1) % num_qubits
                action = cached_clifford_action(
                    gates.STANDARD_GATES[name])
                packed.apply(action, (a, b))
                boolean.apply(action, (a, b))
            elif op[0] == "pauli":
                _, v, raw = op
                packed.apply_pauli(v, (raw % num_qubits,))
                boolean.apply_pauli(v, (raw % num_qubits,))
            else:
                _, raw = op
                qubit = raw % num_qubits
                assert packed.probability_one(qubit) == \
                    boolean.probability_one(qubit)
                assert packed.measure(qubit, rng_packed) == \
                    boolean.measure(qubit, rng_boolean)
            _assert_same_state(packed, boolean)
        # Identical RNG consumption: the packed tableau must draw
        # exactly the draws the boolean one did, nothing more.
        assert rng_packed.random() == rng_boolean.random()

    @given(num_qubits=st.integers(65, 80),
           seed=st.integers(0, 2 ** 31))
    @settings(max_examples=5, deadline=None)
    def test_multiword_columns(self, num_qubits, seed):
        """Past 64 qubits a column spans multiple uint64 words; the
        packed arithmetic must stay exact across word boundaries."""
        rng = np.random.default_rng(seed)
        packed = StabilizerTableau(num_qubits)
        boolean = BooleanTableau(num_qubits)
        h = cached_clifford_action(gates.STANDARD_GATES["H"])
        cz = cached_clifford_action(gates.STANDARD_GATES["CZ"])
        for _ in range(30):
            a = int(rng.integers(num_qubits))
            b = int(rng.integers(num_qubits - 1))
            b = b if b != a else num_qubits - 1
            packed.apply(h, (a,))
            boolean.apply(h, (a,))
            packed.apply(cz, (a, b))
            boolean.apply(cz, (a, b))
        rng_packed = np.random.default_rng(seed + 1)
        rng_boolean = np.random.default_rng(seed + 1)
        for qubit in range(0, num_qubits, 7):
            assert packed.measure(qubit, rng_packed) == \
                boolean.measure(qubit, rng_boolean)
        _assert_same_state(packed, boolean)


    @given(num_qubits=st.integers(7, 40),
           seed=st.integers(0, 2 ** 31))
    @settings(max_examples=12, deadline=None)
    def test_measurement_heavy_sequences(self, num_qubits, seed):
        """Wide, measurement-heavy sequences on both sides of the
        one-word column limit (2n <= 64 bits): scramble, measure every
        qubit, remix with CNOTs and X errors (deterministic outcomes
        over many selected stabilizer rows, both signs), scramble again
        and measure twice.  Outcomes and states match the boolean
        tableau, a deterministic measurement draws nothing and a random
        one draws exactly once."""
        n = num_qubits
        plan = np.random.default_rng(seed)
        packed = StabilizerTableau(n)
        boolean = BooleanTableau(n)
        rng_packed = CountingRng(seed + 1)
        rng_boolean = np.random.default_rng(seed + 1)

        def apply(name, qubits):
            action = cached_clifford_action(gates.STANDARD_GATES[name])
            packed.apply(action, qubits)
            boolean.apply(action, qubits)

        def two_qubits():
            a, b = plan.choice(n, 2, replace=False)
            return int(a), int(b)

        def scramble(steps):
            for _ in range(steps):
                if plan.random() < 0.4:
                    apply(CLIFFORD_1Q[plan.integers(len(CLIFFORD_1Q))],
                          (int(plan.integers(n)),))
                else:
                    apply(CLIFFORD_2Q[plan.integers(len(CLIFFORD_2Q))],
                          two_qubits())

        def measure_all():
            for qubit in plan.permutation(n).tolist():
                p_one = boolean.probability_one(qubit)
                assert packed.probability_one(qubit) == p_one
                draws = rng_packed.draws
                assert packed.measure(qubit, rng_packed) == \
                    boolean.measure(qubit, rng_boolean)
                assert rng_packed.draws - draws == (p_one == 0.5)
            _assert_same_state(packed, boolean)

        scramble(4 * n)
        measure_all()
        for _ in range(2 * n):
            apply("CNOT", two_qubits())
            if plan.random() < 0.2:
                qubit = int(plan.integers(n))
                packed.apply_pauli(1, (qubit,))      # an X error
                boolean.apply_pauli(1, (qubit,))
        measure_all()
        scramble(n)
        measure_all()
        measure_all()
        assert rng_packed.random() == rng_boolean.random()


class CountingRng:
    """A seeded generator that counts its ``random()`` draws."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self._rng.random()


class TestDigestStability:
    """Regression: the digest-of-state contract survived the
    bit-packed refactor."""

    def test_same_generators_same_digest(self):
        """The digest is the pre-refactor hash of the canonical
        (2n, n) uint8 images — same generators must yield the same
        digest regardless of the word packing underneath."""
        backend = StabilizerBackend(3)
        backend.apply_gate("H", gates.STANDARD_GATES["H"], (0,))
        backend.apply_gate("CZ", gates.STANDARD_GATES["CZ"], (0, 2))
        snapshot = backend.snapshot()
        digest = backend.state_digest(snapshot)
        # The pre-refactor formula, evaluated on the boolean reference
        # driven through the identical sequence.
        boolean = BooleanTableau(3)
        boolean.apply(cached_clifford_action(
            gates.STANDARD_GATES["H"]), (0,))
        boolean.apply(cached_clifford_action(
            gates.STANDARD_GATES["CZ"]), (0, 2))
        expected = hash((boolean.x.tobytes(), boolean.z.tobytes(),
                         boolean.r.tobytes()))
        assert digest == expected

    def test_digest_insensitive_to_copy(self):
        backend = StabilizerBackend(4)
        backend.apply_gate("X90", gates.STANDARD_GATES["X90"], (1,))
        first = backend.snapshot()
        second = backend.snapshot()
        assert backend.state_digest(first) == \
            backend.state_digest(second)

    def test_digest_detects_any_packed_bit_flip(self):
        backend = StabilizerBackend(2)
        backend.apply_gate("H", gates.STANDARD_GATES["H"], (0,))
        snapshot = backend.snapshot()
        digest = backend.state_digest(snapshot)
        rng = np.random.default_rng(5)
        backend.corrupt_snapshot(snapshot, rng)
        assert backend.state_digest(snapshot) != digest
