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
from repro.core.operations import default_operation_set
from repro.quantum import gates
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.noise import (
    DecoherenceModel,
    GateErrorModel,
    NoiseModel,
)
from repro.quantum.pauli_frame import GateStep
from repro.quantum.stabilizer import (
    CliffordAction,
    StabilizerBackend,
    StabilizerTableau,
    cached_clifford_action,
    clifford_action_of,
    is_clifford,
    phase_monomials,
    plane_program,
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
        assert stabilizer_strings(tableau) == ["+ZI", "+IZ"]
        tableau.apply(cached_clifford_action(gates.H), (0,))
        tableau.apply(cached_clifford_action(gates.CNOT), (0, 1))
        assert set(stabilizer_strings(tableau)) == {"+XX", "+ZZ"}


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
    NOISELESS = NoiseModel.noiseless()

    def test_reset(self):
        backend = StabilizerBackend(3)
        backend.apply_gate_event("X", gates.X, (2,), (0.0,),
                                 self.NOISELESS, np.random.default_rng(0))
        backend.reset()
        for qubit in range(3):
            assert backend.probability_one(qubit) == 0.0

    def test_non_clifford_gate_raises(self):
        backend = StabilizerBackend(1)
        with pytest.raises(PlantError, match="not Clifford"):
            backend.apply_gate_event("T", gates.T, (0,), (0.0,),
                                     self.NOISELESS,
                                     np.random.default_rng(0))

    def test_idle_refused_unless_negligible(self):
        backend = StabilizerBackend(1)
        backend.apply_idle(0, 500.0, self.NOISELESS.decoherence)  # no-op
        with pytest.raises(PlantError, match="not a Pauli channel"):
            backend.apply_idle(0, 500.0, DecoherenceModel())

    def test_gate_event_refuses_idle_before_the_gate(self):
        backend = StabilizerBackend(1)
        noise = NoiseModel(gate_error=GateErrorModel(0.0, 0.0))
        rng = np.random.default_rng(0)
        backend.apply_gate_event("X", gates.X, (0,), (0.0,), noise, rng)
        with pytest.raises(PlantError, match="not a Pauli channel"):
            backend.apply_gate_event("X", gates.X, (0,), (500.0,), noise,
                                     rng)
        assert backend.probability_one(0) == 1.0   # second X not applied

    def test_gate_error_sampling_statistics(self):
        """p=1 depolarizing on |0>: X or Y flip (2 of 3 Paulis) ->
        P(1) = 2/3 over trials; the Z third leaves |0> alone."""
        rng = np.random.default_rng(17)
        noise = NoiseModel(
            decoherence=self.NOISELESS.decoherence,
            gate_error=GateErrorModel(single_qubit_error=1.0,
                                      two_qubit_error=0.07))
        flips = 0
        trials = 600
        for _ in range(trials):
            backend = StabilizerBackend(1)
            backend.apply_gate_event("I", gates.I, (0,), (0.0,), noise,
                                     rng)
            flips += backend.probability_one(0) == 1.0
        assert 0.58 < flips / trials < 0.75

    def test_zero_gate_error_is_noop(self):
        backend = StabilizerBackend(1)
        rng = np.random.default_rng(0)
        for _ in range(50):
            backend.apply_gate_event("I", gates.I, (0,), (0.0,),
                                     self.NOISELESS, rng)
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


class MintermTableau(StabilizerTableau):
    """The int-column tableau with its gate update as it was before the
    update was compiled: ``apply`` below is the old minterm expansion
    of the action table, verbatim, kept as the reference the compiled
    column program (:attr:`CliffordAction.program` /
    :attr:`CliffordAction.phase`) must reproduce bit for bit."""

    def apply(self, action: CliffordAction,
              qubits: tuple[int, ...]) -> None:
        """Conjugate every row by the gate via its action table.

        The update is the minterm expansion of the action table in
        whole-column boolean algebra: each of the ``4^k - 1``
        non-identity input values ``v`` selects the rows currently
        carrying that Pauli on the target qubits (an AND of column
        literals), and XOR/ORs them into the output columns and the
        phases that ``bits[v]`` / ``sign[v]`` prescribe.
        """
        if len(qubits) != action.num_qubits:
            raise PlantError(
                f"action on {action.num_qubits} qubit(s) applied to "
                f"{len(qubits)}")
        for qubit in qubits:
            if not 0 <= qubit < self.num_qubits:
                raise PlantError(f"qubit {qubit} out of range")
        bits = action.bits
        sign = action.sign
        x = self.x
        z = self.z
        if len(qubits) == 1:
            a = qubits[0]
            xa = x[a]
            za = z[a]
            # Minterms of (x, z) indexed by v = x + 2z; v=0 maps I->I
            # and never contributes, so it is skipped.
            minterms = (0, xa & ~za, ~xa & za, xa & za)
            new_x = new_z = flips = 0
            for v in (1, 2, 3):
                term = minterms[v]
                if not term:
                    continue
                image = bits[v]
                if image & 1:
                    new_x |= term
                if image & 2:
                    new_z |= term
                if sign[v]:
                    flips ^= term
            x[a] = new_x
            z[a] = new_z
            self.r ^= flips
        else:
            a, b = qubits
            if a == b:
                raise PlantError(f"duplicate qubits in {qubits}")
            xa, za, xb, zb = x[a], z[a], x[b], z[b]
            # The identity minterms are negative ints; every term with
            # v != 0 ANDs one of them with a non-negative minterm, so
            # the result stays within the 2n rows.
            ta = (~(xa | za), xa & ~za, ~xa & za, xa & za)
            tb = (~(xb | zb), xb & ~zb, ~xb & zb, xb & zb)
            new_xa = new_za = new_xb = new_zb = flips = 0
            for v in range(1, 16):
                term = ta[v & 3] & tb[v >> 2]
                if not term:
                    continue
                image = bits[v]
                if image & 1:
                    new_xa |= term
                if image & 2:
                    new_za |= term
                if image & 4:
                    new_xb |= term
                if image & 8:
                    new_zb |= term
                if sign[v]:
                    flips ^= term
            x[a], z[a], x[b], z[b] = new_xa, new_za, new_xb, new_zb
            self.r ^= flips


def tableau_bits(tableau: StabilizerTableau
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The canonical unpacked image of the int columns: the X and Z
    bits as (2n, n) uint8 arrays and the phases as a (2n,) vector."""
    rows = 2 * tableau.num_qubits
    size = (rows + 7) // 8

    def unpack(columns: list[int]) -> np.ndarray:
        raw = np.frombuffer(
            b"".join(c.to_bytes(size, "little") for c in columns),
            dtype=np.uint8).reshape(len(columns), size)
        return np.unpackbits(raw, axis=1, count=rows, bitorder="little")

    return (np.ascontiguousarray(unpack(tableau.x).T),
            np.ascontiguousarray(unpack(tableau.z).T),
            unpack([tableau.r])[0])


def stabilizer_strings(tableau: StabilizerTableau) -> list[str]:
    """The stabilizer generators as signed Pauli strings."""
    letters = {0: "I", 1: "X", 2: "Z", 3: "Y"}
    x, z, r = tableau_bits(tableau)
    n = tableau.num_qubits
    return [("-" if r[row] else "+") + "".join(
                letters[int(x[row, q]) | (int(z[row, q]) << 1)]
                for q in range(n))
            for row in range(n, 2 * n)]


def _assert_same_state(packed: StabilizerTableau,
                       boolean: BooleanTableau) -> None:
    """Bit-level equality: the int-column tableau's canonical unpacked
    image must match the boolean reference bit for bit — state AND
    phase rows, destabilizers included."""
    x, z, r = tableau_bits(packed)
    np.testing.assert_array_equal(x, boolean.x)
    np.testing.assert_array_equal(z, boolean.z)
    np.testing.assert_array_equal(r, boolean.r)


def _assert_same_pivot(packed: StabilizerTableau, boolean: BooleanTableau,
                       qubit: int) -> None:
    """The pivot row the Pauli-frame engine records before measuring
    ``qubit`` must be the boolean reference's: the first stabilizer
    anticommuting with Z_qubit and its (x, z) bits on a random
    outcome, None on a deterministic one."""
    n = boolean.num_qubits
    anticommuting = np.nonzero(boolean.x[n:, qubit])[0]
    if anticommuting.size == 0:
        assert packed.pivot_stabilizer(qubit) is None
        return
    pivot = n + int(anticommuting[0])
    assert packed.pivot_stabilizer(qubit) == pivot
    pivot_x, pivot_z = packed.row_paulis(pivot)
    np.testing.assert_array_equal(pivot_x, boolean.x[pivot])
    np.testing.assert_array_equal(pivot_z, boolean.z[pivot])


try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:          # pragma: no cover - baked into the image
    HAVE_HYPOTHESIS = False


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis missing")
class TestPackedVsBooleanProperty:
    """Property tier: the int-column tableau is *exactly* the boolean
    tableau under random Clifford sequences, Pauli injections and
    measurements — same state bits, same phases, same pivot rows, same
    RNG consumption, same outcomes."""

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
                _assert_same_pivot(packed, boolean, qubit)
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
        """At 65-80 qubits a column holds 130-160 row bits, several
        machine words; the int-column arithmetic must stay exact on
        such wide ints."""
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
        """Wide, measurement-heavy sequences with columns on both sides
        of 64 bits (2n from 14 to 80): scramble, measure every qubit,
        remix with CNOTs and X errors (deterministic outcomes over many
        selected stabilizer rows, both signs), scramble again and
        measure twice.  Outcomes, pivot rows and states match the
        boolean tableau, a deterministic measurement draws nothing and
        a random one draws exactly once."""
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
                _assert_same_pivot(packed, boolean, qubit)
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


def _configured_cliffords() -> dict[str, CliffordAction]:
    """Every Clifford of the default operation set, by name (T and TDG
    and the measurement have no action)."""
    operations = default_operation_set()
    actions = {}
    for name in operations.names():
        unitary = operations.get(name).unitary
        action = None if unitary is None else clifford_action_of(unitary)
        if action is not None:
            actions[name] = action
    return actions


CONFIGURED_CLIFFORDS = _configured_cliffords()


def _random_clifford(k: int, seed: int) -> CliffordAction:
    """The action of a random k-qubit Clifford: a product of random H,
    S and (on two qubits) CZ layers, times a random global phase."""
    rng = np.random.default_rng(seed)
    unitary = np.eye(2 ** k, dtype=complex)
    for _ in range(int(rng.integers(1, 12))):
        choice = int(rng.integers(3 if k == 2 else 2))
        if choice == 2:
            layer = gates.CZ
        else:
            layer = (gates.H, gates.S)[choice]
            if k == 2:
                layer = (np.kron(layer, gates.I) if rng.random() < 0.5
                         else np.kron(gates.I, layer))
        unitary = layer @ unitary
    action = clifford_action_of(np.exp(2j * np.pi * rng.random()) * unitary)
    assert action is not None
    return action


def _random_tableau(num_qubits: int, seed: int) -> StabilizerTableau:
    """A random reachable stabilizer state, built with the minterm
    reference: layers of a random 1-qubit and a random 2-qubit
    configured Clifford, with Pauli errors (signs) and collapses."""
    rng = np.random.default_rng(seed)
    tableau = MintermTableau(num_qubits)
    by_width = {k: [action for _, action in sorted(
        CONFIGURED_CLIFFORDS.items()) if action.num_qubits == k]
        for k in (1, 2)}
    for _ in range(4 * num_qubits):
        for k in (1, 2):
            actions = by_width[k]
            qubits = tuple(int(q) for q in rng.choice(
                num_qubits, k, replace=False))
            tableau.apply(actions[rng.integers(len(actions))], qubits)
        step = rng.random()
        if step < 0.2:
            tableau.apply_pauli(int(rng.integers(1, 4)),
                                (int(rng.integers(num_qubits)),))
        elif step < 0.3:
            tableau.measure(int(rng.integers(num_qubits)), rng)
    return tableau


def _assert_compiled_matches_minterm(reference: StabilizerTableau,
                                     action: CliffordAction,
                                     qubits: tuple[int, ...]) -> None:
    """Apply ``action`` to two copies of ``reference``, compiled and
    minterm, and compare every column and phase bit."""
    compiled = StabilizerTableau(reference.num_qubits)
    minterm = MintermTableau(reference.num_qubits)
    for tableau in (compiled, minterm):
        tableau.x = list(reference.x)
        tableau.z = list(reference.z)
        tableau.r = reference.r
    compiled.apply(action, qubits)
    minterm.apply(action, qubits)
    assert compiled.x == minterm.x
    assert compiled.z == minterm.z
    assert compiled.r == minterm.r


class TestCompiledGates:
    """The compiled column program of a :class:`CliffordAction` is the
    minterm expansion of its table, exactly."""

    def test_cz_phase_is_the_textbook_rule(self):
        # r ^= x_a & x_b & (z_a ^ z_b); columns x_a, z_a, x_b, z_b.
        action = CONFIGURED_CLIFFORDS["CZ"]
        assert action.phase == ((0, 1, 2), (0, 2, 3))
        assert action.program == ((1, 2), (3, 0))

    def test_every_configured_clifford_on_every_placement(self):
        reference = _random_tableau(4, seed=5)
        for name, action in CONFIGURED_CLIFFORDS.items():
            placements = ([(q,) for q in range(4)]
                          if action.num_qubits == 1 else
                          [(a, b) for a in range(4) for b in range(4)
                           if a != b])
            for qubits in placements:
                _assert_compiled_matches_minterm(reference, action, qubits)

    def test_gate_step_reads_the_action_program(self):
        for action in CONFIGURED_CLIFFORDS.values():
            indices = (5,) if action.num_qubits == 1 else (5, 2)
            rows = [2 * qubit + plane for qubit in indices
                    for plane in (0, 1)]
            assert GateStep(action=action, indices=indices).xors == tuple(
                (rows[d], rows[s]) for d, s in action.program)
            assert action.program == plane_program(
                tuple(action.bits.tolist()))

    def test_identity_sign_rejected(self):
        with pytest.raises(PlantError, match="identity"):
            phase_monomials((1, 0, 0, 0))


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis missing")
class TestCompiledGatesProperty:
    """Property tier of :class:`TestCompiledGates`: random tableaus
    (columns of one to three machine words), every configured Clifford
    and random 1- and 2-qubit Cliffords."""

    @given(num_qubits=st.integers(2, 12),
           state_seed=st.integers(0, 2 ** 31),
           name=st.sampled_from(sorted(CONFIGURED_CLIFFORDS)),
           placement=st.integers(0, 2 ** 16))
    @settings(max_examples=80, deadline=None)
    def test_configured_cliffords_on_random_tableaus(
            self, num_qubits, state_seed, name, placement):
        action = CONFIGURED_CLIFFORDS[name]
        qubits = tuple(int(q) for q in np.random.default_rng(
            placement).choice(num_qubits, action.num_qubits,
                              replace=False))
        _assert_compiled_matches_minterm(
            _random_tableau(num_qubits, state_seed), action, qubits)

    @given(k=st.sampled_from((1, 2)),
           num_qubits=st.integers(2, 70),
           gate_seed=st.integers(0, 2 ** 31),
           state_seed=st.integers(0, 2 ** 31))
    @settings(max_examples=80, deadline=None)
    def test_random_cliffords_on_random_tableaus(
            self, k, num_qubits, gate_seed, state_seed):
        action = _random_clifford(k, gate_seed)
        qubits = tuple(int(q) for q in np.random.default_rng(
            gate_seed).choice(num_qubits, k, replace=False))
        _assert_compiled_matches_minterm(
            _random_tableau(num_qubits, state_seed), action, qubits)
