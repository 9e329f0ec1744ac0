"""Rotated surface-code family (distances 3 and 5).

The ``*Cases`` classes are written once against ``self.distance``;
``test_surface17.py`` and ``test_surface49.py`` bind them to ``d = 3``
and ``d = 5``.  The module-level tests are parametrised directly: they
pin the compiled binaries and check error injection across the whole
family, distance 2 included.
"""

import hashlib

import pytest

from repro.compiler.scheduler import schedule_asap
from repro.core.errors import InvalidRequestError
from repro.core.isa import rotated_surface_instantiation
from repro.experiments.runner import ExperimentSetup
from repro.experiments.surface_code import (
    run_rotated_surface_experiment,
    run_surface_code_experiment,
)
from repro.topology.library import (
    get_chip,
    rotated_surface_chip,
    rotated_surface_layout,
)
from repro.workloads.rotated_surface import (
    RotatedSyndrome,
    expected_rotated_z_syndrome,
    rotated_surface_circuit,
)
from repro.workloads.surface_code import (
    expected_z_syndrome,
    surface_code_circuit,
)

#: Per distance: qubits, directed pairs (the pair-mask width) and the
#: instruction word width of its instantiation.
CHIP_FACTS = {3: (17, 48, 64), 5: (49, 160, 192)}
#: Distinct Z-syndrome patterns over all single data X errors.
Z_PATTERNS = {3: 7, 5: 21}


def measurements(circuit):
    return [op for op in circuit.operations if op.name == "MEASZ"]


class TopologyCases:
    distance: int

    @property
    def layout(self):
        return rotated_surface_layout(self.distance)

    def test_counts(self):
        chip = rotated_surface_chip(self.distance)
        qubits, pairs, _ = CHIP_FACTS[self.distance]
        assert chip.num_qubits == qubits
        assert chip.num_pairs == pairs       # 2 directions per coupling
        assert chip.pair_mask_width == pairs

    def test_every_data_qubit_in_two_or_three_checks(self):
        """Every data qubit sits in 1-2 Z checks and 1-2 X checks."""
        for qubit in self.layout.data_qubits:
            z_count = sum(qubit in data
                          for data in self.layout.z_checks.values())
            x_count = sum(qubit in data
                          for data in self.layout.x_checks.values())
            assert 1 <= z_count <= 2
            assert 1 <= x_count <= 2

    def test_all_couplings_are_allowed_pairs(self):
        chip = rotated_surface_chip(self.distance)
        for checks in (self.layout.z_checks, self.layout.x_checks):
            for ancilla, data in checks.items():
                for qubit in data:
                    assert chip.is_allowed_pair(ancilla, qubit)
                    assert chip.is_allowed_pair(qubit, ancilla)

    def test_registered_by_chip_name(self):
        chip = rotated_surface_chip(self.distance)
        named = get_chip(f"surface-{CHIP_FACTS[self.distance][0]}")
        assert named.name == chip.name
        assert named.pairs == chip.pairs
        assert named.feedlines == chip.feedlines

    def test_every_qubit_has_a_feedline(self):
        chip = rotated_surface_chip(self.distance)
        for qubit in chip.qubits:
            assert chip.feedline_of(qubit) is not None

    def test_single_x_errors_detected_and_mostly_separated(self):
        """Every single data X error fires the Z syndrome.  The Z half
        alone leaves a few boundary pairs degenerate (qubits whose only
        Z check is the same plaquette); the X checks, which a Z error
        would fire symmetrically, complete the separation."""
        syndromes = {}
        for qubit in self.layout.data_qubits:
            syndrome = expected_rotated_z_syndrome(self.distance,
                                                   ("X", qubit))
            assert syndrome.fired()
            syndromes.setdefault(syndrome.z_checks, []).append(qubit)
        assert len(syndromes) == Z_PATTERNS[self.distance]
        x_checks = self.layout.x_checks
        for qubits in syndromes.values():
            assert len(qubits) <= 2
            x_memberships = {frozenset(a for a, d in x_checks.items()
                                       if q in d) for q in qubits}
            assert len(x_memberships) == len(qubits)


class CircuitCases:
    distance: int

    def test_round_structure(self):
        circuit = rotated_surface_circuit(self.distance, rounds=2)
        z_ancillas = rotated_surface_layout(self.distance).z_ancillas
        assert len(measurements(circuit)) == 2 * len(z_ancillas)
        assert circuit.num_qubits == CHIP_FACTS[self.distance][0]

    def test_x_checks_optional(self):
        layout = rotated_surface_layout(self.distance)
        circuit = rotated_surface_circuit(self.distance, rounds=1,
                                          include_x_checks=True)
        assert len(measurements(circuit)) == \
            len(layout.z_checks) + len(layout.x_checks)

    def test_error_validation(self):
        ancilla = rotated_surface_layout(self.distance).z_ancillas[0]
        with pytest.raises(ValueError, match="data qubits"):
            rotated_surface_circuit(self.distance, rounds=1,
                                    error=("X", ancilla))
        with pytest.raises(ValueError, match="at least one round"):
            rotated_surface_circuit(self.distance, rounds=0)

    def check_compiles_and_assembles(self):
        """One round assembles to words of the instantiation's width,
        and the pair masks use bits past the next narrower format."""
        word_bits = CHIP_FACTS[self.distance][2]
        assembled = compile_binary(self.distance, rounds=1)
        assert assembled.word_size * 8 == word_bits
        assert all(0 <= word < (1 << word_bits) for word in assembled.words)
        assert any(word >= (1 << (word_bits // 2))
                   for word in assembled.words)


class SyndromeCases:
    distance: int

    def test_bit_lookup(self):
        layout = rotated_surface_layout(self.distance)
        first, second = layout.z_ancillas[:2]
        syndrome = RotatedSyndrome(z_checks=((first, 1), (second, 0)))
        assert syndrome.bit(first) == 1
        assert syndrome.bit(second) == 0
        with pytest.raises(KeyError):
            syndrome.bit(min(layout.x_checks))

    def test_fired(self):
        first, second = rotated_surface_layout(self.distance).z_ancillas[:2]
        assert RotatedSyndrome(z_checks=((first, 0), (second, 1))).fired()
        assert not RotatedSyndrome(
            z_checks=((first, 0), (second, 0))).fired()

    def test_expected_syndrome_covers_all_z_ancillas(self):
        syndrome = expected_rotated_z_syndrome(self.distance, None)
        assert tuple(a for a, _ in syndrome.z_checks) \
            == rotated_surface_layout(self.distance).z_ancillas
        assert not syndrome.fired()


# ----------------------------------------------------------------------
# Compiled binaries
# ----------------------------------------------------------------------
def compile_binary(distance, **circuit_options):
    setup = ExperimentSetup.create(
        isa=rotated_surface_instantiation(distance))
    return setup.compile_circuit(
        rotated_surface_circuit(distance, **circuit_options))


#: SHA-256 of the assembled words (default compile options), keyed by
#: (distance, rounds, reset, include_x_checks).  These binaries predate
#: the one-family generator; a numbering or round-order change must
#: show up here, not silently in the programs the benchmarks run.
BINARY_DIGESTS = {
    (3, 1, True, False):
        "384c120232dca0e9bca44c2cdcafa75ae469df5f34be8242eb0b88c16d2ccaeb",
    (3, 1, True, True):
        "da0fa6731851c3c55b504d90b138fc91aaf7acfb30950577f143a3f352147829",
    (3, 1, False, False):
        "659679b24602d1034e61387a2695c94b5e91c7eb3a153adec8046bc863c75a11",
    (3, 1, False, True):
        "b3d85747aabe449fe1cfad52b624cf4e7153edf481cf52495446d29b8be870df",
    (3, 2, True, False):
        "91efb3b826172897bbf62c810f47c59429ce3a17901b0d815236bb347be9d5e9",
    (3, 2, True, True):
        "5bd3da635dcfb22b00f7ea06bea97ecb46df9013d5d1845b2de176fa4df5fb48",
    (3, 2, False, False):
        "8145068e00031911b6c4d618ac9ac5c0a111261c522c1019006fcce2ca765eab",
    (3, 2, False, True):
        "584e190a668033f8210f73b145d72a087fe5cbe511981d76de2c76d3ca4214f3",
    (5, 1, True, False):
        "106ee4357d02f40f5ef2872c81e80c40be821a7c65431a7301d215038e749edd",
    (5, 1, False, False):
        "02dba306fd7d6632150b627587a9b67d8d02d8bd3219140bc76239ed58d36694",
    (5, 2, True, False):
        "645d33f53420f87f7bfa4c7c6869027c96feda2c6cb5475751dce964f9503941",
    (5, 2, False, False):
        "df0db0b33f0a2d889f199868afab2d0a4b8da2938d317ad1f2e8acba5b79522b",
}


@pytest.mark.parametrize("key", sorted(BINARY_DIGESTS))
def test_compiled_words_are_pinned(key):
    distance, rounds, reset, x_checks = key
    assembled = compile_binary(distance, rounds=rounds, reset=reset,
                               include_x_checks=x_checks)
    digest = hashlib.sha256(assembled.word_bytes()).hexdigest()
    assert digest == BINARY_DIGESTS[key]


@pytest.mark.parametrize("reset, cycles", [(True, 71), (False, 66)])
def test_distance5_x_check_round_makespan(reset, cycles):
    """Z checks, then X checks: one distance-5 round fits in 71 cycles
    with ancilla reset (66 without); interleaving Z and X checks in
    plaquette order took 83 (78)."""
    isa = rotated_surface_instantiation(5)
    circuit = rotated_surface_circuit(5, rounds=1, include_x_checks=True,
                                      reset=reset)
    assert schedule_asap(circuit, isa.operations).makespan() == cycles


# ----------------------------------------------------------------------
# Error injection across the family (distance 2 included)
# ----------------------------------------------------------------------
def circuit_for(distance, **options):
    if distance == 2:
        return surface_code_circuit(**options)
    return rotated_surface_circuit(distance, **options)


@pytest.mark.parametrize("distance", [2, 3, 5])
@pytest.mark.parametrize("options, match", [
    (dict(rounds=0), "at least one round"),
    (dict(rounds=1, error=("H", 0)), "Paulis X, Y or Z"),
    (dict(rounds=2, error=("X", 0), error_after_round=2),
     "error_after_round"),
    (dict(rounds=2, error=("X", 0), error_after_round=-1),
     "error_after_round"),
])
def test_invalid_requests_rejected(distance, options, match):
    with pytest.raises(InvalidRequestError, match=match):
        circuit_for(distance, **options)


def test_unknown_distance_rejected():
    with pytest.raises(InvalidRequestError, match="known distances: 3, 5"):
        rotated_surface_circuit(4)


@pytest.mark.parametrize("distance, qubit", [(2, 0), (3, 4), (5, 12)])
def test_y_error_fires_the_expected_z_checks(distance, qubit):
    """Y anticommutes with Z just like X: the observed round-1
    syndrome must equal the predicted one, and it must fire."""
    error = ("Y", qubit)
    if distance == 2:
        result = run_surface_code_experiment(rounds=2, error=error,
                                             shots=10)
        expected = expected_z_syndrome(error)
    else:
        result = run_rotated_surface_experiment(distance, rounds=2,
                                                error=error, shots=10)
        expected = expected_rotated_z_syndrome(distance, error)
    assert expected.fired()
    assert result.detection_fraction(0) == 0.0
    for shot in result.syndromes_per_shot:
        assert shot[1] == expected
