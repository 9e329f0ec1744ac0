"""Tests for the quantum chip topology substrate."""

import pytest

from repro.core.errors import TopologyError
from repro.topology import (
    QuantumChipTopology,
    QubitPair,
    fully_connected_ion_trap,
    get_chip,
    ibm_qx2,
    linear_chain,
    surface7,
    two_qubit_chip,
)


class TestQubitPair:
    def test_as_tuple(self):
        pair = QubitPair(address=3, source=1, target=4)
        assert pair.as_tuple() == (1, 4)

    def test_str(self):
        assert str(QubitPair(address=0, source=2, target=0)) == "(2, 0)"


class TestTopologyValidation:
    def test_requires_qubits(self):
        with pytest.raises(TopologyError):
            QuantumChipTopology(name="empty", qubits=(), pairs=())

    def test_rejects_duplicate_qubits(self):
        with pytest.raises(TopologyError):
            QuantumChipTopology(name="dup", qubits=(0, 0), pairs=())

    def test_rejects_duplicate_pair_address(self):
        pairs = (QubitPair(0, 0, 1), QubitPair(0, 1, 0))
        with pytest.raises(TopologyError):
            QuantumChipTopology(name="dup", qubits=(0, 1), pairs=pairs)

    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError):
            QuantumChipTopology(name="loop", qubits=(0, 1),
                                pairs=(QubitPair(0, 1, 1),))

    def test_rejects_unknown_qubit_in_pair(self):
        with pytest.raises(TopologyError):
            QuantumChipTopology(name="bad", qubits=(0, 1),
                                pairs=(QubitPair(0, 0, 7),))

    def test_rejects_duplicate_directed_edge(self):
        pairs = (QubitPair(0, 0, 1), QubitPair(1, 0, 1))
        with pytest.raises(TopologyError):
            QuantumChipTopology(name="dup-edge", qubits=(0, 1), pairs=pairs)

    def test_rejects_feedline_with_unknown_qubit(self):
        with pytest.raises(TopologyError):
            QuantumChipTopology(name="bad-fl", qubits=(0,), pairs=(),
                                feedlines={0: (5,)})


class TestSurface7:
    """The Fig. 6 seven-qubit chip."""

    def setup_method(self):
        self.chip = surface7()

    def test_counts(self):
        assert self.chip.num_qubits == 7
        assert self.chip.num_pairs == 16

    def test_mask_widths_match_fig8(self):
        # Fig. 8: 7-bit qubit mask, 16-bit pair mask.
        assert self.chip.qubit_mask_width == 7
        assert self.chip.pair_mask_width == 16

    def test_pair_zero_is_2_to_0(self):
        # Section 3.3.1: "allowed qubit pair 0 has qubit 2 as the source
        # qubit and qubit 0 as the target qubit".
        assert self.chip.pair_address(2, 0) == 0

    def test_qubit0_edges_match_opsel_example(self):
        # Section 4.3: qubit 0 is connected to edges 0, 1, 8 and 9;
        # edges 0 and 9 make it the target, 1 and 8 the source.
        as_target = {p.address for p in self.chip.pairs if p.target == 0}
        as_source = {p.address for p in self.chip.pairs if p.source == 0}
        assert as_target == {0, 9}
        assert as_source == {1, 8}

    def test_every_edge_has_reverse(self):
        for pair in self.chip.pairs:
            assert self.chip.is_allowed_pair(pair.target, pair.source)

    def test_feedlines_match_fig6(self):
        assert self.chip.feedlines[0] == (0, 2, 3, 5, 6)
        assert self.chip.feedlines[1] == (1, 4)
        assert self.chip.feedline_of(4) == 1
        assert self.chip.feedline_of(3) == 0

    def test_neighbours(self):
        assert self.chip.neighbours(0) == (2, 3)
        assert self.chip.neighbours(3) == (0, 1, 5, 6)

    def test_pair_address_lookup(self):
        assert self.chip.pair_address(2, 0) == 0
        assert self.chip.pair_address(0, 2) == 8

    def test_pair_address_rejects_non_edges(self):
        with pytest.raises(TopologyError):
            self.chip.pair_address(0, 6)


class TestPairMaskValidation:
    def test_disjoint_mask_accepted(self):
        chip = surface7()
        # Edge 0 = (2, 0); edge 3 = (1, 4): disjoint qubits.
        chip.validate_pair_mask((1 << 0) | (1 << 3))

    def test_sharing_mask_rejected(self):
        chip = surface7()
        # Edges 0 (2->0) and 1 (0->3) share qubit 0 (paper's example of
        # an invalid T register value).
        with pytest.raises(TopologyError):
            chip.validate_pair_mask((1 << 0) | (1 << 1))

    def test_edge_and_its_reverse_rejected(self):
        chip = surface7()
        with pytest.raises(TopologyError):
            chip.validate_pair_mask((1 << 0) | (1 << 8))


class TestOtherChips:
    def test_two_qubit_chip(self):
        chip = two_qubit_chip()
        assert chip.qubits == (0, 2)
        assert chip.num_pairs == 2
        assert chip.is_allowed_pair(0, 2)
        assert chip.is_allowed_pair(2, 0)
        assert chip.feedline_of(0) == 0 and chip.feedline_of(2) == 0

    def test_ibm_qx2_has_six_pairs(self):
        # Section 3.3.2: "the IBM QX2 ... has only six allowed qubit
        # pairs", so a 6-bit mask suffices.
        chip = ibm_qx2()
        assert chip.num_qubits == 5
        assert chip.num_pairs == 6
        assert chip.pair_mask_width == 6

    def test_ion_trap_has_twenty_pairs(self):
        # Section 3.3.2: fully connected 5-qubit processor => 20 pairs.
        chip = fully_connected_ion_trap()
        assert chip.num_qubits == 5
        assert chip.num_pairs == 20

    def test_linear_chain(self):
        chip = linear_chain(8)
        assert chip.num_qubits == 8
        assert chip.num_pairs == 14
        assert chip.is_allowed_pair(3, 4)
        assert chip.is_allowed_pair(4, 3)
        assert not chip.is_allowed_pair(0, 2)

    def test_get_chip(self):
        assert get_chip("surface-7").name == "surface-7"
        with pytest.raises(KeyError):
            get_chip("missing-chip")
