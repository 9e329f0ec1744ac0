"""Tests of the quantum pipeline: Table 2 OpSel resolution, VLIW lane
combination, cross-instruction accumulation, conflicts."""

import pytest

from repro.core import seven_qubit_instantiation
from repro.core.errors import AssemblyError, OperationConflictError
from repro.core.instructions import Bundle, BundleOperation, SMIS, SMIT
from repro.core.microcode import MicroOpRole
from repro.uarch import OpSel, QuantumPipeline


@pytest.fixture()
def pipeline():
    return QuantumPipeline(seven_qubit_instantiation())


def bundle(*ops, pi=1):
    return Bundle(operations=tuple(ops), pi=pi)


class TestTable2Resolution:
    """The micro-operation selection signal (Table 2 / Section 4.3)."""

    def test_single_qubit_mask_gives_both(self, pipeline):
        selection = pipeline.resolve_single_mask(0b0000101)
        assert selection[0] is OpSel.BOTH
        assert selection[2] is OpSel.BOTH
        assert selection[1] is OpSel.NONE

    def test_pair_mask_edge0(self, pipeline):
        # Edge 0 is (2, 0): qubit 2 source ('01'), qubit 0 target ('10').
        selection = pipeline.resolve_pair_mask(1 << 0)
        assert selection[2] is OpSel.SRC
        assert selection[0] is OpSel.TGT
        assert all(selection[q] is OpSel.NONE for q in (1, 3, 4, 5, 6))

    def test_pair_mask_edge9_reverses(self, pipeline):
        # Edge 9 is (0, 2) — paper: edge 0 or 9 selected makes qubit 0
        # target or source respectively... edge 9 has qubit 0 as target?
        # Per Section 4.3: "When edge 0 or 9 (1 or 8) is selected in the
        # mask, qubit 0 is the target (source) qubit".
        selection = pipeline.resolve_pair_mask(1 << 9)
        assert selection[0] is OpSel.TGT

    def test_pair_mask_edges_1_and_8_make_qubit0_source(self, pipeline):
        for edge in (1, 8):
            selection = pipeline.resolve_pair_mask(1 << edge)
            assert selection[0] is OpSel.SRC, f"edge {edge}"

    def test_two_disjoint_pairs(self, pipeline):
        # Edge 0 = (2, 0), edge 3 = (1, 4).
        selection = pipeline.resolve_pair_mask((1 << 0) | (1 << 3))
        assert selection[2] is OpSel.SRC
        assert selection[0] is OpSel.TGT
        assert selection[1] is OpSel.SRC
        assert selection[4] is OpSel.TGT

    def test_conflicting_mask_raises(self, pipeline):
        from repro.core.errors import TopologyError
        with pytest.raises(TopologyError):
            pipeline.resolve_pair_mask((1 << 0) | (1 << 1))


class TestBundleProcessing:
    def test_single_lane_somq(self, pipeline):
        pipeline.process_smis(SMIS(sd=7, qubits=frozenset({0, 2})))
        flushed, entries = pipeline.process_bundle(
            bundle(BundleOperation("Y", ("S", 7))), 0.0)
        assert flushed is None
        assert sorted(e.qubit for e in entries) == [0, 2]
        assert all(e.micro_op.operation == "Y" for e in entries)

    def test_two_lanes_merge(self, pipeline):
        pipeline.process_smis(SMIS(sd=0, qubits=frozenset({0})))
        pipeline.process_smis(SMIS(sd=2, qubits=frozenset({2})))
        _, entries = pipeline.process_bundle(
            bundle(BundleOperation("X90", ("S", 0)),
                   BundleOperation("X", ("S", 2))), 0.0)
        by_qubit = {e.qubit: e.micro_op.operation for e in entries}
        assert by_qubit == {0: "X90", 2: "X"}

    def test_lane_conflict_raises(self, pipeline):
        pipeline.process_smis(SMIS(sd=0, qubits=frozenset({0})))
        pipeline.process_smis(SMIS(sd=1, qubits=frozenset({0, 1})))
        with pytest.raises(OperationConflictError):
            pipeline.process_bundle(
                bundle(BundleOperation("X", ("S", 0)),
                       BundleOperation("Y", ("S", 1))), 0.0)

    def test_two_qubit_lane_emits_src_and_tgt(self, pipeline):
        pipeline.process_smit(SMIT(td=3, pairs=frozenset({(2, 0)})))
        _, entries = pipeline.process_bundle(
            bundle(BundleOperation("CZ", ("T", 3))), 0.0)
        roles = {e.qubit: e.micro_op.role for e in entries}
        assert roles[2] is MicroOpRole.SOURCE
        assert roles[0] is MicroOpRole.TARGET
        assert all(e.pair == (2, 0) for e in entries)

    def test_cross_instruction_accumulation(self, pipeline):
        # A long bundle split across two words with PI = 0 accumulates
        # into one timing point.
        pipeline.process_smis(SMIS(sd=0, qubits=frozenset({0})))
        pipeline.process_smis(SMIS(sd=1, qubits=frozenset({1})))
        pipeline.process_bundle(
            bundle(BundleOperation("X", ("S", 0)), pi=1), 0.0)
        flushed, _ = pipeline.process_bundle(
            bundle(BundleOperation("Y", ("S", 1)), pi=0), 10.0)
        assert flushed is None  # same timing point, nothing flushed
        point = pipeline.flush_pending()
        assert point is not None
        assert sorted(e.qubit for e in point.micro_ops) == [0, 1]

    def test_cross_instruction_conflict(self, pipeline):
        # Section 4.3: two bundle instructions specifying operations on
        # the same qubit at one timing point stop the processor.
        pipeline.process_smis(SMIS(sd=0, qubits=frozenset({0})))
        pipeline.process_bundle(
            bundle(BundleOperation("X", ("S", 0)), pi=1), 0.0)
        with pytest.raises(OperationConflictError):
            pipeline.process_bundle(
                bundle(BundleOperation("Y", ("S", 0)), pi=0), 10.0)

    def test_new_point_flushes_previous(self, pipeline):
        pipeline.process_smis(SMIS(sd=0, qubits=frozenset({0})))
        pipeline.process_bundle(
            bundle(BundleOperation("X", ("S", 0)), pi=1), 0.0)
        flushed, _ = pipeline.process_bundle(
            bundle(BundleOperation("Y", ("S", 0)), pi=1), 10.0)
        assert flushed is not None
        assert flushed.cycle == 1
        assert pipeline.current_cycle == 2

    def test_wait_flushes(self, pipeline):
        pipeline.process_smis(SMIS(sd=0, qubits=frozenset({0})))
        pipeline.process_bundle(
            bundle(BundleOperation("X", ("S", 0)), pi=1), 0.0)
        flushed = pipeline.process_wait(5)
        assert flushed is not None
        assert pipeline.current_cycle == 6

    def test_zero_wait_does_not_flush(self, pipeline):
        pipeline.process_smis(SMIS(sd=0, qubits=frozenset({0})))
        pipeline.process_bundle(
            bundle(BundleOperation("X", ("S", 0)), pi=1), 0.0)
        assert pipeline.process_wait(0) is None

    def test_unset_s_register_raises(self, pipeline):
        with pytest.raises(AssemblyError):
            pipeline.process_bundle(
                bundle(BundleOperation("X", ("S", 5))), 0.0)

    def test_unset_t_register_raises(self, pipeline):
        with pytest.raises(AssemblyError):
            pipeline.process_bundle(
                bundle(BundleOperation("CZ", ("T", 5))), 0.0)

    def test_too_wide_bundle_raises(self, pipeline):
        pipeline.process_smis(SMIS(sd=0, qubits=frozenset({0})))
        with pytest.raises(AssemblyError):
            pipeline.process_bundle(
                bundle(BundleOperation("X", ("S", 0)),
                       BundleOperation("Y", ("S", 0)),
                       BundleOperation("Z", ("S", 0))), 0.0)

    def test_reset_clears_state(self, pipeline):
        pipeline.process_smis(SMIS(sd=0, qubits=frozenset({0})))
        pipeline.process_bundle(
            bundle(BundleOperation("X", ("S", 0)), pi=1), 0.0)
        pipeline.reset()
        assert pipeline.current_cycle == 0
        assert pipeline.flush_pending() is None
        with pytest.raises(AssemblyError):
            pipeline.process_bundle(
                bundle(BundleOperation("X", ("S", 0))), 0.0)

    def test_qnop_contributes_nothing(self, pipeline):
        pipeline.process_smis(SMIS(sd=0, qubits=frozenset({0})))
        _, entries = pipeline.process_bundle(
            bundle(BundleOperation("X", ("S", 0)),
                   BundleOperation("QNOP", None)), 0.0)
        assert len(entries) == 1


class TestDecodeCache:
    """A bundle is decoded once per register contents; everything that
    depends on more than that still runs on every execution."""

    def test_decode_follows_register_contents(self, pipeline):
        word = bundle(BundleOperation("X", ("S", 0)))
        pipeline.process_smis(SMIS(sd=0, qubits=frozenset({0, 1})))
        _, first = pipeline.process_bundle(word, 0.0)
        pipeline.process_smis(SMIS(sd=0, qubits=frozenset({3})))
        _, second = pipeline.process_bundle(word, 10.0)
        pipeline.process_smis(SMIS(sd=0, qubits=frozenset({0, 1})))
        _, third = pipeline.process_bundle(word, 20.0)
        assert [e.qubit for e in first] == [0, 1]
        assert [e.qubit for e in second] == [3]
        assert third is first   # the cached decode, not a re-decode

    def test_failed_decode_raises_every_time(self, pipeline):
        word = bundle(BundleOperation("X", ("S", 5)))
        for _ in range(2):
            with pytest.raises(AssemblyError):
                pipeline.process_bundle(word, 0.0)
        pipeline.process_smis(SMIS(sd=5, qubits=frozenset({2})))
        _, entries = pipeline.process_bundle(word, 10.0)
        assert [e.qubit for e in entries] == [2]
        pipeline.reset()
        with pytest.raises(AssemblyError):
            pipeline.process_bundle(word, 0.0)

    def test_cached_decode_still_conflicts_per_point(self, pipeline):
        word = bundle(BundleOperation("X", ("S", 0)), pi=0)
        pipeline.process_smis(SMIS(sd=0, qubits=frozenset({0})))
        pipeline.process_bundle(word, 0.0)
        with pytest.raises(OperationConflictError):
            pipeline.process_bundle(word, 10.0)

    def test_clear_forgets_decodes(self, pipeline):
        word = bundle(BundleOperation("X", ("S", 0)))
        pipeline.process_smis(SMIS(sd=0, qubits=frozenset({0})))
        _, first = pipeline.process_bundle(word, 0.0)
        pipeline.clear_decode_cache()
        _, again = pipeline.process_bundle(word, 10.0)
        assert again == first and again is not first
