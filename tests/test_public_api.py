"""Public-API surface tests: exports resolve, __all__ is consistent,
and the quickstarts of the ``repro`` package docstring and
``examples/quickstart.py`` work as written."""

import importlib
import re

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.topology",
    "repro.quantum",
    "repro.uarch",
    "repro.compiler",
    "repro.workloads",
    "repro.experiments",
    "repro.obs",
    "repro.serving",
]


#: The distance-2 copies of the family's layout, circuit builders,
#: syndrome type and experiment runner.
DISTANCE2_CLONE_NAMES = {
    "DATA_QUBITS", "Z_CHECKS", "X_CHECK", "ANCILLAS", "syndrome_round",
    "surface_code_circuit", "Syndrome", "expected_z_syndrome",
    "run_surface_code_experiment",
}

#: Names that left the API: the plant keeps two state representations
#: (dense density matrix, stabilizer tableau), no cQASM frontend, no
#: error for a fault that only an injection site raised (a backend
#: fault, a timing-queue overflow) and no per-engine measurement
#: record beside the plant's one recording.
REMOVED_NAMES = {"Statevector", "zero_state", "basis_state",
                 "CQASMFrontend", "parse_cqasm", "BackendFaultError",
                 "QueueOverflowError", "MeasurementSample"}


#: What left the machine with its fault hook.
REMOVED_MACHINE_ATTRIBUTES = {"arm_faults", "disarm_faults", "fault_plan"}
REMOVED_FAULT_SITES = {"measurement_stall", "tree_bitflip", "mock_exhaust"}


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        exported = getattr(module, "__all__", None)
        assert exported is not None or package == "repro.experiments"
        for name in exported or []:
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_is_sorted_unique(self, package):
        module = importlib.import_module(package)
        exported = list(getattr(module, "__all__", []))
        assert len(exported) == len(set(exported)), \
            f"{package}.__all__ has duplicates"

    @pytest.mark.parametrize("package, family", [
        ("repro.core", {"rotated_surface_instantiation"}),
        ("repro.topology", {"rotated_surface_chip"}),
        ("repro.workloads", {"RotatedSyndrome",
                             "expected_rotated_z_syndrome",
                             "rotated_surface_circuit",
                             "rotated_syndrome_round"}),
        ("repro.experiments", {"run_rotated_surface_experiment"}),
    ])
    def test_one_rotated_surface_family(self, package, family):
        """Distances 2, 3 and 5 are one family: its names are exported
        and no per-distance clone is — neither surface-17/49 names nor
        the distance-2 patch's own layout, builders and syndrome."""
        exported = importlib.import_module(package).__all__
        assert family <= set(exported)
        assert not [name for name in exported
                    if re.search("17|49|seventeen|forty", name)]
        assert not set(exported) & DISTANCE2_CLONE_NAMES

    @pytest.mark.parametrize("package", PACKAGES)
    def test_removed_names_stay_removed(self, package):
        module = importlib.import_module(package)
        exported = getattr(module, "__all__", dir(module))
        assert not set(exported) & REMOVED_NAMES

    @pytest.mark.parametrize("module", ["repro.quantum.statevector",
                                        "repro.compiler.frontend"])
    def test_removed_modules_do_not_import(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_machine_carries_no_fault_hook(self):
        """The machine, its measurement unit and its replay tree hold
        no fault plan or injection routine, and the in-machine fault
        sites are no longer sites: only the sweep service's process
        sites can be armed."""
        import numpy as np
        from repro.core import ConfigurationError, two_qubit_instantiation
        from repro.quantum import QuantumPlant
        from repro.uarch import FAULT_SITES, FaultSpec, QuMAv2, TimelineTree
        isa = two_qubit_instantiation()
        machine = QuMAv2(isa, QuantumPlant(
            isa.topology, rng=np.random.default_rng(0)))
        for name in REMOVED_MACHINE_ATTRIBUTES:
            assert not hasattr(machine, name)
        assert not hasattr(machine.measurement_unit, "fault_plan")
        assert not hasattr(TimelineTree, "corrupt_random_template")
        assert not set(FAULT_SITES) & REMOVED_FAULT_SITES
        for site in REMOVED_FAULT_SITES:
            with pytest.raises(ConfigurationError):
                FaultSpec(site)

    def test_test_only_accessors_left_src(self):
        """Accessors that only tests called are test helpers now
        (``tests/machine_probes.py``)."""
        from repro.uarch import QuMAv2
        from repro.uarch.measurement import MeasurementUnit
        assert not hasattr(QuMAv2, "instruction_memory")
        for name in ("has_mock_results", "remaining_mock_results"):
            assert not hasattr(MeasurementUnit, name)

    def test_more_test_only_names_left_src(self):
        """Names that only tests called live beside those tests:
        ``current_cycle`` in ``tests/machine_probes.py``,
        ``counts_by_index`` in ``tests/serving/serving_workload.py``,
        ``is_trace_preserving`` in ``tests/quantum/test_noise.py``; the
        rest were one-line conveniences.  A point's payload has one
        builder, ``execution_payload``."""
        from repro.core.isa import EQASMInstantiation
        from repro.obs import Histogram
        from repro.quantum import noise
        from repro.serving import PointResult, SweepResult, SweepService
        from repro.uarch import QuantumPipeline
        for owner, name in ((QuantumPipeline, "current_cycle"),
                            (SweepService, "disarm_faults"),
                            (SweepResult, "counts_by_index"),
                            (Histogram, "record_many"),
                            (noise, "is_trace_preserving"),
                            (EQASMInstantiation, "ns_to_cycles"),
                            (EQASMInstantiation, "cycles_to_ns"),
                            (PointResult, "payload")):
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"

    def test_front_end_names_left_src(self):
        """The instruction table is the one mnemonic table; names only
        tests called are test helpers (``current_cycle`` in
        ``tests/machine_probes.py``, ``has_unresolved_labels`` in
        ``tests/core/test_program_isa.py``), and dead ones are gone."""
        import inspect
        from repro.core import assembler, encoding, instructions
        from repro.core.isaspec import bindings
        from repro.core.program import Program
        from repro.core.timeline import TimelineBuilder
        from repro.serving.sweep import execution_payload
        for owner, name in ((TimelineBuilder, "current_cycle"),
                            (Program, "has_unresolved_labels"),
                            (encoding, "CLASSICAL_OPCODES"),
                            (instructions.SMIS, "mask"),
                            (instructions, "CLASSICAL_MNEMONICS"),
                            (instructions, "WAITING_MNEMONICS"),
                            (instructions, "TARGET_MNEMONICS"),
                            (bindings, "FORMAT_BINDINGS"),
                            (bindings, "format_name_for"),
                            (assembler.Assembler, "_validate_instruction"),
                            (assembler.Assembler, "_validate_bundle")):
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
        assert "spec" not in inspect.signature(execution_payload).parameters

    def test_one_to_assembly_per_single_word_instruction(self):
        """Only the base class, ``Bundle`` and ``BundleOperation``
        define ``to_assembly``; every single-word class prints through
        its table entry and operand kinds."""
        from repro.core.instructions import (
            MNEMONICS, Bundle, BundleOperation, Instruction)
        for cls, _ in MNEMONICS.values():
            assert cls.to_assembly is Instruction.to_assembly, cls
        assert "to_assembly" in vars(Bundle)
        assert "to_assembly" in vars(BundleOperation)

    def test_version(self):
        import repro
        assert repro.__version__ == "1.0.0"


class TestReadmeQuickstart:
    def test_assembly_quickstart(self):
        from repro import ExperimentSetup

        setup = ExperimentSetup.create(seed=42)
        assembled = setup.assemble_text("""
            SMIS S2, {2}
            QWAIT 10000
            X90 S2
            MEASZ S2
            QWAIT 50
            STOP
        """)
        traces = setup.run(assembled, shots=100)
        fraction = sum(t.last_result(2) for t in traces) / 100
        assert 0.3 < fraction < 0.7

    def test_circuit_quickstart(self):
        from repro import ExperimentSetup
        from repro.compiler import Circuit

        setup = ExperimentSetup.create(seed=1)
        circuit = Circuit("bell", 3).add("Y90", 0).add("CZ", 0, 2) \
            .add("MEASZ", 0)
        traces = setup.run(setup.compile_circuit(circuit), shots=20)
        assert all(t.last_result(0) in (0, 1) for t in traces)


class TestPaperListingsGolden:
    """The paper's exact listings assemble on the right instantiations."""

    def test_section_3_3_3_examples(self):
        # The paper's Section 3.3.3 listings are written against a
        # generic topology; pair (2, 4) is not an edge of the Fig. 6
        # chip, so the two-qubit example uses the chip-legal disjoint
        # pairs (1, 3) and (4, 6) instead.
        from repro import Assembler, seven_qubit_instantiation
        assembler = Assembler(seven_qubit_instantiation())
        assembler.assemble_text("SMIS S7, {0, 1}\nY S7")
        assembler.assemble_text("SMIT T3, {(1, 3), (4, 6)}\nCNOT T3")

    def test_section_3_1_3_timing_example(self):
        # The worked example uses QWAITR; runs on the machine with
        # R0 = 1 as the listing's LDI sets it.
        import numpy as np
        from repro import Assembler, NoiseModel, QuMAv2, QuantumPlant, \
            seven_qubit_instantiation
        isa = seven_qubit_instantiation()
        assembled = Assembler(isa).assemble_text("""
        SMIS S0, {0}
        LDI R0, 1
        X S0
        Y S0
        QWAITR R0
        0, X S0
        QWAIT 0
        1, Y S0
        STOP
        """)
        plant = QuantumPlant(isa.topology, noise=NoiseModel.noiseless(),
                             rng=np.random.default_rng(0))
        machine = QuMAv2(isa, plant)
        machine.load(assembled)
        from shot_recording import recorded_shot
        _, calls = recorded_shot(machine)
        starts = [op.start_ns for op in calls]
        # Four back-to-back operations, 20 ns apart.
        deltas = [b - a for a, b in zip(starts, starts[1:])]
        assert deltas == [20.0, 20.0, 20.0]

    def test_fig8_smis_worked_encoding(self):
        # SMIS S7, {0, 2}: Sd=7 at bits 24..20, mask 0b101 in the low
        # 7 bits, opcode in bits 30..25, top bit clear.
        from repro import Assembler, seven_qubit_instantiation
        assembled = Assembler(seven_qubit_instantiation()).assemble_text(
            "SMIS S7, {0, 2}")
        word = assembled.words[0]
        assert (word >> 31) == 0
        assert (word >> 20) & 0x1F == 7
        assert word & 0x7F == 0b0000101
