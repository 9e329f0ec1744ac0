"""Public-API surface tests: exports resolve, __all__ is consistent,
and the README quickstart works as written."""

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
        """Distances 3 and 5 are one family: its names are exported and
        no per-distance (surface-17/49) clone is."""
        exported = importlib.import_module(package).__all__
        assert family <= set(exported)
        assert not [name for name in exported
                    if re.search("17|49|seventeen|forty", name)]

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
        traces = setup.run_circuit(circuit, shots=20)
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
        machine.run_shot()
        starts = [op.start_ns for op in plant.operations_log]
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
