"""Unit tests for the data-memory dataflow pass (uarch/dataflow.py).

The pass must prove a load shot-local exactly when a same-shot store
to the same address dominates it (the *kill*), prove a store dead
exactly when no un-killed load can alias it, and stay conservative
whenever an address is not statically known.  Its verdict drives the
replay whitelist: dead-store and spill/reload programs ride the fast
path, loads that can observe an earlier shot's store fall back with
per-pc reason strings.  (Kill-analysis and counted-loop edge cases
live in test_kill_analysis.py.)
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Assembler, two_qubit_instantiation
from repro.core.instructions import Br, St
from repro.core.registers import ComparisonFlag
from repro.quantum import NoiseModel, QuantumPlant
from repro.uarch import QuMAv2, analyze_data_memory, dataflow
from machine_probes import instruction_memory


def make_machine(seed=0, noise=None):
    isa = two_qubit_instantiation()
    plant = QuantumPlant(isa.topology,
                         noise=noise or NoiseModel.noiseless(),
                         rng=np.random.default_rng(seed))
    return QuMAv2(isa, plant)


def analyze(text):
    machine = make_machine()
    machine.load(Assembler(machine.isa).assemble_text(text))
    return analyze_data_memory(instruction_memory(machine))


class TestStoreLiveness:
    def test_no_memory_traffic_is_safe(self):
        report = analyze("""
        SMIS S2, {2}
        X90 S2
        MEASZ S2
        QWAIT 50
        STOP
        """)
        assert report.replay_safe
        assert report.store_count == 0
        assert report.dead_store_count == 0

    def test_store_without_any_load_is_dead(self):
        report = analyze("""
        LDI R0, 7
        LDI R1, 16
        ST R0, R1(0)
        ST R0, R1(4)
        STOP
        """)
        assert report.replay_safe
        assert report.store_count == 2
        assert report.dead_store_count == 2

    def test_store_then_load_same_address_is_killed(self):
        """The dominating same-shot store kills the load: it can only
        ever observe this shot's value, so the pair is replay-safe
        scratch traffic."""
        report = analyze("""
        LDI R0, 7
        LDI R1, 16
        ST R0, R1(0)
        LD R2, R1(0)
        STOP
        """)
        assert report.replay_safe
        assert report.killed_load_count == 1
        assert report.dead_store_count == 1

    def test_load_above_store_same_address_is_still_live(self):
        """Data memory persists across shots: a load textually above
        the store observes the *previous* shot's store."""
        report = analyze("""
        LDI R1, 16
        LD R2, R1(0)
        LDI R0, 7
        ST R0, R1(0)
        STOP
        """)
        assert not report.replay_safe

    def test_disjoint_constant_addresses_are_safe(self):
        report = analyze("""
        LDI R0, 7
        LDI R1, 16
        LDI R2, 64
        ST R0, R1(0)
        LD R3, R2(0)
        STOP
        """)
        assert report.replay_safe
        assert report.dead_store_count == 1
        assert report.load_count == 1

    def test_unknown_store_address_without_loads_is_safe(self):
        """The store address comes from memory (not statically known),
        but with no loads anywhere nothing can observe it."""
        report = analyze("""
        LDI R0, 8
        ST R0, R0(0)
        STOP
        """)
        assert report.replay_safe

    def test_unknown_store_address_with_a_load_is_live(self):
        report = analyze("""
        LDI R0, 8
        LDI R1, 16
        LD R2, R1(0)
        ST R0, R2(0)
        STOP
        """)
        assert not report.replay_safe
        assert any("unknown" in reason for reason in report.live_reasons)

    def test_unknown_load_address_with_a_store_is_live(self):
        report = analyze("""
        LDI R0, 8
        LDI R1, 16
        ST R0, R1(0)
        LD R2, R1(0)
        LD R3, R2(0)
        STOP
        """)
        assert not report.replay_safe

    def test_constants_fold_through_the_alu(self):
        """ADD of two known constants keeps the address known: the
        store lands at 32, disjoint from the load at 16."""
        report = analyze("""
        LDI R0, 7
        LDI R1, 16
        ADD R2, R1, R1
        ST R0, R2(0)
        LD R3, R1(0)
        STOP
        """)
        assert report.replay_safe
        assert report.dead_store_count == 1

    def test_divergent_store_address_aliasing_a_load_is_live(self):
        """An FMR-steered branch gives the store two possible
        addresses; a load matching either of them may observe the
        previous shot's store, so the program must count live."""
        report = analyze("""
        SMIS S2, {2}
        X90 S2
        MEASZ S2
        QWAIT 50
        FMR R4, Q2
        LDI R0, 1
        CMP R4, R0
        BR EQ, other
        LDI R2, 8
        BR ALWAYS, join
        other:
        LDI R2, 16
        join:
        ST R0, R2(0)
        LDI R1, 8
        LD R3, R1(0)
        STOP
        """)
        assert not report.replay_safe
        assert any("live" in reason for reason in report.live_reasons)

    def test_divergent_store_addresses_disjoint_from_loads_stay_safe(self):
        """Path sensitivity keeps both divergent store addresses
        precise (the old join would have lost them): a load disjoint
        from both stays replay-safe."""
        report = analyze("""
        SMIS S2, {2}
        X90 S2
        MEASZ S2
        QWAIT 50
        FMR R4, Q2
        LDI R0, 1
        CMP R4, R0
        BR EQ, other
        LDI R2, 8
        BR ALWAYS, join
        other:
        LDI R2, 16
        join:
        ST R0, R2(0)
        LDI R1, 64
        LD R3, R1(0)
        STOP
        """)
        assert report.replay_safe
        assert report.dead_store_count == 1

    def test_statically_resolved_branch_follows_one_arm_only(self):
        """A branch whose CMP operands are constants is resolved by
        the exploration engine: the untaken arm's divergent address
        never materialises, so the store address stays exact."""
        report = analyze("""
        LDI R0, 1
        LDI R1, 0
        CMP R1, R0
        BR EQ, other
        LDI R2, 8
        BR ALWAYS, join
        other:
        LDI R2, 16
        join:
        ST R0, R2(0)
        LD R3, R1(4)
        STOP
        """)
        # CMP 0, 1 -> EQ is statically false: R2 is 8 on the only
        # reachable path, disjoint from the load at 4.
        assert report.replay_safe
        assert report.dead_store_count == 1

    def test_branch_join_with_agreeing_constants_stays_known(self):
        report = analyze("""
        LDI R0, 1
        LDI R1, 0
        CMP R1, R0
        BR EQ, other
        LDI R2, 64
        BR ALWAYS, join
        other:
        LDI R2, 64
        join:
        ST R0, R2(0)
        LD R3, R1(4)
        STOP
        """)
        assert report.replay_safe
        assert report.dead_store_count == 1

    def test_unreachable_memory_traffic_is_ignored(self):
        report = analyze("""
        LDI R0, 16
        BR ALWAYS, end
        ST R0, R0(0)
        LD R1, R0(0)
        end:
        STOP
        """)
        assert report.replay_safe
        assert report.store_count == 0
        assert report.load_count == 0

    def test_counted_loop_unrolls_and_terminates(self):
        """A counted loop storing each iteration: the exploration
        engine unrolls it (the loop-carried ADD stays a constant per
        iteration), and with no loads the stores stay dead."""
        report = analyze("""
        LDI R0, 4
        LDI R1, 1
        LDI R2, 16
        loop:
        ST R1, R2(0)
        ADD R2, R2, R0
        SUB R0, R0, R1
        CMP R0, R1
        BR GT, loop
        STOP
        """)
        assert report.replay_safe
        assert report.store_count == 1


class TestMachineIntegration:
    def test_dead_store_program_replays_and_reports_count(self):
        machine = make_machine(seed=4, noise=NoiseModel())
        machine.load(Assembler(machine.isa).assemble_text("""
        SMIS S2, {2}
        QWAIT 10000
        X90 S2
        MEASZ S2
        QWAIT 50
        FMR R1, Q2
        LDI R2, 16
        ST R1, R2(0)
        STOP
        """))
        assert machine.replay_unsupported_reasons() == []
        machine.run(100)
        stats = machine.engine_stats
        assert machine.last_run_engine == "replay"
        assert stats.dead_stores == 1
        assert stats.replay_shots > stats.interpreter_shots
        # Documented relaxation: replayed shots skip the dead store, so
        # the memory holds the last *growth* shot's deposit — which is
        # still one of the measurement results this program stores.
        assert machine.memory.load(16) in (0, 1)

    def test_live_load_program_reports_reason_and_falls_back(self):
        """A load *above* the store to its address observes the
        previous shot's value — the remaining hard blocker."""
        machine = make_machine()
        machine.load(Assembler(machine.isa).assemble_text("""
        LDI R0, 7
        LDI R1, 16
        LD R2, R1(0)
        ST R0, R1(0)
        STOP
        """))
        reasons = machine.replay_unsupported_reasons()
        assert len(reasons) == 1
        assert "ST" in reasons[0] and "live" in reasons[0]
        machine.run(2)
        assert machine.last_run_engine == "interpreter"
        assert machine.engine_stats.fallback_reason == reasons[0]
        # The interpreter path genuinely executes the store.
        assert machine.memory.load(16) == 7


# ----------------------------------------------------------------------
# Abstract equals concrete
# ----------------------------------------------------------------------
_REGISTER = st.integers(0, 3).map(lambda index: f"R{index}")
#: LDI immediates: anywhere in the signed 20-bit field, weighted
#: towards its edges and the sign boundary.
_LDI_IMMEDIATE = st.one_of(
    st.integers(-(1 << 19), (1 << 19) - 1),
    st.sampled_from([-(1 << 19), -(1 << 19) + 1, -2, -1, 0, 1,
                     (1 << 17) - 1, 1 << 17, (1 << 19) - 1]))
_ALU_LINE = st.one_of(
    st.builds("LDI {}, {}".format, _REGISTER, _LDI_IMMEDIATE),
    st.builds("LDUI {}, {}, {}".format, _REGISTER,
              st.integers(0, (1 << 15) - 1), _REGISTER),
    st.builds("NOT {}, {}".format, _REGISTER, _REGISTER),
    st.builds("{} {}, {}, {}".format,
              st.sampled_from(["AND", "OR", "XOR", "ADD", "SUB"]),
              _REGISTER, _REGISTER, _REGISTER))


class TestAbstractEqualsConcrete:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seeds=st.lists(_LDI_IMMEDIATE, min_size=4, max_size=4),
           body=st.lists(_ALU_LINE, min_size=1, max_size=10),
           value=_REGISTER, offset=st.sampled_from([0, 4, 64, 1024]),
           left=_REGISTER, right=_REGISTER)
    def test_store_address_and_branch_match_the_interpreter(
            self, seeds, body, value, offset, left, right):
        """On a straight-line program of the eight register-writing
        instructions every register is a constant, so the exploration
        must store where the interpreter stores and branch where it
        branches, under every comparison flag.  R0-R3 start from LDI
        seeds; the store's base folds all four computed registers,
        masked to an aligned in-range word so that the interpreter's
        store succeeds."""
        machine = make_machine()
        stored = []
        store = machine.memory.store
        machine.memory.store = \
            lambda address, word: (stored.append(address),
                                   store(address, word))
        for flag in ComparisonFlag:
            machine.load(Assembler(machine.isa).assemble_text(
                "\n".join(f"LDI R{index}, {imm}"
                          for index, imm in enumerate(seeds)) + "\n" +
                "\n".join(body) + f"""
                XOR R4, R0, R1
                XOR R4, R4, R2
                XOR R4, R4, R3
                LDI R5, {0x7FFFC}
                AND R4, R4, R5
                ST {value}, R4({offset})
                CMP {left}, {right}
                BR {flag.name}, taken
                LDI R6, 1
                STOP
                taken:
                LDI R6, 2
                STOP
                """))
            instructions = instruction_memory(machine)
            stored.clear()
            machine.run_shot()
            graph = dataflow._explore(instructions)

            store_pc = next(pc for pc, instruction
                            in enumerate(instructions)
                            if isinstance(instruction, St))
            branch_pc = store_pc + 2
            branch = instructions[branch_pc]
            assert isinstance(branch, Br)
            taken = machine.gprs.read(6) == 2
            nodes = {pc: node for node, pc in enumerate(graph.pcs)}
            assert len(nodes) == len(graph.pcs)  # one state per pc
            assert [graph.addresses[nodes[store_pc]]] == stored
            assert [graph.pcs[node]
                    for node in graph.succs[nodes[branch_pc]]] == \
                [branch_pc + branch.target if taken else branch_pc + 1]
