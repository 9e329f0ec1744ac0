"""Kill-analysis and counted-loop (trip-count) edge cases.

The exploration engine in ``uarch/dataflow.py`` must (a) prove a load
shot-local exactly when a same-shot store to the same address
dominates it on *every* path — per occurrence, so unrolled loop
iterations are judged individually; (b) unroll backward branches whose
trip count the constant lattice resolves, keeping loop-carried
addresses exact; (c) degrade to the
joined fixpoint (never hang, never mis-prove) when a loop cannot be
unrolled.  The machine-integration half pins what this buys: counted
loops and spill/reload programs ride the replay engine end to end, and
``EngineStats`` surfaces ``killed_loads``/``bounded_loops``.
"""

import numpy as np
import pytest

from repro.core import Assembler, two_qubit_instantiation
from repro.experiments.cfc import CFC_SCRATCH_PROGRAM
from repro.quantum import NoiseModel, QuantumPlant
from repro.uarch import QuMAv2, analyze_data_memory


def make_machine(seed=0, noise=None):
    isa = two_qubit_instantiation()
    plant = QuantumPlant(isa.topology,
                         noise=noise or NoiseModel.noiseless(),
                         rng=np.random.default_rng(seed))
    return QuMAv2(isa, plant)


def analyze(text):
    machine = make_machine()
    machine.load(Assembler(machine.isa).assemble_text(text))
    return analyze_data_memory(machine.instruction_memory())


def machine_report(text, seed=0):
    machine = make_machine(seed=seed)
    machine.load(Assembler(machine.isa).assemble_text(text))
    return machine, machine.data_memory_report()


class TestKillAnalysis:
    def test_store_on_both_arms_kills_the_load(self):
        """The dominating-store proof is a must (intersection) fact:
        when every path to the load stores the address first, the load
        is killed even though no single store dominates textually."""
        report = analyze("""
        SMIS S2, {2}
        X90 S2
        MEASZ S2
        QWAIT 50
        FMR R4, Q2
        LDI R0, 1
        LDI R1, 64
        CMP R4, R0
        BR EQ, other
        ST R0, R1(0)
        BR ALWAYS, join
        other:
        ST R4, R1(0)
        join:
        LD R2, R1(0)
        STOP
        """)
        assert report.replay_safe
        assert report.killed_load_count == 1

    def test_store_on_one_arm_only_does_not_kill(self):
        """A path skipping the store reaches the load with last shot's
        value still visible — the kill proof must fail."""
        report = analyze("""
        SMIS S2, {2}
        X90 S2
        MEASZ S2
        QWAIT 50
        FMR R4, Q2
        LDI R0, 1
        LDI R1, 64
        CMP R4, R0
        BR EQ, skip
        ST R0, R1(0)
        skip:
        LD R2, R1(0)
        STOP
        """)
        assert not report.replay_safe
        assert report.killed_load_count == 0
        assert any("live" in reason for reason in report.live_reasons)

    def test_unknown_store_between_kill_and_load_is_harmless(self):
        """An unknown-address store cannot *un*-write an address: the
        killed load still only observes same-shot data, whichever
        store wrote it last."""
        report = analyze("""
        SMIS S2, {2}
        X90 S2
        MEASZ S2
        QWAIT 50
        FMR R4, Q2
        LDI R0, 7
        LDI R1, 64
        ST R0, R1(0)
        ST R0, R4(0)
        LD R2, R1(0)
        STOP
        """)
        assert report.replay_safe
        assert report.killed_load_count == 1

    def test_loop_carried_accumulator_is_killed_by_init_store(self):
        """Spill accumulation across iterations: the pre-loop init
        store kills the first iteration's load, each iteration's store
        kills the next one's — every occurrence is shot-local."""
        report = analyze("""
        LDI R0, 3
        LDI R1, 1
        LDI R2, 64
        ST R1, R2(0)
        loop:
        LD R3, R2(0)
        ADD R3, R3, R1
        ST R3, R2(0)
        SUB R0, R0, R1
        CMP R0, R1
        BR GE, loop
        STOP
        """)
        assert report.replay_safe
        assert report.killed_load_count == 1
        assert report.bounded_loop_count == 1

    def test_accumulator_without_init_store_is_live(self):
        """Drop the init store and the first iteration reads the
        previous shot's final accumulator value — genuinely live."""
        report = analyze("""
        LDI R0, 3
        LDI R1, 1
        LDI R2, 64
        loop:
        LD R3, R2(0)
        ADD R3, R3, R1
        ST R3, R2(0)
        SUB R0, R0, R1
        CMP R0, R1
        BR GE, loop
        STOP
        """)
        assert not report.replay_safe
        assert report.killed_load_count == 0

    def test_cross_iteration_alias_ahead_of_the_store_is_live(self):
        """Iteration i loads the address iteration i+1 stores — at
        load time the shot has not written it yet, so the value is
        last shot's."""
        report = analyze("""
        LDI R0, 3
        LDI R1, 1
        LDI R2, 64
        LDI R3, 4
        loop:
        ST R1, R2(0)
        LD R5, R2(4)
        ADD R2, R2, R3
        SUB R0, R0, R1
        CMP R0, R1
        BR GE, loop
        STOP
        """)
        assert not report.replay_safe

    def test_cross_iteration_alias_behind_the_store_is_judged_per_occurrence(self):
        """Iteration i reloads iteration i-1's store: every occurrence
        except the first is killed, and the first reads an address no
        store ever writes (plain host memory) — the program is safe,
        but not fully killed (so not cross-run cacheable)."""
        report = analyze("""
        LDI R0, 3
        LDI R1, 1
        LDI R2, 64
        LDI R3, 4
        loop:
        LD R5, R2(-4)
        ST R1, R2(0)
        ADD R2, R2, R3
        SUB R0, R0, R1
        CMP R0, R1
        BR GE, loop
        STOP
        """)
        assert report.replay_safe
        assert report.killed_load_count == 0   # first occurrence survives
        assert not report.cross_run_cacheable

    def test_fully_killed_loads_are_cross_run_cacheable(self):
        report = analyze("""
        LDI R0, 7
        LDI R1, 64
        ST R0, R1(0)
        LD R2, R1(0)
        STOP
        """)
        assert report.cross_run_cacheable

    def test_unkilled_host_load_is_safe_but_not_cacheable(self):
        report = analyze("""
        LDI R1, 64
        LD R2, R1(0)
        STOP
        """)
        assert report.replay_safe
        assert not report.cross_run_cacheable


class TestTripCountResolution:
    def test_zero_trip_loop_body_is_unreachable(self):
        """A loop whose condition is statically false on entry never
        executes its body — a live load inside it cannot block."""
        report = analyze("""
        LDI R0, 0
        LDI R1, 1
        LDI R2, 64
        CMP R0, R1
        BR GE, loop_entry
        BR ALWAYS, done
        loop_entry:
        LD R3, R2(0)
        ST R1, R2(0)
        SUB R0, R0, R1
        CMP R0, R1
        BR GE, loop_entry
        done:
        STOP
        """)
        assert report.replay_safe
        assert report.load_count == 0
        assert report.store_count == 0

    def test_nested_counted_loops_unroll(self):
        """Both counters resolve: the inner loop's store addresses
        stay exact across the outer iterations."""
        report = analyze("""
        LDI R0, 3
        LDI R1, 1
        LDI R2, 64
        LDI R3, 4
        outer:
        LDI R4, 2
        inner:
        ST R1, R2(0)
        ADD R2, R2, R3
        SUB R4, R4, R1
        CMP R4, R1
        BR GE, inner
        SUB R0, R0, R1
        CMP R0, R1
        BR GE, outer
        STOP
        """)
        assert report.replay_safe
        assert report.bounded_loop_count == 2
        assert report.unbounded_loop_pcs == ()
        assert report.analysis_mode == "exploration"

    def test_unbounded_loop_is_distinguished_from_counted(self):
        """A backward branch on an FMR result has no static trip
        count: it is reported as unbounded, while the analysis still
        terminates."""
        machine, report = machine_report("""
        SMIS S2, {2}
        LDI R0, 1
        QWAIT 10000
        loop:
        X90 S2
        MEASZ S2
        QWAIT 50
        FMR R1, Q2
        CMP R1, R0
        BR EQ, loop
        STOP
        """)
        assert report.analysis_mode == "exploration"
        assert report.bounded_loop_count == 0
        assert len(report.unbounded_loop_pcs) == 1

    def test_counted_measurement_loop_has_exact_bound(self):
        """A 4-round loop measuring one qubit resolves its trip count:
        one bounded loop, none unbounded."""
        machine, report = machine_report("""
        SMIS S2, {2}
        LDI R0, 4
        LDI R1, 1
        QWAIT 10000
        loop:
        X90 S2
        MEASZ S2
        QWAIT 50
        SUB R0, R0, R1
        CMP R0, R1
        BR GE, loop
        QWAIT 50
        STOP
        """)
        assert report.bounded_loop_count == 1
        assert report.unbounded_loop_pcs == ()

    def test_loop_free_bound_matches_slot_count(self):
        """A loop-free binary measuring twice: the exploration reports
        no loop, bounded or unbounded."""
        machine, report = machine_report("""
        SMIS S2, {2}
        X90 S2
        MEASZ S2
        QWAIT 50
        MEASZ S2
        QWAIT 50
        STOP
        """)
        assert report.analysis_mode == "exploration"
        assert report.bounded_loop_count == 0
        assert report.unbounded_loop_pcs == ()

    def test_over_budget_loop_falls_back_to_joined_mode(self):
        """A trip count too large to unroll: the joined fixpoint takes
        over; loop-carried addresses go unknown, and the reasons name
        the backward branch that defeated the unroll."""
        report = analyze("""
        LDI R0, 500000
        LDI R1, 1
        LDI R2, 64
        LDI R3, 4
        loop:
        ST R1, R2(0)
        ADD R2, R2, R3
        SUB R0, R0, R1
        CMP R0, R1
        BR GE, loop
        LD R5, R2(4)
        STOP
        """)
        assert report.analysis_mode == "joined"
        assert not report.replay_safe
        assert any("budget" in reason for reason in report.live_reasons)
        assert any("unknown" in reason for reason in report.live_reasons)

    def test_over_budget_loop_without_loads_is_still_safe(self):
        """The fallback stays sound *and* quiet: with no loads the
        joined verdict is safe, so no loop reason is attached."""
        report = analyze("""
        LDI R0, 500000
        LDI R1, 1
        LDI R2, 64
        LDI R3, 4
        loop:
        ST R1, R2(0)
        ADD R2, R2, R3
        SUB R0, R0, R1
        CMP R0, R1
        BR GE, loop
        STOP
        """)
        assert report.analysis_mode == "joined"
        assert report.replay_safe
        assert report.live_reasons == ()

    def test_joined_mode_does_not_trust_stale_fbr_destinations(self):
        """Regression: the joined fallback must treat an FBR result as
        unknown — a stale constant in its destination would fold the
        load address and mis-prove a run-time-dependent load killed."""
        report = analyze("""
        SMIS S2, {2}
        LDI R9, 500000
        LDI R1, 1
        biglp:
        SUB R9, R9, R1
        CMP R9, R1
        BR GE, biglp
        X90 S2
        MEASZ S2
        QWAIT 50
        FMR R4, Q2
        CMP R4, R1
        FBR EQ, R6
        LDI R0, 0
        ST R0, R0(0)
        LD R7, R6(0)
        STOP
        """)
        assert report.analysis_mode == "joined"   # budget exceeded
        # R6 is 0 or 1 depending on the measurement: the load may read
        # address 1, which no same-shot store writes.
        assert not report.replay_safe
        assert report.killed_load_count == 0

    def test_cycle_through_the_entry_leaves_the_bound_unknown(self):
        """Regression: a loop whose backward edge targets pc 0 (the
        exploded graph's entry) is still a cycle, so the loop is
        unbounded."""
        machine, report = machine_report("""
        loop:
        SMIS S2, {2}
        MEASZ S2
        QWAIT 50
        BR ALWAYS, loop
        """)
        # Regression: the branch resolves (ALWAYS) on every visit, but
        # it never exits — it must not be counted as a bounded loop.
        assert report.bounded_loop_count == 0
        assert len(report.unbounded_loop_pcs) == 1

    def test_counted_loop_downstream_of_a_cycle_stays_bounded(self):
        """Regression: only backward branches *on* a cycle count as
        unbounded — a counted loop that merely executes after an
        unbounded (run-time-condition) loop is still statically
        unrolled and must be reported as bounded."""
        report = analyze("""
        SMIS S2, {2}
        LDI R0, 1
        QWAIT 10000
        rus:
        X90 S2
        MEASZ S2
        QWAIT 50
        FMR R1, Q2
        CMP R1, R0
        BR EQ, rus
        LDI R9, 3
        cnt:
        X S2
        QWAIT 5
        SUB R9, R9, R0
        CMP R9, R0
        BR GE, cnt
        STOP
        """)
        assert report.bounded_loop_count == 1
        assert len(report.unbounded_loop_pcs) == 1

    def test_deposit_array_loop_analyzes_quickly(self):
        """Regression: the must-available-store sets only track
        addresses some load queries, so a counted deposit loop storing
        to thousands of distinct addresses stays linear instead of
        quadratic in the trip count."""
        import time
        text = """
        LDI R0, 8000
        LDI R1, 1
        LDI R2, 64
        LDI R3, 4
        LDI R5, 32
        ST R1, R5(0)
        loop:
        ST R1, R2(0)
        ADD R2, R2, R3
        SUB R0, R0, R1
        CMP R0, R1
        BR GE, loop
        LD R6, R5(0)
        STOP
        """
        start = time.perf_counter()
        report = analyze(text)
        elapsed = time.perf_counter() - start
        assert report.replay_safe
        assert report.killed_load_count == 1
        assert report.bounded_loop_count == 1
        # ~0.3 s on the dev container after the fix; minutes before.
        assert elapsed < 5.0

    def test_unresolved_labels_poison_only_aliasing(self):
        """Unresolved labels leave no CFG: aliasing is unprovable only
        when both a load and a store exist; a store-only (or
        load-only) binary stays safe."""
        from repro.core.instructions import Br, Ld, Ldi, St, Stop
        from repro.core.registers import ComparisonFlag

        store_only = [Ldi(rd=1, imm=64), St(rs=0, rt=1, imm=0),
                      Br(condition=ComparisonFlag.NEVER, target="x"),
                      Stop()]
        report = analyze_data_memory(store_only)
        assert report.replay_safe
        assert report.analysis_mode == "unresolved-labels"

        load_only = [Ldi(rd=1, imm=64), Ld(rd=2, rt=1, imm=0),
                     Br(condition=ComparisonFlag.NEVER, target="x"),
                     Stop()]
        assert analyze_data_memory(load_only).replay_safe

        both = store_only[:2] + load_only[1:]
        report = analyze_data_memory(both)
        assert not report.replay_safe
        assert len(report.live_reasons) == 1
        assert "unresolved" in report.live_reasons[0]


class TestMachineIntegration:
    COUNTED_LOOP = """
    SMIS S2, {2}
    LDI R0, 4
    LDI R1, 1
    QWAIT 10000
    loop:
    X90 S2
    MEASZ S2
    QWAIT 50
    SUB R0, R0, R1
    CMP R0, R1
    BR GE, loop
    QWAIT 50
    STOP
    """

    SPILL_RELOAD = """
    SMIS S0, {0}
    SMIS S2, {2}
    LDI R0, 1
    LDI R2, 64
    QWAIT 10000
    X90 S2
    MEASZ S2
    QWAIT 50
    FMR R1, Q2
    ST R1, R2(0)
    LD R4, R2(0)
    CMP R4, R0
    BR EQ, eq
    X S0
    BR ALWAYS, join
    eq:
    Y S0
    join:
    QWAIT 50
    STOP
    """

    def test_counted_loop_program_replays(self):
        machine = make_machine(seed=4, noise=NoiseModel())
        machine.load(Assembler(machine.isa).assemble_text(
            self.COUNTED_LOOP))
        assert machine.replay_unsupported_reasons() == []
        traces = machine.run(300)
        stats = machine.engine_stats
        assert machine.last_run_engine == "replay"
        assert machine.replay_fallback_reason is None
        assert stats.bounded_loops == 1
        assert stats.replay_shots > stats.interpreter_shots
        assert all(len(t.results) == 4 for t in traces)

    @pytest.mark.parametrize("program, killed", [
        (SPILL_RELOAD, 1),
        # The comprehensive-benchmark kernel: both CFC rounds spilled
        # and reloaded, the first reload steering the branch.
        (CFC_SCRATCH_PROGRAM, 2),
    ], ids=["spill_reload", "scratch_kernel"])
    def test_spill_reload_program_replays_and_steers_feedback(
            self, program, killed):
        """The reloaded value drives the X/Y branch: the replayed
        control flow must match the replayed measurement outcome shot
        by shot (the load genuinely observed the same-shot store)."""
        machine = make_machine(seed=4)
        machine.load(Assembler(machine.isa).assemble_text(program))
        assert machine.replay_unsupported_reasons() == []
        traces = machine.run(200)
        stats = machine.engine_stats
        assert machine.last_run_engine == "replay"
        assert machine.replay_fallback_reason is None
        assert stats.killed_loads == killed
        assert stats.replay_shots > stats.interpreter_shots
        applied = set()
        for trace in traces:
            ops = [r.name for r in trace.triggers
                   if r.qubits == (0,) and r.executed]
            expected = "Y" if trace.results[0].reported_result == 1 \
                else "X"
            assert ops == [expected]
            applied.add(expected)
        assert applied == {"X", "Y"}

    def test_spill_reload_tree_is_reused_across_runs(self):
        """All loads killed -> host writes cannot be observed -> the
        saturated tree survives into the next run()."""
        machine = make_machine(seed=4)
        machine.load(Assembler(machine.isa).assemble_text(
            self.SPILL_RELOAD))
        machine.run(50)
        assert not machine.engine_stats.tree_reused
        machine.run(50)
        stats = machine.engine_stats
        assert stats.tree_reused
        assert stats.interpreter_shots == 0

    def test_engine_stats_surface_the_new_counters(self):
        machine = make_machine(seed=4)
        machine.load(Assembler(machine.isa).assemble_text(
            self.SPILL_RELOAD))
        machine.run(20)
        as_dict = machine.engine_stats.as_dict()
        assert as_dict["killed_loads"] == 1
        assert as_dict["bounded_loops"] == 0
        assert as_dict["dead_stores"] == 1

