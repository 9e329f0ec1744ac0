"""The four closed-loop workloads and their output checks.

Each workload is one closed-loop client: it sends its next request (a
``QuMAv2.run_counts`` call, or a pair of sweeps through
``SweepService``) only after the previous one has completed.  Inputs
derive from the ``--seed`` argument alone; the plant RNG is seeded from
it.  The program is driven only through its public entry points —
``ExperimentSetup``, ``QuMAv2.run_counts`` and ``SweepService`` with
``SweepSpec`` — and the checks read only what those return plus the
engine/backend report the machine publishes after every run.

Importing this module requires ``repro`` on ``sys.path``
(``perfbench/run.py`` arranges it).
"""

from __future__ import annotations

import gc
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.assembler import AssembledProgram
from repro.core.isa import seventeen_qubit_instantiation, \
    two_qubit_instantiation
from repro.core.operations import add_rabi_amplitude_operations, \
    default_operation_set
from repro.experiments.reset import FIG4_PROGRAM
from repro.experiments.runner import ExperimentSetup
from repro.quantum.noise import DecoherenceModel, GateErrorModel, \
    NoiseModel
from repro.serving import ServiceConfig, SweepService, SweepSpec, \
    execute_point
from repro.uarch.trace import ShotCounts
from repro.workloads.rabi import rabi_step_circuit
from repro.workloads.surface17 import surface17_circuit


class CheckFailure(Exception):
    """An output check failed: the run's results are not correct."""


def quantile(values: list[float], q: float) -> float:
    """Linearly interpolated quantile of ``values`` (0 <= q <= 1)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def final_rates(counts: ShotCounts) -> dict[int, tuple[int, int]]:
    """Per qubit: (shots whose final result was 1, shots measured)."""
    return {qubit: (counts.ones.get(qubit, 0), measured)
            for qubit, measured in counts.measured.items()}


def check_rates(observed: dict, reference: dict, what: str) -> None:
    """Outcome rates agree with an interpreter reference sample within
    five standard deviations of the difference of two binomial rates
    (plus a 3/N floor so rare outcomes cannot fail on one count)."""
    if set(observed) != set(reference):
        raise CheckFailure(f"{what}: measured qubits {sorted(observed)} "
                           f"vs reference {sorted(reference)}")
    for qubit, (ones, shots) in observed.items():
        ref_ones, ref_shots = reference[qubit]
        rate, ref_rate = ones / shots, ref_ones / ref_shots
        pooled = (ones + ref_ones) / (shots + ref_shots)
        sigma = math.sqrt(pooled * (1 - pooled)
                          * (1 / shots + 1 / ref_shots))
        if abs(rate - ref_rate) > 5 * sigma + 3 / ref_shots:
            raise CheckFailure(
                f"{what}: qubit {qubit} final-result rate {rate:.4f} "
                f"vs interpreter reference {ref_rate:.4f} "
                f"({ref_shots} shots)")


def sim_ns_per_shot(traces) -> float:
    """Simulated shot duration: the last trigger's output time, which
    must be identical on every trace (outcome-invariant programs)."""
    durations = {trace.triggers[-1].output_ns for trace in traces}
    if len(durations) != 1:
        raise CheckFailure(f"simulated shot duration varies across "
                           f"shots: {sorted(durations)[:4]}")
    return durations.pop()


def pauli_noise() -> NoiseModel:
    """Stochastic Pauli gate noise, negligible idle decoherence, the
    default readout error: the stabilizer backend's regime."""
    return NoiseModel(
        decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
        gate_error=GateErrorModel(single_qubit_error=1e-3,
                                  two_qubit_error=5e-3))


#: Calibration-kernel iterations per sample (about 15 ms).
CALIBRATION_ITERATIONS = 20000
#: Kernel speed (iterations per second) of the nominal reference host
#: that host-time metrics are scaled to, about that of a quiet 2-vCPU
#: Xeon virtual machine.
REFERENCE_RATE = 2.5e6


class HostSpeed:
    """The host's speed, sampled between requests.

    On a shared virtual machine, neighbours slow every process by tens
    of percent for seconds to minutes at a time, so a run measured
    through such an episode reads slower for reasons that have nothing
    to do with the program.  A fixed pure-Python kernel run between
    requests sees the same slowdown; host-time metrics are reported
    scaled to the reference host speed, and the raw figures are printed
    beside them.

    The kernel must not depend on the program's heap.  It runs with the
    cyclic garbage collector off, so no collection it triggers walks the
    program's objects, and it frees everything it allocates before the
    collector is switched back on, so it leaves no allocation count
    behind to trigger one later.
    """

    def __init__(self):
        self.iterations = 0
        self.seconds = 0.0

    def sample(self) -> float:
        """Run the kernel once; returns this sample's speed."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            table: dict = {}
            for i in range(CALIBRATION_ITERATIONS):
                key = (i & 255, i >> 8)
                table[key] = table.get(key, 0) + 1
                items = [i, i + 1, i + 2]
                items.append(sum(items))
            del table, items
            seconds = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.seconds += seconds
        self.iterations += CALIBRATION_ITERATIONS
        return CALIBRATION_ITERATIONS / seconds

    @property
    def rate(self) -> float:
        return self.iterations / self.seconds


@dataclass
class Run:
    """What one invocation measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: (shots delivered, wall seconds, host speed) of every timed
    #: request, and (wall seconds, host speed) of every timed set-up.
    #: The host speed is the mean of the samples just before and just
    #: after: a host slowdown episode can be shorter than a run, so each
    #: interval is scaled by the samples around it alone.
    requests: list[tuple[int, float, float]] = field(default_factory=list)
    setups: list[tuple[float, float]] = field(default_factory=list)
    #: Host speed sampled around every set-up and every request.
    setup_speed: HostSpeed = field(default_factory=HostSpeed)
    request_speed: HostSpeed = field(default_factory=HostSpeed)
    sim_ns: float = 0.0
    instructions_per_shot: float = 0.0
    engine: str = ""
    backend: str = ""


# ----------------------------------------------------------------------
# Machine workloads: one QuMAv2, repeated run_counts calls
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MachineWorkload:
    name: str
    #: seed -> a fresh ExperimentSetup (ISA, plant, machine).
    create: Callable[[int], ExperimentSetup]
    #: setup -> the workload's compiled or assembled binary.
    program: Callable[[ExperimentSetup], AssembledProgram]
    engine: str
    backend: str
    shots_per_op: int
    warm_shots: int
    reference_shots: int
    #: Timed set-ups per untraced run (more where a set-up is short).
    setup_repeats: int
    #: Traced-run size: run_counts calls per second of ``--seconds``.
    trace_ops_per_second: float

    def set_up(self, seed: int, warm: bool = True) -> ExperimentSetup:
        """Build ISA, plant and machine, compile or assemble, load, and
        warm up until a run needs no growth shot (tree cache and
        static-analysis memos filled)."""
        setup = self.create(seed)
        setup.machine.load(self.program(setup))
        if not warm:
            return setup
        for _ in range(20):
            setup.machine.run_counts(self.warm_shots)
            if setup.machine.engine_stats.segment_cache_misses == 0:
                return setup
        raise CheckFailure(f"{self.name}: still growing its replay tree "
                           f"after 20 warm-up runs")

    def operation(self, setup: ExperimentSetup) -> tuple[ShotCounts, bool]:
        """One closed-loop request; returns the counts and whether the
        operation failed (degraded or diverged).  Raises
        :class:`CheckFailure` on a wrong engine, backend or shot count."""
        machine = setup.machine
        counts = machine.run_counts(self.shots_per_op)
        stats = machine.engine_stats
        if stats.engine != self.engine or \
                machine.last_plant_backend != self.backend:
            raise CheckFailure(
                f"{self.name}: ran {stats.engine}/"
                f"{machine.last_plant_backend}, expected {self.engine}/"
                f"{self.backend} ({stats.fallback_reason or ''}"
                f"{machine.plant_backend_reason or ''})")
        if counts.shots != self.shots_per_op or \
                stats.shots_total != self.shots_per_op:
            raise CheckFailure(f"{self.name}: delivered {counts.shots} "
                               f"of {self.shots_per_op} shots")
        if counts.total_slips:
            raise CheckFailure(f"{self.name}: {counts.total_slips} "
                               f"timing slips")
        failed = bool(stats.degradations or stats.audit_divergences)
        return counts, failed

    def check_outputs(self, setup: ExperimentSetup, seed: int,
                      rates: dict, run: Run) -> None:
        """Outcome rates against an interpreter reference sample, and
        the simulated shot duration against an interpreter shot."""
        reference = self.set_up(seed + 7919, warm=False)
        ref_traces = reference.machine.run(self.reference_shots,
                                           use_replay=False)
        ref_counts = ShotCounts()
        for trace in ref_traces:
            ref_counts.add(trace)
        check_rates(rates, final_rates(ref_counts), self.name)
        sample = setup.machine.run(64)
        run.sim_ns = sim_ns_per_shot(sample)
        if sim_ns_per_shot(ref_traces) != run.sim_ns:
            raise CheckFailure(f"{self.name}: simulated shot duration "
                               f"{run.sim_ns} ns differs from the "
                               f"interpreter's")
        run.instructions_per_shot = sum(
            trace.instructions_executed for trace in sample) / len(sample)
        run.engine, run.backend = self.engine, self.backend


def surface17_setup(seed: int) -> ExperimentSetup:
    return ExperimentSetup.create(isa=seventeen_qubit_instantiation(),
                                  noise=pauli_noise(), seed=seed)


RESET_REPLAY = MachineWorkload(
    name="reset_replay",
    create=lambda seed: ExperimentSetup.create(noise=NoiseModel(),
                                               seed=seed),
    program=lambda setup: setup.assemble_text(FIG4_PROGRAM),
    engine="replay", backend="dense", shots_per_op=20000,
    warm_shots=10000, reference_shots=1000, setup_repeats=15,
    trace_ops_per_second=1.0)

S17_FRAME = MachineWorkload(
    name="s17_frame", create=surface17_setup,
    program=lambda setup: setup.compile_circuit(
        surface17_circuit(rounds=2, reset=False)),
    engine="frame", backend="stabilizer", shots_per_op=20000,
    warm_shots=2000, reference_shots=300, setup_repeats=45,
    trace_ops_per_second=0.6)

S17_FEEDBACK = MachineWorkload(
    name="s17_feedback", create=surface17_setup,
    program=lambda setup: setup.compile_circuit(
        surface17_circuit(rounds=2, reset=True)),
    engine="interpreter", backend="stabilizer", shots_per_op=50,
    warm_shots=10, reference_shots=200, setup_repeats=31,
    trace_ops_per_second=0.4)


# ----------------------------------------------------------------------
# The sweep workload: SweepService over a supervised worker pool
# ----------------------------------------------------------------------
#: Points per sweep (Rabi amplitudes; Ramsey delays).
SWEEP_POINTS = 16
SWEEP_SHOTS = 200

RAMSEY_TEMPLATE = """
SMIS S2, {2}
QWAIT 10000
X90 S2
QWAIT %d
X90 S2
MEASZ S2
QWAIT 50
STOP
"""


def build_sweep_setup() -> ExperimentSetup:
    """Worker set-up factory: the two-qubit chip with the Rabi
    amplitude pulses registered and the calibrated noise model."""
    operations = default_operation_set()
    add_rabi_amplitude_operations(operations, SWEEP_POINTS,
                                  max_angle=2.0 * math.pi)
    return ExperimentSetup.create(isa=two_qubit_instantiation(operations),
                                  noise=NoiseModel(), seed=0)


def build_rabi_program(setup, params):
    return setup.compile_circuit(rabi_step_circuit(params["step"], qubit=2))


def build_ramsey_program(setup, params):
    return setup.assemble_text(RAMSEY_TEMPLATE % params["delay"])


def sweep_specs(seed: int, iteration: int) -> list[SweepSpec]:
    """The client's request for one iteration: a Rabi-amplitude and a
    Ramsey-delay sweep, submitted back to back."""
    base = seed * 100003 + 2 * iteration
    return [
        SweepSpec.from_params(
            name=f"rabi-{iteration}", shots=SWEEP_SHOTS, seed=base,
            params=[{"step": step} for step in range(SWEEP_POINTS)],
            setup_factory=build_sweep_setup,
            program_factory=build_rabi_program),
        SweepSpec.from_params(
            name=f"ramsey-{iteration}", shots=SWEEP_SHOTS, seed=base + 1,
            params=[{"delay": 200 + 400 * step}
                    for step in range(SWEEP_POINTS)],
            setup_factory=build_sweep_setup,
            program_factory=build_ramsey_program),
    ]


@dataclass
class SweepWorkload:
    name: str
    num_workers: int
    #: Traced-run size: sweep pairs per second of ``--seconds``.
    trace_iterations_per_second: float = 0.5

    def service(self) -> SweepService:
        return SweepService(ServiceConfig(num_workers=self.num_workers))

    def iteration(self, service: SweepService, specs, workdir: Path, run: Run,
                  served: dict) -> tuple[float, float, list[float]]:
        """Submit both sweeps and drain ``serve()``; returns (wall,
        time to first point, per-point latencies).  Fills ``served``
        with (sweep, index) -> PointResult and counts attempts and
        failures on ``run``."""
        before = service.stats_snapshot()
        start = time.perf_counter()
        for spec in specs:
            service.submit(spec, journal_path=workdir / f"{spec.name}.jsonl")
        first = None
        latencies = []
        for result in service.serve():
            if first is None:
                first = time.perf_counter() - start
            served[(result.sweep, result.index)] = result
            latencies.append(result.latency_s)
            run.attempted += 1
            if result.engine != "replay" or result.plant_backend != "dense":
                raise CheckFailure(
                    f"{self.name}: point {result.sweep}/{result.index} ran "
                    f"{result.engine}/{result.plant_backend}, expected "
                    f"replay/dense")
            if result.counts.shots != SWEEP_SHOTS or \
                    result.counts.total_slips:
                raise CheckFailure(
                    f"{self.name}: point {result.sweep}/{result.index} "
                    f"delivered {result.counts.shots} shots with "
                    f"{result.counts.total_slips} slips")
            if result.degradations or result.resumed:
                run.failed += 1
        wall = time.perf_counter() - start
        for spec in specs:
            (workdir / f"{spec.name}.jsonl").unlink()
        after = service.stats_snapshot()
        expected = sum(spec.num_points for spec in specs)
        if len(latencies) != expected:
            raise CheckFailure(f"{self.name}: served {len(latencies)} of "
                               f"{expected} points")
        run.failed += (after.points_redispatched - before.points_redispatched
                       + after.points_failed - before.points_failed)
        return wall, first, latencies

    def check_inline(self, specs, served: dict, run: Run) -> float:
        """Every served point is bit-identical to inline
        ``execute_point``; each point's simulated shot duration is
        constant and equals an interpreter shot's.  Returns the inline
        execution wall time."""
        setup = build_sweep_setup()
        inline_s = 0.0
        durations = []
        instructions = []
        for spec in specs:
            for point in spec.points():
                start = time.perf_counter()
                counts = execute_point(setup, spec, point)[0]
                inline_s += time.perf_counter() - start
                if counts != served[(spec.name, point.index)].counts:
                    raise CheckFailure(
                        f"{self.name}: point {spec.name}/{point.index} "
                        f"differs from inline execute_point")
                sample = setup.machine.run(8)
                duration = sim_ns_per_shot(sample)
                reference = setup.machine.run(1, use_replay=False)
                if sim_ns_per_shot(reference) != duration:
                    raise CheckFailure(
                        f"{self.name}: point {spec.name}/{point.index} "
                        f"simulated duration differs from the "
                        f"interpreter's")
                durations.append(duration)
                instructions.append(sample[0].instructions_executed)
        run.sim_ns = sum(durations) / len(durations)
        run.instructions_per_shot = sum(instructions) / len(instructions)
        run.engine, run.backend = "replay", "dense"
        return inline_s


def work_directory(root: Path) -> Path:
    """A fresh scratch directory for journals and worker files, inside
    the checkout (removed by the caller with :func:`remove`)."""
    base = root / ".perfbench-work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def remove(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    try:
        directory.parent.rmdir()
    except OSError:
        pass
