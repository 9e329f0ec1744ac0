"""Branch-resolved shot replay: an outcome-keyed timeline-segment tree.

The Section 5 experiments execute the *same* assembled binary for
thousands of shots.  PR 1 exploited the feedback-free case: with no
``FMR``, no conditional micro-operations and no persistent stores, the
classical/timing domain is a single deterministic timeline that can be
captured once and replayed.  But eQASM's headline features — fast
conditional execution (active reset, Fig. 4), CFC via ``FMR`` (Fig. 5)
and the surface-code cycle — are all *measurement-conditioned*, and a
single frozen timeline cannot represent them.

The generalisation implemented here rests on one observation: the
classical/timing domain is still completely deterministic *given the
measurement outcomes consumed so far*.  Every shot of a feedback
program walks some path through a finite outcome tree; two shots that
draw the same outcomes are bit-identical in every timing-domain record.
So the engine memoises **timeline segments** in a tree keyed by the
outcome history:

* each **internal node** stands for "the shot so far consumed this
  sequence of (raw, reported) measurement outcomes and is about to
  measure qubit q"; it stores the pre-collapse ``P(1)`` of that
  measurement — the one number distilled from the plant snapshot at
  the segment boundary — plus up to four children keyed by the
  ``(raw, reported)`` pair the measurement can produce;
* each **terminal node** stores the frozen :class:`ShotTrace` captured
  when the interpreter first completed a shot along that path — the
  stitched timeline of all segments on the path.

Replaying a shot is a pure tree walk: sample each measurement from the
stored ``P(1)`` (and the readout-error model), follow the matching
edge, and hand out the terminal template with the sampled outcomes.
``run_iter`` splices them into a trace
(:meth:`ShotTrace.with_sampled_results`); ``run_counts`` folds them
straight into its aggregate (:meth:`ShotCounts.add_outcomes`).  No
plant state is touched at all — the chain rule over per-node
conditional probabilities reproduces the interpreter's joint outcome
distribution exactly.

When the walk reaches a not-yet-seen outcome edge, the engine *grows*
the tree: it re-runs the full interpreter with the already-sampled
outcome prefix **forced** (the measurement unit replays the sampled
``(raw, reported)`` pairs, collapsing the plant accordingly), so the
interpreter shot both is a statistically exact sample *and* explores
exactly the missing branch.  For a two-measurement active-reset program
the tree saturates after a handful of probe shots; afterwards every
shot is pure replay.  Programs whose outcome space never saturates
degrade transparently to interpreter throughput — every shot is then a
(cheap) failed walk plus one genuine interpreter shot.

**Mocked measurements** (the paper's CFC verification programs the
UHFQC to fabricate results) replay too.  A mocked measurement is
deterministic given the per-qubit mock *cursor* at the start of the
shot, so the tree keeps one root per cursor fingerprint
(:meth:`repro.uarch.measurement.MeasurementUnit.mock_fingerprint`):
within a root, every node knows whether its measurement is mocked, a
walk reads the value the cursor would deliver
(:class:`~repro.uarch.measurement.MockCursorView`, committed only on a
complete cached walk so the queues drain exactly as the interpreter
would drain them), and the readout-error model is bypassed just as the
real mock path bypasses the analog chain.

**Data-memory traffic** rarely blocks replay any more: the static pass
in :mod:`repro.uarch.dataflow` proves when every ``LD`` either aliases
no ``ST`` at all or is *killed* by a dominating same-shot store (the
spill/reload pattern — the load can only observe data this shot wrote,
which is a deterministic function of the outcome history the tree keys
on).  Counted loops are unrolled by the same pass, so loop-carried
addresses stay static and looping binaries replay too.  Such programs
replay with the documented relaxation that after a replay run the data
memory holds the last *growth* shot's stores.

The remaining hard blockers — a load that can genuinely observe
another shot's (or the host's) store, and operations the analysis
cannot model — force the interpreter for the entire run; see
:func:`replay_unsupported_reasons`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Iterable

from repro.core.instructions import (
    ArithOp,
    Br,
    Bundle,
    Cmp,
    Fbr,
    Fmr,
    Instruction,
    Ld,
    Ldi,
    Ldui,
    LogicalOp,
    Nop,
    Not,
    QWait,
    QWaitR,
    SMIS,
    SMIT,
    St,
    Stop,
)
from repro.core.microcode import MicrocodeUnit
from repro.quantum.plant import QuantumPlant
from repro.uarch.dataflow import analyze_data_memory
from repro.uarch.trace import ShotTrace

#: Probabilities closer than this to 0/1 are treated as deterministic
#: when sampling a node, so a forced interpreter continuation can never
#: be asked to collapse the plant onto a (numerically) impossible
#: outcome.
_DETERMINISTIC_EPS = 1e-12

#: Instructions the branch-resolved engine can replay.  ``FMR`` and
#: conditional micro-operations are *replayable* now — their behaviour
#: is deterministic given the outcome history, which is exactly what
#: the tree keys on.  ``St`` is handled separately: the dataflow pass
#: whitelists provably dead stores.
_REPLAYABLE_CLASSICAL = (Nop, Stop, Cmp, Br, Fbr, Fmr, Ldi, Ldui, Ld,
                         LogicalOp, Not, ArithOp, QWait, QWaitR,
                         SMIS, SMIT, St)


class ReplayError(Exception):
    """Internal signal: this program cannot be replayed — fall back."""


@dataclass(frozen=True, slots=True)
class ReplayAudit:
    """One self-verifying replay audit that found a divergence.

    Recorded on :attr:`EngineStats.last_audit` when a shadow
    interpreter run disagreed with a cached tree walk: the cached tree
    was evicted (in-run and from the cross-run LRU) and the run
    degraded to the interpreter.
    """

    shot_index: int
    #: Trace fields that differed ("triggers", "results", ...), or
    #: ("shadow-exception",) when the shadow run itself faulted.
    mismatched_fields: tuple[str, ...]
    tree_evicted: bool = True
    detail: str = ""


@dataclass(slots=True)
class EngineStats:
    """Per-run execution-engine statistics.

    Populated by :meth:`repro.uarch.machine.QuMAv2.run_iter` (and hence
    :meth:`run` / :meth:`run_counts`); exposed to experiments through
    :attr:`repro.uarch.machine.QuMAv2.engine_stats` and
    :attr:`repro.experiments.runner.ExperimentSetup.last_engine_stats`.
    The object updates *live* while ``run_iter`` streams — long sweeps
    can report the engine mix mid-flight via :meth:`snapshot`.  The
    interpreter and replay engines count each shot as it is drawn; the
    Pauli-frame engine counts a whole chunk of shots (up to
    ``_FRAME_CHUNK_SHOTS`` in :mod:`repro.uarch.machine`) when the chunk
    is propagated, before its first trace is delivered — so mid-stream
    ``shots_total`` may run ahead of the traces consumed, never behind.
    """

    #: "replay" when the branch-resolved engine drove the run, "frame"
    #: when the Pauli-frame batched engine did (one tableau reference
    #: shot plus vectorised multi-shot frame propagation — see
    #: :mod:`repro.quantum.pauli_frame`), "interpreter" when a hard
    #: blocker forced the cycle-accurate interpreter for every shot,
    #: None before any shot ran.
    engine: str | None = None
    #: All hard-blocker reasons ("; "-joined) when ``engine`` is
    #: "interpreter"; None on the replay path.
    fallback_reason: str | None = None
    #: Which plant backend held the quantum state for this run:
    #: "stabilizer" (Gottesman–Knill tableau — Clifford binary plus
    #: Pauli/readout-only noise) or "dense" (exact density matrix, the
    #: fallback for everything else).  Selection is reported just like
    #: engine selection; see
    #: :meth:`repro.uarch.machine.QuMAv2.plant_backend_reasons`.
    plant_backend: str | None = None
    #: All reasons the stabilizer backend was not selected ("; "-joined)
    #: when ``plant_backend`` is "dense"; None on the tableau path.
    plant_backend_reason: str | None = None
    shots_total: int = 0
    #: Shots that ran through the full interpreter (probe/growth shots
    #: on the replay path count here too).
    interpreter_shots: int = 0
    #: Shots served purely from the timeline-segment tree.
    replay_shots: int = 0
    #: Shots served by the Pauli-frame batched engine (vectorised frame
    #: rows over the reference shot's frozen timeline).  The
    #: delivered-shot invariant is ``shots_total == interpreter_shots +
    #: replay_shots + frame_batched``.
    frame_batched: int = 0
    #: Reference shots the frame engine ran on the tableau interpreter
    #: to record the Clifford/measurement structure.  These are engine
    #: overhead, not delivered shots — they count in neither
    #: ``shots_total`` nor ``interpreter_shots``.
    frame_reference_shots: int = 0
    #: Tree walks that found a complete cached path.
    segment_cache_hits: int = 0
    #: Tree walks that hit an unexplored outcome edge (each miss costs
    #: one interpreter shot which grows the tree).
    segment_cache_misses: int = 0
    tree_nodes: int = 0
    #: Fully captured outcome paths (terminal templates).
    tree_paths: int = 0
    #: Distinct mock-cursor roots of the tree (1 without mocks).
    tree_roots: int = 0
    #: True when this run reused a timeline tree saturated by an
    #: earlier ``run()`` over the same binary/noise/config.
    tree_reused: bool = False
    #: Mock results served from the cursor view on cached walks (the
    #: queues drain identically to the interpreter's consumption).
    mock_results_replayed: int = 0
    #: ST instructions the dataflow pass proved dead across shots.
    dead_stores: int = 0
    #: LD instructions proven killed by a dominating same-shot store
    #: (they can never observe another shot's or the host's memory).
    killed_loads: int = 0
    #: Backward branches the dataflow pass resolved as counted loops
    #: (trip count statically unrolled).
    bounded_loops: int = 0
    #: Set when the tree refused to grow further (depth/node caps, or a
    #: determinism violation) — remaining unseen paths keep running on
    #: the interpreter.
    growth_stopped_reason: str | None = None
    #: Cached tree walks shadow-run on the interpreter and compared
    #: bit-for-bit (the ``audit_fraction`` policy).
    replay_audits: int = 0
    #: Audits that found a divergence (each evicts the tree and
    #: degrades the run to the interpreter).
    audit_divergences: int = 0
    #: The most recent divergence, with the mismatched trace fields.
    last_audit: ReplayAudit | None = None
    #: Degradation-ladder steps taken during (or around) this run, in
    #: order — e.g. "replay→interpreter (audit divergence)" from the
    #: machine, or rung changes recorded by
    #: :meth:`repro.experiments.runner.ExperimentSetup.run_resilient`.
    degradations: list[str] = field(default_factory=list)
    #: Human-readable descriptions of every injected fault that fired
    #: during this run (empty when no :class:`FaultPlan` is armed).
    faults_injected: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-ready summary (used by the benchmarks)."""
        return asdict(self)

    def snapshot(self) -> "EngineStats":
        """An independent copy of the running statistics.

        ``run_iter`` mutates one :class:`EngineStats` in place as shots
        stream; a mid-flight consumer that wants a stable point-in-time
        view (e.g. progress reporting every N shots of a long sweep)
        takes a snapshot instead of aliasing the live object.
        """
        copy = replace(self)
        copy.degradations = list(self.degradations)
        copy.faults_injected = list(self.faults_injected)
        return copy

    #: How the counters publish into a metrics registry: dataclass
    #: field -> hierarchical metric name (the ``engine.*`` namespace of
    #: :mod:`repro.obs`).  Only numeric counters appear here; labels
    #: (engine, backend, reasons) publish as selection counters and
    #: degradations/faults as list-length counters.
    _METRIC_NAMES = {
        "shots_total": "engine.shots_total",
        "interpreter_shots": "engine.interpreter.shots",
        "replay_shots": "engine.replay.cached_shots",
        "frame_batched": "engine.frame.batched_shots",
        "frame_reference_shots": "engine.frame.reference_shots",
        "segment_cache_hits": "engine.replay.segment_cache.hits",
        "segment_cache_misses": "engine.replay.segment_cache.misses",
        "mock_results_replayed": "engine.replay.mock_results_replayed",
        "dead_stores": "engine.dataflow.dead_stores",
        "killed_loads": "engine.dataflow.killed_loads",
        "bounded_loops": "engine.dataflow.bounded_loops",
        "replay_audits": "engine.replay.audits",
        "audit_divergences": "engine.replay.audit_divergences",
    }

    #: Tree shape publishes as gauges (point-in-time sizes, not
    #: monotonic counts).
    _GAUGE_NAMES = {
        "tree_nodes": "engine.replay.tree.nodes",
        "tree_paths": "engine.replay.tree.paths",
        "tree_roots": "engine.replay.tree.roots",
    }

    def publish_metrics(self, registry) -> None:
        """Fold this run's counters into a
        :class:`repro.obs.MetricsRegistry` — the registry-backed view
        of the same numbers (the dataclass fields stay the primary,
        allocation-free record)."""
        for field_name, metric_name in self._METRIC_NAMES.items():
            value = getattr(self, field_name)
            if value:
                registry.inc(metric_name, value)
        for field_name, metric_name in self._GAUGE_NAMES.items():
            registry.set_gauge(metric_name, getattr(self, field_name))
        if self.engine is not None:
            registry.inc(f"engine.selected.{self.engine}")
        if self.plant_backend is not None:
            registry.inc(f"engine.plant_backend.{self.plant_backend}")
        if self.tree_reused:
            registry.inc("engine.replay.tree.reused_runs")
        if self.degradations:
            registry.inc("engine.degradations", len(self.degradations))
        if self.faults_injected:
            registry.inc("engine.faults_injected",
                         len(self.faults_injected))


@dataclass(frozen=True, slots=True)
class MeasurementSample:
    """One measurement observed during an interpreter (growth) shot.

    Recorded in chronological plant order: the measured qubit, the
    trigger-time start of the integration window, and the pre-collapse
    ``P(1)`` — the distilled segment-boundary snapshot the tree samples
    from.  Plant measurements are recorded by the plant's measure
    observer *before* the collapse; mocked measurements (which never
    touch the plant) by the measurement unit's mock observer, with
    ``mocked=True`` and the fabricated bit standing in for ``p_one``.
    """

    qubit: int
    start_ns: float
    p_one: float
    mocked: bool = False


def replay_unsupported_reasons(
        instructions: Iterable[Instruction],
        microcode: MicrocodeUnit,
        data_memory_report=None) -> list[str]:
    """Every reason a loaded binary cannot take the replay fast path.

    Returns an empty list when the program is replayable.  Unlike the
    per-shot outcome tree (which handles feedback dynamically), these
    are *hard* blockers — anything that lets one shot observe another
    shot's state the tree cannot key on: data-memory loads the
    dataflow pass cannot prove shot-local
    (:mod:`repro.uarch.dataflow` — un-killed loads aliasing a store,
    unknown addresses, loops it cannot unroll), and
    operations the analysis cannot model.  Injected mock results are
    *not* blockers — their queues are replayed through cursor-keyed
    tree roots.  All blockers present in the program are
    reported, not just the first one found.  ``data_memory_report``
    lets a caller that already ran the dataflow pass (the machine
    memoises it per binary) avoid recomputing it.
    """
    instructions = list(instructions)
    if not instructions:
        return ["no program loaded"]
    if data_memory_report is None:
        data_memory_report = analyze_data_memory(instructions)
    reasons: list[str] = list(data_memory_report.live_reasons)
    untranslatable: list[str] = []
    unsupported: list[str] = []
    for instruction in instructions:
        if isinstance(instruction, Bundle):
            for slot in instruction.operations:
                try:
                    microcode.translate_name(slot.name)
                except Exception:
                    if slot.name not in untranslatable:
                        untranslatable.append(slot.name)
        elif not isinstance(instruction, _REPLAYABLE_CLASSICAL):
            name = type(instruction).__name__
            if name not in unsupported:
                unsupported.append(name)
    for name in untranslatable:
        reasons.append(f"operation {name!r} is not translatable")
    for name in unsupported:
        reasons.append(f"unsupported instruction {name}")
    return reasons


class _TreeNode:
    """One outcome-history position in the timeline tree.

    Internal nodes carry the next measurement (``qubit``/``start_ns``
    from the timeline; pre-collapse ``p_one`` for plant measurements,
    ``mocked`` for fabricated ones) and the outcome-keyed children;
    terminal nodes carry the frozen trace ``template`` of the completed
    path.  A node inserted by :meth:`TimelineTree.grow` is always fully
    characterised as one or the other.
    """

    __slots__ = ("qubit", "start_ns", "p_one", "mocked", "children",
                 "template")

    def __init__(self):
        self.qubit = -1                  # -1 until characterised
        self.start_ns = 0.0
        self.p_one = 0.0
        self.mocked = False
        self.children: dict[tuple[int, int], "_TreeNode"] = {}
        self.template: ShotTrace | None = None


class TimelineTree:
    """The branch-resolved timeline-segment cache for one binary.

    Built lazily by the machine during :meth:`QuMAv2.run_iter` calls
    (and reused across calls through the machine's keyed replay cache):
    interpreter shots insert their observed outcome path and trace;
    cached shots are sampled by :meth:`sample_shot` without any plant
    work.  Programs with injected mock results hold one *root* per
    mock-cursor fingerprint — within a root the mocked/unmocked pattern
    along every path is invariant, so mocked nodes read their outcome
    from the per-shot cursor view instead of sampling.  Growth stops
    (but sampling keeps degrading gracefully to interpreter shots) when
    the caps are hit or when two shots with the same outcome history
    disagree — a determinism violation such as timing driven by a value
    the outcome history does not determine.
    """

    def __init__(self, plant: QuantumPlant, max_depth: int = 64,
                 max_nodes: int = 8192):
        self._plant = plant
        self._readout = plant.noise.readout
        self._roots: dict[tuple, _TreeNode] = {}
        self._max_depth = max_depth
        self._max_nodes = max_nodes
        self.node_count = 0
        self.path_count = 0
        #: Why the tree stopped growing (None while growth is allowed).
        self.growth_stopped_reason: str | None = None

    @property
    def max_depth(self) -> int:
        """Longest cacheable outcome path — also the clamp for mock
        fingerprints (a path can consume at most this many mocks)."""
        return self._max_depth

    @property
    def root_count(self) -> int:
        """Distinct mock-cursor roots grown so far."""
        return len(self._roots)

    def _root(self, key: tuple) -> _TreeNode:
        root = self._roots.get(key)
        if root is None:
            root = _TreeNode()
            self._roots[key] = root
            self.node_count += 1
        return root

    # ------------------------------------------------------------------
    # Replay (pure tree walk)
    # ------------------------------------------------------------------
    def sample_shot(self, mock_view=None) -> tuple[ShotTrace | None,
                                                   list[tuple[int, int]]]:
        """Sample one shot from the cached tree.

        Walks from the root selected by ``mock_view.fingerprint`` (the
        plain root when ``mock_view`` is None), drawing each plant
        measurement's raw outcome from the node's pre-collapse ``P(1)``
        and its reported outcome from the readout-error model — the
        same conditional probabilities the interpreter would sample, so
        the joint distribution is exact.  Mocked nodes instead read the
        fabricated bit from the cursor view (raw == reported, no
        readout error — mocks bypass the analog chain).  Returns
        ``(template, outcomes)`` on a complete cached path — the
        terminal's frozen trace, *not* spliced, and the sampled
        ``(raw, reported)`` pairs in result order (splice them with
        :meth:`ShotTrace.with_sampled_results`, or fold them with
        :meth:`ShotCounts.add_outcomes`) — or ``(None, outcome_prefix)``
        when an unexplored edge is reached; the caller then runs an
        interpreter shot with that prefix forced (and, on success,
        commits the view's mock consumption).
        """
        rng = self._plant.rng
        readout = self._readout
        key = () if mock_view is None else mock_view.fingerprint
        node = self._roots.get(key)
        outcomes: list[tuple[int, int]] = []
        if node is None:
            return None, outcomes        # unexplored root: no probe yet
        while node.template is None:
            if node.qubit < 0:
                return None, outcomes    # cold node: no probe yet
            if node.mocked:
                value = None if mock_view is None else \
                    mock_view.peek(node.qubit)
                if value is None:
                    # The queue state diverged from the fingerprint's
                    # guarantee (should not happen); miss cleanly.
                    return None, outcomes
                raw = reported = value
            else:
                p_one = node.p_one
                if p_one <= _DETERMINISTIC_EPS:
                    raw = 0
                elif p_one >= 1.0 - _DETERMINISTIC_EPS:
                    raw = 1
                else:
                    raw = 1 if rng.random() < p_one else 0
                reported = readout.apply(raw, rng)
            outcomes.append((raw, reported))
            child = node.children.get((raw, reported))
            if child is None:
                return None, outcomes    # unexplored branch: grow here
            node = child
        return node.template, outcomes

    # ------------------------------------------------------------------
    # Fault injection (chaos testing of the audit machinery)
    # ------------------------------------------------------------------
    def corrupt_random_template(self, rng) -> str | None:
        """Deliberately corrupt one cached terminal template.

        Used by the ``tree_bitflip`` fault-injection site to prove the
        self-verifying audit detects cache corruption: one terminal
        node's frozen trace is replaced by a tampered copy (a trigger
        time shifted by 1 ns, or the classical time for trigger-free
        traces).  Returns a description of the tampering, or None when
        the tree has no terminal template yet.
        """
        terminals: list[_TreeNode] = []
        stack = list(self._roots.values())
        while stack:
            node = stack.pop()
            if node.template is not None:
                terminals.append(node)
            stack.extend(node.children.values())
        if not terminals:
            return None
        node = terminals[int(rng.integers(len(terminals)))]
        template = node.template
        if template.triggers:
            index = int(rng.integers(len(template.triggers)))
            record = template.triggers[index]
            triggers = list(template.triggers)
            triggers[index] = replace(record,
                                      trigger_ns=record.trigger_ns + 1.0,
                                      output_ns=record.output_ns + 1.0)
            node.template = ShotTrace(
                triggers=triggers,
                results=template.results,
                slips=template.slips,
                instructions_executed=template.instructions_executed,
                classical_time_ns=template.classical_time_ns,
                stop_reached=template.stop_reached)
            return (f"trigger {index} ({record.name}) of a cached "
                    f"template shifted by 1 ns")
        node.template = ShotTrace(
            triggers=template.triggers,
            results=template.results,
            slips=template.slips,
            instructions_executed=template.instructions_executed,
            classical_time_ns=template.classical_time_ns + 1.0,
            stop_reached=template.stop_reached)
        return "classical time of a cached template shifted by 1 ns"

    # ------------------------------------------------------------------
    # Growth (insert an interpreter shot's observed path)
    # ------------------------------------------------------------------
    def grow(self, samples: list[MeasurementSample],
             trace: ShotTrace, root_key: tuple = ()) -> bool:
        """Insert one interpreter shot's outcome path into the tree.

        ``samples`` are the chronological segment-boundary observations
        of the shot (plant and mocked); ``trace`` is its full
        interpreter trace; ``root_key`` is the mock-cursor fingerprint
        the shot started from.  Returns False (and permanently stops
        growth on determinism violations) when the path cannot be
        cached; the shot itself is still valid.
        """
        if self.growth_stopped_reason is not None:
            return False
        if len(samples) > self._max_depth:
            self.growth_stopped_reason = (
                f"outcome path length {len(samples)} exceeds the "
                f"{self._max_depth}-measurement cap")
            return False
        try:
            self._check_pairing(samples, trace)
            self._insert(self._root(root_key), samples, trace)
        except ReplayError as error:
            self.growth_stopped_reason = str(error)
            return False
        return True

    def _check_pairing(self, samples: list[MeasurementSample],
                       trace: ShotTrace) -> None:
        """The k-th observed measurement (chronological trigger order)
        must be the k-th trace result (chronological arrival order) —
        identical integration windows keep the orders equal, and the
        replay splice relies on it."""
        if len(samples) != len(trace.results):
            raise ReplayError(
                f"{len(samples)} observed measurements vs "
                f"{len(trace.results)} trace results")
        for sample, record in zip(samples, trace.results):
            if (sample.qubit != record.qubit or
                    abs(sample.start_ns - record.measure_start_ns) > 1e-9):
                raise ReplayError(
                    f"measurement on qubit {sample.qubit} at "
                    f"{sample.start_ns} ns does not match result record "
                    f"for qubit {record.qubit} at "
                    f"{record.measure_start_ns} ns")

    def _insert(self, root: _TreeNode, samples: list[MeasurementSample],
                trace: ShotTrace) -> None:
        node = root
        for sample, record in zip(samples, trace.results):
            if node.template is not None:
                raise ReplayError(
                    "determinism violation: a shot with this outcome "
                    "history previously terminated, this one measures "
                    f"qubit {sample.qubit}")
            if node.qubit < 0:
                node.qubit = sample.qubit
                node.start_ns = sample.start_ns
                node.mocked = sample.mocked
                if not sample.mocked:
                    node.p_one = sample.p_one
            elif (node.qubit != sample.qubit or
                    abs(node.start_ns - sample.start_ns) > 1e-9 or
                    node.mocked != sample.mocked):
                raise ReplayError(
                    "determinism violation: same outcome history, "
                    "different next measurement (qubit "
                    f"{node.qubit}{' mocked' if node.mocked else ''} at "
                    f"{node.start_ns} ns vs qubit {sample.qubit}"
                    f"{' mocked' if sample.mocked else ''} at "
                    f"{sample.start_ns} ns) — timing depends on state "
                    "outside the outcome history")
            key = (record.raw_result, record.reported_result)
            child = node.children.get(key)
            if child is None:
                if self.node_count >= self._max_nodes:
                    raise ReplayError(
                        f"timeline tree exceeds the {self._max_nodes}-"
                        f"node cap (outcome space not saturating)")
                child = _TreeNode()
                node.children[key] = child
                self.node_count += 1
            node = child
        if node.qubit >= 0:
            raise ReplayError(
                "determinism violation: a shot with this outcome "
                "history previously kept measuring, this one stopped")
        if node.template is None:
            node.template = trace
            self.path_count += 1
