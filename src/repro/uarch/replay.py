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

Replaying shots is a pure tree walk: sample each measurement from the
stored ``P(1)`` (and the readout-error model), follow the matching
edge, and hand out the terminal template.  The tree is keyed on the
sampled ``(raw, reported)`` pairs, so every shot that reaches a
terminal has exactly that terminal's outcomes,
``template.outcome_path()``.  One uniform per shot picks a node's
edge by inversion against the cumulative law of its four edges.
Every run walks a whole chunk of shots at once
(:meth:`TimelineTree.sample_cohort`): each internal node draws one
vectorised uniform for the cohort of shots that reached it and splits
the cohort among its children by counts — how many uniforms fall
between each pair of cuts — so the Python cost is per tree node, not
per shot.  The walk returns one :class:`~repro.uarch.trace.ShotBatch`,
the value the Pauli-frame engine delivers too: each reached terminal
is a group (:class:`~repro.uarch.trace.ShotGroup`) of the shots
sharing its template, each growth shot a trace.  A group carries its
size; its shot indices are built from the kept uniforms only when
something reads them.  ``run_iter`` does, splicing each shot's trace
from its terminal (:meth:`ShotTrace.with_sampled_results`);
``run_counts`` does not, folding each terminal once with its
multiplicity (:meth:`ShotCounts.add`, with the terminal's memoised
fold plan).  The terminal is also the unit of the self-verifying
audit: one shadow interpreter run forced onto its outcome path checks
every shot that reached it, before the chunk is delivered (an audit
names the terminal's first shot, so a fired audit reads its indices).
No plant state is touched at all — the chain rule over per-node
conditional probabilities reproduces the interpreter's joint outcome
distribution exactly, whichever order the draws are made in.

When the walk reaches a not-yet-seen outcome edge, the engine *grows*
the tree: it re-runs the full interpreter with the already-sampled
outcome prefix **forced** (the measurement unit replays the sampled
``(raw, reported)`` pairs, collapsing the plant accordingly), so the
interpreter shot both is a statistically exact sample *and* explores
exactly the missing branch.  The shot runs with the plant's recording
open (:attr:`~repro.quantum.plant.QuantumPlant.recording`), and each
recorded measurement's pre-collapse ``P(1)`` becomes its node's
(a cohort grows one such shot per
unexplored edge it reaches and sends the rest of its shots down the
grown branch).  For a two-measurement active-reset program
the tree saturates after a handful of probe shots; afterwards every
shot is pure replay.  Programs whose outcome space never saturates
degrade transparently to interpreter throughput — every shot is then a
(cheap) failed walk plus one genuine interpreter shot.

A **feedback-free** binary (no ``FMR``, no conditional micro-operation,
no queued mock) has one timeline whatever its outcomes: the classical
domain is a constant function of them.  Its tree keeps the first
growth shot's trace as the *reference* template, and a terminal the
walk finds missing is built, not grown: its template is the
reference with the path's outcomes spliced in
(:meth:`ShotTrace.with_sampled_results`), and no shot runs.  Only
internal nodes, whose ``P(1)`` depends on the path, still grow by an
interpreter shot, so a one-measurement program (a Rabi or Ramsey sweep
point) grows in one shot.  A forced growth shot draws nothing from the
plant's generator, so building instead leaves every seeded count as it
was.

**Mocked measurements** (the paper's CFC verification programs the
UHFQC to fabricate results) do not replay.  A draining mock queue
makes consecutive shots observe values the outcome tree does not key
on, so a run that starts with a queued mock result runs on the
interpreter; the machine reports it as a replay blocker
(:meth:`repro.uarch.machine.QuMAv2.replay_unsupported_reasons`).

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
from typing import Callable, Iterable, NamedTuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.instructions import Bundle, Instruction
from repro.core.microcode import MicrocodeUnit
from repro.quantum.plant import AppliedOperation, QuantumPlant
from repro.uarch.dataflow import analyze_data_memory
from repro.uarch.trace import FoldPlan, ShotBatch, ShotGroup, ShotTrace

#: Probabilities closer than this to 0/1 are treated as deterministic
#: when sampling a node, so a forced interpreter continuation can never
#: be asked to collapse the plant onto a (numerically) impossible
#: outcome.
_DETERMINISTIC_EPS = 1e-12


class ReplayError(Exception):
    """Internal signal: this program cannot be replayed — fall back."""


@dataclass(frozen=True, slots=True)
class ReplayAudit:
    """One self-verifying replay audit of a walked terminal.

    Recorded on :attr:`EngineStats.last_audit` for every audit.  When
    the shadow interpreter run disagreed with the terminal's template,
    the cached tree was dropped (for the rest of the run and for later
    runs) and the audited chunk and the rest of the run degraded to the
    interpreter.
    """

    #: Index, within the run, of the first shot that reached the
    #: audited terminal.
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
    interpreter counts each shot as it is delivered; the replay and
    Pauli-frame engines count a whole chunk of shots (up to
    ``_CHUNK_SHOTS`` in :mod:`repro.uarch.machine`, one
    :class:`~repro.uarch.trace.ShotBatch`) when they yield it, before
    its first trace — so mid-stream ``shots_total`` may run ahead of
    the traces consumed, never behind.  A replay chunk dropped on an
    audit divergence is never counted; the interpreter re-serves and
    counts it.
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
    #: Shots served purely from the timeline-segment tree (tree walks
    #: that found a complete cached path).
    replay_shots: int = 0
    #: Shots served by the Pauli-frame batched engine (vectorised frame
    #: rows over the reference shot's frozen timeline).  The
    #: delivered-shot invariant is ``shots_total == interpreter_shots +
    #: replay_shots + frame_batched``.
    frame_batched: int = 0
    #: Reference shots the frame engine ran on the tableau interpreter
    #: to record the Clifford/measurement structure: 1 on a run that
    #: recorded, 0 on one that reused the recording kept for the
    #: loaded binary (``tree_reused``).  These are engine overhead,
    #: not delivered shots — they count in neither ``shots_total`` nor
    #: ``interpreter_shots``.
    frame_reference_shots: int = 0
    #: Tree walks that hit an unexplored outcome edge (each miss costs
    #: one interpreter shot which grows the tree).
    segment_cache_misses: int = 0
    tree_nodes: int = 0
    #: Fully captured outcome paths (terminal templates).
    tree_paths: int = 0
    #: True when this run reused the engine state an earlier ``run()``
    #: kept for the same binary/noise/config/backend kind: the replay
    #: engine's timeline tree, or the frame engine's reference
    #: recording (then ``frame_reference_shots`` is 0).
    tree_reused: bool = False
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
    #: Walked terminals shadow-run on the interpreter with their
    #: outcome path forced and compared bit-for-bit (the
    #: ``audit_fraction`` policy; at 1.0 every terminal each chunk
    #: reached).
    replay_audits: int = 0
    #: Audits that found a divergence: at most one per run, since the
    #: first evicts the tree and re-serves its chunk and the rest of
    #: the run on the interpreter.
    audit_divergences: int = 0
    #: The most recent audit, with the mismatched trace fields (empty
    #: when it passed).
    last_audit: ReplayAudit | None = None
    #: "replay -> interpreter: <reason>" when an audit divergence
    #: handed the rest of this run to the interpreter (at most one per
    #: run; the divergence is its only writer).
    degradations: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-ready summary of every field."""
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
        return copy

    #: How the counters publish into a metrics registry: dataclass
    #: field -> hierarchical metric name (the ``engine.*`` namespace of
    #: :mod:`repro.obs`).  Only numeric counters appear here; labels
    #: (engine, backend, reasons) publish as selection counters and
    #: degradations as a list-length counter.
    _METRIC_NAMES = {
        "shots_total": "engine.shots_total",
        "interpreter_shots": "engine.interpreter.shots",
        "replay_shots": "engine.replay.cached_shots",
        "frame_batched": "engine.frame.batched_shots",
        "frame_reference_shots": "engine.frame.reference_shots",
        "segment_cache_misses": "engine.replay.segment_cache.misses",
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
    operations the microcode cannot translate.  The verdict depends on the
    binary alone; machine state such as queued mock results is added by
    :meth:`repro.uarch.machine.QuMAv2.replay_unsupported_reasons`.  All
    blockers present in the program are reported, not just the first
    one found.  ``data_memory_report`` lets a caller that already ran
    the dataflow pass (the machine keeps it per loaded binary) avoid
    recomputing it.
    """
    instructions = list(instructions)
    if not instructions:
        return ["no program loaded"]
    if data_memory_report is None:
        data_memory_report = analyze_data_memory(instructions)
    reasons: list[str] = list(data_memory_report.live_reasons)
    for name in dict.fromkeys(slot.name for instruction in instructions
                              if isinstance(instruction, Bundle)
                              for slot in instruction.operations):
        try:
            microcode.translate_name(name)
        except ConfigurationError:
            reasons.append(f"operation {name!r} is not translatable")
    return reasons


class _TreeNode:
    """One outcome-history position in the timeline tree.

    Internal nodes carry the next measurement (``qubit``/``start_ns``
    from the timeline, its pre-collapse ``p_one``) and the
    outcome-keyed children; terminal nodes carry the frozen trace
    ``template`` of the completed path (and, once walked, its fold
    ``plan``).  A node inserted by
    :meth:`TimelineTree.grow` or built by
    :meth:`TimelineTree._build_terminal` is always fully characterised
    as one or the other.
    """

    __slots__ = ("qubit", "start_ns", "p_one", "children", "template",
                 "plan")

    def __init__(self):
        self.qubit = -1                  # -1 until characterised
        self.start_ns = 0.0
        self.p_one = 0.0
        self.children: dict[tuple[int, int], "_TreeNode"] = {}
        self.template: ShotTrace | None = None
        #: The template's fold plan, built when a walk first reaches it.
        self.plan: FoldPlan | None = None


class _Split:
    """An internal node's split of the cohort that reached it: the
    cohort, one kept uniform per shot of it, and the node's cuts.
    Each child's cohort is a slice of :meth:`ordered`."""

    __slots__ = ("cohort", "uniforms", "cuts", "_ordered")

    def __init__(self, cohort: "_Cohort", uniforms: np.ndarray,
                 cuts: tuple[float, float, float]):
        self.cohort = cohort
        self.uniforms = uniforms
        self.cuts = cuts
        self._ordered: np.ndarray | None = None

    def ordered(self) -> np.ndarray:
        """The cohort's shot indices stably partitioned by edge code
        (code ``k`` counts the cuts at or below a shot's uniform),
        built on the first call; the uniforms are dropped then."""
        if self._ordered is None:
            past = [self.uniforms >= cut for cut in self.cuts]
            codes = past[0].view(np.uint8) + past[1]
            codes += past[2]
            self._ordered = self.cohort.indices()[
                np.argsort(codes, kind="stable")]
            self.uniforms = None
        return self._ordered


class _Cohort(NamedTuple):
    """Shots ``start .. end - 1`` of ``split.ordered()``; of the chunk
    itself at the root (``split`` None)."""

    split: _Split | None
    start: int
    end: int

    def indices(self) -> np.ndarray:
        """The cohort's shot indices, ascending."""
        if self.split is None:
            return np.arange(self.start, self.end)
        return self.split.ordered()[self.start:self.end]

    def first(self) -> int:
        """The cohort's first shot index, without building the rest."""
        if self.split is None:
            return self.start
        return int(self.split.ordered()[self.start])


def _walkable(node: _TreeNode | None) -> bool:
    """Whether a walk can use ``node``: a terminal, or a characterised
    internal node."""
    return node is not None and (node.template is not None or
                                 node.qubit >= 0)


class TimelineTree:
    """The branch-resolved timeline-segment cache for one binary.

    Built lazily by the machine during :meth:`QuMAv2.run_iter` calls
    (and reused by later calls while the binary, noise model, config
    and plant backend stay unchanged):
    interpreter shots insert their observed outcome path and trace;
    cached shots are sampled without any plant work, a chunk at a time
    by :meth:`sample_cohort`.
    The root is created by the first growth shot.  When the machine
    declares the timeline ``outcome_independent`` (the binary has no
    ``FMR``, conditional micro-op or queued mock), that shot's trace
    is kept as the reference template and missing terminals are built
    from it (:meth:`_build_terminal`) instead of grown.  Growth stops
    (but sampling keeps degrading gracefully to interpreter shots) when
    the caps are hit or when two shots with the same outcome history
    disagree — a determinism violation such as timing driven by a value
    the outcome history does not determine.
    """

    def __init__(self, plant: QuantumPlant, max_depth: int = 64,
                 max_nodes: int = 8192, outcome_independent: bool = False):
        self._plant = plant
        self._readout = plant.noise.readout
        self._root: _TreeNode | None = None
        self._max_depth = max_depth
        self._max_nodes = max_nodes
        self._outcome_independent = outcome_independent
        #: The first growth shot's trace when the timeline does not
        #: depend on the outcomes: every terminal is this template with
        #: its own path's outcomes.
        self._reference: ShotTrace | None = None
        self.node_count = 0
        self.path_count = 0
        #: Why the tree stopped growing (None while growth is allowed).
        self.growth_stopped_reason: str | None = None

    def _child(self, parent: _TreeNode | None,
               key: tuple[int, int] | None) -> _TreeNode | None:
        """``parent``'s child on edge ``key``; the root for no parent."""
        return self._root if parent is None else parent.children.get(key)

    def _edge_cuts(self, p_one: float) -> tuple[float, float, float]:
        """The cumulative edge law at ``P(1) = p_one`` (clamped within
        ``_DETERMINISTIC_EPS`` of 0 or 1): a shot's uniform takes edge
        ``(k & 1, k >> 1)``, ``k`` the number of cuts at or below it.
        Ordered by reported bit, the middle cut is ``P(reported 0)``:
        same-seed runs under other noise flip a shot's reported bit
        only across that one cut, which keeps their outcomes coupled."""
        if p_one <= _DETERMINISTIC_EPS:
            p_one = 0.0
        elif p_one >= 1.0 - _DETERMINISTIC_EPS:
            p_one = 1.0
        readout = self._readout
        both_zero = (1.0 - p_one) * (1.0 - readout.p01)
        return (both_zero, both_zero + p_one * readout.p10,
                1.0 - p_one * (1.0 - readout.p10))

    # ------------------------------------------------------------------
    # Replay (pure tree walk)
    # ------------------------------------------------------------------
    def sample_shot(self) -> tuple[ShotTrace | None,
                                   list[tuple[int, int]]]:
        """Sample one shot from the cached tree.

        Walks from the root, drawing each measurement's ``(raw,
        reported)`` edge with one uniform against the node's cuts
        (:meth:`_edge_cuts`, from ``P(1)`` and the readout-error model)
        — the interpreter's probabilities, so the law is exact.
        Returns ``(template, outcomes)`` on a complete cached path —
        the terminal's frozen trace, *not* spliced, and the sampled
        ``(raw, reported)`` pairs in result order, which equal
        ``template.outcome_path()`` (splice them with
        :meth:`ShotTrace.with_sampled_results`, or fold the template
        itself with :meth:`ShotCounts.add`) — or ``(None,
        outcome_prefix)`` when an unexplored edge is reached; the
        caller then runs an interpreter shot with that prefix forced.

        The machine walks cohorts only; this one-shot walk stays as
        the target of perfbench's ``uarch.replay.walk`` hook until the
        benchmark hooks :meth:`sample_cohort` instead.
        """
        rng = self._plant.rng
        node = self._root
        outcomes: list[tuple[int, int]] = []
        if node is None:
            return None, outcomes        # no growth shot yet
        while node.template is None:
            if node.qubit < 0:
                return None, outcomes    # cold node: no probe yet
            uniform = rng.random()
            code = sum(uniform >= cut
                       for cut in self._edge_cuts(node.p_one))
            pair = (code & 1, code >> 1)
            outcomes.append(pair)
            child = node.children.get(pair)
            if child is None:
                return None, outcomes    # unexplored branch: grow here
            node = child
        return node.template, outcomes

    def sample_cohort(self, shots: int,
                      grow: Callable[[list[tuple[int, int]]], ShotTrace]
                      ) -> ShotBatch:
        """Sample ``shots`` shots as cohorts, returned as one
        :class:`ShotBatch` of terminal groups and growth traces.

        The whole chunk starts at the root; each internal node draws
        one uniform per shot of the cohort that reached it, and each
        child's cohort is the shots whose uniform falls between two of
        the node's cuts (:meth:`_edge_cuts`, the edge rule of
        :meth:`sample_shot`), counted off the cuts.  The law is exact;
        only the order of the draws differs.  A cohort is a size plus
        a slice of its parent's split (:class:`_Split`): the node's
        uniforms are kept, and the split's shot indices — one stable
        partition of the parent cohort's indices by edge code — are
        built only when something reads them (a spliced trace, a fired
        audit, a growth shot's key), once per node, shared by its
        children.  A terminal group carries its template, its size and
        its node's memoised :class:`FoldPlan`, so a plain fold of a
        warm chunk partitions nothing.

        Where a cohort reaches a cold node or an unexplored edge, its
        first shot becomes a growth shot: ``grow(prefix)`` runs it on
        the interpreter with the cohort's shared outcome prefix forced
        and inserts its path, and the rest of the cohort continues
        down the grown branch.  While the branch stays missing (growth
        stopped) every further shot of the cohort is a growth shot of
        its own.  On an outcome-independent timeline an unexplored
        edge at the reference's measurement depth is built as a
        terminal instead (:meth:`_build_terminal`) and the whole
        cohort lands on it as cached shots: ``grow`` is not called.
        """
        rng = self._plant.rng
        batch = ShotBatch(shots)
        # (parent node, edge key, cohort, outcome prefix)
        stack = [(None, None, _Cohort(None, 0, shots), [])]
        while stack:
            parent, key, cohort, prefix = stack.pop()
            node = self._child(parent, key)
            if node is None and parent is not None:
                node = self._build_terminal(parent, key, prefix)
            while cohort.start < cohort.end and not _walkable(node):
                batch.growth[cohort.first()] = grow(prefix)
                cohort = cohort._replace(start=cohort.start + 1)
                node = self._child(parent, key)
            size = cohort.end - cohort.start
            if not size:
                continue
            if node.template is not None:
                if node.plan is None:
                    node.plan = FoldPlan.of(node.template)
                batch.groups.append(ShotGroup(node.template, size,
                                              cohort.indices, node.plan))
                continue
            split = _Split(cohort, rng.random(size),
                           self._edge_cuts(node.p_one))
            # Code k's shots sit at [bounds[k], bounds[k + 1]) of the
            # split's stable partition.
            bounds = [0, *(int(np.count_nonzero(split.uniforms < cut))
                           for cut in split.cuts), size]
            for code in (3, 2, 1, 0):        # (0, 0) is walked first
                start, end = bounds[code], bounds[code + 1]
                if start < end:
                    pair = (code & 1, code >> 1)
                    stack.append((node, pair, _Cohort(split, start, end),
                                  prefix + [pair]))
        return batch

    def _build_terminal(self, parent: _TreeNode, key: tuple[int, int],
                        prefix: list[tuple[int, int]]
                        ) -> _TreeNode | None:
        """Insert ``parent``'s missing child on edge ``key`` as a
        terminal built from the reference template, or return None
        when the path must grow by an interpreter shot instead.

        Only an outcome-independent timeline builds, once its reference
        exists, and only a child at the reference's measurement depth:
        the template is then ``reference.with_sampled_results(prefix)``,
        the one timeline with this path's outcomes.  Growth stops at
        the node cap as it does for an interpreter shot's path."""
        reference = self._reference
        if reference is None or self.growth_stopped_reason is not None \
                or len(prefix) != len(reference.results):
            return None
        if self.node_count >= self._max_nodes:
            self.growth_stopped_reason = self._node_cap_reason()
            return None
        child = _TreeNode()
        child.template = reference.with_sampled_results(prefix)
        parent.children[key] = child
        self.node_count += 1
        self.path_count += 1
        return child

    # ------------------------------------------------------------------
    # Growth (insert an interpreter shot's observed path)
    # ------------------------------------------------------------------
    def grow(self, samples: list[AppliedOperation],
             trace: ShotTrace) -> bool:
        """Insert one interpreter shot's outcome path into the tree.

        ``samples`` are the shot's measurements as the plant recorded
        them, in chronological plant order: the measured qubit, the
        trigger-time start of the integration window and the
        pre-collapse ``P(1)``, the segment-boundary snapshot the tree
        samples from.  ``trace`` is its full interpreter trace.  Returns
        False (and permanently stops growth on determinism violations)
        when the path cannot be cached; the shot itself is still valid.
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
            if self._root is None:
                self._root = _TreeNode()
                self.node_count += 1
            self._insert(self._root, samples, trace)
        except ReplayError as error:
            self.growth_stopped_reason = str(error)
            return False
        if self._outcome_independent and self._reference is None:
            self._reference = trace
        return True

    def _node_cap_reason(self) -> str:
        return (f"timeline tree exceeds the {self._max_nodes}-node cap "
                f"(outcome space not saturating)")

    def _check_pairing(self, samples: list[AppliedOperation],
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
            (qubit,) = sample.qubits
            if (qubit != record.qubit or
                    abs(sample.start_ns - record.measure_start_ns) > 1e-9):
                raise ReplayError(
                    f"measurement on qubit {qubit} at "
                    f"{sample.start_ns} ns does not match result record "
                    f"for qubit {record.qubit} at "
                    f"{record.measure_start_ns} ns")

    def _insert(self, root: _TreeNode, samples: list[AppliedOperation],
                trace: ShotTrace) -> None:
        node = root
        for sample, record in zip(samples, trace.results):
            (qubit,) = sample.qubits
            if node.template is not None:
                raise ReplayError(
                    "determinism violation: a shot with this outcome "
                    "history previously terminated, this one measures "
                    f"qubit {qubit}")
            if node.qubit < 0:
                node.qubit = qubit
                node.start_ns = sample.start_ns
                node.p_one = sample.p_one
            elif (node.qubit != qubit or
                    abs(node.start_ns - sample.start_ns) > 1e-9):
                raise ReplayError(
                    "determinism violation: same outcome history, "
                    "different next measurement (qubit "
                    f"{node.qubit} at {node.start_ns} ns vs qubit "
                    f"{qubit} at {sample.start_ns} ns) — timing "
                    "depends on state outside the outcome history")
            key = (record.raw_result, record.reported_result)
            child = node.children.get(key)
            if child is None:
                if self.node_count >= self._max_nodes:
                    raise ReplayError(self._node_cap_reason())
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
