"""Execution trace records emitted by the microarchitecture.

The records are the observable behaviour the experiments and tests
consume: which operations actually reached the analog-digital interface
(and when), which were cancelled by fast conditional execution, what
every measurement reported, and how far the timing controller slipped
when the reserve phase fell behind.  A fast engine delivers a chunk of
shots as one :class:`ShotBatch`; :class:`ShotCounts` aggregates shots
without keeping their traces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from repro.core.errors import InvalidRequestError
from repro.quantum.pauli_frame import WORD, pack_shots, unpack_shots, \
    valid_words

#: Up to this many final qubits, :meth:`ShotCounts.add_batch` counts the
#: joint histogram on the packed rows, one popcount mask per code: past
#: it the ``2^k`` masks cost more than the ``k`` unpack passes of the
#: per-shot key (by ``timeit`` on a 20,000-shot chunk, numpy 2.4 on a
#: 2-vCPU x86 host: 173 µs against 221 µs at 8 qubits, 339 µs against
#: 220 µs at 9).
_PACKED_COUNT_QUBITS = 8

#: Up to this many final qubits, :meth:`ShotCounts.add_batch` counts the
#: per-shot joint outcome codes with ``np.bincount`` (2^16 bins);
#: beyond, with ``np.unique``.
_BINCOUNT_QUBITS = 16


class TriggerRecord(NamedTuple):
    """One micro-operation reaching the fast-conditional-execution unit.

    ``executed`` is False when the selected execution flag read '0' and
    the operation was cancelled.  ``output_ns`` is when the digital
    output left the controller (used for latency measurements).  Like
    :class:`ResultRecord`, an immutable named tuple: the interpreter
    prebuilds both of a trigger's records (executed and cancelled) once
    per loaded binary and trigger time, and every shot appends one.
    """

    name: str
    qubits: tuple[int, ...]
    cycle: int
    trigger_ns: float
    output_ns: float
    executed: bool
    condition: str


class ResultRecord(NamedTuple):
    """One measurement result returning to the Central Controller."""

    qubit: int
    raw_result: int        # what the plant projected
    reported_result: int   # after readout assignment error
    measure_start_ns: float
    arrival_ns: float      # when the result entered the controller


@dataclass(frozen=True, slots=True)
class SlipRecord:
    """The timing controller stalled waiting for a late reservation."""

    cycle: int
    due_ns: float
    actual_ns: float

    @property
    def slip_ns(self) -> float:
        """How late the trigger fired relative to the timeline."""
        return self.actual_ns - self.due_ns


@dataclass(slots=True)
class ShotTrace:
    """Everything observed during one shot."""

    triggers: list[TriggerRecord] = field(default_factory=list)
    results: list[ResultRecord] = field(default_factory=list)
    slips: list[SlipRecord] = field(default_factory=list)
    instructions_executed: int = 0
    classical_time_ns: float = 0.0
    stop_reached: bool = False

    def with_sampled_results(
            self, outcomes: list[tuple[int, int]]) -> "ShotTrace":
        """Splice freshly sampled outcomes into this frozen timeline.

        The fast engines hand out each replayed or frame-batched shot
        as a captured template plus its sampled outcomes;
        :meth:`repro.uarch.machine.QuMAv2.run_iter` builds the shot's
        trace here (``run_counts`` folds the outcomes directly and never
        splices).  The timing-domain records (triggers, slips, classical
        time, instruction count) are *shared copy-on-write* — the
        returned trace references the template's own ``triggers`` and
        ``slips`` lists, because only the k-th result record differs
        (rebuilt around the k-th sampled ``(raw, reported)`` pair,
        keeping the template's timing metadata).  The sharing is what
        keeps wide-plant replay off the old splice-bound path: a
        seven-qubit surface-code shot carries hundreds of trigger
        records, and copying them per replayed shot dominated the
        run.  Templates are frozen once captured (the machine binds a
        fresh trace per interpreter shot), so the aliasing is safe;
        treat replayed traces as read-only — mutating their shared
        lists would corrupt every sibling shot of the same path.
        """
        results = [
            ResultRecord(qubit=record.qubit, raw_result=raw,
                         reported_result=reported,
                         measure_start_ns=record.measure_start_ns,
                         arrival_ns=record.arrival_ns)
            for record, (raw, reported)
            in zip(self.results, outcomes, strict=True)]
        return ShotTrace(
            triggers=self.triggers,
            results=results,
            slips=self.slips,
            instructions_executed=self.instructions_executed,
            classical_time_ns=self.classical_time_ns,
            stop_reached=self.stop_reached)

    def outcome_path(self) -> tuple[tuple[int, int], ...]:
        """The shot's (raw, reported) outcome pairs in result order —
        the key the branch-resolved replay tree resolves paths by."""
        return tuple((record.raw_result, record.reported_result)
                     for record in self.results)

    def results_for(self, qubit: int) -> list[ResultRecord]:
        """Measurement results of one qubit, in time order."""
        return [record for record in self.results if record.qubit == qubit]

    def last_result(self, qubit: int) -> int | None:
        """The final reported result of a qubit, or None."""
        records = self.results_for(qubit)
        return records[-1].reported_result if records else None

    def max_slip_ns(self) -> float:
        """Worst timing slippage in the shot (0 when on time)."""
        return max((record.slip_ns for record in self.slips), default=0.0)


class FoldPlan(NamedTuple):
    """What folding shots of one frozen template needs, built once per
    template (:meth:`of`): its measured qubits in sorted order, the
    result index holding each one's final result, the template's own
    joint key (its final ``(qubit, reported)`` pairs) and its slip
    summary.  Holding the template keeps its ``id`` (a memo key) from
    being reused."""

    template: ShotTrace
    qubits: tuple[int, ...]
    columns: list[int]
    key: tuple[tuple[int, int], ...]
    slips: int
    max_slip_ns: float

    @classmethod
    def of(cls, template: ShotTrace) -> "FoldPlan":
        final = {record.qubit: index
                 for index, record in enumerate(template.results)}
        qubits = tuple(sorted(final))
        columns = [final[qubit] for qubit in qubits]
        key = tuple((qubit, template.results[column].reported_result)
                    for qubit, column in zip(qubits, columns))
        return cls(template, qubits, columns, key, len(template.slips),
                   template.max_slip_ns())


@dataclass(slots=True)
class ShotCounts:
    """Streaming aggregate over many shots — memory independent of the
    shot count.

    High-shot callers (excited fractions, outcome histograms) do not
    need every :class:`ShotTrace`.  Shots fold in as a trace times a
    multiplicity (:meth:`add` — one interpreter shot, or every cached
    replay walk that ended on one tree terminal, whose outcomes are the
    terminal template's own) or as a whole batch of packed reported
    outcomes sharing one template (:meth:`add_batch`, a Pauli-frame
    chunk); both give the same aggregate as adding the spliced traces
    one by one (:meth:`ShotBatch.fold` picks the way).  Only the
    *final* result of each qubit per shot is aggregated
    (:meth:`ShotTrace.last_result`).  Besides the per-qubit counters
    the aggregate keeps one small :class:`FoldPlan` per distinct
    :meth:`add_batch` template, never one per shot.
    """

    shots: int = 0
    ones: dict[int, int] = field(default_factory=dict)
    measured: dict[int, int] = field(default_factory=dict)
    #: Joint histogram: sorted ((qubit, bit), ...) of final results.
    joint: dict[tuple[tuple[int, int], ...], int] = field(
        default_factory=dict)
    total_slips: int = 0
    max_slip_ns: float = 0.0
    #: Fold plans of the templates seen by :meth:`add_batch`, keyed by
    #: ``id(template)``.
    _plans: dict = field(default_factory=dict, repr=False, compare=False)

    def add(self, trace: ShotTrace, shots: int = 1,
            plan: FoldPlan | None = None) -> None:
        """Fold ``shots`` identical shots of ``trace`` into the
        aggregate — the same as ``shots`` calls of ``add(trace)``.
        ``plan`` is ``FoldPlan.of(trace)`` when the caller keeps one (a
        replay terminal's, memoised on its tree node); otherwise it is
        built for this call and not kept."""
        if not shots:
            return
        if plan is None:
            plan = FoldPlan.of(trace)
        self.shots += shots
        self.total_slips += plan.slips * shots
        if plan.max_slip_ns > self.max_slip_ns:
            self.max_slip_ns = plan.max_slip_ns
        key = plan.key
        if not key:
            return
        measured, ones = self.measured, self.ones
        for qubit, bit in key:
            measured[qubit] = measured.get(qubit, 0) + shots
            if bit:
                ones[qubit] = ones.get(qubit, 0) + shots
        self.joint[key] = self.joint.get(key, 0) + shots

    def add_batch(self, template: ShotTrace, reported: np.ndarray,
                  shots: int) -> None:
        """Fold a batch of ``shots`` shots sharing one frozen template.

        ``reported`` holds their 0/1 reported outcomes bit-packed: a
        ``(len(template.results), words)`` uint64 array, one row per
        result in result order, shot ``s`` at bit ``s % 64`` of word
        ``s // 64``, padding bits clear (a Pauli-frame chunk,
        :func:`repro.quantum.pauli_frame.propagate_frames`).  Only the
        final-result rows are read.  Up to ``_PACKED_COUNT_QUBITS``
        final qubits the joint histogram is counted on the packed
        words: the valid-shot mask is split by each final row in turn
        (``mask & row`` and ``mask & ~row``), leaving one mask per
        joint code, and each code's count is the popcount of its mask —
        no per-shot key is built.  That is ``2^k`` masks against ``k``
        passes over one byte per shot, so past the constant each
        shot's final bits become one integer code instead, counted by
        ``np.bincount`` (up to ``_BINCOUNT_QUBITS`` final qubits) or
        ``np.unique`` (over several words past 64).  Equal to
        :meth:`add` over the spliced rows.
        """
        if not shots:
            return
        plan = self._plans.get(id(template))
        if plan is None:
            plan = self._plans[id(template)] = FoldPlan.of(template)
        _, qubits, columns, _, slips, max_slip_ns = plan
        self.shots += shots
        self.total_slips += slips * shots
        if max_slip_ns > self.max_slip_ns:
            self.max_slip_ns = max_slip_ns
        if not qubits:
            return
        if len(qubits) <= _PACKED_COUNT_QUBITS:
            # masks[c]: the shots whose final bits spell code c (qubit j
            # at bit j), built by halving masks[:n] on row j.
            valid = valid_words(shots)
            masks = np.empty((1 << len(qubits), len(valid)), dtype=WORD)
            masks[0] = valid
            for j, row in enumerate(reported[columns]):
                ones = masks[1 << j:2 << j]
                np.bitwise_and(masks[:1 << j], row, out=ones)
                masks[:1 << j] ^= ones
            counts = np.bitwise_count(masks).sum(axis=1, dtype=np.int64)
            codes = np.flatnonzero(counts).astype(WORD)
            counts = counts[codes]
        else:
            # Each shot's final bits as one key: qubit j at bit j % 64
            # of word j // 64.  One shift-OR per qubit row (a packbits
            # across a handful of rows is several times slower).
            keys = np.zeros((-(-len(qubits) // 64), shots), dtype=WORD)
            for j, row in enumerate(
                    unpack_shots(reported[columns], shots).T):
                keys[j >> 6] |= row.astype(WORD) << WORD.type(j & 63)
            if len(qubits) <= _BINCOUNT_QUBITS:
                counts = np.bincount(keys[0].astype(np.intp))
                codes = np.flatnonzero(counts).astype(WORD)
                counts = counts[codes]
            elif len(keys) == 1:
                codes, counts = np.unique(keys[0], return_counts=True)
            else:
                codes, counts = np.unique(keys.T, axis=0,
                                          return_counts=True)
        rows = np.unpackbits(
            np.ascontiguousarray(codes.reshape(len(counts), -1))
            .view(np.uint8), axis=1, count=len(qubits), bitorder="little")
        joint = self.joint
        for row, count in zip(rows.tolist(), counts.tolist()):
            key = tuple(zip(qubits, row))
            joint[key] = joint.get(key, 0) + count
        column_ones = (counts @ rows).tolist()
        for qubit, ones in zip(qubits, column_ones):
            self.measured[qubit] = self.measured.get(qubit, 0) + shots
            if ones:
                self.ones[qubit] = self.ones.get(qubit, 0) + ones

    def excited_fraction(self, qubit: int) -> float:
        """Fraction of shots whose last result on ``qubit`` was 1."""
        measured = self.measured.get(qubit, 0)
        if not measured:
            raise InvalidRequestError(
                f"no measurement results for qubit {qubit}")
        return self.ones.get(qubit, 0) / measured

    def outcome_counts(self, qubit_a: int, qubit_b: int) -> dict[int, int]:
        """Two-bit outcome histogram over shots (qubit_a = MSB)."""
        counts: dict[int, int] = {}
        for key, count in self.joint.items():
            bits = dict(key)
            if qubit_a not in bits or qubit_b not in bits:
                continue
            outcome = (bits[qubit_a] << 1) | bits[qubit_b]
            counts[outcome] = counts.get(outcome, 0) + count
        return counts

    # ------------------------------------------------------------------
    # Serialization (the serving layer's checkpoint journal)
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """A JSON-ready representation of the aggregate.

        The round trip through :meth:`from_dict` is exact — the
        serving layer's checkpoint journal relies on it to prove a
        resumed sweep bit-identical to an uninterrupted one.  Joint
        keys are emitted in sorted order so identical aggregates
        serialize to identical JSON (the journal's integrity digests
        compare byte-for-byte).
        """
        return {
            "shots": self.shots,
            "ones": {str(q): c for q, c in sorted(self.ones.items())},
            "measured": {str(q): c
                         for q, c in sorted(self.measured.items())},
            "joint": [
                [[[q, bit] for q, bit in key], count]
                for key, count in sorted(self.joint.items())
            ],
            "total_slips": self.total_slips,
            "max_slip_ns": self.max_slip_ns,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShotCounts":
        """Rebuild an aggregate from :meth:`as_dict` output."""
        counts = cls(
            shots=int(payload["shots"]),
            ones={int(q): int(c)
                  for q, c in payload.get("ones", {}).items()},
            measured={int(q): int(c)
                      for q, c in payload.get("measured", {}).items()},
            total_slips=int(payload.get("total_slips", 0)),
            max_slip_ns=float(payload.get("max_slip_ns", 0.0)),
        )
        for key, count in payload.get("joint", []):
            counts.joint[tuple((int(q), int(bit))
                               for q, bit in key)] = int(count)
        return counts


class ShotGroup:
    """The ``size`` shots of a :class:`ShotBatch` that share one frozen
    trace ``template``: a replay terminal's cohort, or a Pauli-frame
    chunk's every shot.

    ``indices``, the group's shot indices in the batch (an ascending
    int array), is built on first read: the group is made with the
    array itself, with a zero-argument callable that builds it, or
    with None for a group of every shot ``0 .. size - 1``.  Counting a
    group reads only ``size``; splicing its traces, or naming one of
    its shots, reads ``indices``.  ``plan`` is the template's
    :class:`FoldPlan` when the engine keeps one (a replay terminal's,
    memoised on its tree node), or None.
    """

    __slots__ = ("template", "size", "plan", "_indices")

    def __init__(self, template: ShotTrace, size: int, indices=None,
                 plan: FoldPlan | None = None):
        self.template = template
        self.size = size
        self.plan = plan
        self._indices = indices

    @property
    def indices(self) -> np.ndarray:
        indices = self._indices
        if indices is None:
            indices = self._indices = np.arange(self.size)
        elif callable(indices):
            indices = self._indices = indices()
        return indices


class ShotBatch:
    """One chunk of shots ``0 .. shots - 1`` delivered by a fast engine.

    ``groups`` holds :class:`ShotGroup` values: the shots of a group
    share its frozen trace ``template``.  A replay terminal is one
    group; a Pauli-frame chunk is one group that covers every shot.
    ``growth`` maps a shot index to the interpreter trace run for it
    (a replay growth shot).  Without columns a group's shots have the
    template's own outcomes, ``template.outcome_path()`` — the replay
    tree is keyed on exactly those pairs.  With ``raw``/``reported``
    columns — bit-packed ``(measurements, words)`` 0/1 outcomes over
    the batch's shots, shot ``s`` at bit ``s % 64`` of word ``s //
    64`` (:func:`~repro.quantum.pauli_frame.propagate_frames`) — a
    group shot's outcomes are its own column bits instead.

    ``run_iter`` splices the batch in shot order (:meth:`traces`) and
    ``run_counts`` folds it whole (:meth:`fold`); both give the same
    aggregate.  Only the splice, and the fold of a column group that
    is a strict subset of the batch, read a group's shot indices; a
    plain fold reads sizes alone.  The engine that yields a batch has
    already counted it into its run's ``EngineStats``.
    """

    __slots__ = ("shots", "groups", "growth", "raw", "reported")

    def __init__(self, shots: int, groups: list[ShotGroup] | None = None,
                 raw: np.ndarray | None = None,
                 reported: np.ndarray | None = None):
        self.shots = shots
        self.groups = [] if groups is None else groups
        self.growth: dict[int, ShotTrace] = {}
        self.raw = raw
        self.reported = reported

    def traces(self) -> Iterator[ShotTrace]:
        """The batch's traces in shot order: a growth shot's own trace,
        or a group shot spliced from its template
        (:meth:`ShotTrace.with_sampled_results`) as it is reached."""
        group_of = np.full(self.shots, -1, dtype=np.intp)
        for number, group in enumerate(self.groups):
            group_of[group.indices] = number
        templates = [group.template for group in self.groups]
        paths = [template.outcome_path() for template in templates]
        rows = itertools.repeat(None) if self.reported is None else zip(
            unpack_shots(self.raw, self.shots).tolist(),
            unpack_shots(self.reported, self.shots).tolist())
        for shot, (group, row) in enumerate(zip(group_of.tolist(), rows)):
            if group < 0:
                yield self.growth[shot]
            else:
                yield templates[group].with_sampled_results(
                    paths[group] if row is None else list(zip(*row)))

    def fold(self, counts: ShotCounts) -> None:
        """Fold the batch into ``counts``: a group without columns once
        with its multiplicity (:meth:`ShotCounts.add`, with the group's
        plan), a group with columns through its packed reported columns
        (:meth:`ShotCounts.add_batch`), and each growth trace once.
        Equal to adding :meth:`traces` one by one."""
        for group in self.groups:
            if self.reported is None:
                counts.add(group.template, group.size, group.plan)
                continue
            reported = self.reported
            if group.size < self.shots:
                reported = pack_shots(
                    unpack_shots(reported, self.shots)[group.indices])
            counts.add_batch(group.template, reported, group.size)
        for trace in self.growth.values():
            counts.add(trace)
