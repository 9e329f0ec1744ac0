"""Execution trace records emitted by the microarchitecture.

The records are the observable behaviour the experiments and tests
consume: which operations actually reached the analog-digital interface
(and when), which were cancelled by fast conditional execution, what
every measurement reported, and how far the timing controller slipped
when the reserve phase fell behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.errors import InvalidRequestError


@dataclass(frozen=True, slots=True)
class TriggerRecord:
    """One micro-operation reaching the fast-conditional-execution unit.

    ``executed`` is False when the selected execution flag read '0' and
    the operation was cancelled.  ``output_ns`` is when the digital
    output left the controller (used for latency measurements).
    """

    name: str
    qubits: tuple[int, ...]
    cycle: int
    trigger_ns: float
    output_ns: float
    executed: bool
    condition: str


@dataclass(frozen=True, slots=True)
class ResultRecord:
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

    def executed_operations(self) -> list[TriggerRecord]:
        """Triggers that actually drove the ADI (not cancelled)."""
        return [record for record in self.triggers if record.executed]

    def cancelled_operations(self) -> list[TriggerRecord]:
        """Triggers cancelled by fast conditional execution."""
        return [record for record in self.triggers if not record.executed]

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


class _FoldPlan(NamedTuple):
    """What folding a batch of one frozen template needs: its measured
    qubits in sorted order, the result index holding each one's final
    result, and its slip summary.  Holding the template keeps its
    ``id`` (the plan's key) from being reused."""

    template: ShotTrace
    qubits: tuple[int, ...]
    columns: list[int]
    slips: int
    max_slip_ns: float


@dataclass(slots=True)
class ShotCounts:
    """Streaming aggregate over many shots — memory independent of the
    shot count.

    High-shot callers (excited fractions, outcome histograms) do not
    need every :class:`ShotTrace`.  Shots fold in as a trace times a
    multiplicity (:meth:`add` — one interpreter shot, or every cached
    replay walk that ended on one tree terminal, whose outcomes are the
    terminal template's own) or as a whole batch of reported-outcome
    rows sharing one template (:meth:`add_batch`, a Pauli-frame chunk);
    both give the same aggregate as adding the spliced traces one by
    one.  Only the *final* result of each qubit per shot is
    aggregated, matching
    :func:`repro.experiments.runner.excited_fraction`.  Besides the
    per-qubit counters the aggregate keeps one small fold plan per
    distinct :meth:`add_batch` template, never one per shot.
    """

    shots: int = 0
    ones: dict[int, int] = field(default_factory=dict)
    measured: dict[int, int] = field(default_factory=dict)
    #: Joint histogram: sorted ((qubit, bit), ...) of final results.
    joint: dict[tuple[tuple[int, int], ...], int] = field(
        default_factory=dict)
    total_slips: int = 0
    max_slip_ns: float = 0.0
    #: Reused per-shot scratch buffer (qubit -> last reported result),
    #: preallocated once so 10k+-shot runs do not churn a dict per shot.
    _last: dict = field(default_factory=dict, repr=False, compare=False)
    #: Fold plans of the templates seen by :meth:`add_batch`, keyed by
    #: ``id(template)``.
    _plans: dict = field(default_factory=dict, repr=False, compare=False)

    def add(self, trace: ShotTrace, shots: int = 1) -> None:
        """Fold ``shots`` identical shots of ``trace`` into the
        aggregate — the same as ``shots`` calls of ``add(trace)``."""
        self.shots += shots
        last = self._last
        last.clear()
        for record in trace.results:
            last[record.qubit] = record.reported_result
        for qubit, bit in last.items():
            self.measured[qubit] = self.measured.get(qubit, 0) + shots
            if bit:
                self.ones[qubit] = self.ones.get(qubit, 0) + shots
        if last:
            key = tuple(sorted(last.items()))
            self.joint[key] = self.joint.get(key, 0) + shots
        self.total_slips += len(trace.slips) * shots
        slip = trace.max_slip_ns()
        if slip > self.max_slip_ns:
            self.max_slip_ns = slip

    def add_batch(self, template: ShotTrace, reported: np.ndarray) -> None:
        """Fold a batch of shots sharing one frozen template.

        ``reported`` is a ``(shots, len(template.results))`` matrix of
        0/1 reported outcomes, one row per shot in result order (a
        Pauli-frame chunk).  The final-result columns are read once;
        the joint histogram comes from ``np.unique`` over the final
        columns packed into machine words.  Equal to :meth:`add` over
        the spliced rows.
        """
        shots = len(reported)
        if not shots:
            return
        plan = self._plans.get(id(template))
        if plan is None:
            final = {record.qubit: index
                     for index, record in enumerate(template.results)}
            qubits = tuple(sorted(final))
            plan = _FoldPlan(template, qubits,
                             [final[qubit] for qubit in qubits],
                             len(template.slips), template.max_slip_ns())
            self._plans[id(template)] = plan
        _, qubits, columns, slips, max_slip_ns = plan
        self.shots += shots
        self.total_slips += slips * shots
        if max_slip_ns > self.max_slip_ns:
            self.max_slip_ns = max_slip_ns
        if qubits:
            packed = np.packbits(reported[:, columns], axis=1,
                                 bitorder="little")
            words = np.zeros((shots, -(-packed.shape[1] // 8) * 8),
                             dtype=np.uint8)
            words[:, :packed.shape[1]] = packed
            words = words.view(np.uint64)
            if words.shape[1] == 1:
                codes, counts = np.unique(words[:, 0], return_counts=True)
                codes = codes.reshape(-1, 1)
            else:
                codes, counts = np.unique(words, axis=0,
                                          return_counts=True)
            rows = np.unpackbits(codes.view(np.uint8), axis=1,
                                 count=len(qubits), bitorder="little")
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

    def ground_fraction(self, qubit: int) -> float:
        """Fraction of shots whose last result on ``qubit`` was 0."""
        return 1.0 - self.excited_fraction(qubit)

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
