"""Exception hierarchy for the eQASM reproduction.

Every error raised by the library derives from :class:`EQASMError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish assembly-time, encoding-time, and run-time
faults.
"""

from __future__ import annotations


class EQASMError(Exception):
    """Base class for all errors raised by this library."""


class ParseError(EQASMError):
    """Raised when assembly text cannot be parsed.

    Carries the offending line number (1-based) and the raw line so error
    messages can point at the source.
    """

    def __init__(self, message: str, line_number: int | None = None,
                 line: str | None = None):
        location = f" (line {line_number}: {line!r})" if line_number else ""
        super().__init__(f"{message}{location}")
        self.line_number = line_number
        self.line = line


class AssemblyError(EQASMError):
    """Raised when a parsed program fails semantic validation.

    Examples: an undefined label, a target register address out of range,
    or a two-qubit target register selecting two edges that share a qubit
    (invalid per Section 4.3 of the paper).
    """


class EncodingError(EQASMError):
    """Raised when an instruction cannot be encoded into the binary format
    of the current instantiation (e.g. an immediate exceeding its field)."""


class DecodingError(EQASMError):
    """Raised when a 32-bit word does not decode to a valid instruction."""


class ConfigurationError(EQASMError):
    """Raised for inconsistent compile-time configuration, e.g. a quantum
    operation name bound to two different opcodes, or a microcode entry
    referencing an unknown micro-operation."""


class SpecError(ConfigurationError):
    """Raised when a declarative encoding spec is malformed or fails
    validation (overlapping fields, opcode collisions, a format whose
    fields do not cover its instruction class — see
    :func:`repro.core.isaspec.validate_spec`)."""


class RuntimeFault(EQASMError):
    """Base class for faults detected while the microarchitecture runs."""


class OperationConflictError(RuntimeFault):
    """Two VLIW lanes (or two bundle instructions at the same timing point)
    emitted a micro-operation for the same qubit — the quantum processor
    stops (Section 4.3)."""


class TimingViolationError(RuntimeFault):
    """The timing controller reached a timing point before the reserve
    phase produced it: the quantum-operation issue rate Rreq exceeded
    Rallowed (Section 1.2)."""


class InvalidAddressError(RuntimeFault):
    """A register / qubit / memory address outside the architectural
    range was accessed at run time."""


class GuardFault(RuntimeFault):
    """Base for runtime guards: faults detected (rather than suffered)
    by the hardening layer.

    Every guard fault carries a machine-readable ``context`` mapping so
    a serving layer can log, aggregate, and act on failures without
    parsing message strings.
    """

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context

    def __getattr__(self, name: str):
        # Convenience: expose context keys as attributes
        # (``error.requested_bytes`` instead of
        # ``error.context["requested_bytes"]``).
        try:
            return self.__dict__["context"][name]
        except KeyError:
            raise AttributeError(name) from None


class ResourceError(GuardFault):
    """Admission control refused a request that would exhaust a machine
    resource (e.g. a dense density matrix past the memory budget).

    Context: ``requested_bytes``, ``limit_bytes``, ``num_qubits``,
    ``suggestion``.
    """


class ShotTimeoutError(GuardFault):
    """The per-shot watchdog stopped a runaway shot (instruction-count
    limit, classical-time budget, or a measurement result that never
    arrives).

    Context: ``reason`` plus reason-specific fields such as
    ``instructions_executed``, ``limit``, ``classical_time_ns``,
    ``budget_ns``, or ``qubit``.
    """


class JobDeadlineError(GuardFault):
    """A serving-layer job (a sweep, or one of its shards) exceeded its
    deadline — the work was stopped and accounted for rather than left
    running unbounded.

    Context: ``deadline_s``, ``elapsed_s``, ``completed_points``,
    ``total_points``.
    """


class AdmissionRejectedError(GuardFault):
    """A bounded serving queue refused new work at submission time —
    backpressure instead of unbounded memory growth.

    Context: ``queue``, ``depth``, ``occupancy``.
    """


class WorkerPoolError(GuardFault):
    """The worker-pool supervisor gave up on a sweep: the restart
    budget was exhausted by repeated crashes or hangs, so continuing
    would retry a systematically failing shard forever.

    Context: ``restarts``, ``budget``, ``last_event``.
    """


class InvalidRequestError(EQASMError, ValueError):
    """A caller-supplied argument is outside the valid domain.

    Dual-inherits :class:`ValueError` so existing callers catching the
    bare built-in keep working while new callers can catch the library
    root.
    """


class ExperimentIntegrityError(GuardFault, RuntimeError):
    """Experiment post-conditions were violated (e.g. a shot produced
    fewer measurement records than the circuit requires).

    Dual-inherits :class:`RuntimeError` for backward compatibility with
    callers catching the bare built-in; carries the guard-fault
    ``context`` mapping like every hardening-layer error.
    """


class PlantError(EQASMError):
    """Raised by the quantum plant for physically impossible requests,
    e.g. a two-qubit unitary applied to a single qubit."""


class TopologyError(EQASMError):
    """Raised for inconsistent quantum-chip topology definitions."""
