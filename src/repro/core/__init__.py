"""eQASM ISA core: operations, instructions, parser, assembler, timeline."""

from repro.core.assembler import AssembledProgram, Assembler, Disassembler
from repro.core.errors import (
    AssemblyError,
    ConfigurationError,
    DecodingError,
    EQASMError,
    EncodingError,
    ExperimentIntegrityError,
    GuardFault,
    InvalidAddressError,
    InvalidRequestError,
    OperationConflictError,
    ParseError,
    PlantError,
    ResourceError,
    RuntimeFault,
    ShotTimeoutError,
    TimingViolationError,
    TopologyError,
)
from repro.core.isa import (
    EQASMInstantiation,
    rotated_surface_instantiation,
    seven_qubit_instantiation,
    two_qubit_instantiation,
)
from repro.core.microcode import (
    DeviceKind,
    MicroOperation,
    MicroOpRole,
    MicrocodeUnit,
)
from repro.core.operations import (
    ExecutionFlag,
    OperationKind,
    OperationSet,
    QuantumOperation,
    add_rabi_amplitude_operations,
    default_operation_set,
)
from repro.core.program import Program
from repro.core.registers import ComparisonFlag
from repro.core.retarget import extract_semantics, retarget_program
from repro.core.timeline import (
    TimedOperation,
    Timeline,
    TimelineBuilder,
    TimingPoint,
    build_timeline,
)

__all__ = [
    "AssembledProgram",
    "Assembler",
    "AssemblyError",
    "ComparisonFlag",
    "ConfigurationError",
    "DecodingError",
    "DeviceKind",
    "Disassembler",
    "EQASMError",
    "EQASMInstantiation",
    "EncodingError",
    "ExperimentIntegrityError",
    "GuardFault",
    "ExecutionFlag",
    "InvalidAddressError",
    "InvalidRequestError",
    "MicroOperation",
    "MicroOpRole",
    "MicrocodeUnit",
    "OperationConflictError",
    "OperationKind",
    "OperationSet",
    "ParseError",
    "PlantError",
    "ResourceError",
    "Program",
    "QuantumOperation",
    "RuntimeFault",
    "ShotTimeoutError",
    "TimedOperation",
    "Timeline",
    "TimelineBuilder",
    "TimingPoint",
    "TimingViolationError",
    "TopologyError",
    "add_rabi_amplitude_operations",
    "extract_semantics",
    "retarget_program",
    "build_timeline",
    "default_operation_set",
    "rotated_surface_instantiation",
    "seven_qubit_instantiation",
    "two_qubit_instantiation",
]
