"""QuMA v2 microarchitecture simulator (Fig. 9 / Fig. 10)."""

from repro.uarch.config import UarchConfig, slip_config
from repro.uarch.dataflow import DataMemoryReport, analyze_data_memory
from repro.uarch.devices import (
    DeviceEventDistributor,
    DeviceId,
    DeviceOperation,
    EventQueue,
    PulseLibrary,
    QubitMicroOp,
)
from repro.uarch.faults import (
    FAULT_SITES,
    FaultPlan,
    FaultRecord,
    FaultSpec,
)
from repro.uarch.machine import QuMAv2
from repro.uarch.measurement import MeasurementUnit, PendingResult
from repro.uarch.quantum_pipeline import OpSel, QuantumPipeline, ReservedPoint
from repro.uarch.replay import (
    EngineStats,
    ReplayAudit,
    MeasurementSample,
    ReplayError,
    TimelineTree,
    replay_unsupported_reasons,
)
from repro.uarch.trace import (
    ResultRecord,
    ShotCounts,
    ShotTrace,
    SlipRecord,
    TriggerRecord,
)

__all__ = [
    "DataMemoryReport",
    "DeviceEventDistributor",
    "DeviceId",
    "DeviceOperation",
    "EngineStats",
    "EventQueue",
    "FAULT_SITES",
    "FaultPlan",
    "FaultRecord",
    "FaultSpec",
    "MeasurementSample",
    "MeasurementUnit",
    "OpSel",
    "PendingResult",
    "PulseLibrary",
    "QuMAv2",
    "QuantumPipeline",
    "QubitMicroOp",
    "ReplayAudit",
    "ReplayError",
    "ReservedPoint",
    "ResultRecord",
    "ShotCounts",
    "ShotTrace",
    "SlipRecord",
    "TimelineTree",
    "TriggerRecord",
    "UarchConfig",
    "analyze_data_memory",
    "replay_unsupported_reasons",
    "slip_config",
]
