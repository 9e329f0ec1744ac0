"""Compiler backend: circuit IR, scheduler, eQASM codegen, QuMIS baseline."""

from repro.compiler.codegen import (
    CodegenOptions,
    EQASMCodeGenerator,
    count_instructions,
    count_point_words,
    form_slots,
)
from repro.compiler.configs import (
    CHOSEN_CONFIG,
    CHOSEN_WIDTH,
    DSE_CONFIGS,
    DSEConfig,
    count_for_config,
    effective_ops_per_bundle,
    get_config,
    sweep,
)
from repro.compiler.ir import Circuit, CircuitOp
from repro.compiler.quimis import (
    QuMISGenerator,
    QuMISInstruction,
    required_issue_rate,
)
from repro.compiler.scheduler import (
    Schedule,
    ScheduledOp,
    schedule_asap,
    schedule_with_interval,
)

__all__ = [
    "CHOSEN_CONFIG",
    "CHOSEN_WIDTH",
    "Circuit",
    "CircuitOp",
    "CodegenOptions",
    "DSEConfig",
    "DSE_CONFIGS",
    "EQASMCodeGenerator",
    "QuMISGenerator",
    "QuMISInstruction",
    "Schedule",
    "ScheduledOp",
    "count_for_config",
    "count_instructions",
    "count_point_words",
    "effective_ops_per_bundle",
    "form_slots",
    "get_config",
    "required_issue_rate",
    "schedule_asap",
    "schedule_with_interval",
    "sweep",
]
