"""The ten DSE configurations of Section 4.2 (Fig. 7).

========  ======  =====  =====
Config    timing  wPI    SOMQ
========  ======  =====  =====
1         ts1     —      no
2         ts2     —      no
3         ts3     1      no
4         ts3     2      no
5         ts3     3      no
6         ts3     4      no
7         ts3     1      yes
8         ts3     2      yes
9         ts3     3      yes
10        ts3     4      yes
========  ======  =====  =====

Config 1 with w = 1 is the baseline (the QuMIS coding style); the
paper's chosen instantiation is Config 9 with w = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.codegen import CodegenOptions, count_instructions
from repro.compiler.scheduler import Schedule
from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class DSEConfig:
    """One architecture configuration of the design-space exploration."""

    number: int
    timing: str
    pi_width: int | None
    somq: bool

    def options(self, vliw_width: int) -> CodegenOptions:
        """Codegen options for this configuration at a VLIW width."""
        return CodegenOptions(timing=self.timing,
                              pi_width=self.pi_width or 3,
                              somq=self.somq, vliw_width=vliw_width)

    def valid_widths(self, max_width: int = 4) -> list[int]:
        """VLIW widths this configuration supports (ts2 needs w >= 2)."""
        minimum = 2 if self.timing == "ts2" else 1
        return list(range(minimum, max_width + 1))

    def label(self) -> str:
        """Human-readable form used in report output."""
        parts = [self.timing]
        if self.timing == "ts3":
            parts.append(f"wPI={self.pi_width}")
        parts.append("SOMQ" if self.somq else "no SOMQ")
        return f"Config {self.number} ({', '.join(parts)})"


DSE_CONFIGS: dict[int, DSEConfig] = {
    1: DSEConfig(1, "ts1", None, False),
    2: DSEConfig(2, "ts2", None, False),
    3: DSEConfig(3, "ts3", 1, False),
    4: DSEConfig(4, "ts3", 2, False),
    5: DSEConfig(5, "ts3", 3, False),
    6: DSEConfig(6, "ts3", 4, False),
    7: DSEConfig(7, "ts3", 1, True),
    8: DSEConfig(8, "ts3", 2, True),
    9: DSEConfig(9, "ts3", 3, True),
    10: DSEConfig(10, "ts3", 4, True),
}

#: The configuration the paper instantiates (Section 4.2).
CHOSEN_CONFIG = DSE_CONFIGS[9]
CHOSEN_WIDTH = 2


def get_config(number: int) -> DSEConfig:
    """Look up a DSE configuration by its paper number."""
    if number not in DSE_CONFIGS:
        raise ConfigurationError(
            f"config {number} undefined; valid: 1..10")
    return DSE_CONFIGS[number]


def count_for_config(schedule: Schedule, number: int,
                     vliw_width: int) -> int:
    """Instruction count of a schedule under config ``number``."""
    config = get_config(number)
    if vliw_width not in config.valid_widths():
        raise ConfigurationError(
            f"config {number} does not support w={vliw_width}")
    return count_instructions(schedule, config.options(vliw_width))


def sweep(schedule: Schedule, max_width: int = 4
          ) -> dict[tuple[int, int], int]:
    """Full Fig. 7 sweep: {(config, width): instruction count}."""
    results: dict[tuple[int, int], int] = {}
    for number, config in DSE_CONFIGS.items():
        for width in config.valid_widths(max_width):
            results[(number, width)] = count_instructions(
                schedule, config.options(width))
    return results


def effective_ops_per_bundle(schedule: Schedule, number: int,
                             vliw_width: int) -> float:
    """Average quantum operations per bundle instruction word.

    The paper reports this for Config 9: e.g. 1.795/2.296/3.144 for RB
    at w = 2/3/4.  Only bundle words count — explicit QWAITs are
    excluded, matching "the number of effective quantum operations in
    each quantum bundle".
    """
    from repro.compiler.codegen import count_point_words, form_slots
    import math
    config = get_config(number)
    options = config.options(vliw_width)
    bundle_words = 0
    operations = 0
    previous_cycle = 0
    for cycle, point_ops in schedule.by_cycle():
        gap = cycle - previous_cycle
        previous_cycle = cycle
        slots = form_slots(point_ops, somq=options.somq)
        total_words = count_point_words(gap, len(slots), options)
        if options.timing == "ts1" or (options.timing == "ts3"
                                       and gap > options.max_pi):
            bundle_words += total_words - 1
        else:
            bundle_words += total_words
        operations += len(point_ops)
    if bundle_words == 0:
        return 0.0
    return operations / bundle_words
