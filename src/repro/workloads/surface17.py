"""The distance-3 member of :mod:`repro.workloads.rotated_surface`."""

from __future__ import annotations

from repro.compiler.ir import Circuit
from repro.workloads.rotated_surface import rotated_surface_circuit


def surface17_circuit(**kwargs) -> Circuit:
    # Kept because perfbench/workloads.py imports it by this name.
    return rotated_surface_circuit(3, **kwargs)
