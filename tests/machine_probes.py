"""Read-only probes of a machine's internal state for tests that check
what other code did to it (importable by bare name: the top-level
``conftest.py`` puts this directory on ``sys.path``)."""


def instruction_memory(machine):
    """The decoded instruction memory of a :class:`~repro.uarch.QuMAv2`,
    as a fresh list."""
    return list(machine._instructions)


def current_cycle(pipeline):
    """Cycle of the last timing point a
    :class:`~repro.uarch.QuantumPipeline` or a
    :class:`~repro.core.timeline.TimelineBuilder` generated."""
    return pipeline._current_cycle


def remaining_mock_results(unit, qubit):
    """How many fabricated results are still queued for ``qubit`` on a
    :class:`~repro.uarch.measurement.MeasurementUnit`."""
    return len(unit._mock_results.get(qubit, ()))


def has_mock_results(unit, qubit):
    """Whether fabricated results remain queued for ``qubit``."""
    return remaining_mock_results(unit, qubit) > 0
