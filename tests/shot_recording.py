"""One machine shot with the plant's recording open, for tests that
inspect what a shot asked of the plant (importable by bare name: the
top-level ``conftest.py`` puts this directory on ``sys.path``)."""


def recorded_shot(machine):
    """Run one interpreter shot of ``machine`` with its plant's
    recording open; returns ``(trace, calls)``, the shot's trace and
    the :class:`~repro.quantum.plant.AppliedOperation` calls it made,
    in call order.  The recording is closed again on every path."""
    plant = machine.plant
    calls = plant.recording = []
    try:
        trace = machine.run_shot()
    finally:
        plant.recording = None
    return trace, calls
