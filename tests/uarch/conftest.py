"""uarch test-session hooks.

Prints the differential-fuzz mixes in the terminal summary (it
survives ``-q`` output capture), so the nightly 500-seed CI job's log
shows at a glance whether programs that should replay quietly
regressed onto the interpreter.  Cases with a mock plan count in their
own "interpreter (mock results)" bucket, apart from the static
blockers.  Each of the engine, plant-backend, corrupted-tree audit and
Pauli-frame mixes prints on its own whenever it is non-empty, so a run
that selects one fuzz test still shows that test's mix.
"""

import sys

#: (the fuzz module's mix, its summary line's label, whether the label
#: carries the case total).
_MIXES = (
    ("ENGINE_MIX", "differential-fuzz engine mix", True),
    ("BACKEND_MIX", "differential-fuzz plant-backend mix", False),
    ("AUDIT_MIX", "corrupted-tree audit mix", True),
    ("FRAME_MIX", "pauli-frame fuzz mix", True),
)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Look the fuzz module up however pytest imported it (rootdir
    # top-level name or namespace-package path) — importing it here
    # would create a second instance with empty counters.
    fuzz_module = None
    for name, module in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_differential_fuzz" and any(
                getattr(module, mix, None) for mix, _, _ in _MIXES):
            fuzz_module = module
            break
    if fuzz_module is None:
        return
    for mix_name, label, with_total in _MIXES:
        mix = getattr(fuzz_module, mix_name, None)
        if not mix:
            continue
        if with_total:
            label = f"{label} over {sum(mix.values())} cases"
        parts = ", ".join(f"{name}: {count}"
                          for name, count in sorted(mix.items()))
        terminalreporter.write_line(f"{label} — {parts}")
