"""uarch test-session hooks.

Prints the differential-fuzz engine-selection mix in the terminal
summary (it survives ``-q`` output capture), so the nightly 500-seed
CI job's log shows at a glance whether programs that should replay
quietly regressed onto the interpreter.  Cases with a mock plan count
in their own "interpreter (mock results)" bucket, apart from the
static blockers.
"""

import sys


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Look the fuzz module up however pytest imported it (rootdir
    # top-level name or namespace-package path) — importing it here
    # would create a second instance with an empty counter.
    fuzz_module = None
    for name, module in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_differential_fuzz":
            if getattr(module, "ENGINE_MIX", None):
                fuzz_module = module
                break
    if fuzz_module is None:
        return
    mix = fuzz_module.ENGINE_MIX
    total = sum(mix.values())
    parts = ", ".join(f"{name}: {count}"
                      for name, count in sorted(mix.items()))
    terminalreporter.write_line(
        f"differential-fuzz engine mix over {total} cases — {parts}")
    backends = getattr(fuzz_module, "BACKEND_MIX", None)
    if backends:
        parts = ", ".join(f"{name}: {count}"
                          for name, count in sorted(backends.items()))
        terminalreporter.write_line(
            f"differential-fuzz plant-backend mix — {parts}")
    chaos = getattr(fuzz_module, "CHAOS_MIX", None)
    if chaos:
        total = sum(chaos.values())
        parts = ", ".join(f"{name}: {count}"
                          for name, count in sorted(chaos.items()))
        terminalreporter.write_line(
            f"fault-injection chaos mix over {total} cases — {parts}")
    frames = getattr(fuzz_module, "FRAME_MIX", None)
    if frames:
        total = sum(frames.values())
        parts = ", ".join(f"{name}: {count}"
                          for name, count in sorted(frames.items()))
        terminalreporter.write_line(
            f"pauli-frame fuzz mix over {total} cases — {parts}")
