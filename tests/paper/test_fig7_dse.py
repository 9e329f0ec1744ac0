"""Fig. 7: instruction counts for configs 1-10 x VLIW widths.

Regenerates the full design-space exploration over the three
benchmarks (RB, IM, SR) and checks the paper's qualitative claims:

* w 1 -> 4 reduces RB instructions by up to 62 %;
* Config 2 (wait-in-slot) helps the sequential SR benchmark most;
* most waits fit a 3-bit PI (Config 5 ~ Config 6);
* SOMQ gives RB up to ~42 %, IM ~24 % (w = 1), SR only a few %.

``examples/design_space_exploration.py`` prints the full table.
"""

import pytest

from repro.experiments.dse import PAPER_CLAIMS, build_benchmarks, run_dse

#: Cliffords per qubit for the RB workload.  The paper uses 4096; the
#: test uses 1024 (the counts scale linearly, the reductions are
#: size-independent beyond ~100).
RB_CLIFFORDS = 1024


@pytest.fixture(scope="module")
def table():
    return run_dse(build_benchmarks(rb_cliffords=RB_CLIFFORDS))


def test_fig7_instruction_counts(table):
    # Shape assertions (who wins, roughly by how much).
    assert table.reduction_vs_baseline("RB", 1, 4) == pytest.approx(
        PAPER_CLAIMS["rb_w4_reduction_vs_baseline"], abs=0.05)
    assert table.reduction_between("RB", 5, 2, 9, 2) == pytest.approx(
        0.42, abs=0.06)
    assert table.reduction_between("IM", 5, 1, 9, 1) == pytest.approx(
        0.24, abs=0.07)
    assert table.reduction_between("SR", 5, 1, 9, 1) < 0.12
    assert table.reduction_between("SR", 1, 2, 2, 2) > \
        table.reduction_between("RB", 1, 2, 2, 2)


def test_fig7_pi_width_saturates_at_3_bits(table):
    """Config 5 (wPI=3) captures nearly all waits: Config 6 adds little."""
    for name in ("RB", "IM", "SR"):
        c5 = table.counts[name][(5, 2)]
        c6 = table.counts[name][(6, 2)]
        gain = 1.0 - c6 / c5
        assert gain < 0.05
