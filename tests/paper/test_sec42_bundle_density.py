"""Section 4.2 in-text table: effective quantum operations per bundle
for Config 9 at w = 2, 3, 4.

Paper values: RB 1.795 / 2.296 / 3.144, IM 1.485 / 1.622 / 1.623,
SR 1.118 / 1.147 / 1.147 (``PAPER_CLAIMS`` in
``repro.experiments.dse``).  The reproduction's RB runs denser (our
seven per-qubit Clifford streams stay cycle-aligned), so the assertions
check the orderings the paper derives from these numbers, not the
absolute values:

* density grows with parallelism: RB > IM > SR at every width;
* SR's density is nearly flat in w ("with the existence of SOMQ,
  w > 2 is not highly required for many quantum applications");
* RB (extreme parallelism) keeps gaining from larger w.
"""

from repro.experiments.dse import build_benchmarks, config9_effective_ops


def test_effective_ops_per_bundle():
    eff = config9_effective_ops(build_benchmarks(rb_cliffords=1024))
    # Orderings.
    for width in (2, 3, 4):
        assert eff["RB"][width] > eff["IM"][width] > eff["SR"][width]
    assert eff["RB"][4] > eff["RB"][3] > eff["RB"][2]
    # SR flat in w (within 15 %): w>2 not required for sequential code.
    assert eff["SR"][4] / eff["SR"][2] < 1.15
