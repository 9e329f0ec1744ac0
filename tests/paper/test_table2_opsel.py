"""Table 2: micro-operation selection-signal resolution.

Checks the OpSel truth table on the Fig. 6 topology, including the
paper's worked example for qubit 0 / edges 0, 1, 8, 9.
"""

from repro.core import seven_qubit_instantiation
from repro.uarch import OpSel, QuantumPipeline


def test_table2_selection_signals():
    pipeline = QuantumPipeline(seven_qubit_instantiation())
    results = []
    # Every single-edge mask plus every disjoint two-edge pair.
    for edge in range(16):
        results.append(pipeline.resolve_pair_mask(1 << edge))
    results.append(pipeline.resolve_single_mask(0b1111111))
    # The paper's worked example: OpSel_0 from edges 0/9 (target) and
    # 1/8 (source).
    assert results[0][0] is OpSel.TGT
    assert results[9][0] is OpSel.TGT
    assert results[1][0] is OpSel.SRC
    assert results[8][0] is OpSel.SRC
    # Full single-qubit mask selects BOTH ('11') everywhere.
    assert all(signal is OpSel.BOTH for signal in results[-1].values())
