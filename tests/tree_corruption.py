"""Deliberate corruption of a kept replay tree, the test device for the
self-verifying audit (importable by bare name: the top-level
``conftest.py`` puts this directory on ``sys.path``).

A real replay bug would leave a cached terminal template that no
longer matches what the interpreter derives on its outcome path; these
helpers plant exactly that, so tests can prove the audit detects it,
drops the tree and re-serves the chunk on the interpreter.
"""

from repro.uarch import ShotTrace


def kept_terminals(tree):
    """The tree's nodes that carry a frozen trace template."""
    terminals = []
    stack = [] if tree._root is None else [tree._root]
    while stack:
        node = stack.pop()
        if node.template is not None:
            terminals.append(node)
        stack.extend(node.children.values())
    return terminals


def corrupt_template(node, rng) -> str:
    """Replace one terminal node's frozen trace by a tampered copy (a
    trigger time, drawn from ``rng``, shifted by 1 ns, or the
    classical time for trigger-free traces).  Returns a description of
    the tampering."""
    template = node.template
    node.plan = None
    if template.triggers:
        index = int(rng.integers(len(template.triggers)))
        record = template.triggers[index]
        triggers = list(template.triggers)
        triggers[index] = record._replace(
            trigger_ns=record.trigger_ns + 1.0,
            output_ns=record.output_ns + 1.0)
        node.template = ShotTrace(
            triggers=triggers,
            results=template.results,
            slips=template.slips,
            instructions_executed=template.instructions_executed,
            classical_time_ns=template.classical_time_ns,
            stop_reached=template.stop_reached)
        return (f"trigger {index} ({record.name}) of a cached "
                f"template shifted by 1 ns")
    node.template = ShotTrace(
        triggers=template.triggers,
        results=template.results,
        slips=template.slips,
        instructions_executed=template.instructions_executed,
        classical_time_ns=template.classical_time_ns + 1.0,
        stop_reached=template.stop_reached)
    return "classical time of a cached template shifted by 1 ns"


def corrupt_random_template(tree, rng) -> str | None:
    """Corrupt one terminal template of ``tree``, drawn from ``rng``
    (:func:`corrupt_template`).  Returns the tampering's description,
    or None when the tree has no terminal template yet."""
    terminals = kept_terminals(tree)
    if not terminals:
        return None
    node = terminals[int(rng.integers(len(terminals)))]
    return corrupt_template(node, rng)
