"""Static dataflow analysis of data-memory traffic in a decoded binary.

The branch-resolved replay engine requires shots to be independent:
nothing one shot observes may come from an earlier shot (or from the
host) through state the outcome tree cannot key on.  Data memory is the
only architectural state that survives :meth:`QuMAv2.reset_shot` (it is
the host communication channel), so ``LD``/``ST`` traffic used to be a
hard replay blocker.  Two observations remove almost all of it:

* **Stores never block by themselves.**  A store only matters if a
  load can *observe* it across shots; the blocker set is therefore a
  property of the loads.
* **A load killed by a same-shot store is replay-safe.**  If every
  path from program entry to a ``LD`` passes through a ``ST`` to the
  same address first, the load can only ever observe data written
  *this* shot — and every same-shot value is a deterministic function
  of the measurement-outcome history, which is exactly what the replay
  tree keys on.  This is the classic compiler *kill*: the dominating
  store kills the cross-shot (and host) dependence.  Spill/reload
  scratch traffic — compute, deposit, reload — is the common shape.

The pass is one path-sensitive abstract execution of the binary.
Registers start at zero each shot, ``LDI``/``LDUI`` introduce
constants, and the ALU folds them.  Every fold goes through the
instruction's own definition — ``evaluate`` of the ALU instructions,
``address`` of ``LD``/``ST``, and
:meth:`~repro.core.registers.ComparisonFlag.holds` on the last
``CMP``'s operands — the same code the interpreter executes, so a
branch whose ``CMP`` operands are statically known follows exactly
the edge the interpreter takes.  A branch whose condition depends on
run-time state (``FMR``/``FBR``/``LD`` results) explores both edges
with the same state.  The result is an *exploded graph* over which two
analyses run:

- per-occurrence **addresses** of every ``LD``/``ST``;
- **kill-analysis**: a forward must-available-store pass (intersection
  at joins) proving which load occurrences are dominated by a
  same-shot store to the same address.

The exploration has two state keyings:

* **Exploration keying** (the precise tier): states are memoised on
  ``(pc, registers, flags)``.  Backward branches with resolvable
  conditions (the common ``LDI``/``ADD``/``SUB``/``CMP``/``BR`` counter
  idiom) are thereby *unrolled*: loop-carried addresses stay
  constants, iteration by iteration.  The exploration terminates
  whenever the reachable abstract-state space is finite; a global
  state budget bounds pathological cases.

* **Join keying** (the fallback when that budget is exceeded — a loop
  whose trip count is unbounded or too large to unroll): states are
  keyed on the pc alone, and a revisit joins the new state into the
  node's (a register or the flags survive only when every incoming
  path agrees).  Loop-carried values go unknown at the loop head, so
  their addresses degrade to unknown, while values every path agrees
  on still resolve branches and fold addresses.

Remaining hard blockers — reported per pc in ``live_reasons`` — are
only the loads that can genuinely observe another shot's (or the
host's) memory: an un-killed load aliasing a program store, or
unknown addresses on either side of a potential alias.  A load that
aliases *no* store still reads host memory, but the value is constant
within a run, so it replays; such binaries merely never keep their
tree across ``run()`` calls (:attr:`DataMemoryReport.
cross_run_cacheable`) because the host may rewrite the address
between runs.

The replay relaxation this buys is documented on
:class:`DataMemoryReport`: replayed shots skip the stores, so after a
replay run the data memory holds the values of the last *interpreter*
(tree-growth) shot rather than the last shot overall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.errors import InvalidRequestError
from repro.core.instructions import (
    ArithOp,
    Br,
    Cmp,
    Fbr,
    Fmr,
    Instruction,
    Ld,
    Ldi,
    Ldui,
    LogicalOp,
    Not,
    St,
    Stop,
)
from repro.core.registers import ComparisonFlag

#: Lattice top: the register may hold different values on different
#: paths (or depends on run-time state such as memory or measurements).
_UNKNOWN = object()

#: Exploded-graph state budget of the exploration keying.  Counted
#: loops unroll one state per iteration, so this bounds the unrollable
#: trip count x loop size; beyond it the pass reruns under the join
#: keying (at most one state per pc).
EXPLORATION_STATE_BUDGET = 65_536


@dataclass(frozen=True)
class DataMemoryReport:
    """What the pass proved about a program's ``LD``/``ST`` traffic.

    ``live_reasons`` is empty exactly when the program is replay-safe:
    no load can observe memory from outside the current shot through a
    program store.  When replay runs such a program, cached shots never
    execute the stores, so the data memory a host would read afterwards
    reflects the last tree-growth (interpreter) shot, not the last shot
    overall — acceptable because every in-program load either is killed
    by a same-shot store or aliases no store at all.
    """

    #: Reachable ST instructions.
    store_count: int
    #: Reachable LD instructions.
    load_count: int
    #: Stores no un-killed load can observe (== store_count when safe).
    dead_store_count: int
    #: Loads proven killed by a dominating same-shot store on every
    #: path (they can never observe another shot's or the host's
    #: memory).
    killed_load_count: int
    #: Every reason a load may observe cross-shot state; empty when
    #: the program is replay-safe.
    live_reasons: tuple[str, ...]
    #: Backward branches whose condition resolved on every explored
    #: visit — counted loops the exploration fully unrolled.
    bounded_loop_count: int = 0
    #: Backward branches whose trip count the analysis could not pin
    #: down: the condition depends on run-time state (a genuinely
    #: unbounded loop, or in "joined" mode a loop whose counter went
    #: unknown at the join) or the branch never exits (its exploded
    #: node lies on a cycle).
    unbounded_loop_pcs: tuple[int, ...] = ()
    #: Which state keying produced the verdicts: "exploration"
    #: (precise, loops unrolled) or "joined" (pc-keyed budget
    #: fallback).
    analysis_mode: str = "exploration"

    @property
    def replay_safe(self) -> bool:
        """True when no load can observe state from outside the shot
        through a program store."""
        return not self.live_reasons

    @property
    def cross_run_cacheable(self) -> bool:
        """Whether a saturated replay tree may outlive the ``run()``.

        Killed loads only ever read same-shot data, so a host write to
        data memory between runs cannot change what they observe; a
        binary whose every load is killed (or that has no loads) keys
        cleanly on (binary, noise, config).  Any other load reads host
        memory — state the cache key cannot see — and pins the tree to
        a single run.
        """
        return self.replay_safe and \
            self.killed_load_count == self.load_count


# ----------------------------------------------------------------------
# Abstract transfer functions
# ----------------------------------------------------------------------
#: The register-writing ALU instructions: ``sources`` and ``evaluate``.
_ALU = (Ldi, Ldui, Not, LogicalOp, ArithOp)


def _transfer(state: dict, instruction: Instruction) -> dict:
    """Abstract execution of one instruction (GPR effects only).

    Returns ``state`` itself when the instruction writes no register,
    so steady-state loop bodies do not churn dict copies.
    """
    if isinstance(instruction, _ALU):
        values = [state.get(register, 0)
                  for register in instruction.sources]
        value = _UNKNOWN if _UNKNOWN in values \
            else instruction.evaluate(*values)
    elif isinstance(instruction, (Ld, Fmr)):
        # Memory contents and measurement results are run-time state
        # this transfer does not model.
        value = _UNKNOWN
    else:
        return state
    out = dict(state)
    out[instruction.rd] = value
    return out


def _evaluate_condition(flags, condition: ComparisonFlag):
    """Outcome of ``BR``/``FBR`` ``condition`` under abstract ``flags``.

    ``flags`` is either the ``(rs_value, rt_value)`` operand pair of
    the dominating ``CMP`` (``(0, 0)`` before any CMP, the reset state
    of :class:`~repro.core.registers.ComparisonFlags`) or
    ``_UNKNOWN``.  Returns :meth:`ComparisonFlag.holds` of the pair,
    or ``_UNKNOWN`` when the operands are unknown — except for
    ``ALWAYS``/``NEVER``, which need no flags at all.
    """
    if condition is ComparisonFlag.ALWAYS:
        return True
    if condition is ComparisonFlag.NEVER:
        return False
    if flags is _UNKNOWN:
        return _UNKNOWN
    return condition.holds(*flags)


# ----------------------------------------------------------------------
# The exploration: one loop, two state keyings
# ----------------------------------------------------------------------
class _Exploded:
    """The exploded graph: the CFG unrolled along resolved branches.

    One node per distinct reachable ``(pc, registers, flags)`` state,
    or per reachable pc under the join keying; edges follow the
    abstract execution.  ``addresses[i]`` is the node's LD/ST effective
    address (None for other instructions), evaluated from its
    *incoming* state.
    """

    __slots__ = ("pcs", "succs", "addresses", "bounded_loop_pcs",
                 "unbounded_loop_pcs")

    def __init__(self):
        self.pcs: list[int] = []
        self.succs: list[list[int]] = []
        self.addresses: list[object] = []
        self.bounded_loop_pcs: set[int] = set()
        self.unbounded_loop_pcs: set[int] = set()


def _state_key(state: dict) -> tuple:
    """Canonical hashable form: zero-valued registers are dropped
    (missing reads as zero), unknown entries are kept distinct."""
    return tuple(sorted((register, value)
                 for register, value in state.items()
                 if value is _UNKNOWN or value != 0))


def _explore(instructions: list[Instruction],
             join: bool = False) -> _Exploded | None:
    """Build the exploded graph, or None when the budget is exceeded.

    The exploration keying memoises states on ``(pc, registers,
    flags)``.  Its budget is exceeded exactly when the reachable
    abstract-state space keeps growing — a loop whose condition never
    resolves while its register state keeps changing (a genuinely
    unbounded loop with a live counter) or a counted loop with a trip
    count too large to unroll.

    The join keying (``join=True``) keys states on the pc alone.  A
    revisit joins the incoming state into the node's: a register keeps
    its value only when every path agrees (missing reads as zero), the
    flags only when equal.  A node the join widened is queued again
    with its LD/ST address recomputed.  Every register and the flags
    can widen at most once, and there is at most one node per pc, so
    this keying always terminates within its budget.
    """
    length = len(instructions)
    graph = _Exploded()
    if not length:
        return graph
    budget = length if join else EXPLORATION_STATE_BUDGET
    ids: dict[object, int] = {}
    regs: list[dict] = []
    flag_states: list[object] = []

    def address_at(pc: int, state: dict):
        instruction = instructions[pc]
        if isinstance(instruction, (St, Ld)):
            base = state.get(instruction.rt, 0)
            return _UNKNOWN if base is _UNKNOWN else \
                instruction.address(base)
        return None

    def intern(pc: int, state: dict, flags) -> int | None:
        key = pc if join else (pc, _state_key(state), flags)
        node = ids.get(key)
        if node is None:
            if len(graph.pcs) >= budget:
                return None
            node = len(graph.pcs)
            ids[key] = node
            graph.pcs.append(pc)
            graph.succs.append([])
            graph.addresses.append(address_at(pc, state))
            regs.append(state)
            flag_states.append(flags)
            stack.append(node)
        elif join:
            joined = regs[node]
            for register in joined.keys() | state.keys():
                value = joined.get(register, 0)
                if value is not _UNKNOWN and \
                        value != state.get(register, 0):
                    if joined is regs[node]:
                        joined = dict(joined)
                    joined[register] = _UNKNOWN
            joined_flags = flag_states[node] \
                if flags == flag_states[node] else _UNKNOWN
            if joined is not regs[node] or \
                    joined_flags is not flag_states[node]:
                regs[node] = joined
                flag_states[node] = joined_flags
                graph.addresses[node] = address_at(pc, joined)
                stack.append(node)
        return node

    stack: list[int] = []
    if intern(0, {}, (0, 0)) is None:
        return None
    while stack:
        node = stack.pop()
        pc = graph.pcs[node]
        state = regs[node]
        flags = flag_states[node]
        instruction = instructions[pc]
        if isinstance(instruction, Stop):
            continue
        out_flags = flags
        if isinstance(instruction, Cmp):
            s = state.get(instruction.rs, 0)
            t = state.get(instruction.rt, 0)
            out_flags = _UNKNOWN if (s is _UNKNOWN or t is _UNKNOWN) \
                else (s, t)
            out_state = state
        elif isinstance(instruction, Fbr):
            verdict = _evaluate_condition(flags, instruction.condition)
            out_state = dict(state)
            out_state[instruction.rd] = _UNKNOWN \
                if verdict is _UNKNOWN else int(verdict)
        else:
            out_state = _transfer(state, instruction)
        if isinstance(instruction, Br):
            backward = instruction.target <= 0
            verdict = _evaluate_condition(flags, instruction.condition)
            if verdict is _UNKNOWN:
                next_pcs = [pc + 1, pc + instruction.target]
                if backward:
                    graph.unbounded_loop_pcs.add(pc)
            else:
                next_pcs = [pc + instruction.target if verdict else pc + 1]
                if backward:
                    graph.bounded_loop_pcs.add(pc)
        else:
            next_pcs = [pc + 1]
        successors = graph.succs[node]
        for successor_pc in next_pcs:
            if not 0 <= successor_pc < length:
                continue  # running off the program is an implicit stop
            successor = intern(successor_pc, out_state, out_flags)
            if successor is None:
                return None
            if successor not in successors:
                successors.append(successor)
    return graph

# ----------------------------------------------------------------------
# Graph analyses (over either keying's exploded graph)
# ----------------------------------------------------------------------
def _must_written(num_nodes: int, succs: list[list[int]],
                  store_address: list[object],
                  relevant: frozenset) -> list[frozenset]:
    """Forward must-available-store sets (kill-analysis core).

    ``IN[n]`` is the set of addresses *every* path from entry to node
    ``n`` has definitely stored to before reaching ``n``; joins are set
    intersections.  A store with an unknown address contributes nothing
    (it cannot be proven to write any particular address — but neither
    can it un-write one, so it is harmless).  A load at node ``n`` is
    killed exactly when its (known) address is in ``IN[n]``.

    ``relevant`` is the set of addresses any load actually queries:
    stores to other addresses are never looked up, so tracking them
    would only bloat the sets — a counted deposit loop storing to
    thousands of distinct addresses stays O(loads) per set instead of
    O(trip count).
    """
    incoming: list[frozenset | None] = [None] * num_nodes
    if num_nodes:
        incoming[0] = frozenset()
    worklist = [0] if num_nodes else []
    while worklist:
        node = worklist.pop()
        out = incoming[node]
        address = store_address[node]
        if address is not None and address in relevant:
            out = out | {address}
        for successor in succs[node]:
            current = incoming[successor]
            merged = out if current is None else current & out
            if current is None or merged != current:
                incoming[successor] = merged
                worklist.append(successor)
    return [entry if entry is not None else frozenset()
            for entry in incoming]


def _cycle_nodes(num_nodes: int, succs: list[list[int]]) -> set[int]:
    """Nodes lying *on* a cycle (not merely downstream of one).

    Iterative Tarjan SCC — a node is cyclic when its component has
    more than one member, or it carries a self-loop.  Used to decide
    whether a resolved backward branch genuinely terminates: a
    ``BR ALWAYS, loop`` resolves on every visit yet its exploded node
    sits on a cycle, while a counted loop downstream of someone
    else's cycle does not.
    """
    unvisited = -1
    index = [unvisited] * num_nodes
    lowlink = [0] * num_nodes
    on_stack = [False] * num_nodes
    stack: list[int] = []
    counter = 0
    cyclic: set[int] = set()
    for root in range(num_nodes):
        if index[root] != unvisited:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, cursor = work[-1]
            if cursor == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            descended = False
            successors = succs[node]
            for position in range(cursor, len(successors)):
                successor = successors[position]
                if index[successor] == unvisited:
                    work[-1] = (node, position + 1)
                    work.append((successor, 0))
                    descended = True
                    break
                if on_stack[successor]:
                    lowlink[node] = min(lowlink[node], index[successor])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in succs[node]:
                    cyclic.update(component)
    return cyclic


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
def _classify(stores: dict[int, set], load_count: int,
              unkilled: dict[int, set]) -> tuple[int, int, list[str]]:
    """Turn per-pc address summaries into verdicts.

    ``stores`` maps pc -> set of observed store addresses (containing
    ``_UNKNOWN`` when any occurrence failed to fold); ``unkilled``
    maps load pc -> the addresses of its occurrences *not* killed by a
    dominating same-shot store — killed occurrences are dropped
    entirely (e.g. a loop whose first iteration reads outside the
    shot judges only that first address).  Returns
    ``(dead_store_count, killed_load_count, reasons)``.
    """
    killed_count = load_count - len(unkilled)
    if not stores or not unkilled:
        # No stores: loads only ever read host memory (constant within
        # a run).  No un-killed loads: nothing can observe a store
        # across shots.  Either way every store is dead.
        return len(stores), killed_count, []

    reasons: list[str] = []
    unknown_store_pcs = sorted(pc for pc, addresses in stores.items()
                               if _UNKNOWN in addresses)
    unknown_load_pcs = sorted(pc for pc, addresses in unkilled.items()
                              if _UNKNOWN in addresses)
    known_store_addresses: dict[object, list[int]] = {}
    for pc, addresses in stores.items():
        for address in addresses:
            if address is not _UNKNOWN:
                known_store_addresses.setdefault(address, []).append(pc)
    if unknown_store_pcs:
        pcs = ", ".join(str(pc) for pc in unknown_store_pcs)
        reasons.append(
            f"ST at pc {pcs} writes data memory at a statically unknown "
            f"address — an un-killed LD may observe it across shots")
    if unknown_load_pcs:
        pcs = ", ".join(str(pc) for pc in unknown_load_pcs)
        reasons.append(
            f"LD at pc {pcs} reads data memory at a statically unknown "
            f"address with no same-shot store killing it — it may "
            f"observe a ST from an earlier shot")
    aliased: list[tuple[int, int, tuple[int, ...]]] = []
    for pc, addresses in sorted(unkilled.items()):
        for address in sorted(a for a in addresses if a is not _UNKNOWN):
            store_pcs = known_store_addresses.get(address)
            if store_pcs:
                aliased.append((pc, address, tuple(sorted(store_pcs))))
    for pc, address, store_pcs in aliased:
        pcs = ", ".join(str(p) for p in store_pcs)
        reasons.append(
            f"LD at pc {pc} reads data memory address {address:#x} that "
            f"ST at pc {pcs} writes — the stored value is live across "
            f"shots (no same-shot store kills the load first)")

    # A store is dead unless an un-killed load can alias it.
    unkilled_known = {address for addresses in unkilled.values()
                      for address in addresses if address is not _UNKNOWN}
    dead = 0
    for pc, addresses in stores.items():
        if _UNKNOWN in addresses:
            continue  # an unknown store may alias any un-killed load
        if unknown_load_pcs:
            continue
        if addresses.isdisjoint(unkilled_known):
            dead += 1
    return dead, killed_count, reasons


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def analyze_data_memory(
        instructions: Iterable[Instruction]) -> DataMemoryReport:
    """Prove which loads/stores are replay-safe (see module docstring).

    ``instructions`` is a resolved program, as the machine decodes it
    from a binary: a branch that still names a label has no target to
    follow and raises :class:`~repro.core.errors.InvalidRequestError`.
    """
    instructions = list(instructions)
    for pc, instruction in enumerate(instructions):
        if isinstance(instruction, Br) and \
                isinstance(instruction.target, str):
            raise InvalidRequestError(
                f"BR at pc {pc} names the unresolved label "
                f"{instruction.target!r}; analyse the assembled program")
    graph = _explore(instructions)
    if graph is not None:
        return _report(instructions, graph, "exploration")
    return _report(instructions, _explore(instructions, join=True),
                   "joined")


def _report(instructions: list[Instruction], graph: _Exploded,
            analysis_mode: str) -> DataMemoryReport:
    """Kill-analysis and verdicts over either keying's graph.  In
    "joined" mode any live reason gains one naming the unbounded
    backward branches that defeated the unroll."""
    num_nodes = len(graph.pcs)
    store_address = [None] * num_nodes
    stores: dict[int, set] = {}
    loads: dict[int, set] = {}
    load_nodes: dict[int, list[int]] = {}
    for node in range(num_nodes):
        pc = graph.pcs[node]
        instruction = instructions[pc]
        if isinstance(instruction, St):
            store_address[node] = graph.addresses[node]
            stores.setdefault(pc, set()).add(graph.addresses[node])
        elif isinstance(instruction, Ld):
            loads.setdefault(pc, set()).add(graph.addresses[node])
            load_nodes.setdefault(pc, []).append(node)

    relevant = frozenset(
        address for addresses in loads.values() for address in addresses
        if address is not _UNKNOWN)
    incoming = _must_written(num_nodes, graph.succs, store_address,
                             relevant)
    unkilled: dict[int, set] = {}
    for pc, nodes in load_nodes.items():
        surviving = {
            graph.addresses[node] for node in nodes
            if graph.addresses[node] is _UNKNOWN or
            graph.addresses[node] not in incoming[node]}
        if surviving:
            unkilled[pc] = surviving

    dead, killed_count, reasons = _classify(stores, len(loads), unkilled)

    # A backward branch is bounded only when every visit resolved its
    # condition *and* none of its exploded nodes lie on a cycle — a
    # "BR ALWAYS, loop" resolves every visit yet never exits, which
    # is as unbounded as a run-time trip count.  (A counted loop
    # merely *downstream* of someone else's cycle stays bounded.)
    on_cycle = {graph.pcs[node]
                for node in _cycle_nodes(num_nodes, graph.succs)
                if graph.pcs[node] in graph.bounded_loop_pcs}
    unbounded = sorted(graph.unbounded_loop_pcs | on_cycle)
    bounded = graph.bounded_loop_pcs.difference(unbounded)
    if analysis_mode == "joined" and reasons and unbounded:
        pcs = ", ".join(str(pc) for pc in unbounded)
        reasons.append(
            f"backward branch at pc {pcs} could not be unrolled within "
            f"the {EXPLORATION_STATE_BUDGET}-state budget (unbounded "
            f"loop or trip count too large) — loop-carried addresses "
            f"were analysed conservatively")
    return DataMemoryReport(
        store_count=len(stores), load_count=len(loads),
        dead_store_count=dead, killed_load_count=killed_count,
        live_reasons=tuple(reasons),
        bounded_loop_count=len(bounded),
        unbounded_loop_pcs=tuple(unbounded),
        analysis_mode=analysis_mode)
