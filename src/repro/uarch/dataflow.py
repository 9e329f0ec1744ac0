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

The pass has two engines:

* **Exploration** (the precise tier): a path-sensitive abstract
  execution of the binary.  Registers start at zero each shot,
  ``LDI``/``LDUI`` introduce constants, the ALU folds them, and the
  comparison flags are modelled with the *real*
  :class:`~repro.core.registers.ComparisonFlags` semantics — so a
  branch whose ``CMP`` operands are statically known follows exactly
  one edge.  Backward branches with resolvable conditions (the common
  ``LDI``/``ADD``/``SUB``/``CMP``/``BR`` counter idiom) are thereby
  *unrolled*: loop-carried addresses stay constants, iteration by
  iteration.  A branch whose condition depends on run-time state
  (``FMR``/``FBR``/``LD`` results) explores both edges with the same
  state.  States are memoised on ``(pc, registers, flags)``, so the
  exploration terminates whenever the reachable abstract-state space
  is finite; a global state budget bounds pathological cases.  The
  result is an *exploded graph* — the CFG unrolled along resolved
  branches — over which two analyses run:

  - per-occurrence **addresses** of every ``LD``/``ST``;
  - **kill-analysis**: a forward must-available-store pass
    (intersection at joins) proving which load occurrences are
    dominated by a same-shot store to the same address.

* **Joined fixpoint** (the conservative fallback): the classic
  constant propagation with joins over branch/loop edges (a value
  survives a join only when every incoming path agrees), plus the
  same must-available-store pass at pc granularity.  Used when the
  exploration budget is exceeded — a loop whose trip count is
  unbounded (condition never resolves while its state keeps changing)
  or too large to unroll.  Loop-carried values go unknown at joins,
  so the verdicts degrade exactly like the pre-kill-analysis pass.

Remaining hard blockers — reported per pc in ``live_reasons`` — are
only the loads that can genuinely observe another shot's (or the
host's) memory: an un-killed load aliasing a program store, or
unknown addresses on either side of a potential alias.  A load that
aliases *no* store still reads host memory, but the value is constant
within a run, so it replays; such binaries are merely excluded from
the cross-``run()`` tree cache (:attr:`DataMemoryReport.
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
from repro.core.registers import (
    ComparisonFlag,
    ComparisonFlags,
    to_unsigned32,
)

#: Lattice top: the register may hold different values on different
#: paths (or depends on run-time state such as memory or measurements).
_UNKNOWN = object()

#: Exploded-graph state budget.  Counted loops unroll one state per
#: iteration, so this bounds the unrollable trip count x loop size;
#: beyond it the pass falls back to the joined fixpoint.
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
    #: unbounded loop), the branch never exits (its exploded node lies
    #: on a cycle), or — in "joined" fallback mode — every backward
    #: branch, since the unroll budget was exceeded before their trip
    #: counts resolved.
    unbounded_loop_pcs: tuple[int, ...] = ()
    #: Which engine produced the verdicts: "exploration" (precise,
    #: loops unrolled), "joined" (budget fallback) or
    #: "unresolved-labels" (no CFG to analyse).
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
# Abstract transfer functions (shared by both engines)
# ----------------------------------------------------------------------
def _transfer(state: dict, instruction: Instruction) -> dict:
    """Abstract execution of one instruction (GPR effects only).

    Returns ``state`` itself when the instruction writes no register,
    so steady-state loop bodies do not churn dict copies.
    """

    def read(register: int):
        return state.get(register, 0)

    if isinstance(instruction, Ldi):
        value = to_unsigned32(instruction.imm)
        out = dict(state)
        out[instruction.rd] = value
        return out
    if isinstance(instruction, Ldui):
        low = read(instruction.rs)
        out = dict(state)
        if low is _UNKNOWN:
            out[instruction.rd] = _UNKNOWN
        else:
            out[instruction.rd] = ((instruction.imm & 0x7FFF) << 17) | \
                (low & 0x1FFFF)
        return out
    if isinstance(instruction, (Ld, Fmr, Fbr)):
        # Memory contents, measurement results and comparison flags
        # are run-time state this transfer does not model.  (The
        # exploration engine intercepts Fbr before calling here and
        # folds it when the dominating CMP's operands are known.)
        out = dict(state)
        out[instruction.rd] = _UNKNOWN
        return out
    if isinstance(instruction, Not):
        value = read(instruction.rt)
        out = dict(state)
        out[instruction.rd] = _UNKNOWN if value is _UNKNOWN else \
            to_unsigned32(~value)
        return out
    if isinstance(instruction, (LogicalOp, ArithOp)):
        s = read(instruction.rs)
        t = read(instruction.rt)
        out = dict(state)
        if s is _UNKNOWN or t is _UNKNOWN:
            out[instruction.rd] = _UNKNOWN
        else:
            name = instruction.mnemonic_name
            if name == "AND":
                result = s & t
            elif name == "OR":
                result = s | t
            elif name == "XOR":
                result = s ^ t
            elif name == "ADD":
                result = s + t
            else:  # SUB
                result = s - t
            out[instruction.rd] = to_unsigned32(result)
        return out
    return state


#: Memo table for _evaluate_condition — (operand pair, condition) ->
#: verdict, shared across programs (the domain is value-keyed).
_CONDITION_CACHE: dict = {}


def _evaluate_condition(flags, condition: ComparisonFlag):
    """Outcome of ``BR``/``FBR`` ``condition`` under abstract ``flags``.

    ``flags`` is either an ``(rs_value, rt_value)`` operand pair of the
    dominating ``CMP`` (``(0, 0)`` before any CMP, matching the reset
    state of :class:`ComparisonFlags`) or ``_UNKNOWN``.  Returns
    True/False, or ``_UNKNOWN`` when the operands are unknown — except
    for ``ALWAYS``/``NEVER``, which need no flags at all.  Evaluation
    goes through the real :class:`ComparisonFlags` so the abstract and
    concrete branch semantics can never drift.
    """
    if condition is ComparisonFlag.ALWAYS:
        return True
    if condition is ComparisonFlag.NEVER:
        return False
    if flags is _UNKNOWN:
        return _UNKNOWN
    key = (flags, condition)
    cached = _CONDITION_CACHE.get(key)
    if cached is None:
        probe = ComparisonFlags()
        probe.update(*flags)
        cached = probe.test(condition)
        if len(_CONDITION_CACHE) < 4096:
            _CONDITION_CACHE[key] = cached
    return cached


def _address_of(state: dict, base: int, imm: int):
    """Effective byte address, exactly the interpreter's arithmetic."""
    value = state.get(base, 0)
    return _UNKNOWN if value is _UNKNOWN else to_unsigned32(value + imm)


# ----------------------------------------------------------------------
# Engine 1: path-sensitive exploration (loops unrolled)
# ----------------------------------------------------------------------
class _Exploded:
    """The exploded graph: the CFG unrolled along resolved branches.

    One node per distinct reachable ``(pc, registers, flags)`` state;
    edges follow the abstract execution.  ``addresses[i]`` is the
    node's LD/ST effective address (None for other instructions),
    evaluated from its *incoming* state.
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
             budget: int = EXPLORATION_STATE_BUDGET) -> _Exploded | None:
    """Build the exploded graph, or None when the budget is exceeded.

    The budget is exceeded exactly when the reachable abstract-state
    space keeps growing — a loop whose condition never resolves while
    its register state keeps changing (a genuinely unbounded loop with
    a live counter) or a counted loop with a trip count too large to
    unroll.
    """
    length = len(instructions)
    graph = _Exploded()
    if not length:
        return graph
    ids: dict[tuple, int] = {}
    regs: list[dict] = []
    flag_states: list[object] = []

    def intern(pc: int, state: dict, flags) -> int | None:
        key = (pc, _state_key(state), flags)
        node = ids.get(key)
        if node is None:
            if len(graph.pcs) >= budget:
                return None
            node = len(graph.pcs)
            ids[key] = node
            graph.pcs.append(pc)
            graph.succs.append([])
            regs.append(state)
            flag_states.append(flags)
            instruction = instructions[pc]
            if isinstance(instruction, (St, Ld)):
                graph.addresses.append(
                    _address_of(state, instruction.rt, instruction.imm))
            else:
                graph.addresses.append(None)
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
        if isinstance(instruction, Br) and \
                isinstance(instruction.target, int):
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
        seen_successors = set()
        for successor_pc in next_pcs:
            if not 0 <= successor_pc < length:
                continue  # running off the program is an implicit stop
            successor = intern(successor_pc, out_state, out_flags)
            if successor is None:
                return None
            if successor not in seen_successors:
                graph.succs[node].append(successor)
                seen_successors.add(successor)
    return graph


# ----------------------------------------------------------------------
# Shared graph analyses (run on exploded or pc-level graphs)
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
# Engine 2: joined fixpoint (conservative fallback)
# ----------------------------------------------------------------------
def _join(into: dict | None, other: dict) -> tuple[dict, bool]:
    """Merge ``other`` into state ``into``; missing keys read as 0.

    Returns the merged state and whether it differs from ``into``.
    """
    if into is None:
        return dict(other), True
    merged = {}
    for register in set(into) | set(other):
        a = into.get(register, 0)
        b = other.get(register, 0)
        merged[register] = a if a is b or a == b else _UNKNOWN
    changed = any(merged.get(register, 0) != into.get(register, 0)
                  for register in set(merged) | set(into))
    return merged, changed


def _successors(index: int, instruction: Instruction,
                length: int) -> list[int]:
    """CFG successors of the instruction at ``index`` (in-range only)."""
    if isinstance(instruction, Stop):
        return []
    if isinstance(instruction, Br) and isinstance(instruction.target, int):
        if instruction.condition is ComparisonFlag.ALWAYS:
            targets = [index + instruction.target]
        elif instruction.condition is ComparisonFlag.NEVER:
            targets = [index + 1]
        else:
            targets = [index + 1, index + instruction.target]
        return [t for t in targets if 0 <= t < length]
    return [t for t in (index + 1,) if 0 <= t < length]


def _joined_fixpoint(instructions: list[Instruction]) -> dict[int, dict]:
    """Reachable-pc -> register state, joins over branch/loop edges."""
    states: dict[int, dict] = {}
    worklist: list[int] = []
    if instructions:
        states[0] = {}
        worklist.append(0)
    while worklist:
        index = worklist.pop()
        out = _transfer(states[index], instructions[index])
        for successor in _successors(index, instructions[index],
                                     len(instructions)):
            merged, changed = _join(states.get(successor), out)
            if changed:
                states[successor] = merged
                worklist.append(successor)
    return states


# ----------------------------------------------------------------------
# Classification (shared)
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
    """Prove which loads/stores are replay-safe (see module docstring)."""
    instructions = list(instructions)
    store_total = sum(isinstance(i, St) for i in instructions)
    load_total = sum(isinstance(i, Ld) for i in instructions)
    if any(isinstance(i, Br) and isinstance(i.target, str)
           for i in instructions):
        # Unresolved labels never reach the machine (the assembler
        # resolves them); there is no CFG to analyse, so classify the
        # poisoning once: aliasing needs both a load and a store to be
        # unprovable.  Store-only (or load-only) binaries are still
        # trivially safe.
        if store_total and load_total:
            reasons: tuple[str, ...] = (
                "program has unresolved branch labels — LD/ST aliasing "
                "cannot be analysed",)
            dead = 0
        else:
            reasons = ()
            dead = store_total
        return DataMemoryReport(
            store_count=store_total, load_count=load_total,
            dead_store_count=dead, killed_load_count=0,
            live_reasons=reasons, analysis_mode="unresolved-labels")

    graph = _explore(instructions)
    if graph is not None:
        return _report_from_exploration(instructions, graph)
    return _report_from_joined(instructions)


def _report_from_exploration(
        instructions: list[Instruction],
        graph: _Exploded) -> DataMemoryReport:
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
    unbounded = graph.unbounded_loop_pcs | on_cycle
    bounded = graph.bounded_loop_pcs - unbounded
    return DataMemoryReport(
        store_count=len(stores), load_count=len(loads),
        dead_store_count=dead, killed_load_count=killed_count,
        live_reasons=tuple(reasons),
        bounded_loop_count=len(bounded),
        unbounded_loop_pcs=tuple(sorted(unbounded)),
        analysis_mode="exploration")


def _report_from_joined(
        instructions: list[Instruction]) -> DataMemoryReport:
    """Budget fallback: joins lose loop-carried constants, verdicts
    stay sound.  Kill-analysis still runs, at pc granularity."""
    states = _joined_fixpoint(instructions)
    reachable = sorted(states)
    index_of = {pc: i for i, pc in enumerate(reachable)}
    succs: list[list[int]] = [[] for _ in reachable]
    for i, pc in enumerate(reachable):
        succs[i] = [index_of[s] for s in
                    _successors(pc, instructions[pc], len(instructions))
                    if s in index_of]

    store_address: list[object] = [None] * len(reachable)
    stores: dict[int, set] = {}
    loads: dict[int, set] = {}
    for i, pc in enumerate(reachable):
        instruction = instructions[pc]
        if isinstance(instruction, St):
            address = _address_of(states[pc], instruction.rt,
                                  instruction.imm)
            store_address[i] = address
            stores.setdefault(pc, set()).add(address)
        elif isinstance(instruction, Ld):
            loads.setdefault(pc, set()).add(
                _address_of(states[pc], instruction.rt, instruction.imm))

    relevant = frozenset(
        address for addresses in loads.values() for address in addresses
        if address is not _UNKNOWN)
    incoming = _must_written(len(reachable), succs, store_address,
                             relevant)
    unkilled: dict[int, set] = {}
    for pc, addresses in loads.items():
        address = next(iter(addresses))
        if address is _UNKNOWN or address not in incoming[index_of[pc]]:
            unkilled[pc] = set(addresses)

    dead, killed_count, reasons = _classify(stores, len(loads), unkilled)
    backward = sorted(
        pc for pc in reachable
        if isinstance(instructions[pc], Br) and
        isinstance(instructions[pc].target, int) and
        instructions[pc].target <= 0)
    if reasons and backward:
        pcs = ", ".join(str(pc) for pc in backward)
        reasons.append(
            f"backward branch at pc {pcs} could not be unrolled within "
            f"the {EXPLORATION_STATE_BUDGET}-state budget (unbounded "
            f"loop or trip count too large) — loop-carried addresses "
            f"were analysed conservatively")
    return DataMemoryReport(
        store_count=len(stores), load_count=len(loads),
        dead_store_count=dead, killed_load_count=killed_count,
        live_reasons=tuple(reasons),
        bounded_loop_count=0,
        unbounded_loop_pcs=tuple(backward),
        analysis_mode="joined")
