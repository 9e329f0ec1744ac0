"""Sweep specifications and the deterministic per-point contract.

A *sweep* is the serving layer's unit of work: one experiment skeleton
executed over many parameter points (a Rabi amplitude scan, an RB
length scan, a DSE configuration grid), each point for ``shots`` shots.
The crash-safety story of :mod:`repro.serving` rests on one invariant
defined here:

**Per-point purity.**  :func:`execute_point` makes a point's
:class:`~repro.uarch.trace.ShotCounts` a pure function of
``(spec, point.seed)``: the plant RNG is re-seeded from the point's
deterministic seed, the machine's derived per-binary state (its
replay tree or frame reference recording *and* static verdicts) is
dropped, and data memory — the host channel that deliberately
persists across runs — is reset.  A point therefore produces
bit-identical counts no matter which worker runs it, how many times
it is retried after a crash, or in what order the sweep is sharded.
Everything above (journal resume, shard re-dispatch after a kill,
duplicate-result deduplication) reduces to this invariant.

Per-point seeds are derived by hashing ``(sweep seed, point index)``
(:func:`derive_point_seed`), so they are stable across processes and
sessions without any shared RNG stream.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.assembler import AssembledProgram
from repro.core.errors import InvalidRequestError
from repro.experiments.runner import ExperimentSetup
from repro.uarch.replay import EngineStats
from repro.uarch.trace import ShotCounts


def derive_point_seed(sweep_seed: int, index: int) -> int:
    """Deterministic 63-bit seed for one sweep point.

    A pure hash of ``(sweep_seed, index)`` — stable across processes,
    platforms, and re-dispatches, and decorrelated between points (two
    adjacent indices share no RNG stream structure).
    """
    digest = hashlib.sha256(
        f"eqasm-sweep-point:{sweep_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep: its index, parameters, and derived seed."""

    index: int
    params: tuple[tuple[str, object], ...]
    seed: int

    def params_dict(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class SweepSpec:
    """A complete, self-describing sweep request.

    ``setup_factory`` builds a fresh :class:`ExperimentSetup` (called
    once per worker process, and again only when a later sweep of the
    same drain brings a different factory object); ``program_factory``
    maps ``(setup, params)`` to the point's :class:`AssembledProgram`.
    The spec travels to the workers pickled inside each shard, so both
    must pickle by reference: importable module-level callables, not
    lambdas or closures (:meth:`SweepService.submit` rejects a spec
    that does not pickle).  Parameter values must be JSON-serializable
    (they feed the journal's integrity fingerprint).

    ``observe`` turns on worker-side observability: each point runs
    with a :class:`repro.obs.Observability` attached to the worker's
    machine, and the exported spans/metrics ride back to the service
    on the result message (see :meth:`SweepService.observability`).
    Off by default; it never affects the computed counts (span
    sampling is accumulator-based, not RNG-based) and is deliberately
    excluded from :meth:`fingerprint` so journals resume either way.
    """

    name: str
    shots: int
    seed: int
    point_params: tuple[tuple[tuple[str, object], ...], ...]
    setup_factory: Callable[[], ExperimentSetup]
    program_factory: Callable[[ExperimentSetup, Mapping],
                              AssembledProgram]
    observe: bool = False

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise InvalidRequestError(
                f"a sweep needs at least one shot per point, "
                f"got {self.shots}")
        if not self.point_params:
            raise InvalidRequestError("a sweep needs at least one point")

    @classmethod
    def from_params(cls, name: str, shots: int, seed: int,
                    params: Sequence[Mapping] | Iterable[Mapping],
                    setup_factory: Callable[[], ExperimentSetup],
                    program_factory: Callable[[ExperimentSetup, Mapping],
                                              AssembledProgram],
                    observe: bool = False) -> "SweepSpec":
        """Build a spec from per-point parameter mappings."""
        normalized = tuple(tuple(sorted(mapping.items()))
                           for mapping in params)
        return cls(name=name, shots=shots, seed=seed,
                   point_params=normalized,
                   setup_factory=setup_factory,
                   program_factory=program_factory,
                   observe=observe)

    @property
    def num_points(self) -> int:
        return len(self.point_params)

    def point(self, index: int) -> SweepPoint:
        """The fully derived point at ``index``."""
        if not 0 <= index < self.num_points:
            raise InvalidRequestError(
                f"point index {index} outside sweep of "
                f"{self.num_points} points")
        return SweepPoint(index=index, params=self.point_params[index],
                          seed=derive_point_seed(self.seed, index))

    def points(self) -> tuple[SweepPoint, ...]:
        return tuple(self.point(index)
                     for index in range(self.num_points))

    def fingerprint(self) -> str:
        """Integrity fingerprint of everything the journal must match.

        Covers the name, shot count, master seed, and every point's
        parameters — *not* the factory callables (code identity cannot
        be hashed reliably; resuming a journal against changed factory
        semantics is the caller's contract to keep, exactly like
        re-running any experiment against edited code).
        """
        body = json.dumps(
            {"name": self.name, "shots": self.shots, "seed": self.seed,
             "points": self.point_params},
            sort_keys=True, separators=(",", ":"), default=repr)
        return hashlib.sha256(body.encode()).hexdigest()


@dataclass(frozen=True)
class PointResult:
    """One completed sweep point, with its execution telemetry.

    ``resumed`` marks results served from the checkpoint journal
    rather than executed this run; ``worker`` is the worker slot that
    produced a live result (None for resumed ones).
    """

    sweep: str
    index: int
    seed: int
    params: tuple[tuple[str, object], ...]
    counts: ShotCounts
    engine: str | None
    plant_backend: str | None
    interpreter_shots: int
    replay_shots: int
    latency_s: float
    #: Shots the Pauli-frame batched engine delivered (the PR-8
    #: counter — without it a frame-engine point would report zero
    #: shots through every serving telemetry surface).
    frame_batched: int = 0
    #: The point run's :attr:`EngineStats.degradations`, in order.
    degradations: tuple[str, ...] = ()
    worker: int | None = None
    resumed: bool = False

    def params_dict(self) -> dict:
        return dict(self.params)

    @classmethod
    def from_payload(cls, spec: SweepSpec, payload: Mapping,
                     worker: int | None = None,
                     resumed: bool = False) -> "PointResult":
        index = int(payload["index"])
        point = spec.point(index)
        return cls(
            sweep=spec.name,
            index=index,
            seed=int(payload["seed"]),
            params=point.params,
            counts=ShotCounts.from_dict(payload["counts"]),
            engine=payload.get("engine"),
            plant_backend=payload.get("plant_backend"),
            interpreter_shots=int(payload.get("interpreter_shots", 0)),
            replay_shots=int(payload.get("replay_shots", 0)),
            frame_batched=int(payload.get("frame_batched", 0)),
            degradations=tuple(payload.get("degradations", ())),
            latency_s=float(payload.get("latency_s", 0.0)),
            worker=worker,
            resumed=resumed,
        )


def execute_point(setup: ExperimentSetup, spec: SweepSpec,
                  point: SweepPoint
                  ) -> tuple[ShotCounts, EngineStats, float]:
    """Run one sweep point under the per-point purity contract.

    Resets every piece of machine state that could couple this point
    to earlier ones — the plant RNG (re-seeded from the point's
    deterministic seed), the replay tree or frame reference recording
    and the static verdicts the machine derived from its loaded binary,
    and data memory — then compiles, loads, and streams the point's
    shots.  The fast engines still accelerate *within* the point (the
    timeline tree grows over its shots; one reference shot serves
    every frame chunk); only cross-point reuse is sacrificed, because
    warm state changes how much plant randomness the point consumes
    and would make the counts depend on execution history.
    """
    machine = setup.machine
    machine.clear_replay_cache()
    machine.memory.reset()
    machine.plant.rng = np.random.default_rng(point.seed)
    assembled = spec.program_factory(setup, point.params_dict())
    machine.load(assembled)
    start = time.perf_counter()
    counts = machine.run_counts(spec.shots)
    latency_s = time.perf_counter() - start
    return counts, machine.engine_stats_snapshot(), latency_s


def execution_payload(point: SweepPoint, counts: ShotCounts,
                      stats: EngineStats, latency_s: float) -> dict:
    """The queue/journal payload for a just-executed point."""
    return {
        "index": point.index,
        "seed": point.seed,
        "counts": counts.as_dict(),
        "engine": stats.engine,
        "plant_backend": stats.plant_backend,
        "interpreter_shots": stats.interpreter_shots,
        "replay_shots": stats.replay_shots,
        "frame_batched": stats.frame_batched,
        "degradations": list(stats.degradations),
        "latency_s": latency_s,
    }
