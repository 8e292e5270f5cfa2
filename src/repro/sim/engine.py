"""Discrete-event simulator for cause-effect systems.

Simulates the run-time behaviour of Section II-B exactly:

* every task releases jobs periodically from its offset;
* each ECU (and the bus) schedules its jobs **non-preemptively by fixed
  priority**: when the unit idles, the highest-priority ready job
  starts and runs to completion;
* **implicit communication**: a job reads all of its input channels
  when it *starts* and writes its output token to all of its output
  channels when it *finishes*;
* channels are overwrite registers (capacity 1) or FIFOs (Section IV),
  see :mod:`repro.sim.channels`;
* source tasks are external stimuli: their jobs complete instantly at
  release, off-CPU, producing a token stamped with the release time.

Event ordering at equal timestamps is chosen so that "finishes no later
than the start" (Definition 1) is honoured: at each time point all
releases are processed first, then all finishes (which perform writes),
then zero-execution-time completions in topological order, and only
then are idle units dispatched (whose starting jobs perform reads).  A
write at time ``t`` is therefore always visible to a read at time ``t``.

Per-job execution times are drawn from an
:mod:`execution-time policy <repro.sim.exec_time>`; the simulated
disparity is a *lower* bound on the true worst case (as the paper's
``Sim`` series is), while the analytical bounds are upper bounds.

**LET semantics (extension).**  With ``semantics="let"`` the simulator
follows the Logical Execution Time paradigm instead: a job reads all
inputs at its *release* and its output token is published at its
*deadline* (release + period), independent of when the job actually
executes.  Scheduling still happens (the job must finish before its
deadline — violating that raises), but the data flow becomes fully
time-deterministic.  Source tasks still publish at release (a sensor
stamps and emits immediately).  Per-instant ordering: publishes first,
then releases, then source emissions, then the LET reads of the jobs
released at this instant.

**Loops.**  The general event loop is the unoptimized semantic
reference (``loop="general"``).  By default the simulator replays the
run on the NP-FP schedule core it shares with the compiled batch tier
(:meth:`repro.sim.batch.CompiledScenario._schedule`) and materializes
jobs, tokens and channel contents from the recorded tables; both loops
produce identical results.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.model.graph import CauseEffectGraph
from repro.model.system import System
from repro.model.task import ModelError, Task
from repro.sim.channels import ChannelState
from repro.sim.exec_time import ExecTimePolicy, uniform_policy
from repro.sim.provenance import Token, merge_provenance, source_token
from repro.sim.release import kept_mask, needs_tables, release_table
from repro.units import Time

_PHASE_PUBLISH = 0
_PHASE_RELEASE = 1
_PHASE_FINISH = 2

_SEMANTICS = ("implicit", "let")
_LOOPS = ("auto", "general")

#: A reader key above every sub-batch: counts all writes up to an instant.
_AFTER_ALL = float("inf")


class Job:
    """One activation of a task at run time."""

    __slots__ = ("task", "index", "release", "start", "finish", "exec_time", "reads")

    def __init__(self, task: Task, index: int, release: Time) -> None:
        self.task = task
        self.index = index
        self.release = release
        self.start: Optional[Time] = None
        self.finish: Optional[Time] = None
        self.exec_time: Optional[Time] = None
        self.reads: Tuple[Token, ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Job({self.task.name}#{self.index} r={self.release})"


class Observer:
    """Base class for simulation observers (metrics collectors).

    Subclasses override the hooks they need; the engine calls
    ``on_job_complete`` for *every* completed job (including
    instantaneous source jobs) with the output token the job wrote.
    """

    def on_job_complete(self, job: Job, token: Token) -> None:  # pragma: no cover
        pass

    def on_end(self, now: Time) -> None:  # pragma: no cover
        pass

    @property
    def interested_tasks(self) -> Optional[frozenset]:
        """Tasks whose completions this observer needs, ``None`` for all.

        The engine materializes jobs and tokens only for tasks some
        observer is interested in; monitors that filter internally
        expose their filter here so the engine can pre-dispatch.
        """
        return None


class _UnitState:
    """Run-time state of one processing unit."""

    __slots__ = ("name", "ready", "running", "busy_time", "dispatches")

    def __init__(self, name: str) -> None:
        self.name = name
        # Heap of (priority, seq, job); priorities are unique per unit.
        self.ready: List[Tuple[int, int, Job]] = []
        self.running: Optional[Job] = None
        self.busy_time: Time = 0
        self.dispatches = 0


@dataclass
class SimulationStats:
    """Aggregate counters of one simulation run."""

    duration: Time = 0
    jobs_released: int = 0
    jobs_completed: int = 0
    jobs_dropped: int = 0
    events_processed: int = 0
    busy_time: Dict[str, Time] = field(default_factory=dict)

    def utilization(self, unit: str) -> float:
        """Fraction of the horizon ``unit`` spent executing."""
        if self.duration == 0:
            return 0.0
        return self.busy_time.get(unit, 0) / self.duration


@dataclass
class SimulationResult:
    """Everything a run produced: stats plus the observers (queried by caller)."""

    stats: SimulationStats
    observers: Tuple[Observer, ...]


class Simulator:
    """Event-driven simulator for one cause-effect system.

    Args:
        system: The validated system (or use :meth:`from_graph`).
        duration: Simulated horizon in nanoseconds; events beyond it are
            not processed (running jobs may be left unfinished).
        seed: Seed for the per-run random generator (offsets are *not*
            randomized here — set task offsets before building the
            system, or use :func:`randomize_offsets`).
        policy: Execution-time policy; default uniform in [BCET, WCET].
        observers: Metric collectors notified on each job completion.
        semantics: ``"implicit"`` (AUTOSAR read-at-start /
            write-at-finish, the paper's model) or ``"let"`` (Logical
            Execution Time: read at release, publish at deadline).
        faults: Optional release-dropout schedule
            (:class:`repro.sim.faults.FaultPlan`); suppressed releases
            produce no job, so consumers keep reading stale data.
        loop: Event-loop selection, primarily a testing aid.  ``"auto"``
            (default) runs the shared NP-FP schedule core of
            :class:`repro.sim.batch.CompiledScenario` — the loop the
            compiled batch tier replays — and resolves data flow with
            its resolver, materializing jobs and tokens only where
            observers or :meth:`channel_state` look.  Runs the core
            cannot replay (every rule in
            ``CompiledScenario.ineligible_reasons``: a CPU task without
            a unit, duplicate priorities on one unit) fall back to the
            general loop.  ``"general"`` forces the general loop, the
            unoptimized semantic reference; both produce identical
            results.  The choice is resolved at construction
            (``_resolved_loop`` is ``"fast"`` or ``"general"``).
    """

    def __init__(
        self,
        system: System,
        duration: Time,
        *,
        seed: int = 0,
        policy: ExecTimePolicy = uniform_policy,
        observers: Sequence[Observer] = (),
        semantics: str = "implicit",
        faults=None,
        loop: str = "auto",
    ) -> None:
        if duration <= 0:
            raise ModelError(f"duration must be positive, got {duration}")
        if semantics not in _SEMANTICS:
            raise ModelError(
                f"unknown semantics {semantics!r}; choose from {_SEMANTICS}"
            )
        if loop not in _LOOPS:
            raise ModelError(f"unknown loop {loop!r}; choose from {_LOOPS}")
        self._flow: Optional[_CoreFlow] = None
        self._filled: Set[Tuple[str, str]] = set()
        self._semantics = semantics
        self._faults = faults
        if faults is not None:
            faults.validate(system.graph.task_names)
        self._system = system
        self._graph = system.graph
        self._duration = duration
        self._seed = seed
        self._rng = random.Random(seed)
        self._policy = policy
        self._observers: Tuple[Observer, ...] = tuple(observers)

        self._channels: Dict[Tuple[str, str], ChannelState] = {
            (c.src, c.dst): ChannelState(c.src, c.dst, c.capacity)
            for c in self._graph.channels
        }
        self._in_channels: Dict[str, List[ChannelState]] = {
            name: [self._channels[(p, name)] for p in self._graph.predecessors(name)]
            for name in self._graph.task_names
        }
        self._out_channels: Dict[str, List[ChannelState]] = {
            name: [self._channels[(name, s)] for s in self._graph.successors(name)]
            for name in self._graph.task_names
        }
        self._topo_index = {
            name: i for i, name in enumerate(self._graph.topological_order())
        }
        units = {
            task.ecu for task in self._graph.tasks if task.ecu is not None
        }
        self._units: Dict[str, _UnitState] = {u: _UnitState(u) for u in sorted(units)}
        self._events: List[Tuple[Time, int, int, object]] = []
        self._seq = 0
        self._job_counters: Dict[str, int] = {}
        self._stats = SimulationStats(duration=duration)
        # Release tables: when any task releases non-periodically or a
        # fault plan is active, every release instant (and its "kept"
        # flag) is pre-drawn here and all loops consume the table —
        # the one source of truth that keeps the tiers byte-identical.
        # Strictly periodic fault-free runs skip the tables entirely
        # and keep the original arithmetic release paths.
        self._use_tables = needs_tables(self._graph.tasks, faults)
        self._rel_full: Dict[str, List[Time]] = {}
        self._rel_keep: Dict[str, List[bool]] = {}
        self._rel_idx: Dict[str, int] = {}
        if self._use_tables:
            for task in self._graph.tasks:
                full = release_table(task, seed, duration)
                self._rel_full[task.name] = full
                self._rel_keep[task.name] = kept_mask(faults, task.name, full)
                self._rel_idx[task.name] = 0
        # The shared schedule core records every task: observers and
        # channel_state may ask about any job, not one task's closure.
        self._core = None
        if loop == "auto" and self._graph.task_names:
            from repro.sim.batch import CompiledScenario

            core = CompiledScenario(
                system,
                self._graph.task_names[0],
                semantics=semantics,
                faults=faults,
            )
            core.keep = [True] * core.n
            self._core = core
        self._resolved_loop = self._select_loop()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(
        cls,
        graph: CauseEffectGraph,
        duration: Time,
        **kwargs,
    ) -> "Simulator":
        """Build a simulator from a raw graph (validates and analyzes it)."""
        return cls(System.build(graph), duration, **kwargs)

    def channel_state(self, src: str, dst: str) -> ChannelState:
        """Inspect a channel's run-time state (tests/debugging).

        After a run on the shared core the channel contents are
        reconstructed on first access (the core never materializes
        per-channel buffers).
        """
        state = self._channels[(src, dst)]
        if self._flow is not None and (src, dst) not in self._filled:
            self._filled.add((src, dst))
            self._flow.fill_channel(state)
        return state

    def _select_loop(self) -> str:
        """``"fast"`` when the shared core can replay the run, else ``"general"``."""
        core = self._core
        return "fast" if core is not None and core.eligible else "general"

    def run(self) -> SimulationResult:
        """Run to the horizon and return stats plus the observers."""
        if self._resolved_loop == "fast":
            self._run_fast()
        else:
            for task in self._graph.tasks:
                if self._use_tables:
                    table = self._rel_full[task.name]
                    if table:
                        self._rel_idx[task.name] = 1
                        self._push(table[0], _PHASE_RELEASE, task)
                else:
                    self._push(task.offset, _PHASE_RELEASE, task)
            self._run_events_general()
        for unit in self._units.values():
            self._stats.busy_time[unit.name] = unit.busy_time
        for observer in self._observers:
            observer.on_end(self._duration)
        return SimulationResult(stats=self._stats, observers=self._observers)

    def _run_events_general(self) -> None:
        """Event loop handling every semantics/fault combination."""
        let_mode = self._semantics == "let"
        while self._events:
            now = self._events[0][0]
            if now > self._duration:
                break
            publishes: List[Tuple[str, Token]] = []
            releases: List[Task] = []
            finishes: List[Tuple[str, Job]] = []
            instantaneous: List[Job] = []
            released_jobs: List[Job] = []
            while self._events and self._events[0][0] == now:
                _, phase, _, payload = heapq.heappop(self._events)
                self._stats.events_processed += 1
                if phase == _PHASE_PUBLISH:
                    publishes.append(payload)  # type: ignore[arg-type]
                elif phase == _PHASE_RELEASE:
                    releases.append(payload)  # type: ignore[arg-type]
                else:
                    finishes.append(payload)  # type: ignore[arg-type]

            # 1. LET publications become visible first: a job released
            #    at t reads tokens published no later than t.
            for name, token in publishes:
                self._write_outputs(name, token)

            touched: List[str] = []
            for task in releases:
                job = self._release(task, now)
                if job is None:
                    continue  # release suppressed by the fault plan
                if task.is_instantaneous:
                    instantaneous.append(job)
                else:
                    assert task.ecu is not None
                    unit = self._units[task.ecu]
                    heapq.heappush(
                        unit.ready, (task.priority or 0, self._next_seq(), job)
                    )
                    released_jobs.append(job)
                    touched.append(task.ecu)

            # 2. Under implicit semantics, finished jobs write before
            #    anything dispatched at this instant reads.  Under LET,
            #    a finish only schedules the publication at the
            #    deadline.
            for unit_name, job in finishes:
                self._complete(job, now)
                self._units[unit_name].running = None
                touched.append(unit_name)

            # 3. Source emissions (and zero-WCET relays) in topological
            #    order, so a sensor sample stamped at t is readable at t.
            instantaneous.sort(key=lambda j: self._topo_index[j.task.name])
            for job in instantaneous:
                self._run_instantaneous(job, now)

            # 4. LET reads happen at release, after all same-instant
            #    publications and source emissions.
            if let_mode:
                for job in released_jobs:
                    job.reads = self._read_inputs(job.task.name)

            for unit_name in touched:
                self._dispatch(self._units[unit_name], now)

    def _run_fast(self) -> None:
        """Replay the run on the shared schedule core, then notify.

        :meth:`CompiledScenario._schedule` records every task's
        start/finish tables; scheduling never depends on data (reads
        never block), so data flow is resolved afterwards, and only
        for the jobs somebody observes (:class:`_CoreFlow`).  Every
        counter the general loop keeps per event is derived from the
        tables.  Observers see the general loop's notification order:
        per instant, CPU finishes in processing (dispatch) order, then
        instantaneous jobs in topological order, then the zero-time
        CPU finishes that the general loop processes in later
        sub-batches of the instant.
        """
        core = self._core
        duration = self._duration
        names = core.names
        offsets = [task.offset for task in core.tasks]
        drawn = None
        if self._use_tables:
            drawn = (
                [self._rel_full[name] for name in names],
                [self._rel_keep[name] for name in names],
            )
        starts, fins, completed, casc, rels, seqs = core._schedule(
            offsets, self._seed, duration, self._policy, drawn
        )
        self._flow = flow = _CoreFlow(
            core, offsets, duration, starts, fins, completed, casc, rels
        )
        let_mode = self._semantics == "let"
        stats = self._stats
        released = []
        for g, task in enumerate(core.tasks):
            kept = core._releases(g, offsets, duration, rels)
            released.append(kept)
            full = len(drawn[0][g]) if drawn is not None else kept
            stats.events_processed += full
            stats.jobs_released += kept
            stats.jobs_dropped += full - kept
            if core.inst[g]:
                stats.jobs_completed += kept
            else:
                stats.jobs_completed += completed[g]
                stats.events_processed += completed[g]
                unit = self._units[task.ecu]
                unit.busy_time += sum(fins[g]) - sum(starts[g])
                unit.dispatches += len(starts[g])
            if let_mode and not core.is_source[g]:
                # One publication event per write within the horizon.
                stats.events_processed += flow.writes(g, duration, _AFTER_ALL)

        notify_for = [
            tuple(
                observer
                for observer in self._observers
                if observer.interested_tasks is None
                or name in observer.interested_tasks
            )
            for name in names
        ]
        # (instant, 0 = CPU / 1 = instantaneous / 2 = zero-time CPU,
        # tie-break, task, job)
        stream: List[Tuple[Time, int, int, int, int]] = []
        for g, name in enumerate(names):
            if not notify_for[g]:
                continue
            if core.inst[g]:
                key = self._topo_index[name]
                stream.extend(
                    (flow.release(g, k), 1, key, g, k)
                    for k in range(released[g])
                )
            else:
                sts, fs, qs = starts[g], fins[g], seqs[g]
                stream.extend(
                    (fs[k], 0 if fs[k] > sts[k] else 2, qs[k], g, k)
                    for k in range(completed[g])
                )
        stream.sort()
        for _, _, _, g, k in stream:
            job, token = flow.materialize(g, k)
            for observer in notify_for[g]:
                observer.on_job_complete(job, token)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _push(self, time: Time, phase: int, payload: object) -> None:
        heapq.heappush(self._events, (time, phase, self._next_seq(), payload))

    def _release(self, task: Task, now: Time) -> Optional[Job]:
        name = task.name
        if self._use_tables:
            # Table mode: successor and "kept" flag come from the
            # pre-drawn release table (the fault plan is already folded
            # into the keep mask).
            table = self._rel_full[name]
            nxt = self._rel_idx[name]
            self._rel_idx[name] = nxt + 1
            if nxt < len(table):
                self._push(table[nxt], _PHASE_RELEASE, task)
            if not self._rel_keep[name][nxt - 1]:
                self._stats.jobs_dropped += 1
                return None
        else:
            next_release = now + task.period
            if next_release <= self._duration:
                self._push(next_release, _PHASE_RELEASE, task)
            if self._faults is not None and self._faults.is_dropped(name, now):
                self._stats.jobs_dropped += 1
                return None
        index = self._job_counters.get(name, 0)
        self._job_counters[name] = index + 1
        self._stats.jobs_released += 1
        return Job(task, index, now)

    def _read_inputs(self, name: str) -> Tuple[Token, ...]:
        tokens = []
        for channel in self._in_channels[name]:
            token = channel.read()
            if token is not None:
                tokens.append(token)
        return tuple(tokens)

    def _run_instantaneous(self, job: Job, now: Time) -> None:
        """Source / zero-WCET jobs: read, produce, finish — all at ``now``.

        Sources publish immediately under both semantics (a sensor
        stamps and emits at sampling time).  Zero-WCET relays follow
        the active semantics: immediate write under implicit
        communication, deadline publication under LET.
        """
        job.start = now
        job.finish = now
        job.exec_time = 0
        name = job.task.name
        if self._graph.is_source(name):
            token = source_token(name, job.release)
            self._write_outputs(name, token)
        else:
            job.reads = self._read_inputs(name)
            token = Token(
                produced_at=now,
                producer=name,
                producer_release=job.release,
                provenance=merge_provenance(t.provenance for t in job.reads),
            )
            if self._semantics == "let":
                self._push(
                    job.release + job.task.period, _PHASE_PUBLISH, (name, token)
                )
            else:
                self._write_outputs(name, token)
        self._notify(job, token)

    def _dispatch(self, unit: _UnitState, now: Time) -> None:
        if unit.running is not None or not unit.ready:
            return
        _, _, job = heapq.heappop(unit.ready)
        job.start = now
        if self._semantics != "let":
            # Implicit communication reads at start; under LET the
            # inputs were already captured at release.
            job.reads = self._read_inputs(job.task.name)
        exec_time = self._policy(job.task, job.index, self._rng)
        if not job.task.bcet <= exec_time <= job.task.wcet:
            raise ModelError(
                f"policy returned execution time {exec_time} outside "
                f"[{job.task.bcet}, {job.task.wcet}] for {job.task.name!r}"
            )
        job.exec_time = exec_time
        unit.running = job
        unit.busy_time += exec_time
        unit.dispatches += 1
        self._push(now + exec_time, _PHASE_FINISH, (unit.name, job))

    def _complete(self, job: Job, now: Time) -> None:
        job.finish = now
        token = Token(
            produced_at=now,
            producer=job.task.name,
            producer_release=job.release,
            provenance=merge_provenance(t.provenance for t in job.reads),
        )
        if self._semantics == "let":
            deadline = job.release + job.task.period
            if now > deadline:
                raise ModelError(
                    f"LET violation: job {job.task.name}#{job.index} "
                    f"finished at {now} past its deadline {deadline}"
                )
            self._push(deadline, _PHASE_PUBLISH, (job.task.name, token))
        else:
            self._write_outputs(job.task.name, token)
        self._notify(job, token)

    def _write_outputs(self, name: str, token: Token) -> None:
        for channel in self._out_channels[name]:
            channel.write(token)

    def _notify(self, job: Job, token: Token) -> None:
        self._stats.jobs_completed += 1
        for observer in self._observers:
            observer.on_job_complete(job, token)


class _CoreFlow:
    """Jobs, tokens and channel contents of one core run, on demand.

    The observer/channel boundary of the shared schedule core:
    ``writes`` / ``reads`` / ``prov`` are
    :meth:`CompiledScenario._resolver` over the recorded tables, and
    this class only turns their answers into :class:`Job` and
    :class:`Token` objects (with plain dict provenance).  Tokens are
    memoized, so a token read by many jobs is one object.
    """

    def __init__(
        self,
        core,
        offsets: List[Time],
        duration: Time,
        starts: List[List[Time]],
        fins: List[List[Time]],
        completed: List[int],
        casc: Optional[Dict[Tuple[int, int], int]],
        rels: Optional[List[List[Time]]],
    ) -> None:
        self.core = core
        self.offsets = offsets
        self.duration = duration
        self.starts = starts
        self.fins = fins
        self.rels = rels
        self.writes, self.reads, self.prov = core._resolver(
            offsets, starts, fins, completed, casc, rels
        )
        self.tokens: Dict[Tuple[int, int], Token] = {}

    def release(self, g: int, k: int) -> Time:
        """Release instant of job ``k`` of task ``g``."""
        if self.rels is not None:
            return self.rels[g][k]
        return self.offsets[g] + k * self.core.periods[g]

    def token(self, g: int, k: int) -> Token:
        """The output token of job ``k`` of task ``g``."""
        found = self.tokens.get((g, k))
        if found is None:
            core = self.core
            name = core.names[g]
            release = self.release(g, k)
            if core.is_source[g]:
                found = source_token(name, release)
            else:
                found = Token(
                    release if core.inst[g] else self.fins[g][k],
                    name,
                    release,
                    core.packer.unpack(self.prov(g, k)),
                )
            self.tokens[(g, k)] = found
        return found

    def materialize(self, g: int, k: int) -> Tuple[Job, Token]:
        """A ``(job, token)`` pair as the general loop hands to observers."""
        core = self.core
        release = self.release(g, k)
        job = Job(core.tasks[g], k, release)
        if core.inst[g]:
            job.start = job.finish = release
            job.exec_time = 0
        else:
            job.start = self.starts[g][k]
            job.finish = self.fins[g][k]
            job.exec_time = job.finish - job.start
        if not core.is_source[g]:
            job.reads = tuple(self.token(p, i) for p, i in self.reads(g, k))
        return job, self.token(g, k)

    def fill_channel(self, state: ChannelState) -> None:
        """Rebuild a channel's counters and final buffer contents."""
        g = self.core._gid[state.src]
        total = self.writes(g, self.duration, _AFTER_ALL)
        head = max(0, total - state.capacity)
        state.writes = total
        state.evictions = head
        state._buffer.extend(self.token(g, k) for k in range(head, total))


def randomize_offsets(
    graph: CauseEffectGraph, rng: random.Random
) -> CauseEffectGraph:
    """Give every task a random release offset in ``[1, T(tau)]``.

    Matches the paper's evaluation setup ("the release offset of each
    task is randomly picked from the range of [1, T_i]").
    """
    shifted = graph.copy()
    for task in shifted.tasks:
        shifted.replace_task(task.with_offset(rng.randint(1, task.period)))
    return shifted


def simulate(
    system: System,
    duration: Time,
    *,
    seed: int = 0,
    policy: ExecTimePolicy = uniform_policy,
    observers: Sequence[Observer] = (),
    semantics: str = "implicit",
    faults=None,
    loop: str = "auto",
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    return Simulator(
        system,
        duration,
        seed=seed,
        policy=policy,
        observers=observers,
        semantics=semantics,
        faults=faults,
        loop=loop,
    ).run()
