"""Deterministic fault injection for the campaign's worker processes.

The paper's real campaign survived constant partial failure (extensions
going silent, Raspberry Pis dropping off cron, truncated uploads); the
lease fabric (:mod:`repro.runtime.fabric`) is the synthetic pipeline's
answer, and this module is what makes it *testable*.  A
:class:`FaultPlan` maps ``(shard_id, attempt)`` to a :class:`Fault`, so
a chaos test can script, exactly and reproducibly, which worker dies,
hangs, dawdles, returns garbage or tears its upload on which attempt —
no flaky real-world crashes required.

Faults are applied inside fabric worker processes only, after the
worker claimed the shard's lease: :func:`apply_pre_run` before the
shard runs, :func:`apply_post_run` on its result, and the two
lease/segment kinds in the worker loop itself.  An in-process
(one-shard) run never sees them.  The determinism contract of
:mod:`repro.runtime.shard` is what makes recovery provably correct: a
re-dispatched shard recomputes bit-identical records, so any fault
schedule the coordinator survives yields the fault-free dataset.
"""

from __future__ import annotations

import enum
import os
import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.rng import stream
from repro.runtime.shard import USER_INDEX_COLUMN

#: Exit code used by injected crashes; distinctive enough to grep for.
CRASH_EXITCODE = 17


class FaultKind(enum.Enum):
    """The failure modes the paper's campaign saw, distilled."""

    #: Worker dies abruptly (``os._exit``) after claiming the shard —
    #: the extension-went-silent / OOM-killed / host-died case.  Its
    #: heartbeats stop with it; a local worker's death is seen from its
    #: process handle, a remote one's when the lease TTL lapses.
    CRASH = "crash"
    #: Worker blocks (for the injected delay) while its heartbeat keeps
    #: the lease fresh — the wedged-upload / straggling-host case; only
    #: the coordinator's deadline recovers it.
    HANG = "hang"
    #: Worker sleeps, then completes normally — a straggler, not a
    #: failure; must NOT trip a re-dispatch when under the deadline.
    SLOW = "slow"
    #: Worker returns a tampered result (records dropped) — the
    #: partial-upload case; the segment fails the coordinator's
    #: user-index check, is quarantined and re-dispatched.
    CORRUPT = "corrupt"
    #: Worker's lease is fenced mid-shard (simulated coordinator
    #: revocation / shared-FS hiccup); the worker detects the loss on
    #: its next heartbeat but still offers its manifest speculatively —
    #: first valid manifest wins.
    LEASE_LOSS = "lease_loss"
    #: Worker truncates its spilled segment after writing it — the
    #: torn-upload case; the segment fails the coordinator's checksum,
    #: is quarantined and re-dispatched.
    TORN_SEGMENT = "torn_segment"


@dataclass(frozen=True)
class Fault:
    """One injected fault.

    Attributes:
        kind: What goes wrong.
        delay_s: Sleep length for ``HANG``/``SLOW`` (a hang should be
            set far above the coordinator's deadline; a slow shard
            below).
        exitcode: Process exit status for ``CRASH``.
    """

    kind: FaultKind
    delay_s: float = 0.0
    exitcode: int = CRASH_EXITCODE


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults.

    Maps ``(shard_id, attempt)`` (both 0-based) to the :class:`Fault`
    the worker must suffer on that attempt; absent keys run clean.
    Plans are plain frozen data — picklable, so they travel to workers
    under any multiprocessing start method.
    """

    faults: dict[tuple[int, int], Fault] = field(default_factory=dict)

    def fault_for(self, shard_id: int, attempt: int) -> Fault | None:
        """The fault injected for this attempt, if any."""
        return self.faults.get((shard_id, attempt))

    def __bool__(self) -> bool:
        return bool(self.faults)

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_shards: int,
        kinds: tuple[FaultKind, ...] = (
            FaultKind.CRASH,
            FaultKind.HANG,
            FaultKind.SLOW,
            FaultKind.CORRUPT,
        ),
        rate: float = 0.5,
        max_faulty_attempts: int = 1,
        hang_s: float = 3600.0,
        slow_s: float = 0.1,
    ) -> "FaultPlan":
        """Draw a reproducible fault schedule from the RNG substream.

        Each shard independently suffers a fault with probability
        ``rate`` on each of its first ``max_faulty_attempts`` attempts
        (so a re-dispatched attempt can fail again, but a bounded
        number of times — the schedule never exceeds the re-dispatch
        budget when ``max_faulty_attempts <= max_shard_retries``).  The
        draw is keyed ``(seed, "faults")``: the same seed always
        injects the same schedule.
        """
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"fault rate must be in [0, 1], got {rate}")
        if not kinds:
            raise ConfigurationError("need at least one fault kind")
        rng = stream(seed, "faults")
        faults: dict[tuple[int, int], Fault] = {}
        for shard_id in range(n_shards):
            for attempt in range(max_faulty_attempts):
                if rng.random() >= rate:
                    continue
                kind = kinds[int(rng.integers(len(kinds)))]
                delay = hang_s if kind is FaultKind.HANG else (
                    slow_s if kind is FaultKind.SLOW else 0.0
                )
                faults[(shard_id, attempt)] = Fault(kind=kind, delay_s=delay)
        return cls(faults=faults)


def crash_plan(shard_ids, attempts=(0,), exitcode: int = CRASH_EXITCODE) -> FaultPlan:
    """A plan crashing the given shards on the given attempts."""
    return FaultPlan(
        {
            (shard_id, attempt): Fault(FaultKind.CRASH, exitcode=exitcode)
            for shard_id in shard_ids
            for attempt in attempts
        }
    )


def hang_plan(shard_ids, attempts=(0,), hang_s: float = 3600.0) -> FaultPlan:
    """A plan hanging the given shards (recovered only by the deadline)."""
    return FaultPlan(
        {
            (shard_id, attempt): Fault(FaultKind.HANG, delay_s=hang_s)
            for shard_id in shard_ids
            for attempt in attempts
        }
    )


def corrupt_plan(shard_ids, attempts=(0,)) -> FaultPlan:
    """A plan corrupting the given shards' results (drops records)."""
    return FaultPlan(
        {
            (shard_id, attempt): Fault(FaultKind.CORRUPT)
            for shard_id in shard_ids
            for attempt in attempts
        }
    )


def host_chaos_plan(
    dead_shards=(),
    straggler_shards=(),
    torn_shards=(),
    lease_loss_shards=(),
    attempts=(0,),
    straggle_s: float = 30.0,
    exitcode: int = CRASH_EXITCODE,
) -> FaultPlan:
    """A mixed plan for the fabric chaos tests.

    Kills workers mid-shard (``dead_shards`` → ``CRASH``: the process
    dies holding its lease), delays others into straggler territory
    (``straggler_shards`` → ``HANG`` that keeps heartbeating: deadline
    re-dispatch), tears spilled segments (``torn_shards`` → quarantine
    + re-dispatch) and fences live leases (``lease_loss_shards`` →
    speculative completion race).
    """
    faults: dict[tuple[int, int], Fault] = {}
    for attempt in attempts:
        for shard_id in dead_shards:
            faults[(shard_id, attempt)] = Fault(FaultKind.CRASH, exitcode=exitcode)
        for shard_id in straggler_shards:
            faults[(shard_id, attempt)] = Fault(FaultKind.HANG, delay_s=straggle_s)
        for shard_id in torn_shards:
            faults[(shard_id, attempt)] = Fault(FaultKind.TORN_SEGMENT)
        for shard_id in lease_loss_shards:
            faults[(shard_id, attempt)] = Fault(FaultKind.LEASE_LOSS)
    return FaultPlan(faults)


def apply_pre_run(fault: Fault | None) -> None:
    """Execute a fault's pre-run effect inside the worker process.

    ``CRASH`` never returns; ``HANG``/``SLOW`` sleep while the lease
    heartbeat keeps beating (a hang relies on the coordinator's deadline
    terminating the process before the sleep ends).  The other kinds act
    later: ``CORRUPT`` on the finished result (:func:`apply_post_run`),
    ``LEASE_LOSS`` and ``TORN_SEGMENT`` in the fabric worker loop.
    """
    if fault is None:
        return
    if fault.kind is FaultKind.CRASH:
        os._exit(fault.exitcode)
    if fault.kind in (FaultKind.HANG, FaultKind.SLOW):
        time.sleep(fault.delay_s)


def apply_post_run(fault: Fault | None, result):
    """Tamper with a finished :class:`ShardResult` for ``CORRUPT``.

    Drops the highest-indexed user's rows and index (the
    truncated-upload case); an empty shard gets its ``shard_id`` skewed
    instead so the corruption is always observable.  Returns the
    (possibly mutated) result.
    """
    if fault is None or fault.kind is not FaultKind.CORRUPT:
        return result
    if not result.user_indices:
        result.shard_id += 1000
        return result
    last = max(result.user_indices)

    def without_last(arrays):
        keep = arrays[USER_INDEX_COLUMN] != last
        return {name: values[keep] for name, values in arrays.items()}

    result.user_indices = [index for index in result.user_indices if index != last]
    result.page_load_arrays = without_last(result.page_load_arrays)
    result.speedtest_arrays = without_last(result.speedtest_arrays)
    return result
