"""The supervising shard dispatcher: timeouts, crash detection, retries.

PR 1's engine drove a bare ``multiprocessing.Pool.map``: one worker
crash (abnormal exit, OOM kill) or hang took the whole campaign with
it.  This module replaces the pool with a supervisor that owns one
``multiprocessing.Process`` per in-flight shard and a result pipe to
each, giving it everything ``Pool.map`` hides:

* **Crash detection** — a worker that dies without delivering a result
  closes its pipe; the supervisor sees EOF plus an abnormal exitcode.
* **Hang detection** — an optional per-shard deadline; expired workers
  are terminated (then killed) and the shard is treated as failed.
* **Result validation** — a returned shard result must carry the
  shard id and exactly the user-index set it was assigned;
  anything else (a truncated/partial result) counts as corrupt.
* **Bounded retries** — failed shards requeue with exponential backoff
  (``base * 2**attempt``, capped); every attempt is recorded as a
  :class:`ShardFailure` so the run's stats show what was survived.
* **Graceful degradation** — a shard that exhausts its budget can run
  a final attempt in-process (fault injection bypassed — degradation
  must never take the parent down); disable it to make exhaustion
  raise :class:`~repro.errors.ShardFailedError` instead.

Recovery is *provably correct*: every record is a pure function of
``(CampaignConfig, user)`` (DESIGN.md §6), so a re-run attempt — in a
fresh worker or in-process — recomputes bit-identical records, and any
fault schedule the supervisor survives yields the fault-free dataset.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    CampaignCancelledError,
    ConfigurationError,
    ShardFailedError,
)
from repro.knobs import KNOBS, resolve
from repro.runtime.faults import FaultPlan, apply_post_run, apply_pre_run
from repro.runtime.shard import ShardResult, run_shard

DEFAULT_MAX_RETRIES = KNOBS["max_shard_retries"].default
DEFAULT_BACKOFF_BASE_S = KNOBS["retry_backoff_s"].default
DEFAULT_BACKOFF_MAX_S = 2.0
DEFAULT_POLL_INTERVAL_S = 0.02
#: Grace period for a worker to exit after delivering its result.
_REAP_TIMEOUT_S = 5.0


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/timeout policy of the supervised dispatcher.

    Attributes:
        max_retries: Re-attempts per shard after its first failure.
        shard_timeout_s: Wall-clock budget per shard attempt; ``None``
            disables hang detection.
        backoff_base_s: First retry delay; attempt ``k`` waits
            ``backoff_base_s * 2**k`` (bounded by ``backoff_max_s``).
        backoff_max_s: Upper bound on any single backoff delay.
        poll_interval_s: Supervisor polling granularity.
        in_process_fallback: Run a shard's final attempt in the parent
            process when the retry budget is exhausted instead of
            failing the campaign.
    """

    max_retries: int = DEFAULT_MAX_RETRIES
    shard_timeout_s: float | None = None
    backoff_base_s: float = DEFAULT_BACKOFF_BASE_S
    backoff_max_s: float = DEFAULT_BACKOFF_MAX_S
    poll_interval_s: float = DEFAULT_POLL_INTERVAL_S
    in_process_fallback: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ConfigurationError(
                f"shard_timeout_s must be positive, got {self.shard_timeout_s}"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigurationError("backoff delays must be >= 0")

    def backoff_s(self, attempt: int) -> float:
        """Delay before re-running a shard that failed ``attempt``."""
        return min(self.backoff_base_s * (2.0**attempt), self.backoff_max_s)

    @classmethod
    def from_config(cls, config=None) -> "SupervisorPolicy":
        """The policy of a ``CampaignConfig``'s ``max_shard_retries``,
        ``shard_timeout_s`` and ``retry_backoff_s`` knobs (DESIGN.md §5)."""
        return cls(
            max_retries=resolve(
                "max_shard_retries", getattr(config, "max_shard_retries", None)
            ),
            shard_timeout_s=resolve(
                "shard_timeout_s", getattr(config, "shard_timeout_s", None)
            ),
            backoff_base_s=resolve(
                "retry_backoff_s", getattr(config, "retry_backoff_s", None)
            ),
        )


@dataclass(frozen=True)
class ShardFailure:
    """One failed shard attempt, as the supervisor observed it.

    Attributes:
        shard_id: The shard that failed.
        attempt: 0-based attempt number that failed.
        kind: ``"crash"`` (abnormal worker exit), ``"timeout"`` (hang
            killed by the deadline), ``"corrupt"`` (result failed
            validation), or ``"error"`` (worker raised an exception).
        detail: Human-readable diagnosis.
        elapsed_s: Attempt wall-clock until the failure was observed.
        exitcode: Worker exit status, when a process was involved.
    """

    shard_id: int
    attempt: int
    kind: str
    detail: str = ""
    elapsed_s: float = 0.0
    exitcode: int | None = None

    def describe(self) -> str:
        """Compact one-line rendering for logs and summaries."""
        extra = f" exit={self.exitcode}" if self.exitcode is not None else ""
        detail = f": {self.detail}" if self.detail else ""
        return (
            f"shard {self.shard_id} attempt {self.attempt} "
            f"{self.kind}{extra} after {self.elapsed_s:.2f}s{detail}"
        )


def validate_shard_result(result, shard_id: int, user_indices) -> str | None:
    """Why a worker's returned result is unusable, or ``None`` if fine.

    A valid result is a :class:`ShardResult` carrying the shard id it
    was assigned and covering *exactly* the assigned user indices — the
    per-attempt half of the partition invariant the sink enforces
    campaign-wide.
    """
    if not isinstance(result, ShardResult):
        return f"expected a shard result, got {type(result).__name__}"
    if result.shard_id != shard_id:
        return f"shard id mismatch: assigned {shard_id}, got {result.shard_id}"
    expected = set(user_indices)
    got = set(result.user_indices)
    if got != expected:
        missing = sorted(expected - got)
        surplus = sorted(got - expected)
        return (
            f"user-index set mismatch (missing {missing}, surplus {surplus})"
        )
    return None


def straggler_deadline_s(
    durations_s,
    percentile: float = 95.0,
    multiplier: float = 3.0,
    floor_s: float = 1.0,
    min_samples: int = 3,
) -> float | None:
    """Percentile-based per-shard deadline from observed durations.

    The fabric coordinator (and any future adaptive timeout policy)
    calls this with the wall-clock durations of shards that already
    completed: a shard still held past ``multiplier`` times the
    ``percentile``-th duration is a straggler worth re-dispatching.
    Returns ``None`` until ``min_samples`` durations exist — with too
    few samples any deadline is noise, and a premature revocation
    would churn a healthy fleet.  ``floor_s`` bounds the deadline from
    below so uniformly tiny shards don't produce a hair-trigger.
    """
    if multiplier <= 0:
        raise ConfigurationError(
            f"straggler multiplier must be positive, got {multiplier}"
        )
    if not 0.0 < percentile <= 100.0:
        raise ConfigurationError(
            f"straggler percentile must be in (0, 100], got {percentile}"
        )
    samples = [float(d) for d in durations_s]
    if len(samples) < max(1, min_samples):
        return None
    reference = float(np.percentile(np.asarray(samples), percentile))
    return max(float(floor_s), multiplier * reference)


def _supervised_worker(conn, task, attempt, fault_plan) -> None:
    """Worker-process entry point (top-level so ``spawn`` can pickle it).

    Applies any injected fault for ``(shard_id, attempt)``, runs the
    shard (``run_shard(*task)``), and ships ``("ok", result)`` or
    ``("error", detail)`` back over the pipe.  A crash fault exits before sending anything — exactly what a
    real abnormal death looks like from the parent.
    """
    shard_id = task[1]
    fault = fault_plan.fault_for(shard_id, attempt) if fault_plan else None
    try:
        apply_pre_run(fault)
        result = run_shard(*task)
        result = apply_post_run(fault, result)
        conn.send(("ok", result))
    except BaseException as exc:  # the parent retries; report, don't die silently
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (OSError, ValueError):
            pass
    finally:
        conn.close()


@dataclass
class _InFlight:
    """Book-keeping for one running shard attempt."""

    process: multiprocessing.process.BaseProcess
    task: tuple
    attempt: int
    started: float
    deadline: float | None


def supervise_shards(
    tasks,
    n_workers: int,
    policy: SupervisorPolicy | None = None,
    context=None,
    fault_plan: FaultPlan | None = None,
    on_success=None,
    on_event=None,
    should_stop=None,
) -> tuple[list[ShardResult], list[ShardFailure]]:
    """Run shard tasks under supervision; returns (results, failures).

    Args:
        tasks: :func:`run_shard` argument tuples — ``(config,
            shard_id, user_indices)``; the shard id and its user
            indices are the supervisor's book-keeping keys.
        n_workers: Concurrency cap; the supervisor never has more than
            ``min(n_workers, len(tasks))`` worker processes alive.
        policy: Retry/timeout policy (default: ``SupervisorPolicy()``).
        context: Multiprocessing context (start method) to spawn
            workers with; default: the interpreter default.
        fault_plan: Optional deterministic fault injection, applied in
            workers only (see :mod:`repro.runtime.faults`).
        on_success: Callback invoked with each completed shard
            result as soon as it is accepted — the checkpoint spill
            hook, called before slower shards finish so a later kill
            loses as little as possible.
        on_event: Progress-callback seam: invoked with one small dict
            per lifecycle transition — ``shard_dispatched`` /
            ``shard_completed`` / ``shard_failed`` /
            ``shard_degraded`` — as it happens (see DESIGN.md §12).
            Called on the supervising thread; must be cheap and must
            not raise.
        should_stop: Cancellation seam: a zero-argument callable
            polled once per dispatch cycle.  When it returns true the
            supervisor terminates every in-flight worker, abandons the
            pending queue and raises :class:`CampaignCancelledError`
            — results accepted so far were already handed to
            ``on_success``, so a checkpointed run resumes from them.

    Raises:
        ShardFailedError: A shard exhausted ``max_retries`` and the
            policy forbids the in-process fallback.  Every *other*
            shard is still driven to completion (and checkpointed via
            ``on_success``) first, so a resume re-runs only what's
            missing.
        CampaignCancelledError: ``should_stop`` fired mid-run.
    """
    policy = policy if policy is not None else SupervisorPolicy()
    context = context if context is not None else multiprocessing.get_context()
    results: dict[int, ShardResult] = {}
    failures: list[ShardFailure] = []
    exhausted: list[tuple] = []
    if not tasks:
        return [], []
    max_parallel = max(1, min(n_workers, len(tasks)))
    #: (task, attempt, not-before monotonic time) — backoff without
    #: blocking the whole dispatcher.
    pending: list[tuple[tuple, int, float]] = [(task, 0, 0.0) for task in tasks]
    running: dict = {}

    def emit(event_type: str, **data) -> None:
        if on_event is not None:
            on_event({"type": event_type, **data})

    def cancelled() -> bool:
        return should_stop is not None and should_stop()

    def raise_cancelled() -> None:
        raise CampaignCancelledError(
            f"campaign cancelled with {len(results)}/{len(tasks)} "
            "shards complete",
            completed_shards=len(results),
            n_shards=len(tasks),
        )

    def accept(result: ShardResult) -> None:
        results[result.shard_id] = result
        if on_success is not None:
            on_success(result)
        stats = getattr(result, "stats", None)
        emit(
            "shard_completed",
            shard_id=result.shard_id,
            attempts=getattr(stats, "attempts", 1),
            n_page_loads=getattr(stats, "n_page_loads", 0),
            n_speedtests=getattr(stats, "n_speedtests", 0),
            wall_s=getattr(stats, "wall_s", 0.0),
        )

    def fail(task, attempt: int, failure: ShardFailure) -> None:
        failures.append(failure)
        will_retry = attempt < policy.max_retries
        emit(
            "shard_failed",
            shard_id=failure.shard_id,
            attempt=failure.attempt,
            kind=failure.kind,
            detail=failure.detail,
            will_retry=will_retry,
        )
        if will_retry:
            ready_at = time.monotonic() + policy.backoff_s(attempt)
            pending.append((task, attempt + 1, ready_at))
        else:
            exhausted.append(task)

    def reap(process) -> None:
        process.join(timeout=_REAP_TIMEOUT_S)
        if process.is_alive():
            process.kill()
            process.join(timeout=_REAP_TIMEOUT_S)

    def launch(task, attempt: int) -> None:
        recv_conn, send_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_supervised_worker,
            args=(send_conn, task, attempt, fault_plan),
            daemon=True,
        )
        process.start()
        # The child owns the send end; drop ours or EOF never arrives.
        send_conn.close()
        now = time.monotonic()
        deadline = (
            now + policy.shard_timeout_s
            if policy.shard_timeout_s is not None
            else None
        )
        running[recv_conn] = _InFlight(process, task, attempt, now, deadline)
        emit("shard_dispatched", shard_id=task[1], attempt=attempt)

    try:
        while pending or running:
            if cancelled():
                raise_cancelled()
            now = time.monotonic()
            launchable = [
                entry for entry in pending if entry[2] <= now
            ]
            for entry in launchable:
                if len(running) >= max_parallel:
                    break
                pending.remove(entry)
                launch(entry[0], entry[1])
            if running:
                ready = multiprocessing.connection.wait(
                    list(running), timeout=policy.poll_interval_s
                )
            else:
                ready = []
                # Everything is backing off; sleep until the earliest
                # retry becomes launchable.
                wake = min(entry[2] for entry in pending)
                time.sleep(max(0.0, min(wake - now, policy.backoff_max_s)))
            for conn in ready:
                inflight = running.pop(conn)
                task = inflight.task
                shard_id, user_indices = task[1], task[2]
                elapsed = time.monotonic() - inflight.started
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError):
                    status, payload = None, None
                reap(inflight.process)
                conn.close()
                if status == "ok":
                    problem = validate_shard_result(payload, shard_id, user_indices)
                    if problem is None:
                        payload.stats.attempts = inflight.attempt + 1
                        accept(payload)
                    else:
                        fail(
                            task,
                            inflight.attempt,
                            ShardFailure(
                                shard_id=shard_id,
                                attempt=inflight.attempt,
                                kind="corrupt",
                                detail=problem,
                                elapsed_s=elapsed,
                                exitcode=inflight.process.exitcode,
                            ),
                        )
                elif status == "error":
                    fail(
                        task,
                        inflight.attempt,
                        ShardFailure(
                            shard_id=shard_id,
                            attempt=inflight.attempt,
                            kind="error",
                            detail=str(payload),
                            elapsed_s=elapsed,
                            exitcode=inflight.process.exitcode,
                        ),
                    )
                else:  # EOF without a message: the worker died abruptly
                    fail(
                        task,
                        inflight.attempt,
                        ShardFailure(
                            shard_id=shard_id,
                            attempt=inflight.attempt,
                            kind="crash",
                            detail="worker exited without a result",
                            elapsed_s=elapsed,
                            exitcode=inflight.process.exitcode,
                        ),
                    )
            now = time.monotonic()
            for conn, inflight in list(running.items()):
                timed_out = (
                    inflight.deadline is not None and now >= inflight.deadline
                )
                died_silently = not inflight.process.is_alive() and not conn.poll()
                if not timed_out and not died_silently:
                    continue
                running.pop(conn)
                if timed_out:
                    inflight.process.terminate()
                reap(inflight.process)
                conn.close()
                task = inflight.task
                fail(
                    task,
                    inflight.attempt,
                    ShardFailure(
                        shard_id=task[1],
                        attempt=inflight.attempt,
                        kind="timeout" if timed_out else "crash",
                        detail=(
                            f"shard exceeded {policy.shard_timeout_s}s; "
                            "worker terminated"
                            if timed_out
                            else "worker exited without a result"
                        ),
                        elapsed_s=now - inflight.started,
                        exitcode=inflight.process.exitcode,
                    ),
                )
    finally:
        for conn, inflight in running.items():
            inflight.process.terminate()
            reap(inflight.process)
            conn.close()
        running.clear()

    if exhausted:
        exhausted.sort(key=lambda task: task[1])
        if not policy.in_process_fallback:
            shard_ids = [task[1] for task in exhausted]
            raise ShardFailedError(
                f"shard(s) {shard_ids} exhausted {policy.max_retries} "
                f"retries; failure log: "
                + "; ".join(f.describe() for f in failures),
                failures=failures,
            )
        for task in exhausted:
            if cancelled():
                raise_cancelled()
            # Graceful degradation: final attempt in-process, faults
            # bypassed.  Determinism makes this bit-identical to what
            # a healthy worker would have produced.
            emit("shard_degraded", shard_id=task[1])
            result = run_shard(*task)
            result.stats.attempts = policy.max_retries + 2
            accept(result)
    return [results[shard_id] for shard_id in sorted(results)], failures
