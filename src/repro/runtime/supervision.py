"""The one multi-process placement: local fabric workers for a plan.

:func:`supervise_shards` puts a campaign's planned shards on local
worker processes — the one code path that starts campaign worker
processes.  ``run_campaign`` (more than one shard) and
``run_fabric_campaign`` both call it.  It publishes the plan in a
fabric directory (or adopts the plan and valid manifests already
there), keeps up to ``min(n_workers, unfinished shards)`` local fabric
workers alive (:class:`LocalWorkers`), drives the
:class:`~repro.runtime.fabric.FabricCoordinator` and tears the workers
down however the run ends.  Every multi-process run therefore has one
fault model and one re-dispatch budget (see :mod:`repro.runtime.fabric`),
and records itself through the coordinator's
:class:`~repro.runtime.shard.RunLog` into the directory's ``log.jsonl``,
the run log an in-process run with a checkpoint directory writes too.

Recovery is *provably correct*: every record is a pure function of
``(CampaignConfig, user)`` (DESIGN.md §6), so a re-dispatched attempt
recomputes bit-identical records, and any fault schedule the
coordinator survives yields the fault-free dataset.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
import time

from repro.errors import ConfigurationError
from repro.knobs import resolve
from repro.runtime.fabric import (
    WORKERS_PREFIX,
    FabricCoordinator,
    _fabric_worker_entry,
    reset_fabric_dir,
)
from repro.runtime.lease import WorkerRegistry, default_worker_id
from repro.runtime.store import FsStore

#: How long torn-down workers get to see the terminal marker and exit
#: before they are terminated.
_EXIT_GRACE_S = 2.0


def mp_context(config):
    """The multiprocessing context of a campaign's ``mp_start_method``
    knob (DESIGN.md §5)."""
    return multiprocessing.get_context(
        resolve("mp_start_method", config.mp_start_method)
    )


class LocalWorkers:
    """The fabric worker processes one coordinator runs on its host.

    The coordinator starts them once its adopted shards are known,
    reads a dead one's exit code from its process handle, terminates
    one past the deadline, and starts a replacement for either while
    shards remain.  A worker that died or was terminated is signed off
    in the registry (:meth:`sign_off`).
    """

    def __init__(
        self, fabric_dir, n_workers, context, heartbeat_interval_s, fault_plan
    ):
        self.n_workers = n_workers
        self._args = (fabric_dir, heartbeat_interval_s, fault_plan)
        self._store = FsStore(fabric_dir)
        self._context = context
        self._prefix = default_worker_id()
        self._processes: dict = {}
        #: Processes of the first start: the run's concurrency.
        self.n_initial = 0

    @property
    def n_started(self) -> int:
        return len(self._processes)

    def start(self, n: int) -> list[str]:
        """Start ``n`` more worker processes; returns their ids."""
        fabric_dir, heartbeat_interval_s, fault_plan = self._args
        if not self._processes:
            self.n_initial = n
        started = []
        for _ in range(n):
            worker_id = f"{self._prefix}-w{len(self._processes)}"
            process = self._context.Process(
                target=_fabric_worker_entry,
                args=(fabric_dir, worker_id, heartbeat_interval_s, fault_plan),
                daemon=True,
            )
            process.start()
            self._processes[worker_id] = process
            started.append(worker_id)
        return started

    def owns(self, worker_id: str) -> bool:
        return worker_id in self._processes

    def exitcode(self, worker_id: str) -> int | None:
        """A local worker's exit status; ``None`` while it runs."""
        return self._processes[worker_id].exitcode

    def n_alive(self) -> int:
        return sum(process.is_alive() for process in self._processes.values())

    def terminate(self, worker_id: str) -> None:
        _terminate(self._processes[worker_id])
        self.sign_off(worker_id)

    def sign_off(self, worker_id: str) -> None:
        """Write a dead worker's registry document ``exited``, with its
        exit code: a worker that crashed or was terminated cannot, and
        would show ``running`` in :func:`~repro.runtime.fabric.fabric_status`
        forever."""
        WorkerRegistry.sign_off(
            self._store, worker_id, self.exitcode(worker_id), prefix=WORKERS_PREFIX
        )

    def stop(self) -> None:
        """Let the workers exit on the terminal marker, then terminate
        any still alive (e.g. one asleep in an injected fault)."""
        deadline = time.monotonic() + _EXIT_GRACE_S
        for process in self._processes.values():
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker_id, process in self._processes.items():
            if process.is_alive():
                self.terminate(worker_id)


def _terminate(process) -> None:
    process.terminate()
    process.join(timeout=5.0)
    if process.is_alive():
        process.kill()
        process.join(timeout=5.0)


def supervise_shards(
    config,
    shards,
    n_workers: int,
    fabric_dir: str | None = None,
    *,
    resume: bool = True,
    fault_plan=None,
    heartbeat_interval_s: float | None = None,
    on_event=None,
    on_result=None,
    should_stop=None,
    **coordinator_options,
):
    """Run planned shards on local fabric workers; returns ``(dataset,
    CampaignRunStats)``, the stats keeping the run's log.

    Args:
        config: The campaign's
            :class:`~repro.extension.campaign.CampaignConfig`; its
            ``mp_start_method`` starts the workers and its
            ``max_shard_retries``, ``retry_backoff_s`` and
            ``shard_timeout_s`` knobs steer recovery.
        shards: The planned partition, ``(shard_id, user_indices)``
            pairs (:func:`~repro.runtime.shard.plan_campaign`).
        n_workers: Local worker processes to keep alive (0: none —
            workers on other hosts do the work, so ``fabric_dir`` must
            be given).
        fabric_dir: The fabric directory; ``None`` uses a temporary one,
            removed however the run ends.
        resume: Adopt the directory's plan and valid manifests (they
            count as resumed shards); false starts its fabric state
            afresh and recomputes every shard.
        fault_plan: Deterministic fault injection for chaos tests
            (:mod:`repro.runtime.faults`), applied in the workers.
        heartbeat_interval_s: Workers' lease heartbeat period (default:
            a third of the lease TTL).
        on_event: Invoked with every run-log record as it is logged.
        on_result: Invoked with every accepted shard result, resumed
            ones first.
        should_stop: Cancellation seam polled every coordinator cycle.
        coordinator_options: Lease TTL and straggler floor of the
            :class:`~repro.runtime.fabric.FabricCoordinator`.

    Raises:
        ConfigurationError: ``n_workers`` is 0 and no ``fabric_dir`` is
            given: no worker could ever find the temporary directory.
        ShardFailedError: a shard used up its re-dispatch budget; every
            other shard was accepted and stored first.
        CampaignCancelledError: ``should_stop`` fired mid-run.
    """
    created = fabric_dir is None
    if created and n_workers == 0:
        raise ConfigurationError(
            "a coordinator-only run (n_workers=0) needs a fabric_dir that "
            "workers can join"
        )
    if created:
        fabric_dir = tempfile.mkdtemp(prefix="repro-fabric-")
    elif not resume:
        reset_fabric_dir(fabric_dir)
    workers = LocalWorkers(
        fabric_dir, n_workers, mp_context(config), heartbeat_interval_s, fault_plan
    )
    try:
        coordinator = FabricCoordinator(
            config, fabric_dir, shards=shards, on_event=on_event, **coordinator_options
        )
        return coordinator.run(
            on_result=on_result, should_stop=should_stop, local_workers=workers
        )
    finally:
        workers.stop()
        if created:
            shutil.rmtree(fabric_dir, ignore_errors=True)
