"""One differential matrix over the campaign executor.

Every cell runs one campaign through one combination of

* placement — ``in-process`` (one shard) or ``processes`` (local
  fabric workers, the one multi-process placement);
* storage — the ``memory`` or ``spill`` backend the records land in;
* run — ``clean``, ``faulted`` (injected faults the runtime survives)
  or ``resumed`` (a run that adopts an earlier run's shards);

and checks its merged dataset against the serial oracle, bit for bit:
every user's records straight from :meth:`ExtensionCampaign.run_user`,
in population order, with no executor involved.  Cell ids read
``records-<placement>-<storage>-<run>``.

Faults are injected into worker processes, so an in-process run has
no faulted cell.
"""

from dataclasses import replace

import pytest

from repro.errors import ShardFailedError
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.runtime import crash_plan, run_campaign

TINY = dict(
    seed=11,
    duration_s=12 * 3600.0,
    request_fraction=0.03,
    speedtest_boost=300.0,
    cities=("london", "seattle"),
    shell_planes=24,
    shell_sats_per_plane=12,
    mp_start_method="fork",
)

#: Worker processes (and shards) of the multi-shard placements.
N_WORKERS = 2

#: Re-dispatches back off in milliseconds; the lost-shard run gives up
#: after one re-dispatch.
RECOVERY = dict(max_shard_retries=1, retry_backoff_s=0.01)

STORAGES = ("memory", "spill")
RUNS = ("clean", "faulted", "resumed")

CELLS = [
    (placement, storage, run)
    for placement in ("in-process", "processes")
    for storage in STORAGES
    for run in RUNS
    if not (placement == "in-process" and run == "faulted")
]


@pytest.fixture(scope="module")
def oracle():
    """The serial dataset, built user by user without the executor."""
    campaign = ExtensionCampaign(CampaignConfig(**TINY))
    page_loads, speedtests = [], []
    for user in campaign.population.users:
        user_page_loads, user_speedtests = campaign.run_user(user)
        page_loads.extend(user_page_loads)
        speedtests.extend(user_speedtests)
    assert page_loads and speedtests
    return page_loads, speedtests


def _config(placement, storage, tmp_path):
    return CampaignConfig(
        **TINY,
        n_workers=1 if placement == "in-process" else N_WORKERS,
        storage=storage,
        storage_dir=str(tmp_path / "segments") if storage == "spill" else None,
        storage_segment_records=64,
        checkpoint_dir=str(tmp_path / "ckpt"),
        **RECOVERY,
    )


def _run_records(placement, run, config, tmp_path):
    if run == "faulted":
        return run_campaign(config, fault_plan=crash_plan([0, 1]))
    if run == "resumed":
        if placement == "processes":
            # Killed after k of n shards: shard 1 crashes on every try.
            with pytest.raises(ShardFailedError):
                run_campaign(config, fault_plan=crash_plan([1], attempts=(0, 1)))
        else:
            run_campaign(_elsewhere(config, tmp_path))
        return run_campaign(config, resume=True)
    return run_campaign(config)


def _elsewhere(config, tmp_path):
    """The same campaign spilling its dataset to another directory."""
    if config.storage_dir is None:
        return config
    return replace(config, storage_dir=str(tmp_path / "first-segments"))


def _check_run(placement, run, stats):
    n_shards = 1 if placement == "in-process" else N_WORKERS
    assert len(stats.shards) == n_shards
    if run == "faulted":
        assert [f.kind for f in stats.failures] == ["crash", "crash"]
        assert stats.n_retried_shards == 2
    elif run == "resumed":
        rerun = [s.shard_id for s in stats.shards if not s.resumed]
        assert rerun == ([1] if placement == "processes" else [])
        assert stats.resumed_shards == n_shards - len(rerun)
        if placement == "processes":
            # Adopted shards need no worker: only the lost one is claimed.
            claimed = {e["shard_id"] for e in stats.transitions("lease_claimed")}
            assert claimed <= {1}
    else:
        assert stats.n_failures == 0 and stats.resumed_shards == 0


@pytest.mark.parametrize(
    "placement,storage,run",
    CELLS,
    ids=["-".join(("records",) + cell) for cell in CELLS],
)
def test_cell_matches_serial_oracle(oracle, tmp_path, placement, storage, run):
    config = _config(placement, storage, tmp_path)
    dataset, stats = _run_records(placement, run, config, tmp_path)
    assert dataset.storage == storage
    assert dataset.page_loads == oracle[0]
    assert dataset.speedtests == oracle[1]
    _check_run(placement, run, stats)
