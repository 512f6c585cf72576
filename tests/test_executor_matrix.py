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

Both placements keep a campaign's shard segments in one directory,
``<checkpoint_dir>/campaign-<fp16>/segments/``; the layout tests at the
end check that directory across placements, and that directories
written in the earlier layouts recompute.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.errors import CampaignCancelledError, ShardFailedError
from repro.extension.campaign import CampaignConfig, ExtensionCampaign
from repro.runtime import campaign_fingerprint, crash_plan, run_campaign
from repro.runtime.checkpoint import campaign_dir

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
        assert [s.attempts for s in stats.shards] == [2, 2]
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


# -- the on-disk layout ----------------------------------------------------


def _layout_config(n_workers, root):
    return CampaignConfig(
        **TINY, n_workers=n_workers, checkpoint_dir=str(root), **RECOVERY
    )


def _files(root):
    """Every file under ``root``, as sorted relative paths."""
    return sorted(
        os.path.relpath(os.path.join(parent, name), root)
        for parent, _, names in os.walk(root)
        for name in names
    )


def _assert_oracle(dataset, oracle):
    assert dataset.page_loads == oracle[0]
    assert dataset.speedtests == oracle[1]


def test_every_placement_keeps_segments_in_one_directory(oracle, tmp_path):
    """A one-worker and a two-worker run of one campaign, each followed
    by a resumed run, share ``campaign-<fp16>/segments/``: every shard
    segment lands there, no ``meta.json`` is written, and each resumed
    run adopts every shard and equals the oracle."""
    root = tmp_path / "ckpt"
    for n_workers in (1, N_WORKERS):
        config = _layout_config(n_workers, root)
        run_campaign(config)
        dataset, stats = run_campaign(config, resume=True)
        assert stats.resumed_shards == len(stats.shards) == n_workers
        _assert_oracle(dataset, oracle)
    campaign = os.path.basename(campaign_dir(config))
    assert os.listdir(root) == [campaign]
    files = _files(root)
    assert [f for f in files if f.endswith(".ckpt")] == [
        os.path.join(campaign, "segments", f"shard-{i:04d}.ckpt")
        for i in range(N_WORKERS)
    ]
    assert "meta.json" not in {os.path.basename(f) for f in files}
    nested = os.listdir(root / campaign / "segments")
    assert not [name for name in nested if name.startswith("campaign-")]


def test_resume_over_another_placements_segments(oracle, tmp_path):
    """A resume adopts the segments of its own partition and recomputes
    the rest: a one-worker resume over a two-worker run's segments
    recomputes (and overwrites shard 0), and a two-worker resume then
    quarantines the manifest's overwritten segment and recomputes only
    that shard, recording no failure: no attempt of the resume failed."""
    root = tmp_path / "ckpt"
    run_campaign(_layout_config(N_WORKERS, root))
    dataset, stats = run_campaign(_layout_config(1, root), resume=True)
    assert stats.resumed_shards == 0
    _assert_oracle(dataset, oracle)
    dataset, stats = run_campaign(_layout_config(N_WORKERS, root), resume=True)
    _assert_oracle(dataset, oracle)
    assert [s.shard_id for s in stats.shards if s.resumed] == [1]
    assert stats.failures == []
    (quarantined,) = stats.transitions("segment_quarantined")
    assert quarantined["segment"] == os.path.join(
        "quarantine", "shard-0000.ckpt.attempt-0"
    )


def test_old_layouts_recompute(oracle, tmp_path):
    """Directories in the earlier layouts — an in-process checkpoint
    beside its ``meta.json``, and a fabric directory whose segments sit
    in ``segments/campaign-<fp16>/`` — hold no segment where the runs
    look, so a resumed run over either recomputes every shard, raises
    nothing, records no failure and equals the oracle."""
    # The in-process layout: campaign-<fp16>/{meta.json, shard-0000.ckpt}.
    config = _layout_config(1, tmp_path / "serial")
    run_campaign(config)
    directory = campaign_dir(config)
    os.replace(
        os.path.join(directory, "segments", "shard-0000.ckpt"),
        os.path.join(directory, "shard-0000.ckpt"),
    )
    os.rmdir(os.path.join(directory, "segments"))
    meta = {"fingerprint": campaign_fingerprint(config)}
    with open(os.path.join(directory, "meta.json"), "w", encoding="utf-8") as handle:
        json.dump(meta | {"config": config.to_json_dict()}, handle)
    dataset, stats = run_campaign(config, resume=True)
    assert stats.resumed_shards == 0
    _assert_oracle(dataset, oracle)

    # The fabric layout: segments/campaign-<fp16>/shard-NNNN.ckpt, named
    # so by the manifests.
    config = _layout_config(N_WORKERS, tmp_path / "fabric")
    run_campaign(config)
    directory = campaign_dir(config)
    nested = os.path.join("segments", os.path.basename(directory))
    os.mkdir(os.path.join(directory, nested))
    for shard_id in range(N_WORKERS):
        name = f"shard-{shard_id:04d}"
        os.replace(
            os.path.join(directory, "segments", f"{name}.ckpt"),
            os.path.join(directory, nested, f"{name}.ckpt"),
        )
        manifest = os.path.join(directory, "manifests", f"{name}.json")
        with open(manifest, encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["segment"] == os.path.join("segments", f"{name}.ckpt")
        doc["segment"] = os.path.join(nested, f"{name}.ckpt")
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    dataset, stats = run_campaign(config, resume=True)
    assert stats.resumed_shards == 0
    assert stats.failures == []
    _assert_oracle(dataset, oracle)


def test_resume_does_not_charge_segments_it_cannot_adopt(oracle, tmp_path):
    """A segment an earlier run wrote that the resume cannot adopt costs
    no re-dispatch: with a budget of 0, a two-worker resume over a
    one-worker run's overwritten shard 0 quarantines the segment,
    recomputes the shard and completes."""
    root = tmp_path / "ckpt"
    run_campaign(_layout_config(N_WORKERS, root))
    run_campaign(_layout_config(1, root))  # overwrites shard-0000.ckpt
    config = replace(_layout_config(N_WORKERS, root), max_shard_retries=0)
    dataset, stats = run_campaign(config, resume=True)
    _assert_oracle(dataset, oracle)
    assert stats.n_failures == 0
    assert stats.redispatched_shards == 0
    assert [e["shard_id"] for e in stats.transitions("segment_quarantined")] == [0]
    assert [s.shard_id for s in stats.shards if s.resumed] == [1]


# -- the run log -----------------------------------------------------------

#: The keys of every run's first record, in either placement.
PLANNED_KEYS = {
    "type",
    "t",
    "n_shards",
    "n_users",
    "n_workers",
    "fingerprint",
    "placement",
}

TERMINAL = ("campaign_completed", "campaign_cancelled", "campaign_failed")


def _log_lines(config):
    path = os.path.join(campaign_dir(config), "log.jsonl")
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _check_log(events, placement, terminal="campaign_completed"):
    """One run's log: timestamped records in order, ``campaign_planned``
    first, one terminal record last."""
    assert all(isinstance(e["type"], str) for e in events)
    times = [e["t"] for e in events]
    assert all(isinstance(t, float) for t in times)
    assert times == sorted(times)
    planned = events[0]
    assert planned["type"] == "campaign_planned"
    assert set(planned) == PLANNED_KEYS
    assert planned["placement"] == placement
    assert [e["type"] for e in events if e["type"] in TERMINAL] == [terminal]
    assert events[-1]["type"] == terminal
    return planned


def test_run_log_is_one_record_for_every_placement(oracle, tmp_path):
    """A one-worker run, its resume, a two-worker run with a crash and
    its resume each leave one run log: the same first record in both
    placements, one terminal record last, every record appended to the
    campaign directory's ``log.jsonl`` (a resume appends, a fresh run
    starts the file), and the stats' counts read off it."""
    root = tmp_path / "ckpt"
    runs = [
        (1, False, None),
        (1, True, None),
        (N_WORKERS, False, crash_plan([0])),
        (N_WORKERS, True, None),
    ]
    first_records = []
    for n_workers, resume, fault_plan in runs:
        config = _layout_config(n_workers, root)
        kept = _log_lines(config) if resume else []
        dataset, stats = run_campaign(config, resume=resume, fault_plan=fault_plan)
        _assert_oracle(dataset, oracle)
        placement = "in-process" if n_workers == 1 else "fabric"
        first_records.append(_check_log(stats.events, placement))
        assert _log_lines(config) == kept + stats.events
        assert stats.n_shards == n_workers
        if resume:
            assert stats.resumed_shards == stats.n_shards
            assert stats.n_failures == 0
        elif fault_plan is not None:
            assert stats.redispatched_shards == 1
            assert stats.stolen_shards == 1
            assert stats.n_failures == 1
            assert [(f.shard_id, f.kind) for f in stats.failures] == [(0, "crash")]
        else:
            assert stats.n_failures == 0 and stats.resumed_shards == 0
        assert ("[fabric: " in stats.summary()) == (placement == "fabric")
    n_users = len(ExtensionCampaign(config).population.users)
    assert {(r["n_users"], r["fingerprint"]) for r in first_records} == {
        (n_users, campaign_fingerprint(config))
    }


def test_in_process_log_ends_in_one_terminal_record(tmp_path):
    """An in-process run that is cancelled, or whose shard fails, still
    ends its log with its one terminal record, in ``log.jsonl`` too."""
    config = _layout_config(1, tmp_path / "ckpt")
    events = []
    with pytest.raises(CampaignCancelledError):
        run_campaign(config, on_event=events.append, should_stop=lambda: True)
    _check_log(events, "in-process", "campaign_cancelled")
    assert _log_lines(config) == events

    def fail(result):
        raise RuntimeError("sink down")

    events = []
    with pytest.raises(RuntimeError, match="sink down"):
        run_campaign(config, on_event=events.append, on_result=fail)
    _check_log(events, "in-process", "campaign_failed")
    assert events[-1]["reason"] == "sink down"
    assert _log_lines(config) == events
