"""The knob table: one precedence rule, one check, both CLIs.

Every execution knob is a row of :data:`repro.knobs.KNOBS` and resolves
explicit value > ``REPRO_*`` variable > default.  Parametrized over
the rows, these tests pin that rule, the row checks (a bad variable
is named in the error), that every flag both CLIs build from the table
reaches the resolver, and that each consumer reads its knob through
it.
"""

import dataclasses
import os

import pytest

from repro import knobs
from repro.errors import ConfigurationError
from repro.extension.campaign import CampaignConfig

ROWS = list(knobs.KNOBS.values())
ENV_ROWS = [knob for knob in ROWS if knob.env]
FLAG_ROWS = [knob for knob in ROWS if knob.flag]
RUN_FLAG_ROWS = [knob for knob in FLAG_ROWS if knob.scope == "run"]

#: One allowed, non-default value per knob.
SAMPLES = {
    "n_workers": 3,
    "precompute_timelines": True,
    "checkpoint_dir": "ckpt-root",
    "resume": True,
    "max_shard_retries": 5,
    "shard_timeout_s": 9.5,
    "retry_backoff_s": 0.25,
    "mp_start_method": "spawn",
    "storage": "spill",
    "storage_dir": "segments",
    "storage_segment_records": 512,
    "engine": "batch",
    "analytics": "streaming",
    "fabric_store": "object",
    "object_list_lag_s": 0.25,
}

#: A value each knob's row refuses (directory knobs take any string).
BAD = {
    "n_workers": 0,
    "resume": "maybe",
    "max_shard_retries": -1,
    "shard_timeout_s": 0.0,
    "retry_backoff_s": -0.5,
    "mp_start_method": "threads",
    "storage": "cloud",
    "storage_segment_records": 0,
    "engine": "warp",
    "analytics": "auto",
    "fabric_store": "s3",
    "object_list_lag_s": -1.0,
}
BAD_ENV_ROWS = [knob for knob in ENV_ROWS if knob.name in BAD]
BAD_EXPLICIT_ROWS = [k for k in ROWS if k.name in BAD and k.kind is not bool]


def _ids(rows):
    return [knob.name for knob in rows]


def _default(knob):
    return knob.default() if callable(knob.default) else knob.default


def _other(knob):
    """An allowed value different from the knob's sample."""
    sample = SAMPLES[knob.name]
    if knob.allowed:
        return next(value for value in knob.allowed if value != sample)
    if knob.kind is bool:
        return not sample
    if knob.kind is str:
        return sample + "-explicit"
    return sample * 2


@pytest.fixture
def clean_env(monkeypatch):
    """Every knob variable unset, and restored after the test however
    the code under test wrote it."""
    for knob in ENV_ROWS:
        monkeypatch.setenv(knob.env, "x")
        monkeypatch.delenv(knob.env)


def test_every_row_has_a_sample():
    assert set(SAMPLES) == set(knobs.KNOBS)
    for knob in ROWS:
        assert knob.check(SAMPLES[knob.name]) == SAMPLES[knob.name]
        assert SAMPLES[knob.name] != _default(knob)


# -- one precedence rule ---------------------------------------------------


@pytest.mark.parametrize("knob", ROWS, ids=_ids(ROWS))
def test_precedence(knob, clean_env, monkeypatch):
    """explicit > variable > default; an empty variable is unset."""
    default = _default(knob)
    assert knobs.resolve(knob.name) == default
    sample = SAMPLES[knob.name]
    if knob.env:
        monkeypatch.setenv(knob.env, "")
        assert knobs.resolve(knob.name) == default
        monkeypatch.setenv(knob.env, knob.render(sample))
        assert knobs.resolve(knob.name) == sample
    explicit = _other(knob)
    assert knobs.resolve(knob.name, explicit) == explicit


@pytest.mark.parametrize("knob", BAD_ENV_ROWS, ids=_ids(BAD_ENV_ROWS))
def test_bad_env_value_names_the_variable(knob, clean_env, monkeypatch):
    monkeypatch.setenv(knob.env, str(BAD[knob.name]))
    with pytest.raises(ConfigurationError, match=knob.env):
        knobs.resolve(knob.name)


@pytest.mark.parametrize("knob", BAD_EXPLICIT_ROWS, ids=_ids(BAD_EXPLICIT_ROWS))
def test_bad_explicit_value_names_the_knob(knob, clean_env):
    bad = BAD[knob.name]
    with pytest.raises(ConfigurationError, match=knob.name):
        knobs.resolve(knob.name, bad)
    if knob.config_field:
        with pytest.raises(ConfigurationError, match=knob.name):
            CampaignConfig(**{knob.name: bad})
        with pytest.raises(ConfigurationError, match=knob.name):
            CampaignConfig.from_json_dict({knob.name: bad})


def test_config_fields_are_the_table_rows():
    """The config carries exactly the table's config-field knobs, with
    the same plain defaults, and the fingerprint excludes them."""
    from repro.runtime.checkpoint import campaign_fingerprint

    fields = {f.name: f for f in dataclasses.fields(CampaignConfig)}
    assert len(fields) == 19
    assert "engine" not in fields
    rows = {knob.name for knob in ROWS if knob.config_field}
    assert knobs.EXECUTION_ONLY_FIELDS == rows
    assert CampaignConfig.execution_only_fields() == rows
    for name in rows:
        assert fields[name].default in (None, knobs.KNOBS[name].default), name
    base = CampaignConfig(seed=3)
    tweaked = CampaignConfig(seed=3, **{name: SAMPLES[name] for name in rows})
    assert campaign_fingerprint(tweaked) == campaign_fingerprint(base)


# -- both CLIs build their flags from the table -----------------------------


def _argv(knob):
    if knob.kind is bool:
        return [knob.flag]
    return [knob.flag, knob.render(SAMPLES[knob.name])]


@pytest.mark.parametrize("knob", FLAG_ROWS, ids=_ids(FLAG_ROWS))
def test_cli_flag_reaches_the_resolver(knob, clean_env, capsys):
    from repro.experiments.__main__ import main

    assert main([*_argv(knob), "--list"]) == 0
    assert knobs.resolve(knob.name) == SAMPLES[knob.name]


@pytest.mark.parametrize("knob", RUN_FLAG_ROWS, ids=_ids(RUN_FLAG_ROWS))
def test_report_flag_reaches_the_resolver(knob, clean_env, monkeypatch, tmp_path):
    from repro.experiments import report

    seen = {}

    def fake_generate(path, seed=0, n_workers=1):
        seen["value"] = knobs.resolve(knob.name)

    monkeypatch.setattr(report, "generate", fake_generate)
    assert report.main([*_argv(knob), "--out", str(tmp_path / "E.md")]) == 0
    assert seen["value"] == SAMPLES[knob.name]


def test_cli_refuses_an_out_of_bound_flag(clean_env, capsys):
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(["--max-retries", "-1", "--list"])
    assert exit_info.value.code == 2
    assert "max_shard_retries must be >= 0" in capsys.readouterr().err
    assert "REPRO_MAX_RETRIES" not in os.environ


def test_scoped_restores_the_environment(clean_env, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "event")
    with knobs.scoped({"engine": "batch", "analytics": None}):
        assert knobs.resolve("engine") == "batch"
        assert "REPRO_ANALYTICS" not in os.environ
    assert os.environ["REPRO_ENGINE"] == "event"
    with pytest.raises(ConfigurationError, match="engine"):
        with knobs.scoped({"engine": "warp"}):
            pass
    assert os.environ["REPRO_ENGINE"] == "event"


# -- each consumer reads its knob through the resolver ----------------------


def _config(**knob_fields):
    return CampaignConfig(seed=5, duration_s=86_400.0, **knob_fields)


def _start_method(value):
    from repro.runtime.pool import mp_context

    return mp_context(_config(mp_start_method=value)).get_start_method()


def _max_retries(value):
    from repro.runtime.supervision import SupervisorPolicy

    policy = SupervisorPolicy.from_config(_config(max_shard_retries=value))
    return policy.max_retries


def _shard_timeout(value):
    from repro.runtime.supervision import SupervisorPolicy

    policy = SupervisorPolicy.from_config(_config(shard_timeout_s=value))
    return policy.shard_timeout_s


def _checkpoint_root(value):
    from repro.runtime.checkpoint import CheckpointStore

    store = CheckpointStore.from_config(_config(checkpoint_dir=value))
    return os.path.dirname(store.directory)


def _storage(value):
    from repro.extension.backends import backend_for_config

    return backend_for_config(_config(storage=value)).name


def _storage_dir(value):
    from repro.extension.backends import backend_for_config

    config = _config(storage="spill", storage_dir=value)
    return backend_for_config(config).directory


def _engine(value):
    from repro.geo.cities import city
    from repro.starlink.access import AccessConfig, Scenario

    london, virginia = city("london").location, city("n_virginia").location
    scenario = Scenario.broadband(london, virginia, AccessConfig(engine=value))
    return scenario.build().engine


def _fabric_store(value):
    from repro.runtime.store import resolve_store_kind

    return resolve_store_kind("fabric", value)


def _list_lag(value):
    from repro.runtime.store import DirObjectStore

    return DirObjectStore("bucket", value).list_lag_s


#: Knob → its consumer, called with the explicit value (``None``:
#: unset) and returning the value the consumer ends up with.
CONSUMERS = {
    "mp_start_method": _start_method,
    "max_shard_retries": _max_retries,
    "shard_timeout_s": _shard_timeout,
    "checkpoint_dir": _checkpoint_root,
    "storage": _storage,
    "storage_dir": _storage_dir,
    "engine": _engine,
    "fabric_store": _fabric_store,
    "object_list_lag_s": _list_lag,
}


@pytest.mark.parametrize("name", sorted(CONSUMERS))
def test_consumer_reads_knob(name, clean_env, monkeypatch, tmp_path):
    """The variable reaches the consumer when its explicit value is
    unset, and an explicit value beats the variable."""
    knob = knobs.KNOBS[name]
    monkeypatch.chdir(tmp_path)  # directory knobs stay under tmp_path
    monkeypatch.setenv(knob.env, knob.render(SAMPLES[name]))
    assert CONSUMERS[name](None) == SAMPLES[name]
    assert CONSUMERS[name](_other(knob)) == _other(knob)


def test_fabric_sentinel_wins_over_the_variable(clean_env, monkeypatch, tmp_path):
    from repro.runtime.store import make_store, resolve_store_kind

    fabric_dir = str(tmp_path / "fabric")
    make_store(fabric_dir, "fs", create_sentinel=True)
    monkeypatch.setenv("REPRO_FABRIC_STORE", "object")
    assert resolve_store_kind(fabric_dir) == "fs"


def test_resume_false_field_defers_to_the_variable(clean_env, monkeypatch, tmp_path):
    """``resume`` is a plain bool field, so ``False`` counts as unset:
    ``REPRO_RESUME=1`` still resumes (the CLI's ``--resume``)."""
    from repro.runtime.pool import run_campaign

    config = CampaignConfig(
        seed=2,
        duration_s=86_400.0,
        request_fraction=0.05,
        cities=("london",),
        shell_planes=24,
        shell_sats_per_plane=12,
        checkpoint_dir=str(tmp_path),
    )
    first, stats = run_campaign(config)
    assert stats.resumed_shards == 0
    monkeypatch.setenv("REPRO_RESUME", "1")
    again, stats = run_campaign(config)
    assert stats.resumed_shards == 1
    assert again.page_loads == first.page_loads
    monkeypatch.setenv("REPRO_RESUME", "0")
    _, stats = run_campaign(dataclasses.replace(config, resume=True))
    assert stats.resumed_shards == 1
